"""Crossover of the threshold exponent curve for a classical instance.

For the state diag(0.75, 0.25) tested against IID copies of the maximally
mixed qubit, the quantity

    e_N(y) = min over free sigma of Tr[(rho^{xN} - 2^{yN} sigma)_+]

tends to 1 below the relative-entropy rate KL(rho || I/2) ~= 0.18872 and to
0 above it.  Because the family here is a single product state, the library
value can be checked line by line against an exact binomial sum.
"""

import math

import numpy as np

from qstein import opalg
from qstein.freesets import SingletonIIDFamily
from qstein.optim import SolverSettings, min_positive_part

KL = 0.75 * math.log2(1.5) + 0.25 * math.log2(0.5)


def binomial_value(n, y, p=0.75):
    total = 0.0
    for k in range(n + 1):
        lam = p ** k * (1 - p) ** (n - k)
        thr = 2.0 ** (y * n) * 0.5 ** n
        if lam > thr:
            total += math.comb(n, k) * (lam - thr)
    return total


def main():
    rho = opalg.density(np.diag([0.75, 0.25]))
    settings = SolverSettings(max_iters=64, tol=1e-9, seed=0)
    ys = [0.05, 0.10, KL, 0.30, 0.40]
    print(f"crossover rate KL = {KL:.6f}\n")
    header = "N    " + "".join(f"y={y:<10.4f}" for y in ys)
    print(header)
    for n in (2, 4, 6, 8, 10):
        fam = SingletonIIDFamily(2, n, sigma0=np.eye(2) / 2)
        power = opalg.Power(rho, n)
        row = [f"{n:<5d}"]
        for y in ys:
            val = min_positive_part(power, 2.0 ** (y * n), fam,
                                    settings).value
            check = binomial_value(n, y)
            assert abs(val - check) < 1e-9, "binomial cross-check failed"
            row.append(f"{val:<12.6f}")
        print("".join(row))
    print("\nleft columns grow toward 1 (rate below KL), right columns decay "
          "toward 0 (rate above KL); every entry matches the binomial sum.")


if __name__ == "__main__":
    main()
