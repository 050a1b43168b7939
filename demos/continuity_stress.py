"""Stress test of the relative-entropy continuity constant.

The bound used by the certificate suites reads, for states sigma_1 and
sigma_2 dominating m * rho and within trace distance eps,

    |D(rho||sigma_1) - D(rho||sigma_2)| <= 3 log2^2(1/m) / (1-m) sqrt(eps/2).

On generic full-rank instances this holds with a wide margin, which is what
the randomized suite verifies.  This script walks into an adversarial
corner instead: a basis state tested against two nearly singular diagonal
states whose smallest eigenvalues shrink together with their distance.
There the left side stays at exactly one bit while the right side decays,
so the stated constant is crossed.  This is why the package treats the
bound as a checkable certificate on the instances where it is invoked, not
as a global axiom.
"""

import math

import numpy as np

from qstein import opalg
from qstein.entropy import relative_entropy, relent_continuity_bound


def probe(m: float):
    rho = opalg.density(np.diag([1.0, 0.0]))
    s1 = opalg.density(np.diag([m, 1.0 - m]))
    # mix one part in a million of the flipped state per unit m
    t = m
    flip = np.diag([1.0 - m, m])
    s2 = opalg.density((1.0 - t) * s1.mat + t * flip)
    eps = opalg.trace_norm(s1.mat - s2.mat)
    lhs = abs(relative_entropy(rho, s1) - relative_entropy(rho, s2))
    rhs = relent_continuity_bound(m, eps)
    return eps, lhs, rhs


def main():
    print("   m-floor        eps        |D1-D2|     stated bound   margin")
    for m in (1e-2, 1e-4, 1e-6, 1e-8, 1e-10):
        eps, lhs, rhs = probe(m)
        tag = "ok " if lhs <= rhs else "CROSSED"
        print(f"  {m:9.1e}  {eps:9.2e}  {lhs:11.6f}  {rhs:13.6f}   {tag}")
    print(
        "\nThe difference of relative entropies is pinned at one bit (the\n"
        "second state doubles the weight the first one puts under rho),\n"
        "while the bound's sqrt(eps) factor vanishes faster than the\n"
        "log^2(1/m) factor grows.  Certificates in this package therefore\n"
        "evaluate the bound on the concrete instances where it is used.")


if __name__ == "__main__":
    main()
