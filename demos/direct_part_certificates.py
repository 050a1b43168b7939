"""Certificate chain for the finite-size direct-part inequalities.

Runs the full pipeline on the coherent qubit at the crossover rate: the
threshold minimization must land strictly inside (0, 1); a dominated state
close to the power state is extracted; step 2 conditions on IID copies,
truncates the defect tail, and assembles a near-free state that dominates
the remaining power state.  A pure base state runs step 2 on its ray pair
(a ray is its own purification); a mixed one on aligned purifications,
whose large-amplitude cut adds the power-state tail bound.  Each asserted operator inequality is
checked by its smallest-eigenvalue margin; the run aborts at the first
failure.
"""

import math

import numpy as np

from qstein import opalg, pipeline
from qstein.entropy import binary_entropy
from qstein.freesets import DiagonalFamily
from qstein.optim import SolverSettings


def main():
    p = 0.8
    rate = binary_entropy(p)
    v = np.array([math.sqrt(p), math.sqrt(1 - p)])
    rho = opalg.density(np.outer(v, v))
    family = DiagonalFamily(2, 1)
    settings = SolverSettings(max_iters=256, tol=1e-7, seed=0)

    for n in (4, 5, 6):
        trace = pipeline.run_direct_part(rho, rate, n, family, settings)
        show(trace, f"copies N={n}")

    mixed = opalg.density(np.array([[0.7, 0.2], [0.2, 0.3]]))
    trace = pipeline.run_direct_part(mixed, 0.1, 5, family, settings)
    show(trace, "mixed base [[0.7, 0.2], [0.2, 0.3]] at y=0.1, N=5 "
                "(purified route)")


def show(trace, label):
    sched = trace.schedule
    print(f"\n{label}, split (M={sched.M}, R={sched.R}), "
          f"mu_N = {trace.mu_N:.6f}, eps_N = {trace.eps_N:.6e}")
    for cert in trace.certificates:
        print(f"  {cert}")


if __name__ == "__main__":
    main()
