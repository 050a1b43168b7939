"""Acceptance criteria, one test per criterion.

Each test prints one PASS/FAIL line (run with ``pytest -s``) and asserts
every sub-claim at its stated tolerance.  Expected values marked as derived
are computed here by independent oracles (binomial sums, type-class simplex
optimization, fractional knapsack, grid search) before being compared with
the library's solvers.
"""

import math
import time

import numpy as np
import pytest

from qstein import opalg, pipeline, rand, symmetry, verify
from qstein.entropy import binary_entropy, von_neumann_entropy
from qstein.freesets import (DiagonalFamily, SeparableHullFamily,
                             SingletonIIDFamily)
from qstein.opalg import SystemShape
from qstein.optim import (SolverSettings, generalized_robustness,
                          hypothesis_dual, hypothesis_primal,
                          min_positive_part, rel_ent_of_resource)

from oracles import (classical_neyman_pearson, classical_threshold_value,
                     diagonal_threshold_optimum,
                     robustness_qubit_diagonal_grid)

# minutes of solver work in all; ``pytest -m "not slow"`` skips them
pytestmark = pytest.mark.slow

H08 = binary_entropy(0.8)


def _report(num, label, failures, elapsed, budget):
    status = "PASS" if not failures else "FAIL"
    print(f"\n[acceptance] criterion {num}: {status} - {label} "
          f"({elapsed:.1f}s / budget {budget:.0f}s)")
    for f in failures:
        print(f"    * {f}")
    assert elapsed < budget, f"runtime {elapsed:.1f}s over budget {budget}s"
    assert not failures, "; ".join(failures)


def coherence_qubit(p=0.8):
    v = np.array([math.sqrt(p), math.sqrt(1.0 - p)])
    return opalg.density(np.outer(v, v))


def test_criterion_1_classical_stein_reproduction():
    t0 = time.time()
    failures = []
    kl = 0.75 * math.log2(0.75 / 0.5) + 0.25 * math.log2(0.25 / 0.5)
    if abs(kl - 0.188722) > 1e-6:
        failures.append(f"KL closed form {kl:.6f} != 0.188722")

    rho = opalg.density(np.diag([0.75, 0.25]))
    settings = SolverSettings(max_iters=64, tol=1e-9, seed=0)
    values = {}
    for n in (2, 4, 6, 8, 10):
        fam = SingletonIIDFamily(2, n, sigma0=np.eye(2) / 2)
        power = opalg.tensor_power(rho, n)
        for y in (0.10, kl, 0.30):
            res = min_positive_part(power, 2.0 ** (y * n), fam, settings)
            want = classical_threshold_value(n, y)
            if abs(res.value - want) > 1e-6:
                failures.append(
                    f"e_{n}({y:.4f}) = {res.value:.8f} vs binomial oracle "
                    f"{want:.8f} beyond 1e-6")
            values[(n, y)] = res.value

    # crossover trends: growth below KL, decay above
    below = [values[(n, 0.10)] for n in (2, 4, 6, 8, 10)]
    if not all(a < b for a, b in zip(below, below[1:])):
        failures.append(f"no growth toward 1 below KL: {below}")
    if not values[(10, 0.30)] < values[(4, 0.30)]:
        failures.append("no decay toward 0 above KL")

    # at N = 10, b = 2: only k >= 7 successes have 3^k > 2^11, and
    # sum_{k=7}^{10} C(10,k) (3^k - 2^11) / 4^10 = 453116 / 4^10
    e10_exact = 113279 / 2 ** 18
    if abs(values[(10, 0.10)] - e10_exact) > 1e-6:
        failures.append(
            f"e_10(0.10) = {values[(10, 0.10)]:.8f} vs exact binomial sum "
            f"113279/2^18 = {e10_exact:.8f} beyond 1e-6")
    if not values[(10, 0.30)] <= 0.2:
        failures.append(f"e_10(0.30) = {values[(10, 0.30)]:.6f} > 0.2")

    _report(1, "classical crossover against the binomial oracle", failures,
            time.time() - t0, 10.0)


def test_criterion_2_coherence_stein_trend():
    t0 = time.time()
    failures = []
    if abs(H08 - 0.721928) > 1e-6:
        failures.append("h(0.8) closed form mismatch")

    y_grid = [H08 - 0.25, H08 - 0.1, H08, H08 + 0.1, H08 + 0.25]
    values = {}
    for n in range(1, 9):
        iters = 512 if n <= 6 else 160
        settings = SolverSettings(max_iters=iters, tol=1e-7, seed=0)
        fam = DiagonalFamily(2, n)
        power = opalg.Power(coherence_qubit(), n)
        start, prev = None, None
        for y in y_grid:
            res = min_positive_part(power, 2.0 ** (y * n), fam, settings,
                                    start=start)
            start = res.minimizer
            values[(n, y)] = res.value
            if prev is not None and res.value > prev + 1e-12:
                failures.append(f"monotonicity violated at N={n}, y={y:.3f}")
            prev = res.value

    for n in (2, 3, 4):
        for y in y_grid:
            want = diagonal_threshold_optimum(n, y)
            if abs(values[(n, y)] - want) > 1e-4:
                failures.append(
                    f"N={n}, y={y:.3f}: solver {values[(n, y)]:.8f} vs "
                    f"type-class oracle {want:.8f} beyond 1e-4")

    hi = H08 + 0.25
    lo = H08 - 0.25
    # decay above the rate is exact here: for the pure power state the
    # optimum is 0 once 2^{yN} >= (sum_x |psi_x|)^2 = (sqrt(.8)+sqrt(.2))^{2N}
    # = 1.8^N, and R + 0.25 lies above log2(1.8)
    if not hi > math.log2((math.sqrt(0.8) + math.sqrt(0.2)) ** 2):
        failures.append(f"R+0.25 = {hi:.6f} is not above log2(1.8)")
    for n in range(1, 9):
        if values[(n, hi)] > 1e-4:
            failures.append(
                f"e_{n}(R+0.25) = {values[(n, hi)]:.2e} vs exact 0 "
                f"beyond 1e-4")
    if not values[(8, lo)] > values[(4, lo)]:
        failures.append("converse growth e_8(R-0.25) > e_4(R-0.25) fails")

    _report(2, "coherence exponent trends against the type-class oracle",
            failures, time.time() - t0, 300.0)


def test_criterion_3_resource_measure_oracles():
    t0 = time.time()
    failures = []
    rng = np.random.default_rng(2024)
    settings = SolverSettings(max_iters=240, tol=1e-9, seed=0)
    fam = DiagonalFamily(2, 1)
    worst = 0.0
    for _ in range(100):
        rho = rand.random_density(rng, SystemShape((2,)))
        res = rel_ent_of_resource(rho, fam, settings)
        closed = (von_neumann_entropy(
            opalg.density(np.diag(np.diag(rho.mat))))
            - von_neumann_entropy(rho))
        worst = max(worst, abs(res.value - closed))
    if worst > 1e-6:
        failures.append(f"coherence closed form worst error {worst:.2e}")

    bell = np.zeros(4)
    bell[0] = bell[3] = 1.0 / math.sqrt(2.0)
    bell_rho = opalg.density(np.outer(bell, bell))
    sep = SeparableHullFamily(4, 1, dim_a=2, dim_b=2, n_restarts=16)
    rr = rel_ent_of_resource(bell_rho, sep,
                             SolverSettings(max_iters=400, tol=1e-7, seed=0))
    if abs(rr.value - 1.0) > 1e-3:
        failures.append(f"R_R(Bell, separable) = {rr.value:.6f} != 1 +- 1e-3")

    plus = opalg.density(0.5 * np.ones((2, 2)))
    got = generalized_robustness(plus, fam,
                                 SolverSettings(max_iters=120, tol=1e-8,
                                                seed=0))
    grid = robustness_qubit_diagonal_grid(plus.mat)
    if abs(got - 1.0) > 1e-4:
        failures.append(f"robustness(|+>) = {got:.6f} != 1 +- 1e-4")
    if abs(grid - got) > 5e-4:
        failures.append(f"robustness grid oracle {grid:.6f} vs {got:.6f}")

    _report(3, "resource measures against closed forms and grid oracles",
            failures, time.time() - t0, 120.0)


def test_criterion_4_duality():
    t0 = time.time()
    failures = []
    rng = np.random.default_rng(4)
    settings = SolverSettings(max_iters=120, tol=1e-8, seed=0)

    worst_gap, worst_oracle = 0.0, 0.0
    for i in range(50):
        d = int(rng.integers(2, 5))
        eta_diag = rng.dirichlet(np.ones(d))
        sig_diag = rng.dirichlet(np.ones(d)) + 0.05
        sig_diag /= sig_diag.sum()
        K = float(rng.choice([2.0, 4.0, 8.0]))
        eta = opalg.density(np.diag(eta_diag))
        fam = SingletonIIDFamily(d, 1, sigma0=np.diag(sig_diag))
        p = hypothesis_primal(eta, K, fam, settings)
        du = hypothesis_dual(eta, K, fam, settings)
        oracle = classical_neyman_pearson(eta_diag, sig_diag, 1.0 / K)
        worst_gap = max(worst_gap, abs(p - du))
        worst_oracle = max(worst_oracle, abs(p - oracle))
    if worst_gap > 1e-4:
        failures.append(f"commuting duality gap {worst_gap:.2e} > 1e-4")
    if worst_oracle > 1e-6:
        failures.append(f"knapsack oracle mismatch {worst_oracle:.2e}")

    worst_weak = 0.0
    for i in range(100):
        d = int(rng.integers(2, 7))
        eta = rand.random_density(rng, SystemShape((d,)))
        kind = i % 2
        if kind == 0:
            fam = SingletonIIDFamily(
                d, 1, sigma0=rand.random_density(rng, SystemShape((d,))).mat)
        else:
            fam = DiagonalFamily(d, 1)
        K = float(rng.choice([2.0, 4.0, 8.0]))
        p = hypothesis_primal(eta, K, fam, settings)
        du = hypothesis_dual(eta, K, fam, settings)
        worst_weak = max(worst_weak, p - du)
    if worst_weak > 1e-6:
        failures.append(f"weak duality violated by {worst_weak:.2e}")

    _report(4, "primal/dual agreement and weak duality", failures,
            time.time() - t0, 120.0)


def test_criterion_5_lemma_certificate_suites():
    t0 = time.time()
    failures = []
    checks = [
        verify.check_cptp_positive_part,        # channel monotonicity
        verify.check_partial_trace_monotone,
        verify.check_log_monotone,
        verify.check_entropy_continuity,
        verify.check_dominated_state,
        verify.check_relent_upper_bound,
        verify.check_trace_distance_dominance,
        verify.check_relent_continuity,
        verify.check_dominance_to_relent,
    ]
    for fn in checks:
        res = fn(500, 20260809)
        if not res.passed:
            failures.append(f"{res.name}: worst margin {res.worst:.3e} "
                            f"below -{res.tolerance:.0e}")
    _report(5, "nine certificate suites at 500 random trials each",
            failures, time.time() - t0, 180.0)


def test_criterion_6_symmetry_machinery():
    t0 = time.time()
    failures = []
    for n, d in [(2, 2), (3, 2), (4, 2), (2, 3), (3, 3)]:
        proj = symmetry.sym_projector(n, d)
        tr = proj.trace()
        if round(tr) != symmetry.sym_dim(n, d) or abs(tr - round(tr)) > 1e-8:
            failures.append(f"projector trace {tr} vs sym_dim({n},{d})")

    settings = SolverSettings(max_iters=256, tol=1e-7, seed=0)
    fam = DiagonalFamily(2, 1)
    for n in (4, 5, 6):
        trace = pipeline.step1(coherence_qubit(), H08, n, fam, settings)
        pipeline.step2(trace, pipeline.mr_schedule(n))
        for name in ("conditioned-state dominance",
                     "tail-truncation distance bound"):
            cert = [c for c in trace.certificates if c.name == name][0]
            if not cert.passed:
                failures.append(f"N={n}: {name} margin {cert.margin:.2e}")

    rng = np.random.default_rng(6)
    for N, M, R in [(4, 1, 1), (5, 1, 2), (6, 2, 2)]:
        for _ in range(5):
            base = rand.random_pure(rng, SystemShape((2,)))
            v = symmetry.random_almost_power(rng, base, N - M, R)
            cert, _ = symmetry.verify_power_inequality(v, base, N, M, R)
            if cert.margin < -1e-8:
                failures.append(
                    f"power inequality margin {cert.margin:.2e} at "
                    f"(N,M,R)=({N},{M},{R})")

    _report(6, "symmetric-subspace machinery and tail bounds", failures,
            time.time() - t0, 180.0)


def test_criterion_7_direct_part_pipeline():
    t0 = time.time()
    failures = []
    settings = SolverSettings(max_iters=256, tol=1e-7, seed=0)
    trace = pipeline.run_direct_part(coherence_qubit(), H08, 6,
                                     DiagonalFamily(2, 1), settings)
    for cert in trace.certificates:
        if cert.margin < -1e-8:
            failures.append(f"{cert.name}: margin {cert.margin:.2e}")

    # independent evaluation of the mixing weight, checked to 12 digits
    sched = trace.schedule
    mu, y, N, M, R = trace.mu_N, trace.y, sched.N, sched.M, sched.R
    want = (2.0 * mu ** 3 / 2.0 ** (y * N)
            * (2.0 * math.sqrt(2.0) / (mu * math.exp(M * R / (2.0 * N)))
               + 2.0 * math.sqrt(2.0 * R) / N))
    if abs(trace.eps_N - want) > 1e-12 * want:
        failures.append(f"eps_N {trace.eps_N!r} vs formula {want!r}")

    rep = pipeline.finite_n_sandwich(coherence_qubit(), DiagonalFamily(2, 3),
                                     1e-4, settings)
    if not rep.certificate.passed:
        failures.append(f"sandwich margin {rep.certificate.margin:.2e}")
    if not rep.lower_bound <= rep.eps_value <= rep.upper_bound + 1e-12:
        failures.append("sandwich bracket violated")

    _report(7, "end-to-end direct-part certificates at N=6", failures,
            time.time() - t0, 300.0)
