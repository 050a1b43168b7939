"""Randomized margin suites for the operator, entropy, solver and symmetry
inequalities.

Each check draws seeded random instances and returns one margin per trial;
a margin below minus the check's tolerance is a violation.  The suites back
the ``verify`` CLI subcommand and the certificate acceptance tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import opalg, pipeline, symmetry
from .entropy import (dominance_to_relent_bound, entropy_continuity_bound,
                      relative_entropy, relent_continuity_bound,
                      relent_upper_bound, von_neumann_entropy)
from .freesets import DiagonalFamily, FullSpaceFamily, SingletonIIDFamily
from .opalg import DensityMatrix, HermitianOperator, SystemShape, eigh
from .optim import (SolverSettings, generalized_robustness, hypothesis_dual,
                    hypothesis_primal, min_positive_part, rel_ent_of_resource)
from .rand import (ginibre, random_density, random_hermitian,
                   random_kraus_channel, random_perm_invariant_density,
                   random_pure, rng_from_seed)


@dataclass(frozen=True)
class CheckResult:
    name: str
    margins: np.ndarray
    tolerance: float

    @property
    def worst(self) -> float:
        return float(self.margins.min())

    @property
    def passed(self) -> bool:
        return self.worst >= -self.tolerance


def _rand_shape(rng, max_dim=6) -> SystemShape:
    return SystemShape((int(rng.integers(2, max_dim + 1)),))


def check_cptp_positive_part(trials: int, seed: int) -> CheckResult:
    """Applying a channel cannot increase the trace of the positive part."""
    rng = rng_from_seed(seed)
    margins = []
    for _ in range(trials):
        shape = _rand_shape(rng)
        a = random_hermitian(rng, shape)
        kraus = random_kraus_channel(rng, shape.total_dim)
        before = opalg.positive_part_trace(a.mat)
        after = opalg.positive_part_trace(opalg.apply_kraus(a, kraus).mat)
        margins.append(before - after)
    return CheckResult("cptp-positive-part", np.array(margins), 1e-9)


def check_partial_trace_monotone(trials: int, seed: int) -> CheckResult:
    rng = rng_from_seed(seed)
    margins = []
    for _ in range(trials):
        d = int(rng.integers(2, 4))
        shape = SystemShape((d, d))
        b = random_hermitian(rng, shape)
        a = b + opalg.HermitianOperator(shape, pos_mat(rng, d * d))
        ga = opalg.partial_trace(a, [0])
        gb = opalg.partial_trace(b, [0])
        margins.append(float(eigh(ga.mat - gb.mat)[0][0]))
    return CheckResult("partial-trace-monotone", np.array(margins), 1e-9)


def pos_mat(rng, n: int, scale: float = 1.0) -> np.ndarray:
    g = ginibre(rng, n)
    return scale * (g @ g.conj().T) / n


def check_log_monotone(trials: int, seed: int) -> CheckResult:
    rng = rng_from_seed(seed)
    margins = []
    for _ in range(trials):
        n = int(rng.integers(2, 7))
        q = pos_mat(rng, n) + 0.05 * np.eye(n)
        p = q + pos_mat(rng, n)
        lp = opalg.log2_on_support(opalg.operator(p)).mat
        lq = opalg.log2_on_support(opalg.operator(q)).mat
        margins.append(float(eigh(lp - lq)[0][0]))
    return CheckResult("log-monotone", np.array(margins), 1e-8)


def check_trace_distance_dominance(trials: int, seed: int) -> CheckResult:
    """sigma + eps * Delta dominates rho when eps is their trace distance."""
    rng = rng_from_seed(seed)
    margins = []
    for _ in range(trials):
        shape = _rand_shape(rng)
        rho = random_density(rng, shape)
        sigma = random_density(rng, shape)
        diff = rho.mat - sigma.mat
        eps = opalg.trace_norm_mat(diff)
        pos = opalg.positive_part(opalg.operator(diff, shape.dims))
        tr = pos.trace()
        if tr < 1e-12:
            margins.append(0.0)
            continue
        delta = pos.mat / tr
        margins.append(float(eigh(sigma.mat + eps * delta - rho.mat)[0][0]))
    return CheckResult("trace-distance-dominance", np.array(margins), 1e-10)


def check_dominated_state(trials: int, seed: int) -> CheckResult:
    """Both conclusions of the dominated-state construction on random premises."""
    rng = rng_from_seed(seed)
    margins = []
    for _ in range(trials):
        shape = _rand_shape(rng)
        n = shape.total_dim
        rho = random_density(rng, shape)
        t = float(rng.uniform(0.05, 0.9))
        delta_raw = pos_mat(rng, n)
        delta = HermitianOperator(shape, t * delta_raw / np.trace(delta_raw).real)
        x = opalg.positive_part(rho.op - delta)
        tilde, cert = pipeline.dominated_state(rho, x, delta)
        margins.append(cert.margin)
    return CheckResult("dominated-state", np.array(margins), 1e-9)


def check_positive_part_idempotent(trials: int, seed: int) -> CheckResult:
    rng = rng_from_seed(seed)
    margins = []
    for _ in range(trials):
        a = random_hermitian(rng, _rand_shape(rng))
        p1 = opalg.positive_part(a)
        p2 = opalg.positive_part(p1)
        margins.append(-float(np.abs(p2.mat - p1.mat).max()))
    return CheckResult("positive-part-idempotent", np.array(margins), 1e-10)


def check_trace_norm_triangle(trials: int, seed: int) -> CheckResult:
    rng = rng_from_seed(seed)
    margins = []
    for _ in range(trials):
        shape = _rand_shape(rng)
        a = random_hermitian(rng, shape)
        b = random_hermitian(rng, shape)
        margins.append(opalg.trace_norm(a) + opalg.trace_norm(b)
                       - opalg.trace_norm(a + b))
    return CheckResult("trace-norm-triangle", np.array(margins), 1e-10)


def check_entropy_continuity(trials: int, seed: int) -> CheckResult:
    rng = rng_from_seed(seed)
    margins = []
    for _ in range(trials):
        shape = _rand_shape(rng)
        rho = random_density(rng, shape)
        tau = random_density(rng, shape)
        t = float(rng.uniform(0.0, 0.2))
        sigma = DensityMatrix(HermitianOperator(
            shape, (1.0 - t) * rho.mat + t * tau.mat))
        eps = opalg.trace_norm_mat(rho.mat - sigma.mat)
        if eps > 0.5:
            continue
        bound = entropy_continuity_bound(shape.total_dim, eps)
        diff = abs(von_neumann_entropy(rho) - von_neumann_entropy(sigma))
        margins.append(bound - diff)
    return CheckResult("entropy-continuity", np.array(margins), 1e-9)


def check_relent_continuity(trials: int, seed: int) -> CheckResult:
    """Continuity of D(rho||.) with the minimum-eigenvalue floor constant.

    Generic full-rank instances only; the stated constant is probed, not
    assumed (see the adversarial stress demo for where it can fail).
    """
    rng = rng_from_seed(seed)
    margins = []
    for _ in range(trials):
        shape = _rand_shape(rng)
        rho = random_density(rng, shape)
        s1 = random_density(rng, shape)
        tau = random_density(rng, shape)
        t = float(rng.uniform(0.0, 0.3))
        s2 = DensityMatrix(HermitianOperator(
            shape, (1.0 - t) * s1.mat + t * tau.mat))
        eps = opalg.trace_norm_mat(s1.mat - s2.mat)
        if eps <= 0.0:
            margins.append(0.0)
            continue
        m_tilde = min(s1.lambda_min(), s2.lambda_min())
        if m_tilde <= 1e-8:
            continue
        bound = relent_continuity_bound(m_tilde, eps).bound_value
        d1 = relative_entropy(rho, s1).value
        d2 = relative_entropy(rho, s2).value
        margins.append(bound - abs(d1 - d2))
    return CheckResult("relent-continuity", np.array(margins), 1e-8)


def check_relent_upper_bound(trials: int, seed: int) -> CheckResult:
    rng = rng_from_seed(seed)
    margins = []
    for _ in range(trials):
        shape = _rand_shape(rng)
        rho = random_density(rng, shape)
        sigma = random_density(rng, shape)
        if sigma.lambda_min() <= 1e-10:
            continue
        bound = relent_upper_bound(sigma)
        margins.append(bound - relative_entropy(rho, sigma).value)
    return CheckResult("relent-upper-bound", np.array(margins), 1e-9)


def check_dominance_to_relent(trials: int, seed: int) -> CheckResult:
    rng = rng_from_seed(seed)
    margins = []
    for _ in range(trials):
        shape = _rand_shape(rng)
        rho = random_density(rng, shape)
        sigma = random_density(rng, shape)
        if sigma.lambda_min() <= 1e-8:
            continue
        isq = opalg.pinv_sqrt_psd(sigma.mat)
        alpha = float(eigh(isq @ rho.mat @ isq)[0][-1]) * (1.0 + 1e-9) + 1e-12
        cert = dominance_to_relent_bound(rho, sigma, alpha)
        margins.append(cert.margin)
    return CheckResult("dominance-to-relent", np.array(margins), 1e-9)


def check_joint_convexity(trials: int, seed: int) -> CheckResult:
    rng = rng_from_seed(seed)
    margins = []
    for _ in range(trials):
        shape = _rand_shape(rng)
        rho = random_density(rng, shape)
        s1 = random_density(rng, shape)
        s2 = random_density(rng, shape)
        mix = DensityMatrix(HermitianOperator(shape,
                                              0.5 * (s1.mat + s2.mat)))
        avg = 0.5 * (relative_entropy(rho, s1).value
                     + relative_entropy(rho, s2).value)
        margins.append(avg - relative_entropy(rho, mix).value)
    return CheckResult("relent-convexity-second-arg", np.array(margins), 1e-9)


def check_relent_additivity(trials: int, seed: int) -> CheckResult:
    rng = rng_from_seed(seed)
    margins = []
    for _ in range(trials):
        shape = SystemShape((int(rng.integers(2, 4)),))
        r1, r2 = random_density(rng, shape), random_density(rng, shape)
        s1, s2 = random_density(rng, shape), random_density(rng, shape)
        joint = relative_entropy(
            DensityMatrix(opalg.tensor(r1.op, r2.op)),
            DensityMatrix(opalg.tensor(s1.op, s2.op))).value
        split = (relative_entropy(r1, s1).value
                 + relative_entropy(r2, s2).value)
        margins.append(-abs(joint - split))
    return CheckResult("relent-additivity", np.array(margins), 1e-8)


def check_classical_kl(trials: int, seed: int) -> CheckResult:
    rng = rng_from_seed(seed)
    margins = []
    for _ in range(trials):
        n = int(rng.integers(2, 7))
        shape = SystemShape((n,))
        p = rng.dirichlet(np.ones(n))
        q = rng.dirichlet(np.ones(n)) + 1e-6
        q /= q.sum()
        rho = DensityMatrix(HermitianOperator(shape, np.diag(p)))
        sigma = DensityMatrix(HermitianOperator(shape, np.diag(q)))
        kl = float(np.sum(p[p > 0] * np.log2(p[p > 0] / q[p > 0])))
        margins.append(-abs(relative_entropy(rho, sigma).value - kl))
    return CheckResult("classical-kl-agreement", np.array(margins), 1e-10)


def check_weak_duality(trials: int, seed: int) -> CheckResult:
    rng = rng_from_seed(seed)
    settings = SolverSettings(max_iters=120, tol=1e-7, seed=seed)
    margins = []
    for i in range(trials):
        d = int(rng.integers(2, 7))
        shape = SystemShape((d,))
        eta = random_density(rng, shape)
        kind = i % 3
        if kind == 0:
            fam = SingletonIIDFamily(d, 1, sigma0=random_density(rng, shape).mat)
        elif kind == 1:
            fam = DiagonalFamily(d, 1)
        else:
            fam = FullSpaceFamily(d, 1)
        K = float(rng.choice([2.0, 4.0, 8.0]))
        primal = hypothesis_primal(eta, K, fam, settings)
        dual = hypothesis_dual(eta, K, fam, settings)
        margins.append(dual - primal)
    return CheckResult("weak-duality", np.array(margins), 1e-6)


def check_pospart_monotone_b(trials: int, seed: int) -> CheckResult:
    """The threshold minimum is non-increasing in the threshold weight."""
    rng = rng_from_seed(seed)
    settings = SolverSettings(max_iters=90, tol=1e-7, seed=seed)
    margins = []
    for i in range(trials):
        d = int(rng.integers(2, 5))
        shape = SystemShape((d,))
        rho = random_density(rng, shape)
        fam = DiagonalFamily(d, 1) if i % 2 else FullSpaceFamily(d, 1)
        prev, start = None, None
        for b in (0.5, 1.0, 2.0, 4.0):
            res = min_positive_part(rho, b, fam, settings, start=start)
            start = res.minimizer
            if prev is not None:
                margins.append(prev - res.value)
            prev = res.value
    return CheckResult("threshold-monotone", np.array(margins), 1e-9)


def check_relent_coherence_closed_form(trials: int, seed: int) -> CheckResult:
    rng = rng_from_seed(seed)
    settings = SolverSettings(max_iters=200, tol=1e-9, seed=seed)
    fam = DiagonalFamily(2, 1)
    margins = []
    for _ in range(trials):
        rho = random_density(rng, SystemShape((2,)))
        res = rel_ent_of_resource(rho, fam, settings)
        diag = DensityMatrix(HermitianOperator(SystemShape((2,)),
                                               np.diag(np.diag(rho.mat))))
        closed = von_neumann_entropy(diag) - von_neumann_entropy(rho)
        margins.append(-abs(res.value - closed))
    return CheckResult("coherence-closed-form", np.array(margins), 1e-6)


def check_robustness_certified(trials: int, seed: int) -> CheckResult:
    rng = rng_from_seed(seed)
    settings = SolverSettings(max_iters=90, tol=1e-8, seed=seed)
    margins = []
    for _ in range(trials):
        rho = random_density(rng, SystemShape((2,)))
        fam = DiagonalFamily(2, 1)
        s, witness = generalized_robustness(rho, fam, settings,
                                            return_witness=True)
        gap = (1.0 + s) * witness.mat - rho.mat
        margins.append(float(eigh(gap)[0][0]))
    return CheckResult("robustness-witness", np.array(margins), 1e-8)


def check_sym_projector(trials: int, seed: int) -> CheckResult:
    rng = rng_from_seed(seed)
    margins = []
    for _ in range(trials):
        n = int(rng.integers(2, 5))
        d = int(rng.integers(2, 4))
        if d ** n > 256:
            continue
        p = symmetry.sym_projector(n, d)
        idem = opalg.trace_norm_mat(p.mat @ p.mat - p.mat)
        tr_gap = abs(p.trace() - symmetry.sym_dim(n, d))
        margins.append(-max(idem, tr_gap))
    return CheckResult("sym-projector", np.array(margins), 1e-8)


def check_almost_power_fixed_point(trials: int, seed: int) -> CheckResult:
    rng = rng_from_seed(seed)
    margins = []
    for _ in range(trials):
        d = int(rng.integers(2, 4))
        n = int(rng.integers(3, 6))
        R = int(rng.integers(0, min(3, n) + 1))
        base = random_pure(rng, SystemShape((d,)))
        v = symmetry.random_almost_power(rng, base, n, R)
        perm = tuple(rng.permutation(n))
        moved = opalg.permute_pure(v, perm)
        margins.append(-float(np.linalg.norm(moved.vec - v.vec)))
    return CheckResult("almost-power-fixed-point", np.array(margins), 1e-10)


def check_power_tail_bound(trials: int, seed: int) -> CheckResult:
    rng = rng_from_seed(seed)
    margins = []
    cases = [(4, 1, 1), (5, 1, 2), (6, 2, 2)]
    for i in range(trials):
        N, M, R = cases[i % len(cases)]
        base = random_pure(rng, SystemShape((2,)))
        v = symmetry.random_almost_power(rng, base, N - M, R)
        cert = symmetry.verify_power_inequality(v, base, N, M, R)
        margins.append(cert.margin)
    return CheckResult("power-tail-bound", np.array(margins), 1e-8)


def check_conditioning_chain(trials: int, seed: int) -> CheckResult:
    """Purify, condition, truncate; check the dominance and distance bound."""
    rng = rng_from_seed(seed)
    margins = []
    for _ in range(trials):
        rho = random_density(rng, SystemShape((2,)))
        rho_n = random_perm_invariant_density(rng, 2, 3)
        pair = symmetry.perm_invariant_purification(rho, rho_n)
        if pair.overlap < 1e-6:
            continue
        cond, cert = symmetry.conditioned_state(pair.rhoN_pur, pair.rho_pur, 1)
        margins.append(cert.margin)
        trunc, dist = symmetry.truncate_to_almost_power(cond, pair.rho_pur, 1)
        bound = 2.0 * math.sqrt(2.0) / pair.overlap * math.exp(-1.0 / 6.0)
        margins.append(bound - dist)
    return CheckResult("conditioning-chain", np.array(margins), 1e-8)


SUITES: dict[str, list] = {
    "opalg": [check_cptp_positive_part, check_partial_trace_monotone,
              check_log_monotone, check_trace_distance_dominance,
              check_dominated_state, check_positive_part_idempotent,
              check_trace_norm_triangle],
    "entropy": [check_entropy_continuity, check_relent_continuity,
                check_relent_upper_bound, check_dominance_to_relent,
                check_joint_convexity, check_relent_additivity,
                check_classical_kl],
    "optim": [check_weak_duality, check_pospart_monotone_b,
              check_relent_coherence_closed_form, check_robustness_certified],
    "symmetry": [check_sym_projector, check_almost_power_fixed_point,
                 check_power_tail_bound, check_conditioning_chain],
}


def run_suite(suite: str, trials: int, seed: int) -> list[CheckResult]:
    if suite == "all":
        names = list(SUITES)
    elif suite in SUITES:
        names = [suite]
    else:
        raise ValueError(f"unknown suite {suite!r}; "
                         f"choose from {sorted(SUITES)} or 'all'")
    results = []
    for name in names:
        for fn in SUITES[name]:
            results.append(fn(trials, seed))
    return results
