"""Randomized margin suites for the operator, entropy, solver and symmetry
inequalities.

Each check draws seeded random instances and returns one or more margins
per trial (none for a skipped instance); a margin below minus the check's
tolerance is a violation.  Every check is one trial run by
``certificates.randomized_check``.  The suites back the ``verify`` CLI
subcommand and the certificate acceptance tests.
"""

from __future__ import annotations

import numpy as np

from . import opalg, pipeline, symmetry
from .certificates import CheckResult, randomized_check
from .entropy import (dominance_to_relent_bound, entropy_continuity_bound,
                      relative_entropy, relent_continuity_bound,
                      relent_upper_bound, von_neumann_entropy)
from .freesets import DiagonalFamily, FullSpaceFamily, SingletonIIDFamily
from .opalg import DensityMatrix, HermitianOperator, SystemShape, eigh
from .optim import (SolverSettings, generalized_robustness, hypothesis_dual,
                    hypothesis_primal, min_positive_part, rel_ent_of_resource)
from .rand import (random_density, random_hermitian, random_kraus_channel,
                   random_perm_invariant_density, random_psd, random_pure)


def _rand_shape(rng) -> SystemShape:
    return SystemShape((int(rng.integers(2, 7)),))


@randomized_check("cptp-positive-part", 1e-9)
def check_cptp_positive_part(rng, i, seed):
    """Applying a channel cannot increase the trace of the positive part."""
    shape = _rand_shape(rng)
    a = random_hermitian(rng, shape)
    kraus = random_kraus_channel(rng, shape.total_dim)
    before = opalg.positive_part_trace(a.mat)
    after = opalg.positive_part_trace(opalg.apply_kraus(a, kraus).mat)
    return [before - after]


@randomized_check("partial-trace-monotone", 1e-9)
def check_partial_trace_monotone(rng, i, seed):
    d = int(rng.integers(2, 4))
    shape = SystemShape((d, d))
    b = random_hermitian(rng, shape)
    a = b + random_psd(rng, shape)
    ga = opalg.partial_trace(a, [0])
    gb = opalg.partial_trace(b, [0])
    return [float(eigh(ga.mat - gb.mat)[0][0])]


@randomized_check("log-monotone", 1e-8)
def check_log_monotone(rng, i, seed):
    n = int(rng.integers(2, 7))
    shape = SystemShape((n,))
    q = random_psd(rng, shape).mat + 0.05 * np.eye(n)
    p = q + random_psd(rng, shape).mat
    lp = opalg.log2_on_support(opalg.operator(p)).mat
    lq = opalg.log2_on_support(opalg.operator(q)).mat
    return [float(eigh(lp - lq)[0][0])]


@randomized_check("trace-distance-dominance", 1e-10)
def check_trace_distance_dominance(rng, i, seed):
    """sigma + eps * Delta dominates rho when eps is their trace distance."""
    shape = _rand_shape(rng)
    rho = random_density(rng, shape)
    sigma = random_density(rng, shape)
    diff = rho.mat - sigma.mat
    eps = opalg.trace_norm(diff)
    pos = opalg.positive_part(opalg.operator(diff, shape.dims))
    tr = pos.trace()
    if tr < 1e-12:
        return [0.0]
    delta = pos.mat / tr
    return [float(eigh(sigma.mat + eps * delta - rho.mat)[0][0])]


@randomized_check("dominated-state", 1e-9)
def check_dominated_state(rng, i, seed):
    """Both conclusions of the dominated-state construction on random premises."""
    shape = _rand_shape(rng)
    n = shape.total_dim
    rho = random_density(rng, shape)
    t = float(rng.uniform(0.05, 0.9))
    delta_raw = random_psd(rng, shape).mat
    delta = HermitianOperator(shape, t * delta_raw / np.trace(delta_raw).real)
    x = opalg.positive_part(rho - delta)
    _, m_op, m_fid = pipeline.dominated_state(rho, x, delta)
    return [min(m_op, m_fid)]


@randomized_check("positive-part-idempotent", 1e-10)
def check_positive_part_idempotent(rng, i, seed):
    a = random_hermitian(rng, _rand_shape(rng))
    p1 = opalg.positive_part(a)
    p2 = opalg.positive_part(p1)
    return [-float(np.abs(p2.mat - p1.mat).max())]


@randomized_check("trace-norm-triangle", 1e-10)
def check_trace_norm_triangle(rng, i, seed):
    shape = _rand_shape(rng)
    a = random_hermitian(rng, shape)
    b = random_hermitian(rng, shape)
    return [opalg.trace_norm(a) + opalg.trace_norm(b)
            - opalg.trace_norm(a + b)]


@randomized_check("entropy-continuity", 1e-9)
def check_entropy_continuity(rng, i, seed):
    shape = _rand_shape(rng)
    rho = random_density(rng, shape)
    tau = random_density(rng, shape)
    t = float(rng.uniform(0.0, 0.2))
    sigma = DensityMatrix(shape, (1.0 - t) * rho.mat + t * tau.mat)
    eps = opalg.trace_norm(rho.mat - sigma.mat)
    if eps > 0.5:
        return []
    bound = entropy_continuity_bound(shape.total_dim, eps)
    diff = abs(von_neumann_entropy(rho) - von_neumann_entropy(sigma))
    return [bound - diff]


@randomized_check("relent-continuity", 1e-8)
def check_relent_continuity(rng, i, seed):
    """Continuity of D(rho||.) with the minimum-eigenvalue floor constant.

    Generic full-rank instances only; the stated constant is probed, not
    assumed (see the adversarial stress demo for where it can fail).
    """
    shape = _rand_shape(rng)
    rho = random_density(rng, shape)
    s1 = random_density(rng, shape)
    tau = random_density(rng, shape)
    t = float(rng.uniform(0.0, 0.3))
    s2 = DensityMatrix(shape, (1.0 - t) * s1.mat + t * tau.mat)
    eps = opalg.trace_norm(s1.mat - s2.mat)
    if eps <= 0.0:
        return [0.0]
    m_tilde = min(s1.lambda_min(), s2.lambda_min())
    if m_tilde <= 1e-8:
        return []
    bound = relent_continuity_bound(m_tilde, eps)
    d1 = relative_entropy(rho, s1)
    d2 = relative_entropy(rho, s2)
    return [bound - abs(d1 - d2)]


@randomized_check("relent-upper-bound", 1e-9)
def check_relent_upper_bound(rng, i, seed):
    shape = _rand_shape(rng)
    rho = random_density(rng, shape)
    sigma = random_density(rng, shape)
    if sigma.lambda_min() <= 1e-10:
        return []
    return [relent_upper_bound(sigma) - relative_entropy(rho, sigma)]


@randomized_check("dominance-to-relent", 1e-9)
def check_dominance_to_relent(rng, i, seed):
    shape = _rand_shape(rng)
    rho = random_density(rng, shape)
    sigma = random_density(rng, shape)
    if sigma.lambda_min() <= 1e-8:
        return []
    isq = opalg.pinv_sqrt_psd(sigma.mat)
    alpha = float(eigh(isq @ rho.mat @ isq)[0][-1]) * (1.0 + 1e-9) + 1e-12
    return [dominance_to_relent_bound(rho, sigma, alpha).margin]


@randomized_check("relent-convexity-second-arg", 1e-9)
def check_joint_convexity(rng, i, seed):
    shape = _rand_shape(rng)
    rho = random_density(rng, shape)
    s1 = random_density(rng, shape)
    s2 = random_density(rng, shape)
    mix = DensityMatrix(shape, 0.5 * (s1.mat + s2.mat))
    avg = 0.5 * (relative_entropy(rho, s1) + relative_entropy(rho, s2))
    return [avg - relative_entropy(rho, mix)]


@randomized_check("relent-additivity", 1e-8)
def check_relent_additivity(rng, i, seed):
    shape = SystemShape((int(rng.integers(2, 4)),))
    r1, r2 = random_density(rng, shape), random_density(rng, shape)
    s1, s2 = random_density(rng, shape), random_density(rng, shape)
    joint = relative_entropy(opalg.tensor(r1, r2), opalg.tensor(s1, s2))
    split = relative_entropy(r1, s1) + relative_entropy(r2, s2)
    return [-abs(joint - split)]


@randomized_check("classical-kl-agreement", 1e-10)
def check_classical_kl(rng, i, seed):
    n = int(rng.integers(2, 7))
    shape = SystemShape((n,))
    p = rng.dirichlet(np.ones(n))
    q = rng.dirichlet(np.ones(n)) + 1e-6
    q /= q.sum()
    rho = DensityMatrix(shape, np.diag(p))
    sigma = DensityMatrix(shape, np.diag(q))
    kl = float(np.sum(p[p > 0] * np.log2(p[p > 0] / q[p > 0])))
    return [-abs(relative_entropy(rho, sigma) - kl)]


@randomized_check("weak-duality", 1e-6)
def check_weak_duality(rng, i, seed):
    settings = SolverSettings(max_iters=120, tol=1e-7, seed=seed)
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
    return [dual - primal]


@randomized_check("threshold-monotone", 1e-9)
def check_pospart_monotone_b(rng, i, seed):
    """The threshold minimum is non-increasing in the threshold weight."""
    settings = SolverSettings(max_iters=90, tol=1e-7, seed=seed)
    d = int(rng.integers(2, 5))
    rho = random_density(rng, SystemShape((d,)))
    fam = DiagonalFamily(d, 1) if i % 2 else FullSpaceFamily(d, 1)
    values, start = [], None
    for b in (0.5, 1.0, 2.0, 4.0):
        res = min_positive_part(rho, b, fam, settings, start=start)
        start = res.minimizer
        values.append(res.value)
    return [prev - value for prev, value in zip(values, values[1:])]


@randomized_check("coherence-closed-form", 1e-6)
def check_relent_coherence_closed_form(rng, i, seed):
    settings = SolverSettings(max_iters=200, tol=1e-9, seed=seed)
    rho = random_density(rng, SystemShape((2,)))
    res = rel_ent_of_resource(rho, DiagonalFamily(2, 1), settings)
    diag = DensityMatrix(SystemShape((2,)), np.diag(np.diag(rho.mat)))
    closed = von_neumann_entropy(diag) - von_neumann_entropy(rho)
    return [-abs(res.value - closed)]


@randomized_check("robustness-witness", 1e-8)
def check_robustness_certified(rng, i, seed):
    settings = SolverSettings(max_iters=90, tol=1e-8, seed=seed)
    rho = random_density(rng, SystemShape((2,)))
    s, witness = generalized_robustness(rho, DiagonalFamily(2, 1), settings,
                                        return_witness=True)
    return [float(eigh((1.0 + s) * witness.mat - rho.mat)[0][0])]


@randomized_check("sym-projector", 1e-8)
def check_sym_projector(rng, i, seed):
    n = int(rng.integers(2, 5))
    d = int(rng.integers(2, 4))
    if d ** n > 256:
        return []
    p = symmetry.sym_projector(n, d)
    idem = opalg.trace_norm(p.mat @ p.mat - p.mat)
    tr_gap = abs(p.trace() - symmetry.sym_dim(n, d))
    return [-max(idem, tr_gap)]


@randomized_check("almost-power-fixed-point", 1e-10)
def check_almost_power_fixed_point(rng, i, seed):
    d = int(rng.integers(2, 4))
    n = int(rng.integers(3, 6))
    R = int(rng.integers(0, min(3, n) + 1))
    base = random_pure(rng, SystemShape((d,)))
    v = symmetry.random_almost_power(rng, base, n, R)
    perm = tuple(rng.permutation(n))
    moved = opalg.permute_pure(v, perm)
    return [-float(np.linalg.norm(moved.vec - v.vec))]


@randomized_check("power-tail-bound", 1e-8)
def check_power_tail_bound(rng, i, seed):
    N, M, R = ((4, 1, 1), (5, 1, 2), (6, 2, 2))[i % 3]
    base = random_pure(rng, SystemShape((2,)))
    v = symmetry.random_almost_power(rng, base, N - M, R)
    cert, _ = symmetry.verify_power_inequality(v, base, N, M, R)
    return [cert.margin]


@randomized_check("conditioning-chain", 1e-8)
def check_conditioning_chain(rng, i, seed):
    """Purify, condition, truncate; check the dominance and distance bound."""
    rho = random_density(rng, SystemShape((2,)))
    rho_n = random_perm_invariant_density(rng, 2, 3)
    pair = symmetry.perm_invariant_purification(rho, rho_n)
    if pair.overlap < 1e-6:
        return []
    cond, _, cert = symmetry.conditioned_state(pair, 1)
    _, dist = symmetry.truncate_to_almost_power(cond, pair.rho_pur, 1)
    bound = pipeline.conditioning_weight(3, 1, 1, pair.overlap)
    return [cert.margin, bound - dist]


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
    return [check(trials, seed) for name in names for check in SUITES[name]]
