"""Finite-size certificate pipeline for the direct-part inequalities.

Runs the full chain on a concrete (state, rate, copy count, family)
instance: threshold minimization and dominated-state extraction, purified
conditioning and tail truncation, the assembled dominance of the IID power
state by a near-free state, its relative-entropy consequence, and the
distance certificate placing that state next to the family.  Every asserted
operator inequality is checked by an eigenvalue margin and recorded as a
:class:`Certificate`.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import opalg, symmetry
from .certificates import Certificate
from .entropy import binary_entropy, relative_entropy
from .errors import (CertificateFailed, ConstructionFailed, DimensionCap,
                     PremiseFailed, PremiseOutOfInterval)
from .freesets import FreeFamily
from .opalg import (DensityMatrix, HermitianOperator, PureState, SystemShape,
                    eigh)
from .optim import (SolverSettings, distance_to_family, min_positive_part,
                    rel_ent_of_resource)

PURIFIED_DIM_CAP = 4096
PREMISE_WINDOW = 1e-4
CERT_TOL = 1e-8


@dataclass(frozen=True)
class Schedule:
    """Copy split (N, M, R) with N - M >= 2R."""

    N: int
    M: int
    R: int

    def __post_init__(self):
        if self.M < 0 or self.R < 0:
            raise ValueError("M and R must be nonnegative")
        if self.N - self.M < 2 * self.R:
            raise ValueError("schedule needs N - M >= 2R")

    @property
    def reduced_copies(self) -> int:
        return self.N - self.M - self.R


def mr_schedule(N: int) -> Schedule:
    """Default schedule M = R = ceil(N^(2/3)), R decremented to feasibility."""
    if N < 4:
        raise ValueError("schedule needs N >= 4")
    x = N * N
    m = round(x ** (1.0 / 3.0))
    while m ** 3 < x:
        m += 1
    while (m - 1) ** 3 >= x:
        m -= 1
    M = m
    R = m
    while R > 0 and N - M < 2 * R:
        R -= 1
    return Schedule(N, M, R)


def _epsilon_terms(N: int, M: int, R: int, y: float,
                   mu: float) -> tuple[float, float, float]:
    """Mixing weight eps and the weights a (conditioning) and b (tail
    truncation) of its two approximation steps."""
    a = 2.0 * math.sqrt(2.0) / (mu * math.exp(M * R / (2.0 * N)))
    b = 2.0 * math.sqrt(2.0 * R) / N
    return 2.0 * mu ** 3 / (2.0 ** (y * N)) * (a + b), a, b


def epsilon_schedule(N: int, M: int, R: int, y: float, mu: float) -> float:
    """Mixing weight produced by the two approximation steps."""
    return _epsilon_terms(N, M, R, y, mu)[0]


@dataclass
class PipelineTrace:
    """Everything produced by a pipeline run, certificates included."""

    rho: DensityMatrix
    y: float
    N: int
    family: FreeFamily
    mu_N: float = 0.0
    sigma_N: DensityMatrix | None = None
    rho_N: DensityMatrix | None = None
    overlap: float = 0.0
    schedule: Schedule | None = None
    eps_N: float = 0.0
    c_N: float = 0.0
    sigma_tilde: DensityMatrix | None = None
    delta_tilde: DensityMatrix | None = None
    reduced_mode: bool = False
    certificates: list[Certificate] = field(default_factory=list)

    def add(self, cert: Certificate) -> Certificate:
        self.certificates.append(cert)
        if not cert.passed:
            raise CertificateFailed(cert)
        return cert

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.certificates)


def dominated_state(rho: DensityMatrix, X: HermitianOperator,
                    Delta: HermitianOperator,
                    tol: float = 1e-9) -> tuple[DensityMatrix, Certificate]:
    """State close in fidelity to rho and dominated by X/(1 - Tr Delta).

    Premise: rho <= X + Delta with Tr Delta < 1.  The witness is the
    contraction T = X^{1/2} (X + Delta)^{-1/2} applied to rho; both
    conclusions are then verified numerically.
    """
    s_mat = X.mat + Delta.mat
    lam = float(eigh(s_mat - rho.mat)[0][0])
    tr_delta = Delta.trace()
    if lam < -tol or tr_delta >= 1.0:
        raise PremiseFailed(
            f"need rho <= X + Delta with Tr Delta < 1 "
            f"(margin {lam:.3e}, Tr Delta {tr_delta:.6f})")
    T = opalg.sqrt_psd(X.mat, tol=1e-8) @ opalg.pinv_sqrt_psd(s_mat)
    out = T @ rho.mat @ T.conj().T
    tr = float(np.trace(out).real)
    if tr <= 0.0:
        raise ConstructionFailed("contraction annihilated the state")
    tilde = DensityMatrix(HermitianOperator(rho.shape, out / tr))
    bound = X.mat / (1.0 - tr_delta)
    m_op = float(eigh(bound - tilde.mat)[0][0])
    m_fid = opalg.fidelity(tilde.op, rho.op) - (1.0 - tr_delta)
    if m_op < -tol or m_fid < -tol:
        raise ConstructionFailed(
            f"dominated-state conclusions violated: operator margin "
            f"{m_op:.3e}, fidelity margin {m_fid:.3e}")
    cert = Certificate("dominated-state construction", min(m_op, m_fid), tol)
    return tilde, cert


def step1(rho: DensityMatrix, y: float, N: int, family: FreeFamily,
          settings: SolverSettings = SolverSettings(),
          premise_window: float = PREMISE_WINDOW) -> PipelineTrace:
    """Threshold minimization, twirled optimizer, dominated-state extraction.

    Requires the minimized value to sit strictly inside (0, 1); produces
    mu_N, the permutation-invariant free optimizer sigma_N, and the
    permutation-invariant rho_N dominated by (2^{yN}/mu_N) sigma_N with
    fidelity at least mu_N to the power state.
    """
    if y <= 0.0:
        raise ValueError("the rate y must be positive")
    if rho.total_dim ** N > 1024:
        raise DimensionCap(
            f"dense dimension {rho.total_dim ** N} exceeds the 1024 cap")
    trace = PipelineTrace(rho, y, N, family)
    rho_pow = opalg.tensor_power(rho.op, N)
    b = 2.0 ** (y * N)
    res = min_positive_part(rho_pow, b, family.at_copies(N), settings)
    sigma_N = DensityMatrix(symmetry.twirl(res.minimizer.op))
    value = opalg.positive_part_trace(rho_pow.mat - b * sigma_N.mat)
    if value <= premise_window or value >= 1.0 - premise_window:
        raise PremiseOutOfInterval(
            f"threshold value {value:.6f} outside ({premise_window}, "
            f"{1.0 - premise_window}) at y={y}, N={N}")
    mu = 1.0 - value
    X = HermitianOperator(sigma_N.shape, b * sigma_N.mat)
    Delta = opalg.positive_part(rho_pow - X)
    rho_N, cert_dom = dominated_state(DensityMatrix(rho_pow), X, Delta)
    trace.mu_N = mu
    trace.sigma_N = sigma_N
    trace.rho_N = rho_N
    trace.add(cert_dom)
    m_op = float(eigh((b / mu) * sigma_N.mat - rho_N.mat)[0][0])
    trace.add(Certificate("step1 operator dominance", m_op, CERT_TOL))
    fid = opalg.fidelity(rho_N.op, rho_pow)
    trace.overlap = fid
    trace.add(Certificate("step1 fidelity floor", fid - mu, CERT_TOL))
    return trace


def _trace_environments(op: HermitianOperator, d: int) -> HermitianOperator:
    """Trace the environment half out of every (system, environment) pair."""
    n = len(op.shape.dims)
    fine = HermitianOperator(SystemShape((d, d) * n), op.mat)
    red = opalg.partial_trace(fine, [2 * k + 1 for k in range(n)])
    return HermitianOperator(SystemShape((d,) * n), red.mat)


def _normalized_positive_part(diff: np.ndarray,
                              fallback: np.ndarray) -> np.ndarray:
    w, V = eigh(diff)
    pos = np.where(w > 0.0, w, 0.0)
    tr = float(pos.sum())
    if tr <= 1e-14:
        return fallback
    return (V * pos) @ V.conj().T / tr


def step2(trace: PipelineTrace, schedule: Schedule,
          dim_cap: int = PURIFIED_DIM_CAP) -> PipelineTrace:
    """Conditioning, tail truncation, and the assembled dominance certificate.

    Purified route when (d^2)^N fits the cap; for pure base states beyond the
    cap a reduced route runs the analogous chain directly on rho_N.
    """
    rho, N = trace.rho, trace.N
    d = rho.total_dim
    if schedule.N != N:
        raise ValueError("schedule does not match the trace")
    if (d * d) ** N <= dim_cap:
        return _step2_purified(trace, schedule)
    purity = float(np.max(rho.op.eigvals()))
    if purity >= 1.0 - 1e-10 and d ** N <= dim_cap:
        trace.reduced_mode = True
        return _step2_reduced(trace, schedule)
    raise DimensionCap(
        f"purified dimension {(d * d) ** N} exceeds cap {dim_cap} and the "
        f"reduced route needs a pure base state")


def _assemble_sigma_tilde(trace: PipelineTrace, schedule: Schedule,
                          delta_nm: HermitianOperator,
                          delta_nmr: HermitianOperator) -> None:
    """Common tail of both routes: mixing weight, blended correction state,
    near-free state, and the final dominance certificate."""
    N, M, R = schedule.N, schedule.M, schedule.R
    mu, y = trace.mu_N, trace.y
    eps, a, b = _epsilon_terms(N, M, R, y, mu)
    trace.eps_N = eps
    trace.c_N = eps * 2.0 ** (y * N) / (2.0 * mu)
    blended = (a * delta_nm.mat + b * delta_nmr.mat) / (a + b)
    shape = delta_nm.shape
    trace.delta_tilde = DensityMatrix(HermitianOperator(shape, blended))
    marg = opalg.partial_trace(trace.sigma_N.op, range(M + R))
    sig_tilde = (marg.mat + 0.5 * eps * blended) / (1.0 + 0.5 * eps)
    trace.sigma_tilde = DensityMatrix(HermitianOperator(shape, sig_tilde))

    n_red = schedule.reduced_copies
    factor = (2.0 ** (N * (y + binary_entropy(R / (N - M)))) * N ** 2
              / mu ** 3 * (1.0 + 0.5 * eps))
    rho_red = opalg.tensor_power(trace.rho.op, n_red)
    margin = float(eigh(factor * sig_tilde - rho_red.mat)[0][0])
    trace.add(Certificate("assembled power-state dominance", margin, CERT_TOL))

    cap = 2.0 * mu ** 2 * (2.0 * math.sqrt(2.0)
                           + 2.0 * math.sqrt(2.0 * R) * mu / N)
    decay_margin = cap * 2.0 ** (-y * N) - eps
    trace.add(Certificate("mixing-weight decay", decay_margin, 1e-12))


def _step2_purified(trace: PipelineTrace, schedule: Schedule) -> PipelineTrace:
    N, M, R = schedule.N, schedule.M, schedule.R
    d = trace.rho.total_dim
    mu = trace.mu_N
    trace.schedule = schedule

    pair = symmetry.perm_invariant_purification(trace.rho, trace.rho_N)
    ovl = pair.overlap
    trace.overlap = ovl
    trace.add(Certificate("purification overlap floor", ovl - mu, CERT_TOL))

    v1, cert_cond = symmetry.conditioned_state(pair.rhoN_pur, pair.rho_pur, M)
    trace.add(cert_cond)

    v2, dist = symmetry.truncate_to_almost_power(v1, pair.rho_pur, R)
    bound = 2.0 * math.sqrt(2.0) / ovl * math.exp(-M * R / (2.0 * N))
    trace.add(Certificate("tail-truncation distance bound", bound - dist,
                          CERT_TOL))

    proj1 = np.outer(v1.vec, v1.vec.conj())
    proj2 = np.outer(v2.vec, v2.vec.conj())
    delta_nm_mat = _normalized_positive_part(proj2 - proj1, proj2)
    reduced = opalg.partial_trace_pure(pair.rhoN_pur, range(M))
    coeff = 2.0 * math.sqrt(2.0) / mu * math.exp(-M * R / (2.0 * N))
    gap = reduced.mat / mu ** 2 + coeff * delta_nm_mat - proj2
    trace.add(Certificate("conditioned-to-truncated dominance",
                          float(eigh(gap)[0][0]), CERT_TOL))

    trace.add(symmetry.verify_power_inequality(v2, pair.rho_pur, N, M, R,
                                               CERT_TOL))
    delta_nmr_mat = symmetry.beta_truncation_delta(v2, pair.rho_pur, N)

    pair_shape = v2.shape
    delta_nm = _trace_environments(
        opalg.partial_trace(HermitianOperator(pair_shape, delta_nm_mat),
                            range(R)), d)
    delta_nmr = _trace_environments(
        opalg.partial_trace(HermitianOperator(pair_shape, delta_nmr_mat),
                            range(R)), d)
    _assemble_sigma_tilde(trace, schedule, delta_nm, delta_nmr)
    return trace


def _step2_reduced(trace: PipelineTrace, schedule: Schedule) -> PipelineTrace:
    """Unpurified route for pure base states: conditioning and truncation act
    on rho_N itself, with the fidelity floor taken from the first step."""
    N, M, R = schedule.N, schedule.M, schedule.R
    d = trace.rho.total_dim
    mu = trace.mu_N
    trace.schedule = schedule

    w, V = trace.rho.eig()
    q = PureState(trace.rho.shape, V[:, -1])
    q_m = opalg.pure_power(q, M) if M else None
    rho_N_mat = trace.rho_N.mat
    if M:
        dm, dn = d ** M, d ** (N - M)
        t = rho_N_mat.reshape(dm, dn, dm, dn)
        block = np.einsum("a,abcd,c->bd", q_m.vec.conj(), t, q_m.vec)
    else:
        block = rho_N_mat
    weight = float(np.trace(block).real)
    if weight <= 1e-12:
        raise PremiseFailed("conditioning annihilated rho_N")
    shape_nm = SystemShape((d,) * (N - M))
    rho_nm = DensityMatrix(HermitianOperator(shape_nm, block / weight))
    reduced = opalg.partial_trace(trace.rho_N.op, range(M))
    gap = reduced.mat / mu ** 2 - rho_nm.mat
    trace.add(Certificate("conditioned-state dominance",
                          float(eigh(gap)[0][0]), 1e-9))

    # defect projector with respect to the base ray
    comps_proj = symmetry.defect_projector(q, N - M, R)
    kept = comps_proj @ rho_nm.mat @ comps_proj
    p_keep = float(np.trace(kept).real)
    if p_keep <= 1e-12:
        raise PremiseFailed("tail truncation annihilated the state")
    rho_r = DensityMatrix(HermitianOperator(shape_nm, kept / p_keep))
    dist = opalg.trace_norm_mat(rho_r.mat - rho_nm.mat)
    bound = 2.0 * math.sqrt(2.0) / mu * math.exp(-M * R / (2.0 * N))
    trace.add(Certificate("tail-truncation distance bound", bound - dist,
                          CERT_TOL))

    delta_nm_mat = _normalized_positive_part(rho_r.mat - rho_nm.mat,
                                             rho_r.mat)
    coeff = 2.0 * math.sqrt(2.0) / mu * math.exp(-M * R / (2.0 * N))
    gap = reduced.mat / mu ** 2 + coeff * delta_nm_mat - rho_r.mat
    trace.add(Certificate("conditioned-to-truncated dominance",
                          float(eigh(gap)[0][0]), CERT_TOL))

    delta_nm = opalg.partial_trace(HermitianOperator(shape_nm, delta_nm_mat),
                                   range(R))
    delta_nmr = opalg.partial_trace(HermitianOperator(shape_nm, rho_r.mat),
                                    range(R))
    _assemble_sigma_tilde(trace, schedule, delta_nm, delta_nmr)
    return trace


def relent_bound_certificate(trace: PipelineTrace,
                             schedule: Schedule) -> Certificate:
    """Relative-entropy consequence of the assembled dominance."""
    N, M, R = schedule.N, schedule.M, schedule.R
    n_red = schedule.reduced_copies
    rho_red = DensityMatrix(opalg.tensor_power(trace.rho.op, n_red))
    dval = relative_entropy(rho_red, trace.sigma_tilde).value
    bound = (N * (trace.y + binary_entropy(R / (N - M)))
             + math.log2(N ** 2 / trace.mu_N ** 3)
             + math.log2(1.0 + 0.5 * trace.eps_N))
    margin = bound - dval
    cert = Certificate("relative-entropy budget", margin, CERT_TOL)
    trace.add(cert)
    return cert


def asym_free_certificate(trace: PipelineTrace, schedule: Schedule,
                          family_reduced: FreeFamily,
                          settings: SolverSettings = SolverSettings()) -> Certificate:
    """Certify that sigma_tilde sits within eps_N of the free family."""
    marg = opalg.partial_trace(trace.sigma_N.op, range(schedule.M + schedule.R))
    start = DensityMatrix(marg)
    res = distance_to_family(trace.sigma_tilde, family_reduced, settings,
                             start=start)
    cert = Certificate("near-free distance", trace.eps_N - res.value, 1e-6)
    trace.add(cert)
    return cert


@dataclass(frozen=True)
class SandwichReport:
    """Two-sided finite-size bracket of the near-free minimization."""

    certificate: Certificate
    free_value: float          # per-copy minimum over the family
    eps_value: float           # per-copy minimum allowing the eps ball
    lower_bound: float
    upper_bound: float


def finite_n_sandwich(rho: DensityMatrix, family: FreeFamily, eps: float,
                      settings: SolverSettings = SolverSettings()) -> SandwichReport:
    """Bracket the eps-ball minimization between explicit finite-size bounds.

    The upper bound is the plain family minimum (set inclusion); the lower
    bound subtracts the continuity and mixing penalties evaluated with the
    family's per-copy witness floor.  The eps-ball minimum itself is taken
    as the better of the family minimum and a line of mixtures toward the
    power state, searched within the allowed distance.
    """
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    N = family.copies
    rho_pow = DensityMatrix(opalg.tensor_power(rho.op, N))
    res = rel_ent_of_resource(rho_pow, family, settings)
    d_free = res.value
    sigma_star = res.minimizer.mat

    def candidate(t: float) -> float:
        mix = (sigma_star + t * rho_pow.mat) / (1.0 + t)
        return relative_entropy(rho_pow,
                                DensityMatrix(HermitianOperator(
                                    family.shape, mix))).value

    ts = np.linspace(0.0, eps / 2.0, 9)
    best = min(candidate(float(t)) for t in ts)
    d_eps = min(d_free, best)

    lam_n = family.full_rank_witness().lambda_min()
    lam = lam_n ** (1.0 / N)
    log_term = math.log2((1.0 + 2.0 * eps) / eps) + N * math.log2(1.0 / lam)
    cont = (3.0 * log_term ** 2 * math.sqrt(eps)
            / (1.0 - eps * lam ** N / (2.0 * (1.0 + 2.0 * eps))))
    penalty = (1.0 + 2.0 * eps) * cont + 2.0 * eps * (
        N * math.log2(1.0 / lam) + 1.0)
    lower = (d_free - penalty) / N
    upper = d_free / N
    value = d_eps / N
    margin = min(value - lower, upper - value)
    cert = Certificate("near-free sandwich", margin, 1e-9)
    return SandwichReport(cert, upper, value, lower, upper)


def run_direct_part(rho: DensityMatrix, y: float, N: int, family: FreeFamily,
                    settings: SolverSettings = SolverSettings(),
                    schedule: Schedule | None = None) -> PipelineTrace:
    """Full chain; aborts at the first failed certificate."""
    trace = step1(rho, y, N, family, settings)
    sched = schedule or mr_schedule(N)
    step2(trace, sched)
    relent_bound_certificate(trace, sched)
    asym_free_certificate(trace, sched,
                          family.at_copies(sched.reduced_copies), settings)
    return trace


def save_trace(trace: PipelineTrace, outdir: str) -> None:
    """One operator file per named state plus certificates.csv."""
    os.makedirs(outdir, exist_ok=True)
    named = {
        "sigma_N": trace.sigma_N,
        "rho_N": trace.rho_N,
        "sigma_tilde": trace.sigma_tilde,
        "delta_tilde": trace.delta_tilde,
    }
    for name, state in named.items():
        if state is not None:
            opalg.save_density(state, os.path.join(outdir, f"{name}.op"))
    with open(os.path.join(outdir, "certificates.csv"), "w", newline="",
              encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["name", "margin", "tolerance", "pass"])
        for cert in trace.certificates:
            writer.writerow([cert.name, f"{cert.margin:.12g}",
                             f"{cert.tolerance:.12g}",
                             "true" if cert.passed else "false"])
