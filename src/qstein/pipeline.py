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
from .opalg import DensityMatrix, HermitianOperator, eigh
from .optim import (OptResult, SolverSettings, distance_to_family,
                    min_positive_part, rate_threshold, rel_ent_of_resource)
from .typeclass import TypeClassCoords

PREMISE_WINDOW = 1e-4
CERT_TOL = 1e-8
DOMINATED_STATE_TOL = 1e-9


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


def conditioning_weight(N: int, M: int, R: int, x: float) -> float:
    """2 sqrt(2)/x e^{-MR/(2N)}, the conditioning weight at fidelity x."""
    return 2.0 * math.sqrt(2.0) / x * math.exp(-M * R / (2.0 * N))


def _epsilon_terms(N: int, M: int, R: int, y: float,
                   mu: float) -> tuple[float, float, float]:
    """Mixing weight eps and the weights a (conditioning) and b (tail
    truncation) of its two approximation steps."""
    a = conditioning_weight(N, M, R, mu)
    b = symmetry.truncation_weight(N, R)
    return 2.0 * mu ** 3 / rate_threshold(y, N) * (a + b), a, b


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
    sigma_N: HermitianOperator | None = None
    rho_N: HermitianOperator | None = None
    schedule: Schedule | None = None
    eps_N: float = 0.0
    c_N: float = 0.0
    sigma_tilde: DensityMatrix | None = None
    delta_tilde: DensityMatrix | None = None
    # step 2's sigma_N marginal and rho^{x (N-M-R)}, for the rows after it
    sigma_marginal: HermitianOperator | None = None
    rho_reduced: HermitianOperator | None = None
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


def dominated_state(rho: HermitianOperator | opalg.Power,
                    X: HermitianOperator, Delta: HermitianOperator,
                    rest: np.ndarray | tuple = ()
                    ) -> tuple[DensityMatrix, float, float]:
    """The dominated-state lemma on a block of operators rho (+) 0,
    X (+) diag(rest) and Delta (+) 0; ``rest`` is empty for dense operators.

    Premise: rho <= X + Delta with Tr Delta < 1, checked here.  The witness
    T rho T^dag, T = X^{1/2} (X + Delta)^{-1/2}, is returned as a state on
    rho's shape with the margins of its dominance by X/(1 - Tr Delta) and
    of its fidelity to rho, for the caller to record: a failed conclusion
    is a negative margin, not an error.  Off the block rho and the witness
    vanish, so there the margins are the values of ``rest``, which are also
    diagonal entries of X's block: the largest eigenvalues of X and
    X + Delta, which set the support cutoffs of T's roots
    (``opalg.support_split``), are their blocks'.
    """
    floor = float(np.min(rest, initial=math.inf))
    s_mat = X.mat + Delta.mat
    lam = min(float(eigh(s_mat - rho.mat)[0][0]), floor)
    tr_delta = Delta.trace()
    if lam < -DOMINATED_STATE_TOL or tr_delta >= 1.0:
        raise PremiseFailed(
            f"need rho <= X + Delta with Tr Delta < 1 "
            f"(margin {lam:.3e}, Tr Delta {tr_delta:.6f})")
    T = opalg.sqrt_psd(X.mat, tol=1e-8) @ opalg.pinv_sqrt_psd(s_mat)
    out = T @ rho.mat @ T.conj().T
    tr = float(np.trace(out).real)
    if tr <= 0.0:
        raise ConstructionFailed("contraction annihilated the state")
    tilde = DensityMatrix(rho.shape, out / tr)
    bound = X.mat / (1.0 - tr_delta)
    m_op = min(float(eigh(bound - tilde.mat)[0][0]),
               floor / (1.0 - tr_delta))
    m_fid = opalg.fidelity(tilde, rho) - (1.0 - tr_delta)
    return tilde, m_op, m_fid


def _lemma_operands(power: opalg.Power, b: float, res: OptResult,
                    coords: TypeClassCoords | None):
    """sigma_N, the lemma's rho, X = b sigma_N and complement values, and
    the map of its witness to the dense rho_N.

    Where the threshold solve ran on the power's class block
    (``coords.small``, a pure base), each is the T x T block on the class
    vectors (``TypeClassCoords.threshold_operands``), and rho_N is lifted
    from it (``TypeClassCoords.lift``); sigma_N is checked as the state
    diag(w), a check at least as strict as one of its d^N eigenvalues
    w_t / |T_t|.  Else they are the dense power and b times the twirled
    minimizer, checked d^N wide."""
    if coords is None or coords.small is None:
        sigma_N = DensityMatrix(res.minimizer.shape,
                                symmetry.twirl(res.minimizer).mat)
        X = HermitianOperator(sigma_N.shape, b * sigma_N.mat)
        return sigma_N, power, X, (), lambda m: m
    opalg.density(res.weights)  # sigma_N's state check
    sigma_N = HermitianOperator(power.shape, coords.dense(res.weights))
    small, v, rest = coords.threshold_operands(b, res.weights)
    return (sigma_N, opalg.operator(small), opalg.operator(np.diag(v)), rest,
            coords.lift)


def step1(rho: DensityMatrix, y: float, N: int, family: FreeFamily,
          settings: SolverSettings = SolverSettings()) -> PipelineTrace:
    """Threshold minimization, optimizer, dominated-state extraction.

    Requires the minimized value to sit strictly inside (0, 1); produces
    mu_N, the permutation-invariant free optimizer sigma_N, and the
    permutation-invariant rho_N dominated by (2^{yN}/mu_N) sigma_N with
    fidelity at least mu_N to the power state.  mu_N = 1 - Tr Delta for
    Delta = (rho^{x N} - 2^{yN} sigma_N)_+, so the lemma's two conclusions
    (:func:`dominated_state`) are step 1's two rows, recorded at the
    lemma's tolerance ``DOMINATED_STATE_TOL``.  A solve in
    type-class coordinates on a pure base (``TypeClassCoords.of``) runs it,
    and the state checks, on the class block (:func:`_lemma_operands`);
    sigma_N and rho_N are then built d^N wide, and not decomposed.
    """
    if not 0.0 < y < math.inf:
        raise ValueError(f"the rate y={y} must be positive and finite")
    opalg.check_dense_power(rho.total_dim, N, opalg.SOLVE_DIM_CAP)
    trace = PipelineTrace(rho, y, N, family)
    power = opalg.Power(rho, N)
    b = rate_threshold(y, N)
    family_N = family.at_copies(N)
    res = min_positive_part(power, b, family_N, settings)
    sigma_N, target, X, rest, to_dense = _lemma_operands(
        power, b, res, TypeClassCoords.of(family_N, power))
    Delta = opalg.positive_part(HermitianOperator(X.shape,
                                                  target.mat - X.mat))
    value = Delta.trace()
    if value <= PREMISE_WINDOW or value >= 1.0 - PREMISE_WINDOW:
        raise PremiseOutOfInterval(
            f"threshold value {value:.6f} outside ({PREMISE_WINDOW}, "
            f"{1.0 - PREMISE_WINDOW}) at y={y}, N={N}")
    tilde, m_op, m_fid = dominated_state(target, X, Delta, rest)
    trace.mu_N = 1.0 - value
    trace.sigma_N = sigma_N
    trace.rho_N = HermitianOperator(power.shape, to_dense(tilde.mat))
    trace.add(Certificate("step1 operator dominance", m_op,
                          DOMINATED_STATE_TOL))
    trace.add(Certificate("step1 fidelity floor", m_fid, DOMINATED_STATE_TOL))
    return trace


def step2(trace: PipelineTrace, schedule: Schedule) -> PipelineTrace:
    """Conditioning, tail truncation, and the assembled dominance certificate.

    One chain for every base state, on the pair of
    :func:`symmetry.perm_invariant_purification`: the pair's overlap floor,
    conditioning the first M copies on the IID ray, the cut to at most R
    defects, and the system marginal of the correction states.  The second
    correction state differs by pair: the purification of a mixed base
    state takes the large-amplitude cut of ``beta_truncation_delta`` with
    its power-state tail bound, and the ray pair of a pure one (reduced
    mode, environment dimension 1) the truncated state itself.  Giving the
    ray pair the beta cut moves sigma~ at N >= 7 and leaves the near-free
    distance at N = 7, y = h(0.8) + 0.1 short of certified (gap 3.0e-3
    against 3.6e-9).
    """
    N, M, R = schedule.N, schedule.M, schedule.R
    if N != trace.N:
        raise ValueError("schedule does not match the trace")
    trace.schedule = schedule
    _check_step2_cap(trace.rho, N)
    pair = symmetry.perm_invariant_purification(trace.rho, trace.rho_N)
    d = trace.rho.total_dim
    env = pair.rho_pur.shape.total_dim // d
    trace.reduced_mode = env == 1
    trace.add(Certificate("purification overlap floor",
                          pair.overlap - trace.mu_N, CERT_TOL))

    v1, reduced, cert_cond = symmetry.conditioned_state(pair, M)
    trace.add(cert_cond)

    v2, dist = symmetry.truncate_to_almost_power(v1, pair.rho_pur, R)
    proj_v2 = np.outer(v2.vec, v2.vec.conj())
    delta_nm_mat = _truncation_certificates(
        trace, schedule, pair.overlap, dist, reduced.mat,
        np.outer(v1.vec, v1.vec.conj()), proj_v2)

    if trace.reduced_mode:
        delta_nmr_mat = proj_v2
    else:
        cert, delta_nmr_mat = symmetry.verify_power_inequality(
            v2, pair.rho_pur, N, M, R)
        trace.add(cert)

    pair_dims = (d, env) * schedule.reduced_copies

    def system_marginal(mat: np.ndarray) -> HermitianOperator:
        """Trace out the first R copy pairs, then every pair's environment."""
        tail = opalg.partial_trace(HermitianOperator(v2.shape, mat), range(R))
        return opalg.partial_trace(opalg.operator(tail.mat, pair_dims),
                                   range(1, len(pair_dims), 2))

    _assemble_sigma_tilde(trace, schedule, system_marginal(delta_nm_mat),
                          system_marginal(delta_nmr_mat))
    return trace


def _check_step2_cap(rho: DensityMatrix, N: int) -> None:
    """DimensionCap unless step 2's pair fits the dense cap: d^N for the ray
    pair of a pure base state (``opalg.support_ray``), (d^2)^N for the
    purification of a mixed one.  It reads the base state and N alone, so
    the chain checks it before step 1."""
    d = rho.total_dim
    pure = opalg.support_ray(rho.mat) is not None
    width = (d if pure else d * d) ** N
    if width > opalg.DENSE_DIM_CAP:
        raise DimensionCap(f"{'ray pair' if pure else 'purified'} dimension "
                           f"{width} exceeds cap {opalg.DENSE_DIM_CAP}")


def _log2_dominance_factor(trace: PipelineTrace, schedule: Schedule) -> float:
    """log2 of the factor by which the assembled near-free state dominates
    the power state: N(y + h(R/(N-M))) + log2(N^2/mu^3) + log2(1 + eps/2)."""
    N, M, R = schedule.N, schedule.M, schedule.R
    return (N * (trace.y + binary_entropy(R / (N - M)))
            + math.log2(N ** 2 / trace.mu_N ** 3)
            + math.log2(1.0 + 0.5 * trace.eps_N))


def _assemble_sigma_tilde(trace: PipelineTrace, schedule: Schedule,
                          delta_nm: HermitianOperator,
                          delta_nmr: HermitianOperator) -> None:
    """Tail of step 2: mixing weight, blended correction state, near-free
    state, and the final dominance certificate."""
    N, M, R = schedule.N, schedule.M, schedule.R
    mu, y = trace.mu_N, trace.y
    eps, a, b = _epsilon_terms(N, M, R, y, mu)
    trace.eps_N = eps
    threshold = rate_threshold(y, N)
    trace.c_N = eps * threshold / (2.0 * mu)
    blended = (a * delta_nm.mat + b * delta_nmr.mat) / (a + b)
    shape = delta_nm.shape
    trace.delta_tilde = DensityMatrix(shape, blended)
    trace.sigma_marginal = opalg.partial_trace(trace.sigma_N, range(M + R))
    sig_tilde = ((trace.sigma_marginal.mat + 0.5 * eps * blended)
                 / (1.0 + 0.5 * eps))
    trace.sigma_tilde = DensityMatrix(shape, sig_tilde)

    factor = 2.0 ** _log2_dominance_factor(trace, schedule)
    trace.rho_reduced = opalg.tensor_power(trace.rho,
                                           schedule.reduced_copies)
    margin = float(eigh(factor * sig_tilde - trace.rho_reduced.mat)[0][0])
    trace.add(Certificate("assembled power-state dominance", margin, CERT_TOL))


def _truncation_certificates(trace: PipelineTrace, schedule: Schedule,
                             overlap: float, dist: float, reduced: np.ndarray,
                             before: np.ndarray,
                             after: np.ndarray) -> np.ndarray:
    """Certificates of the tail truncation.

    ``before`` and ``after`` are the conditioned and the truncated state,
    ``dist`` their trace distance, ``overlap`` the fidelity floor that
    bounds it, and ``reduced`` the partial trace over the first M copies.
    Returns the normalized positive part of ``after - before``.
    """
    N, M, R = schedule.N, schedule.M, schedule.R
    mu = trace.mu_N
    trace.add(Certificate("tail-truncation distance bound",
                          conditioning_weight(N, M, R, overlap) - dist,
                          CERT_TOL))
    delta = opalg.normalized_positive_part(after - before, after)
    gap = reduced / mu ** 2 + conditioning_weight(N, M, R, mu) * delta - after
    trace.add(Certificate("conditioned-to-truncated dominance",
                          float(eigh(gap)[0][0]), CERT_TOL))
    return delta


def relent_bound_certificate(trace: PipelineTrace,
                             schedule: Schedule) -> Certificate:
    """Relative-entropy consequence of the assembled dominance."""
    dval = relative_entropy(trace.rho_reduced, trace.sigma_tilde)
    cert = Certificate("relative-entropy budget",
                       _log2_dominance_factor(trace, schedule) - dval,
                       CERT_TOL)
    trace.add(cert)
    return cert


def asym_free_certificate(trace: PipelineTrace, schedule: Schedule,
                          family_reduced: FreeFamily,
                          settings: SolverSettings = SolverSettings()) -> Certificate:
    """Certify that sigma_tilde sits within eps_N of the free family,
    searching from sigma_N's marginal."""
    res = distance_to_family(trace.sigma_tilde, family_reduced, settings,
                             start=trace.sigma_marginal)
    cert = Certificate("near-free distance", trace.eps_N - res.value, 1e-6)
    trace.add(cert)
    return cert


@dataclass(frozen=True)
class SandwichReport:
    """Two-sided finite-size bracket of the near-free minimization."""

    certificate: Certificate
    eps_value: float           # per-copy minimum allowing the eps ball
    lower_bound: float
    upper_bound: float         # per-copy minimum over the family


def finite_n_sandwich(rho: DensityMatrix, family: FreeFamily, eps: float,
                      settings: SolverSettings = SolverSettings()) -> SandwichReport:
    """Bracket the eps-ball minimization between explicit finite-size bounds.

    The upper bound is the plain family minimum (set inclusion); the lower
    bound subtracts the continuity and mixing penalties evaluated with the
    family's per-copy witness floor.  The eps-ball minimum itself is taken
    as the better of the family minimum and a line of mixtures toward the
    power state, searched within the allowed distance.
    """
    if not 0.0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")
    N = family.copies
    power = opalg.Power(rho, N)
    res = rel_ent_of_resource(power, family, settings)
    d_free = res.value
    sigma_star = res.minimizer.mat

    def candidate(t: float) -> float:
        mix = (sigma_star + t * power.mat) / (1.0 + t)
        return relative_entropy(power, HermitianOperator(family.shape, mix))

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
    return SandwichReport(cert, value, lower, upper)


def run_direct_part(rho: DensityMatrix, y: float, N: int, family: FreeFamily,
                    settings: SolverSettings = SolverSettings()) -> PipelineTrace:
    """Full chain; aborts at the first failed certificate.  The schedule and
    step 2's cap are checked first, so an N either rejects costs no
    threshold solve."""
    sched = mr_schedule(N)
    _check_step2_cap(rho, N)
    trace = step1(rho, y, N, family, settings)
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
            opalg.save_operator(state, os.path.join(outdir, f"{name}.op"))
    with open(os.path.join(outdir, "certificates.csv"), "w", newline="",
              encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["name", "margin", "tolerance", "pass"])
        for cert in trace.certificates:
            writer.writerow([cert.name, f"{cert.margin:.12g}",
                             f"{cert.tolerance:.12g}",
                             "true" if cert.passed else "false"])
