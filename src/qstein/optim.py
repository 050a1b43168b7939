"""Convex optimization over free families: the solvers.

Every minimization here is projection-free and runs through one routine,
``fw.anneal``, a fully-corrective Frank-Wolfe loop, except the threshold
minimum of a rank-one target on the symmetric subspace (a pure power),
which has a closed form (``typeclass.rank_one_optimum``), and the
hypothesis-test dual on a family that declares ``one_member``, a search in
one weight (``_one_member_dual``).  The nonsmooth positive part is handled
by annealing its softplus surrogate (``typeclass.pospart_eval``) over a
schedule of temperatures tau while tracking the exact objective at every
point probed; reported values are always exact evaluations, and the
reported duality gap is computed from the exact subgradient, so it
upper-bounds the true suboptimality.  The corrective step reads the
Daleckii-Krein form of the surrogate's Hessian, and the second-order form
for the relative entropy (``_relent_eval``).

A solver is that routine plus its data (m is ``settings.max_iters``; a tau of
``exact`` runs on the exact objective and its gradient; a stage makes at
most "calls/stage" oracle calls and ends at the oracle's "gap" target):

    solver                  tau schedule      calls/stage    gap
    rel_ent_of_resource     exact             max(12, m//8)  tol
    min_positive_part       ANNEAL_TAUS       max(12, m//24) tol/4
      rank-one target       none: the closed form, then the exit bound
    hypothesis_dual         DUAL_TAUS:        max(20, m//3)  tol/4
                            1 (a warm-up of at most DUAL_WARMUP calls),
                            then ANNEAL_TAUS
      one-member family     none: tangent and secant steps in b, exact probes
    hypothesis_primal       reads the tau = 1e-6 stage's end, and its atoms,
                            of the dual; cuts solved by lp.maximize_packing
      one-member family     reads the search's end; one cut, closed form

The dual's warm-up is continuation in the smoothing parameter: at tau = 1
the surrogate is smooth, and with ``_dual_eval``'s offset its minimizer is
X = eta at every tau whenever eta lies in the search's hull, so a few cheap
oracle calls collect atoms near the optimum and the sharp tau = 1e-3 stage
starts there instead of cold at K times a member.  The warm-up never ends the
schedule (``fw.anneal``), and its cap keeps an expensive oracle from
collecting atoms the sharp stages drop.  The threshold searches take no
warm-up: they are warm-started along rate sweeps, and their optimum moves
with tau.

Each solver reports as ``fw_gap`` its value minus the best Frank-Wolfe
lower bound f(x) - gap(x) over its best probe and its stage ends
(``fw.fw_bound``), with an exact (sub)gradient at each: -b P for the
positive part, from its probe at tau = None, whose f is the linear minorant
Tr[P (rho - b sigma)].  The trace distance and the robustness's
feasibility test are positive-part problems and run through
``min_positive_part``: ||sigma~ - sigma||_1 = 2 Tr[(sigma~ - sigma)_+] for
unit-trace states, and (1+s) sigma >= rho iff Tr[(rho - (1+s) sigma)_+]
vanishes.

``hypothesis_primal`` reads its test off the iterate at the end of the
dual's tau = 1e-6 stage with a cutting-plane linear program, whose first
cuts are that iterate's atoms.  The program is solved by the small simplex of
``lp.maximize_packing``, which starts at e = 0; a program of one cut is a
fractional knapsack, solved in closed form (``_one_row_optimum``).  Both
ends of the bracket share one solve: the last dual solve is memoized, so a
primal and a dual call on the same inputs, in either order, solve once.
Oracles and iterates are plain matrices, and a solver returns its minimizer
unvalidated, as a ``HermitianOperator`` built on first read
(``OptResult.minimizer``): a ``DensityMatrix`` is built where a state
enters the program, since its check is a full eigendecomposition.  A
solver's target is a ``HermitianOperator`` (a ``DensityMatrix`` is one) or
an ``opalg.Power``, a base state and N, and ``typeclass.pick_search``
picks its search from that type alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from typing import Callable

import numpy as np

from . import lp, opalg
from .entropy import tr_x_log_x
from .errors import Infeasible, NoFullRankMember
from .freesets import FreeFamily
from .fw import (AtomStack, Tracker, anneal, fw_bound, in_eigenbasis,
                 tangents_meet, tr_prod)
from .opalg import DensityMatrix, HermitianOperator, eigh
from .typeclass import pick_search, pospart_eval, rank_one_optimum

# weight of the full-rank witness mixed into every relative-entropy probe
RELENT_FLOOR = 1e-9
# the temperatures of the annealed threshold searches
ANNEAL_TAUS = (1e-3, 1e-6, 1e-8)
# the dual's: a warm-up at tau = 1 of at most DUAL_WARMUP oracle calls, then
# ANNEAL_TAUS; the primal reads its test off the end of the PRIMAL_TAU stage
DUAL_TAUS = (1.0,) + ANNEAL_TAUS
DUAL_WARMUP = 16
PRIMAL_TAU = 1e-6
# the one-member search's ends: a gap below TANGENT_GAP between the value at
# hi and the tangents' bound puts hi at the minimum to rounding; a slope jump
# above SLOPE_JUMP across the bracket is a kink, and below it the minimum is
# smooth and the secant steps end at a slope of at most SLOPE_FLAT
TANGENT_GAP = 16.0 * float(np.finfo(float).eps)
SLOPE_JUMP = 1e-6
SLOPE_FLAT = 1e-14


def rate_threshold(y: float, n: int) -> float:
    """2^{yn}, the threshold of rate y on n copies, if it is a finite float
    (yn < 1024); else a ValueError naming the rate."""
    if not y * n < 1024.0:
        raise ValueError(f"the rate y={y} gives no finite 2^(yN) at N={n}")
    return 2.0 ** (y * n)


@dataclass(frozen=True)
class SolverSettings:
    """Shared solver knobs; tol is the exit duality-gap target."""

    max_iters: int = 400
    tol: float = 1e-7
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.tol < math.inf or self.max_iters < 1:
            raise ValueError(f"need 0 < tol < inf and max_iters >= 1: {self}")


@dataclass(frozen=True)
class OptResult:
    """Outcome of a family minimization.

    ``value`` is the exact objective at ``minimizer``.  ``fw_gap`` is a
    certified bound on its suboptimality: value minus a Frank-Wolfe lower
    bound f(x) - Tr[g (x - s)], with g an exact (sub)gradient at x and s the
    search's oracle answer to g.  x is the best probe and then, while the
    gap exceeds tol, each stage end, and the best bound is kept (the trace
    distance doubles its positive-part gap).  ``converged`` is
    ``fw_gap <= tol``.  ``iterations`` counts the oracle calls of the
    Frank-Wolfe stages.  ``weights`` is the minimizer in the search's
    coordinates; ``minimizer``, the mixture of oracle answers as a dense
    unvalidated operator, is built by ``to_dense`` on first read only, so a
    type-class solve makes nothing d^N wide unless a caller reads it.

    The bound is only as exact as the family's oracle.  On the separable
    hull the oracle is a seesaw heuristic, so there ``fw_gap`` and
    ``converged`` are measured against the heuristic's answer and are not
    certificates.
    """

    value: float
    weights: np.ndarray = field(repr=False)
    fw_gap: float
    iterations: int
    converged: bool
    to_dense: Callable[[np.ndarray], HermitianOperator] = field(repr=False)

    @cached_property
    def minimizer(self) -> HermitianOperator:
        return self.to_dense(self.weights)


def _feasible_start(family: FreeFamily, seed: int) -> np.ndarray:
    """The full-rank witness, else the oracle's answer to a zero gradient (a
    singular IID member has no full-rank witness)."""
    try:
        return family.full_rank_witness().mat
    except NoFullRankMember:
        d = family.total_dim
        return family.lmo(np.zeros((d, d)), seed)


def _certified(tracker: Tracker, iters: int, bound, family: FreeFamily,
               settings: SolverSettings, to_dense: Callable) -> OptResult:
    """Result with the best probe's value, at the best probe, which
    ``to_dense`` maps to the dense minimizer.

    Each point x tried gives the Frank-Wolfe lower bound ``bound(x)``
    (``fw_bound``) on the minimum.  ``fw_gap`` is the value minus the best
    bound over the best probe and then the stage ends, last first, for as
    long as the gap exceeds tol.
    """
    value = tracker.best_value
    gap = value - bound(tracker.best_mat)
    for _, x, _ in reversed(tracker.stage_ends):
        if gap <= settings.tol:
            break
        gap = min(gap, value - bound(x))
    gap = max(0.0, gap)
    return OptResult(value, tracker.best_mat, gap, iters, gap <= settings.tol,
                     lambda w: HermitianOperator(family.shape, to_dense(w)))


# ---------------------------------------------------------------------------
# positive-part minimization
# ---------------------------------------------------------------------------


def min_positive_part(rho: HermitianOperator | opalg.Power, b: float,
                      family: FreeFamily,
                      settings: SolverSettings = SolverSettings(),
                      start: HermitianOperator | OptResult | None = None
                      ) -> OptResult:
    """Minimize Tr[(rho - b sigma)_+] over the family.

    ``start`` may be an earlier result, whose minimizer is read only by an
    annealed solve.

    The search (``pick_search``) runs over the permutation-invariant
    members in type-class coordinates where ``rho`` is an ``opalg.Power``
    and ``TypeClassCoords.of`` holds, else over the family's vertices: on a
    power the objective is convex and permutation invariant, so twirling a
    minimizer gives an invariant one, and Frank-Wolfe needs at most one
    atom per type class.  The exit gap is certified with the search's own
    probe and oracle, at the exact probe's -b P (P over the eigenvalues
    above ``typeclass.POSPART_FLOOR`` (1 + b)) at the minimizer and then the
    stage ends (``_certified``): at a non-smooth minimizer P alone can leave
    a gap of order 10, and the end of a smoothed stage has a subgradient
    that certifies.

    Where the power's base is pure, its symmetric block is rank one, the
    minimizer has a closed form (``rank_one_optimum``) and nothing is
    annealed: ``start`` is unread, ``iterations`` is 0, and the value and
    gap come from the same exact probe and exit bound at the closed-form
    weights, so a rounding slip can widen the gap but never pass as
    certified.

    b = 0 takes the same search: the closed form puts all weight on the
    top class, and an annealed solve stops at its first oracle call, where
    the gradient -b P is 0; either way the value is the exact probe's
    Tr[rho_+].
    """
    if not 0.0 <= b < math.inf:
        raise ValueError(f"the threshold b must be in [0, inf), got {b}")
    family.check_dim(rho)
    search = pick_search(family, settings.seed, rho)
    weights = rank_one_optimum(search.coords, b)
    exact = search.pospart(b, None)
    if weights is None:
        if isinstance(start, OptResult):
            start = start.minimizer
        x0 = search.enter(_feasible_start(family, settings.seed)
                          if start is None else start.mat)
        tracker, iters = anneal(partial(search.pospart, b),
                                 ANNEAL_TAUS, search.lmo, x0,
                                 max(12, settings.max_iters // 24),
                                 settings.tol / 4.0)
    else:
        tracker, iters = Tracker(), 0
        tracker.offer(weights, exact(weights)[1])
    return _certified(tracker, iters,
                      partial(fw_bound, exact, lmo=search.lmo),
                      family, settings, search.to_dense)


# ---------------------------------------------------------------------------
# composite hypothesis test: primal and dual
# ---------------------------------------------------------------------------


def _dual_eval(pospart, K: float, tau: float):
    """Probe of the surrogate of Tr[(eta - X)_+] + Tr X / K, with
    ``pospart(tau, offset)`` the probe of the first term.  The offset sets
    the slope at a zero eigenvalue of eta - X to 1/K, as at an optimum X =
    eta; at slope 1/2 the smoothed minimizer sits O(tau) off it, outside the
    cone when eta has eigenvalues below tau."""
    offset = -math.log(K - 1.0) if K > 1.0 else 0.0
    pospart = pospart(tau, offset)

    def probe(x: np.ndarray):
        smooth, exact, grad, local = pospart(x)
        mass = float(x.trace().real) / K

        def with_mass(mats):
            stack = AtomStack.of(mats)
            jac, hess = local(stack)
            return jac + stack.traces / K, hess
        return (smooth + mass, exact + mass,
                lambda: grad() + np.eye(len(x)) / K, with_mass)
    return probe


# The last dual solve: (copy of eta, K, family, settings, best value,
# primal iterate, its atoms).
_DUAL_MEMO = None


def _dual_search(eta: HermitianOperator | opalg.Power, K: float,
                 family: FreeFamily,
                 settings: SolverSettings) -> tuple[float, np.ndarray, list]:
    """Annealed solve of the dual over X = b sigma on ``DUAL_TAUS``: the
    exact value at its best probe, and the dense iterate at the end of its
    ``PRIMAL_TAU`` stage (of the last stage run, if the schedule stops
    before it) and its atoms of positive weight, from which the primal
    reads its test and its first cuts.  The schedule opens with a warm-up
    at tau = 1 of at most ``DUAL_WARMUP`` oracle calls, which never ends
    it.  Below K = 1 it starts at the optimum X = 0 (value >= 1 - b + b/K
    >= 1), as the oracle's zero atom would absorb a start K sigma near 0.

    The last solve is kept in a one-entry memo, so that a primal and a dual
    call on the same inputs share it, in either order.  A call reuses it
    when ``family`` is the same object, K and ``settings`` are equal and
    ``eta.mat`` equals the memo's copy entry by entry.  Families are
    matched by identity because not all of them can be hashed; the memo
    holds the family, so its identity cannot pass to a new object.  Reading
    the memo and replacing it are each one atomic step, so threads that
    race at worst both solve.
    """
    global _DUAL_MEMO
    memo, eta_mat = _DUAL_MEMO, eta.mat
    if (memo is not None and memo[2] is family and memo[1] == K
            and memo[3] == settings and np.array_equal(memo[0], eta_mat)):
        return memo[4:]
    if family.one_member:
        out = _one_member_dual(eta_mat, K, family.lmo(np.zeros_like(eta_mat),
                                                      settings.seed))
    else:
        search = pick_search(family, settings.seed, eta)

        def lmo(grad: np.ndarray) -> np.ndarray:
            s = K * search.lmo(grad)
            return s if tr_prod(grad, s) < 0.0 else np.zeros_like(s)

        member = search.enter(_feasible_start(family, settings.seed))
        tracker, _ = anneal(
            partial(_dual_eval, partial(search.pospart, 1.0), K),
            DUAL_TAUS, lmo, (K >= 1.0) * member,
            max(20, settings.max_iters // 3), settings.tol / 4.0,
            DUAL_WARMUP)
        ends = tracker.stage_ends
        _, x, held = next((e for e in ends if e[0] == PRIMAL_TAU), ends[-1])
        out = (tracker.best_value, search.to_dense(x),
               [search.to_dense(m) for m in held])
    _DUAL_MEMO = (eta_mat.copy(), K, family, settings) + out
    return out


def _one_member_dual(eta_mat: np.ndarray, K: float,
                     s: np.ndarray) -> tuple[float, np.ndarray, list]:
    """min over b in [0, K] of g(b) = Tr[(eta - b s)_+] + b/K, the dual on
    {s}: the dual's exact probe at b s gives g(b) and the slope Tr[grad s]
    = 1/K - Tr[P s], non-decreasing in b as g is convex.  The optimum is 0
    or K if the slope there says so, else in the bracket [0, K], which
    ``_kink_search`` closes.  Returns the least g probed (feasible, so an
    upper bound), the iterate hi s, where the slope is >= 0, no atoms."""
    probe = _dual_eval(partial(pospart_eval, eta_mat, 1.0), K, None)
    values = []

    def at(b: float) -> tuple[float, float, float]:
        _, exact, grad, _ = probe(b * s)
        values.append(exact)
        return b, exact, tr_prod(grad(), s)

    lo = at(0.0)
    hi = lo if lo[2] >= 0.0 else at(K)
    if lo[2] < 0.0 < hi[2]:
        hi = _kink_search(at, lo, hi)
    return min(values), hi[0] * s, []


def _kink_search(at, lo: tuple, hi: tuple) -> tuple:
    """The end hi = (b, g(b), g'(b)) of a bracket [lo, hi] about the
    minimum of a convex g, g'(lo) < 0 <= g'(hi), closed with the probe
    ``at(b) -> (b, g(b), g'(b))``.

    Each step probes where the tangents at lo and hi meet
    (``tangents_meet``); on a kink between two linear pieces (eta and s
    commute) that is the kink to rounding.  The tangents stop
    helping when their meeting point leaves the open bracket, or g(hi)
    lies within ``TANGENT_GAP`` of their bound, which no g on the bracket
    undercuts.  Then a slope jump above ``SLOPE_JUMP`` across the bracket
    is a kink, and hi, on it, ends the search.  Below that jump the
    minimum is smooth and the value, which places it only to sqrt(eps),
    gives way to secant steps on the slope until g'(hi) <= ``SLOPE_FLAT``:
    the primal reads its eigenbasis at hi.  A step bisects after three
    moves of the same end; the search stops at adjacent floats or after
    60 steps.  The gap test, not the slope's sign, ends the search at a
    kink: the exact probe drops eigenvalues below ``POSPART_FLOOR`` (1 +
    b), so the slope is flat over a band about 1e-14 wide beside it, and
    walking that band costs hundreds of probes."""
    smooth, moves = False, 0
    for _ in range(60):
        (a, ga, sa), (c, gc, sc) = lo, hi
        if not smooth:
            b = tangents_meet(lo, hi)
            if not a < b < c or gc - (ga + sa * (b - a)) <= TANGENT_GAP:
                if sc - sa > SLOPE_JUMP:
                    break
                smooth = True
        if smooth:
            if sc <= SLOPE_FLAT:
                break
            b = a - sa * (c - a) / (sc - sa)
        if abs(moves) >= 3 or not a < b < c:
            b = 0.5 * (a + c)
            if not a < b < c:
                break
        probe = at(b)
        if probe[2] >= 0.0:
            hi, moves = probe, max(moves, 0) + 1
        else:
            lo, moves = probe, min(moves, 0) - 1
    return hi


def hypothesis_dual(eta: HermitianOperator | opalg.Power, K: float,
                    family: FreeFamily,
                    settings: SolverSettings = SolverSettings()) -> float:
    """min over b in [0, K] and sigma of Tr[(eta - b sigma)_+] + b/K.

    One jointly convex solve in X = b sigma: annealed fully-corrective
    Frank-Wolfe on Tr[(eta - X)_+] + Tr X / K over the hull of {0} and K
    times the family.  The oracle at gradient g returns K s, s the family's
    answer, if Tr[g s] < 0, else 0; so every probe is feasible (b = Tr X <=
    K, X / b free by convexity) and the exact value at the best probe is a
    certified upper bound on the primal.  An ``opalg.Power`` eta is
    searched in type-class coordinates, as in ``min_positive_part``
    (``pick_search``).  On a family that declares ``one_member``, {s}, X =
    b s and the one weight b is searched with the same exact probe, by tangent
    steps to a kink and secant steps on the slope at a smooth minimum
    (``_one_member_dual``).  A ``hypothesis_primal`` call on the same inputs
    just before or after shares the solve (``_dual_search``).  The value is
    returned moved up by ``_rounding_allowance``, and the primal's moved
    down by it.
    """
    if not 0.0 < K < math.inf:
        raise ValueError(f"K must be positive and finite, got {K}")
    family.check_dim(eta)
    value = _dual_search(eta, K, family, settings)[0]
    return float(value) + _rounding_allowance(eta)


def _rounding_allowance(eta: HermitianOperator | opalg.Power) -> float:
    """d eps for a d-dimensional eta: each end of the bracket moves outward
    by it, so that rounding cannot put the dual below the primal where the
    two meet (a one-member family's do).  Both values lie in [0, 1], so
    their rounding is absolute, and the primal stays at least 0."""
    return eta.total_dim * float(np.finfo(float).eps)


def _one_row_optimum(gain: np.ndarray, row: np.ndarray) -> np.ndarray:
    """argmax gain.e subject to row.e <= 1 and 0 <= e <= 1, for a row >= 0
    up to rounding (a fractional knapsack): e = 1 where gain > 0 and row <=
    0, then the entries with gain, row > 0 by decreasing gain / row."""
    e = ((gain > 0.0) & (row <= 0.0)) * 1.0
    items = np.flatnonzero((gain > 0.0) & (row > 0.0))
    order = items[np.argsort(-gain[items] / row[items], kind="stable")]
    before = np.concatenate(([0.0], np.cumsum(row[order])[:-1]))
    e[order] = np.clip((1.0 - row @ e - before) / row[order], 0.0, 1.0)
    return e


def hypothesis_primal(eta: HermitianOperator | opalg.Power, K: float,
                      family: FreeFamily,
                      settings: SolverSettings = SolverSettings()) -> float:
    """Best acceptance probability Tr[E eta] of a test 0 <= E <= I whose
    error Tr[E sigma] is at most min(1, 1/K) on every free sigma; a lower
    bound attained by a feasible test, as far as the family's oracle is
    exact.

    The test is read off the dual's solve, which a ``hypothesis_dual`` call
    on the same inputs just before or after shares (``_dual_search`` keeps
    the last solve in a one-entry memo).  So a caller that asks for the
    primal alone pays for the dual's whole schedule.  At the dual's smoothed
    minimizer X* (the iterate at the end of its tau = 1e-6 stage) the
    surrogate's gradient is a nearly feasible, nearly optimal test, and an
    optimal test is diagonal in the eigenbasis v_j of eta - X* by
    complementary slackness.  (The best exact probe is no substitute: its
    eigenbasis can sit far off along directions in which the dual is flat.)
    So E = sum_j e_j v_j v_j^dag, with e in [0, 1]^d maximizing sum_j e_j
    <v_j|eta|v_j> by one linear program per round, whose rows are Kelley
    cutting planes sum_j e_j <v_j|s|v_j> <= budget, s free.  The first
    round has no rows, so its optimum is e_j = 1 where <v_j|eta|v_j> > 0
    and 0 elsewhere, with no linear program; a round with one row is a
    fractional knapsack, solved without one too (``_one_row_optimum``), and
    later rounds solve theirs with ``lp.maximize_packing``.  If the
    oracle's answer to -E breaks the budget, the rows become its cut and
    one cut per nonzero atom K s of X*, cut with s: by complementary
    slackness an optimal test makes those tight, so one program usually
    suffices.  Each later round adds the cut of its answer, until that
    answer exceeds the budget by at most a relative 1e-9, for at most
    ``max_iters`` rounds; any free s gives a valid cut, so feasibility
    rests on the oracle alone.  The rows are divided by the budget, so
    every right-hand side is 1 and the simplex's first basis, e = 0, is
    feasible; every basis after it is too, so the rows hold to rounding.
    The weights are clipped to [0, 1], and the value Tr[E eta] is scaled by
    min(1, budget / Tr[E s]) at the last answer s.

    On a one-member family {s}, X* = b s with no atoms: the test is the
    Neyman-Pearson test {eta - b s > 0} plus a fraction on the kernel, from
    the one row of the second round, and the third round passes.
    """
    if not 0.0 < K < math.inf:
        raise ValueError(f"K must be positive and finite, got {K}")
    family.check_dim(eta)
    budget = min(1.0, 1.0 / K)
    eta_mat = eta.mat
    _, x, held = _dual_search(eta, K, family, settings)
    _, V = eigh(eta_mat - x)

    def diag_in_basis(mat: np.ndarray) -> np.ndarray:
        return np.einsum("ij,ij->j", V.conj(), mat @ V).real

    gain = diag_in_basis(eta_mat)
    e = (gain > 0.0) * 1.0  # the optimum with no cuts
    cuts: list[np.ndarray] = []
    for _ in range(settings.max_iters):
        if len(cuts) == 1:
            e = _one_row_optimum(gain, cuts[0] / budget)
        elif cuts:
            e = lp.maximize_packing(gain, np.array(cuts) / budget)
        cost = diag_in_basis(family.lmo(-(V * e) @ V.conj().T, settings.seed))
        if cost @ e <= budget * (1.0 + 1e-9):
            break
        if not cuts:  # the dual's atoms, as K times free states
            cuts = [diag_in_basis(a) / a.trace().real for a in held if a.any()]
        cuts.append(cost)
    used = float(cost @ e)
    value = float(gain @ e) * (budget / used if used > budget else 1.0)
    return max(0.0, value - _rounding_allowance(eta))


# ---------------------------------------------------------------------------
# relative entropy of resource
# ---------------------------------------------------------------------------


def _log_first_differences(lam: np.ndarray) -> np.ndarray:
    """F1[i, j] = f[lam_i, lam_j], the divided difference of the natural log
    at a positive spectrum (1 / lam_i where the two coincide): log1p(x) /
    (x lo), with lo the smaller eigenvalue and x = |lam_i - lam_j| / lo,
    accurate for close and far eigenvalues alike."""
    lo = np.minimum.outer(lam, lam)
    x = np.abs(lam[:, None] - lam[None, :]) / lo
    return np.where(x > 0.0, np.log1p(x) / np.where(x > 0.0, x, 1.0),
                    1.0) / lo


def _log_second_differences(lam: np.ndarray, F1: np.ndarray,
                            js: slice) -> np.ndarray:
    """F2[i, j, m] = f[lam_i, lam_j, lam_m] of the natural log at a positive
    spectrum for the j in ``js``, from its first differences F1.

    Over the sorted triple x >= y >= z it is (f[x, y] - f[y, z]) / (x - z);
    f[., .] decreases in each argument, so f[x, y] and f[y, z] are the least
    and the largest of the triple's three first differences.  Where x - z <=
    1e-5 z it is -1 / (2 m^2) at the mean m instead.  Either way its relative
    error is about 1e-10.
    """
    li, lj, lm = lam[:, None, None], lam[None, js, None], lam[None, None, :]
    pairs = (F1[:, js, None], F1[None, js, :], F1[:, None, :])
    low = np.minimum(np.minimum(li, lj), lm)
    spread = np.maximum(np.maximum(li, lj), lm) - low
    near = spread <= 1e-5 * low
    num = (np.minimum(np.minimum(*pairs[:2]), pairs[2])
           - np.maximum(np.maximum(*pairs[:2]), pairs[2]))
    return np.where(near, -4.5 / (li + lj + lm) ** 2,
                    num / np.where(near, 1.0, spread))


def _relent_eval(rho_mat: np.ndarray, witness: np.ndarray):
    """Probe of D(rho || M) in bits at M = (1 - floor) sigma + floor
    witness, floor = ``RELENT_FLOOR``, an exact objective.  Its ``local`` is
    the exact Hessian in the coordinates of a stack of atoms A_k:
    with M = V diag(lam) V^dag, X~ = V^dag X V and f[...] the divided
    differences of log, the gradient is -c sum_ij f[lam_i, lam_j] rho~_ji
    (A~_k)_ij and the Hessian the second-order Daleckii-Krein form
    -c (1 - floor) sum_ijm f[lam_i, lam_j, lam_m] rho~_mi ((A~_k)_ij
    (A~_l)_jm + (A~_l)_ij (A~_k)_jm), c = (1 - floor) / ln 2."""
    tr_rho_log_rho = tr_x_log_x(rho_mat)
    c = (1.0 - RELENT_FLOOR) / math.log(2.0)

    def probe(sigma: np.ndarray):
        w, V = eigh((1.0 - RELENT_FLOOR) * sigma + RELENT_FLOOR * witness)
        w = np.clip(w, 1e-300, None)
        rho_t = V.conj().T @ rho_mat @ V
        value = tr_rho_log_rho - float(np.diag(rho_t).real @ np.log2(w))

        def grad():
            return -c * (V @ (_log_first_differences(w) * rho_t)
                         @ V.conj().T)

        def local(mats):
            stack = AtomStack.of(mats)
            B = in_eigenbasis(V, stack)
            F1 = _log_first_differences(w)
            rho_T = rho_t.T
            jac = -c * np.einsum("ij,kij->k", F1 * rho_T, B).real
            S = np.zeros((len(B), len(B)))
            # slabs of j with at most about 2^20 triples bound the memory
            step = max(1, 2 ** 20 // w.size ** 2)
            for start in range(0, w.size, step):
                js = slice(start, start + step)
                P = _log_second_differences(w, F1, js) * rho_T[:, None, :]
                # G[j, k, m] = sum_i B_k[i, j] F2[i, j, m] rho~[m, i]
                G = np.matmul(B[:, :, js].transpose(2, 0, 1),
                              P.transpose(1, 0, 2))
                S += np.tensordot(G, B[:, js, :], axes=([0, 2], [1, 2])).real
            return jac, -c * (1.0 - RELENT_FLOOR) * (S + S.T)
        return value, value, grad, local
    return probe


def rel_ent_of_resource(rho: HermitianOperator | opalg.Power,
                        family: FreeFamily,
                        settings: SolverSettings = SolverSettings()) -> OptResult:
    """min over the family of D(rho || sigma).

    Iterates are kept full rank by mixing a sliver of the full-rank witness
    into every evaluation point (the witness is free and the family convex,
    so membership is preserved exactly).  An ``opalg.Power`` rho searches
    the invariant members only, in type-class coordinates
    (``pick_search``), as in ``min_positive_part``: on a power the optimum
    mixes every vertex.  The exit gap is certified against the search's own
    oracle.
    """
    family.check_dim(rho)
    witness = family.full_rank_witness().mat
    search = pick_search(family, settings.seed, rho)
    probe = search.read(_relent_eval(rho.mat, witness))
    tracker, iters = anneal(lambda _: probe, (None,), search.lmo,
                             search.enter(witness),
                             max(12, settings.max_iters // 8), settings.tol)
    return _certified(tracker, iters,
                      partial(fw_bound, probe, lmo=search.lmo),
                      family, settings,
                      lambda w: ((1.0 - RELENT_FLOOR) * search.to_dense(w)
                                 + RELENT_FLOOR * witness))


def regularized_sequence(rho: DensityMatrix, family: FreeFamily,
                         n_max: int,
                         settings: SolverSettings = SolverSettings()
                         ) -> list[tuple[int, float, bool]]:
    """Per-copy values of the family relative entropy on powers of rho, as
    (n, value / n, converged) triples; ``converged`` is the solve's
    ``OptResult.converged``."""
    opalg.check_dense_power(rho.total_dim, n_max, opalg.SOLVE_DIM_CAP)
    out = []
    for n in range(1, n_max + 1):
        res = rel_ent_of_resource(opalg.Power(rho, n), family.at_copies(n),
                                  settings)
        out.append((n, res.value / n, res.converged))
    return out


# ---------------------------------------------------------------------------
# generalized robustness
# ---------------------------------------------------------------------------


def generalized_robustness(rho: DensityMatrix, family: FreeFamily,
                           settings: SolverSettings = SolverSettings(),
                           s_tol: float = 1e-6,
                           return_witness: bool = False):
    """Least s >= 0 with (rho + s tau)/(1+s) free for some state tau.

    Feasibility at s is the eigenvalue condition: some family member sigma
    satisfies (1+s) sigma >= rho, which holds iff Tr[(rho - (1+s) sigma)_+]
    = 0.  It is tested by ``min_positive_part`` at b = 1 + s, with a value
    of at most 1e-9 taken as feasible and that solve's minimizer as the
    witness; bisection on s, to a bracket no wider than ``s_tol`` or of two
    adjacent floats.
    """
    if not 0.0 < s_tol < math.inf:
        raise ValueError(f"s_tol must be positive and finite, got {s_tol}")

    def feasible(s: float):
        res = min_positive_part(rho, 1.0 + s, family, settings)
        return res.value <= 1e-9, res.minimizer

    ok, witness = feasible(0.0)
    if ok:
        return (0.0, witness) if return_witness else 0.0
    lo, hi = 0.0, 1.0
    for _ in range(60):
        ok, witness = feasible(hi)
        if ok:
            break
        lo, hi = hi, 2.0 * hi
    else:
        raise Infeasible("no feasible robustness parameter found")
    while hi - lo > s_tol and lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        ok, mat = feasible(mid)
        if ok:
            hi, witness = mid, mat
        else:
            lo = mid
    return (hi, witness) if return_witness else hi


# ---------------------------------------------------------------------------
# trace distance to a family
# ---------------------------------------------------------------------------


def distance_to_family(sigma_tilde: DensityMatrix, family: FreeFamily,
                       settings: SolverSettings = SolverSettings(),
                       start: HermitianOperator | None = None
                       ) -> OptResult:
    """min over the family of || sigma_tilde - sigma ||_1.

    For unit-trace sigma_tilde and sigma, || sigma_tilde - sigma ||_1 =
    2 Tr[(sigma_tilde - sigma)_+], so this is twice ``min_positive_part``
    at b = 1, its value and gap doubled; ``converged`` is the doubled gap
    <= tol.
    """
    res = min_positive_part(sigma_tilde, 1.0, family, settings, start)
    gap = 2.0 * res.fw_gap
    return replace(res, value=2.0 * res.value, fw_gap=gap,
                   converged=gap <= settings.tol)
