"""Convex optimization over free families.

Every minimization here is projection-free and runs through one routine,
``_anneal``, except the threshold minimum of a rank-one target on the
symmetric subspace (a pure power), which has a closed form
(``_rank_one_optimum``), and the hypothesis-test dual on a family that
declares ``one_member``, a search in one weight (``_one_member_dual``).
``_anneal`` is a fully-corrective Frank-Wolfe loop: it discovers extreme
points through a linear minimization oracle and re-optimizes the weights
over the discovered hull after every new atom.  The nonsmooth positive
part is handled by annealing a smooth spectral surrogate over a schedule of
temperatures tau while tracking the exact objective at every point probed;
reported values are always exact evaluations, and the reported duality gap
is computed from the exact subgradient, so it upper-bounds the true
suboptimality.  Each stage starts from the atoms and weights the stage
before ended with, and ends when its oracle certifies the gap target, at
its call cap, or when an oracle answer earns no weight in the re-solve
(the atom set is left as it was): fully-corrective Frank-Wolfe gains only
from an answer that earns weight.

Every objective is one probe, ``probe(x) -> (surrogate, exact, grad,
local)``: one eigendecomposition at x gives the surrogate and exact values,
and two lazy derivatives share it.  ``grad()`` is the gradient matrix the
linear oracle and the exit bound read; ``local(mats)`` is the gradient and
exact Hessian in the coordinates of a stack of atoms, which the corrective
step reads, passing the stack as an ``_AtomStack`` prepared once per
re-solve.  The weights are re-optimized by that one step, Newton's method
on the simplex (``_newton_reweight``), with the Daleckii-Krein form of the
softplus surrogate of the positive part, and its second-order form for the
relative entropy.  Its line search reads the slope at a trial off the
trial's ``grad()`` and steps back to where the tangents meet, the cut of
Kelley's method that the one-member search also takes.

A solver is that routine plus its data (m is ``settings.max_iters``; a tau of
``exact`` runs on the exact objective and its gradient; a stage makes at
most "calls/stage" oracle calls and ends at the oracle's "gap" target):

    solver                  tau schedule      calls/stage    gap
    rel_ent_of_resource     exact             max(12, m//8)  tol
    min_positive_part       ANNEAL_TAUS       max(12, m//24) tol/4
      rank-one target       none: the closed form, then the exit bound
    hypothesis_dual         ANNEAL_TAUS       max(20, m//3)  tol/4
      one-member family     none: tangent and secant steps in b, exact probes
    hypothesis_primal       reads stage 2's end, and its atoms, of the dual;
                            cuts solved by lp.maximize_packing
      one-member family     reads the search's end; one cut, closed form

Each solver reports as ``fw_gap`` its value minus the best Frank-Wolfe
lower bound f(x) - gap(x) over its best probe and its stage ends
(``_fw_bound``), with an exact (sub)gradient at each: -b P for the
positive part, from its probe at tau = None, whose f is the linear minorant
Tr[P (rho - b sigma)] (``_pospart_eval``).  The trace distance and the
robustness's feasibility test are positive-part problems and run through
``min_positive_part``: ||sigma~ - sigma||_1 = 2 Tr[(sigma~ - sigma)_+] for
unit-trace states, and (1+s) sigma >= rho iff Tr[(rho - (1+s) sigma)_+]
vanishes.

``hypothesis_primal`` reads its test off the iterate at the end of the
dual's second stage with a cutting-plane linear program, whose first cuts
are that iterate's atoms.  The program is solved by the small simplex of
``lp.maximize_packing``, which starts at e = 0; a program of one cut is a
fractional knapsack, solved in closed form (``_one_row_optimum``).  Both
ends of the bracket share one solve: the last dual solve is memoized, so a
primal and a dual call on the same inputs, in either order, solve once.
Oracles and iterates are plain matrices, and a solver returns its minimizer
unvalidated, as a ``HermitianOperator`` built on first read
(``OptResult.minimizer``): a ``DensityMatrix`` is built where a state
enters the program, since its check is a full eigendecomposition.  A
solver's target is a ``HermitianOperator`` (a ``DensityMatrix`` is one) or
an ``opalg.Power``, a base state and N.

One function, ``_search``, picks the search of every solver, from the
target's type alone.  A power, on a family that declares ``type_classes``
and has several copies, is invariant by construction, and its search
(``_TypeClassCoords.of``) runs over the invariant members in type-class
coordinates: the iterate is the T x T diagonal of class weights, T the
number of type classes, and the start enters as its twirl, so any free
start will do.  A pure base gives the power's T x T block on the
symmetric subspace from its ray, so each positive-part evaluation is one
T x T eigendecomposition (and ``min_positive_part`` needs only the one at
its closed-form minimizer) and the solve makes nothing d^N wide; the
probes of a mixed base read the dense objective at the dense member.  A
dense operator searches the family's vertices, whatever its structure,
and so does any other input.  Every exit bound reads the probe and the
oracle its search ran with.  That is sound for the invariant searches:
the objective is convex and permutation invariant, so its minimum over the
family is its minimum over the invariant members, and the subgradient
inequality over those gives a bound that, at the same point, is never
looser than the vertex oracle's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property, partial
from typing import Callable, NamedTuple

import numpy as np

from . import lp, opalg, symmetry
from .entropy import (_log_first_differences, _log_second_differences,
                      _tr_x_log_x)
from .errors import Infeasible, NoFullRankMember
from .freesets import FreeFamily
from .opalg import DensityMatrix, HermitianOperator, eigh
from .symmetry import _type_classes

# weight of the full-rank witness mixed into every relative-entropy probe
RELENT_FLOOR = 1e-9
# the exact positive-part probe's P keeps the eigenvalues of rho - b sigma
# above POSPART_FLOOR (1 + b), the rounding level of ||rho|| + ||b sigma||
POSPART_FLOOR = 1e-14
# the temperatures of the annealed threshold and dual searches
ANNEAL_TAUS = (1e-3, 1e-6, 1e-8)
# the one-member search's ends: a gap below TANGENT_GAP between the value at
# hi and the tangents' bound puts hi at the minimum to rounding; a slope jump
# above SLOPE_JUMP across the bracket is a kink, and below it the minimum is
# smooth and the secant steps end at a slope of at most SLOPE_FLAT
TANGENT_GAP = 16.0 * float(np.finfo(float).eps)
SLOPE_JUMP = 1e-6
SLOPE_FLAT = 1e-14


def _threshold(y: float, n: int) -> float:
    """2^{yn}, the threshold of rate y on n copies, if it is a finite float
    (yn < 1024); else a ValueError naming the rate."""
    if not y * n < 1024.0:
        raise ValueError(f"the rate y={y} gives no finite 2^(yN) at N={n}")
    return 2.0 ** (y * n)


def _tr_prod(a: np.ndarray, b: np.ndarray) -> float:
    """Re Tr[a b] without forming the product."""
    return float(np.einsum("ij,ji->", a, b).real)


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


class _Tracker:
    """Remembers the best exact objective value seen at any probed member,
    and the iterate and its atoms at the end of each annealing stage."""

    def __init__(self):
        self.best_value = math.inf
        self.best_mat = None
        self.stage_ends: list[tuple[np.ndarray, list]] = []

    def offer(self, mat: np.ndarray, exact: float) -> None:
        if exact < self.best_value:
            self.best_value = exact
            self.best_mat = mat.copy()


class _AtomStack:
    """A stack of atoms ``mats`` as the local derivatives read it.

    ``_newton_reweight`` holds one stack for its whole loop, so what a
    ``local`` reads off it is worked out once per re-solve, not once per
    call: the traces, the stack ``_in_eigenbasis`` transforms (the diagonals
    of diagonal matrices) and its real part, and the stacks a reader derives
    from it (``derived``).  A ``local`` takes a stack or a plain array of
    matrices (``of``)."""

    def __init__(self, mats: np.ndarray):
        self.mats = mats
        self._derived: dict = {}

    @classmethod
    def of(cls, mats) -> "_AtomStack":
        return mats if isinstance(mats, cls) else cls(mats)

    @cached_property
    def traces(self) -> np.ndarray:
        return np.trace(self.mats, axis1=1, axis2=2).real

    @cached_property
    def diagonals(self) -> np.ndarray:
        return np.diagonal(self.mats, axis1=1, axis2=2).real

    @cached_property
    def dirs(self) -> tuple[np.ndarray, np.ndarray | None]:
        """The matrices, or the diagonals of diagonal ones (a 2-D stack is
        read as diagonals), and their real part if it is all of them."""
        dirs = self.mats
        if dirs.ndim == 3:
            diag = np.diagonal(dirs, axis1=1, axis2=2)
            if np.count_nonzero(dirs) == np.count_nonzero(diag):
                dirs = diag
        return dirs, None if dirs.imag.any() else dirs.real

    def derived(self, key, make: Callable) -> "_AtomStack":
        """The stack of ``make(self)``, made once per ``key``."""
        if key not in self._derived:
            self._derived[key] = _AtomStack(make(self))
        return self._derived[key]


def _newton_direction(w: np.ndarray, jac: np.ndarray,
                      hess: np.ndarray) -> np.ndarray | None:
    """Newton step on the weight simplex, or None if its KKT system is
    singular.

    The step solves min jac.d + d.hess.d / 2 subject to sum(d) = 0 on the
    free set: the held atoms plus every atom whose gradient lies below the
    least one held.  A free atom of weight 0 that the step would push
    negative leaves the free set and the system is solved again.  A ridge
    of 1e-12 times the larger of the Hessian's diagonal and the gradient
    keeps the (n+1) x (n+1) system regular on flat directions.
    """
    held = w > 0.0
    free = held | (jac < jac[held].min())
    while True:
        idx = np.flatnonzero(free)
        n = idx.size
        kkt = np.ones((n + 1, n + 1))
        kkt[n, n] = 0.0
        kkt[:n, :n] = hess if n == w.size else hess[np.ix_(idx, idx)]
        rhs = np.zeros(n + 1)
        rhs[:n] = -jac[idx]
        diag = slice(0, n * (n + 2), n + 2)  # kkt.flat of the Hessian block
        kkt.flat[diag] += 1e-12 * max(float(np.abs(kkt.flat[diag]).max()),
                                      float(np.abs(rhs).max()))
        with np.errstate(all="ignore"):
            try:
                sol = np.linalg.solve(kkt, rhs)
            except np.linalg.LinAlgError:
                return None
        if not np.isfinite(sol).all():
            return None
        d = np.zeros_like(w)
        d[idx] = sol[:n]
        blocked = free & ~held & (d < 0.0)
        if not blocked.any():
            return d
        free &= ~blocked


def _pairwise_direction(w: np.ndarray, jac: np.ndarray) -> np.ndarray:
    """The pairwise step: weight from the held atom of largest gradient to
    the atom of least gradient."""
    held = np.flatnonzero(w > 0.0)
    d = np.zeros_like(w)
    d[np.argmin(jac)] += 1.0
    d[held[np.argmax(jac[held])]] -= 1.0
    return d


def _tangents_meet(lo: tuple, hi: tuple) -> float:
    """Where the tangents at lo = (a, g(a), g'(a)) and hi = (c, g(c),
    g'(c)) of a function g meet, the minimizer of Kelley's cutting-plane
    model on [a, c]; g'(a) != g'(c)."""
    (a, ga, sa), (c, gc, sc) = lo, hi
    return (gc - ga + sa * a - sc * c) / (sa - sc)


def _backtrack(probe, mats: np.ndarray, w: np.ndarray,
               d: np.ndarray, jac: np.ndarray, value: float, radius: float,
               tracker: _Tracker):
    """Safeguarded backtracking along d on the weight simplex.

    The first trial step is the nearer of the simplex boundary and the trust
    radius (in the l1 norm of the weights); a boundary step sets the
    blocking weight to exactly 0.  A step is accepted on the Armijo
    condition, or, when the value has not risen beyond rounding, on a slope
    along d at the step that is still <= 0: by convexity that step
    descends, and near a hull optimum of a sharply curved surrogate the
    decrease is below what the value resolves while the slope still shows
    it.  That slope is Tr[grad D], D = sum_k d_k A_k the step in the
    iterate, with ``grad()`` from the trial's own probe, so it costs no
    eigendecomposition and no Hessian.  A rejected step t is followed by
    the point where the tangents at 0 and t meet (``_tangents_meet``), kept
    in [t/100, 0.9 t], or by t/2 if the slope at t is not above the slope at
    0: past a kink of the surrogate the tangent at t is steep, and the
    tangents meet near the kink.  Returns (weights, surrogate value, the
    probe's ``local``, next radius), or None when no step of at least 1e-15
    in the weights is accepted.  The radius grows fourfold after a first
    trial that holds, and is twice the accepted step after one that had to
    shrink.
    """
    slope = float(jac @ d)
    shrink = np.flatnonzero(d < 0.0)
    if slope >= 0.0 or not shrink.size:
        return None
    ratios = w[shrink] / -d[shrink]
    hit = float(ratios.min())
    size = float(np.abs(d).sum())
    flat = mats.reshape(len(w), -1)
    step_dir = (d @ flat).reshape(mats.shape[1:])
    t = min(1.0, hit, radius / size)
    for tries in range(60):
        if t * size <= 1e-15:
            break
        trial = np.maximum(w + t * d, 0.0)
        if t == hit:
            trial[shrink[np.argmin(ratios)]] = 0.0
        trial /= trial.sum()
        x = (trial @ flat).reshape(mats.shape[1:])
        v, exact, grad, local = probe(x)
        tracker.offer(x, exact)
        grown = max(radius, 4.0 * t * size) if tries == 0 else 2.0 * t * size
        if v < value and v <= value + 1e-4 * t * slope:
            return trial, v, local, grown
        slope_t = _tr_prod(grad(), step_dir)
        if v <= value + 1e-15 * abs(value) and slope_t <= 0.0:
            return trial, v, local, grown
        if slope_t > slope:
            meet = _tangents_meet((0.0, value, slope), (t, v, slope_t))
            t = min(0.9 * t, max(0.01 * t, meet))
        else:
            t *= 0.5
    return None


def _newton_reweight(atoms: list[list], probe, tracker: _Tracker,
                     hull_tol: float, start=None) -> None:
    """Fully-corrective step by Newton's method on the weight simplex.

    ``probe(x)`` returns (surrogate value, exact value, ``grad``,
    ``local``) at x, and ``local(mats)`` the gradient and the exact Hessian
    in the coordinates of the atoms, passed as one ``_AtomStack`` for the
    whole solve; ``start`` is that probe at the atoms' mixture when the
    caller has made it, else it is made here.  Each step is backtracked to
    the Armijo condition (``_backtrack``, which steps back to where the
    tangents at the start and the trial meet); when the Newton step does
    not descend, the pairwise step is tried.  The solve stops at a hull gap
    jac.w - min(jac) of at most ``hull_tol``, when no step descends, or
    after 60 steps.  Every probe's exact value goes to the tracker.
    """
    stack = _AtomStack(np.array([a for a, _ in atoms]))
    w = np.array([v for _, v in atoms], dtype=float)
    value, _, _, local = start or probe(np.tensordot(w, stack.mats, 1))
    radius, moved = 1.0, False
    for _ in range(60):
        jac, hess = local(stack)
        if jac @ w - jac.min() <= hull_tol:
            break
        for direction in (partial(_newton_direction, w, jac, hess),
                          partial(_pairwise_direction, w, jac)):
            d = direction()  # the pairwise step only if Newton's fails
            step = None if d is None else _backtrack(
                probe, stack.mats, w, d, jac, value, radius, tracker)
            if step is not None:
                break
        else:
            break  # no step descends
        w, value, local, radius = step
        moved = True
    if moved:
        for entry, wi in zip(atoms, w):
            entry[1] = float(wi)


def _fcfw_minimize(probe, lmo, atoms: list[list], max_outer: int,
                   gap_tol: float, tracker: _Tracker):
    """Fully-corrective Frank-Wolfe from the hull ``atoms``, a list of
    [matrix, weight]: grow the atom set through the linear oracle
    ``lmo(grad) -> matrix``, re-optimizing the hull weights after every new
    atom by Newton's method to a hull gap of ``gap_tol / 2``.

    One ``probe(mat)`` per point serves both: the oracle reads its
    ``grad()``, the corrective step its ``local(mats)`` (a new atom enters
    at weight 0, so the re-solve starts from that probe).  Exact values of
    every probe go to the tracker.  The solve ends when the oracle
    certifies the gap target, after ``max_outer`` oracle calls, or when an
    iteration leaves the atom set as it was: the answer was already held, or
    the re-solve gave it no weight (at most 1e-14).  Fully-corrective
    Frank-Wolfe gains only from an answer that earns weight, so the stage
    ends there, at the re-weighted mixture.  Returns the last iterate, its
    atoms, the oracle calls made and whether the first call certified the
    start.
    """
    def probe_mixture():
        total = sum(e[1] for e in atoms)
        x = sum(e[0] * (e[1] / total) for e in atoms)
        here = probe(x)
        tracker.offer(x, here[1])
        return x, here

    sigma, here = probe_mixture()
    for k in range(max_outer):
        g = here[2]()
        s = lmo(g)
        if _tr_prod(g, sigma - s) <= gap_tol:
            return sigma, atoms, k + 1, k == 0
        held = [m for m, _ in atoms]
        for entry in atoms:
            if (np.abs(entry[0] - s) <= 1e-13).all():
                break
        else:
            atoms.append([s, 0.0])
        _newton_reweight(atoms, probe, tracker, gap_tol / 2.0, here)
        atoms = [e for e in atoms if e[1] > 1e-14] or atoms[:1]
        sigma, here = probe_mixture()
        if len(atoms) == len(held) and all(
                e[0] is m for e, m in zip(atoms, held)):
            return sigma, atoms, k + 1, False
    return sigma, atoms, max_outer, False


def _anneal(make_probe, taus, lmo, start: np.ndarray, stage_atoms: int,
            gap_tol: float) -> tuple[_Tracker, int]:
    """The one Frank-Wolfe routine: a fully-corrective solve per temperature.

    ``make_probe(tau)`` is the probe at temperature tau (``None`` for the
    exact objective).  Each stage makes at most ``stage_atoms`` oracle calls
    and starts from the atoms and weights the one before ended with; the
    schedule stops after a stage whose first oracle call certifies its
    start.  Returns the tracker of exact values, whose ``stage_ends`` are
    the iterates at the end of the stages run with their atoms of positive
    weight, and the oracle calls summed over the stages.
    """
    tracker = _Tracker()
    atoms, total = [[start.copy(), 1.0]], 0
    for tau in taus:
        x, atoms, it, settled = _fcfw_minimize(make_probe(tau), lmo, atoms,
                                               stage_atoms, gap_tol, tracker)
        tracker.stage_ends.append((x, [m for m, v in atoms if v > 0.0]))
        total += it
        if settled:
            break  # the oracle certifies the start point already
    return tracker, total


def _feasible_start(family: FreeFamily, seed: int) -> np.ndarray:
    """The full-rank witness, else the oracle's answer to a zero gradient (a
    singular IID member has no full-rank witness)."""
    try:
        return family.full_rank_witness().mat
    except NoFullRankMember:
        d = family.total_dim
        return family.lmo(np.zeros((d, d), dtype=complex), seed)


def _fw_bound(probe, x: np.ndarray, lmo) -> float:
    """The Frank-Wolfe lower bound l(x) - Tr[g (x - s)] on the minimum, by
    convexity: l and g the surrogate value and gradient that ``probe`` gives
    at x, of the objective or of a linear minorant of it, s the answer of
    the search's oracle ``lmo`` to g."""
    lower, _, grad, _ = probe(x)
    g = grad()
    return lower - max(0.0, _tr_prod(g, x - lmo(g)))


def _certified(tracker: _Tracker, iters: int, bound, family: FreeFamily,
               settings: SolverSettings, to_dense: Callable) -> OptResult:
    """Result with the best probe's value, at the best probe, which
    ``to_dense`` maps to the dense minimizer.

    Each point x tried gives the Frank-Wolfe lower bound ``bound(x)``
    (``_fw_bound``) on the minimum.  ``fw_gap`` is the value minus the best
    bound over the best probe and then the stage ends, last first, for as
    long as the gap exceeds tol.
    """
    value = tracker.best_value
    gap = value - bound(tracker.best_mat)
    for x, _ in reversed(tracker.stage_ends):
        if gap <= settings.tol:
            break
        gap = min(gap, value - bound(x))
    gap = max(0.0, gap)
    return OptResult(value, tracker.best_mat, gap, iters, gap <= settings.tol,
                     lambda w: HermitianOperator(family.shape, to_dense(w)))


# ---------------------------------------------------------------------------
# positive-part minimization
# ---------------------------------------------------------------------------

def _softplus(w: np.ndarray, tau: float, offset: float,
              mult: np.ndarray | None = None):
    """tau * sum_i mult_i softplus(w_i / tau + offset) (mult_i = 1 if
    ``mult`` is None), and the sigmoids that are its derivatives in w."""
    x = w / tau
    x += offset
    # softplus, stable for large |x|
    terms = np.logaddexp(0.0, x)
    if mult is not None:
        terms *= mult
    # the sigmoid 1 / (1 + exp(-x)), x clipped to [-500, 500], in place
    sig = np.minimum(np.maximum(x, -500.0, out=x), 500.0, out=x)
    np.negative(sig, out=sig)
    np.exp(sig, out=sig)
    sig += 1.0
    return float(tau * terms.sum()), np.divide(1.0, sig, out=sig)


def _in_eigenbasis(V: np.ndarray, stack: _AtomStack) -> np.ndarray:
    """The stack V^dag A_k V over the atoms A_k of ``stack``, real when V
    and the atoms are.  One matrix product per atom when every atom is
    diagonal, two otherwise."""
    dirs, real = stack.dirs
    if real is not None and not V.imag.any():
        V, dirs = V.real, real
    if dirs.ndim == 3:
        return V.conj().T @ dirs @ V
    return (V.conj().T * dirs[:, None, :]) @ V


def _softplus_derivatives(lam: np.ndarray, V: np.ndarray, sig: np.ndarray,
                          tau: float, stack: _AtomStack):
    """First and second derivatives of tau sum_i softplus(lam_i / tau + c)
    at the spectrum (lam, V), along a stack of Hermitian directions.

    With B_k = V^dag A_k V, A_k the directions of ``stack``, and s the
    sigmoids, they are s . diag(B_k) and the Daleckii-Krein form sum_ij
    G_ij (B_k)_ij (B_l)_ji, where G_ij = (s_i - s_j) / (lam_i - lam_j), or
    s (1 - s) / tau for eigenvalues closer than 1e-6 tau.
    """
    B = _in_eigenbasis(V, stack)
    slope = sig * (1.0 - sig) / tau
    gaps = lam[:, None] - lam[None, :]
    near = np.abs(gaps) <= 1e-6 * tau
    G = np.where(near, 0.5 * (slope[:, None] + slope[None, :]),
                 (sig[:, None] - sig[None, :]) / np.where(near, 1.0, gaps))
    flat = B.reshape(len(B), -1)
    first = np.diagonal(B, axis1=1, axis2=2).real @ sig
    return first, ((flat * G.ravel()) @ flat.conj().T).real


def _pospart_eval(rho_mat: np.ndarray, b: float, tau: float | None,
                  offset: float = 0.0):
    """Probe of the softplus surrogate of Tr[(rho - b sigma)_+]; ``offset``
    shifts its argument, which sets the slope at a zero eigenvalue to
    sigmoid(offset).  Its ``local`` is the exact Hessian in the coordinates
    of a stack of atoms.  At ``tau=None`` it probes the exact objective and
    its linear minorant Tr[P (rho - b sigma)], the surrogate, with gradient
    -b P (P the projector onto the eigenvalues above POSPART_FLOOR (1 + b),
    so that rounding sets no gradient at a free target); no ``local``."""
    def probe(sigma: np.ndarray):
        w, V = eigh(rho_mat - b * sigma)
        exact = float(w[w > 0.0].sum())
        if tau is None:
            kept = w > POSPART_FLOOR * (1.0 + b)
            pos = V[:, kept]
            return (float(w[kept].sum()), exact,
                    lambda: -b * (pos @ pos.conj().T), None)
        smooth, sig = _softplus(w, tau, offset)

        def local(mats):
            first, second = _softplus_derivatives(w, V, sig, tau,
                                                  _AtomStack.of(mats))
            return -b * first, b * b * second
        return smooth, exact, lambda: -b * ((V * sig) @ V.conj().T), local
    return probe


@dataclass(frozen=True, eq=False)
class _TypeClassCoords:
    """Type-class coordinates of a search over the invariant members of a
    family that declares ``type_classes``, for a power A.

    The member sum_t w_t P_t / |T_t|, with P_t the projector onto type class
    t, is stored as the T x T matrix diag(w).  Gradients are diag(g), g_t
    the class average of the dense gradient's diagonal, so Tr[g (w - s)] is
    the dense Frank-Wolfe gap.  ``small`` is None unless the base is pure,
    and then A lies on the symmetric subspace: with D the isometry whose
    column t is the normalized indicator of class t, ``small`` is D^T A D
    and A = D small D^T, so A - b sigma has the spectrum of small - b
    diag(w / |T|) plus the eigenvalue -b w_t / |T_t| with multiplicity
    |T_t| - 1 (the rest of class t): one T x T eigendecomposition evaluates
    the positive part.
    Only the maps to and from dense matrices read the d^N class labels.
    """

    family: FreeFamily
    sizes: np.ndarray
    small: np.ndarray | None
    target: np.ndarray | None

    @property
    def labels(self) -> np.ndarray:
        return _type_classes(self.family.base_dim, self.family.copies)[0]

    @classmethod
    def of(cls, family: FreeFamily,
           power: opalg.Power) -> "_TypeClassCoords | None":
        """The coordinates of a power, or None unless it is one, the family
        declares ``type_classes`` and has several copies, and the power is
        ``family.copies`` copies of a ``family.base_dim`` base: a dense
        operator takes the vertex search.  A pure base (``opalg.Power.ray``)
        gives ``small`` = u u^dag, u = D^T a^{x N}
        (``symmetry.power_coefficients``), and no d^N object; a mixed one
        gives no ``small`` and the dense power as ``target``."""
        if (not isinstance(power, opalg.Power) or family.copies == 1
                or not family.type_classes
                or (power.base.total_dim, power.n)
                != (family.base_dim, family.copies)):
            return None
        if power.ray is None:
            return cls(family, _type_classes(family.base_dim,
                                             family.copies)[1],
                       None, power.mat)
        u, sizes = symmetry.power_coefficients(power.ray, power.n)
        return cls(family, sizes, np.outer(u, u.conj()), None)

    def weights(self, mat: np.ndarray) -> np.ndarray:
        """diag(w) of the twirl of a diagonal matrix, itself when that is
        invariant: class sums of its diagonal."""
        return np.diag(np.bincount(self.labels, weights=np.diag(mat).real,
                                   minlength=self.sizes.size))

    def dense(self, w_mat: np.ndarray) -> np.ndarray:
        """The dense diagonal matrix with coordinates ``w_mat``."""
        w = np.diag(w_mat) / self.sizes
        return np.diag(w[self.labels]).astype(complex)

    def lmo(self, grad: np.ndarray) -> np.ndarray:
        """The linear oracle over the invariant members: the uniform state
        on the class of least average gradient."""
        return np.diag(np.eye(len(grad))[int(np.argmin(np.diag(grad)))])

    def read(self, probe):
        """The dense ``probe`` in these coordinates: evaluated at the dense
        member, its gradient averaged over each class, and its ``local``
        taken along the dense class atoms, passed as their diagonals."""
        def dense_atoms(stack: _AtomStack) -> np.ndarray:
            return (stack.diagonals / self.sizes)[:, self.labels]

        def class_probe(w_mat: np.ndarray):
            smooth, exact, grad, local = probe(self.dense(w_mat))

            def class_local(mats):
                return local(_AtomStack.of(mats).derived((self, "dense"),
                                                         dense_atoms))
            return (smooth, exact, lambda: self.weights(grad()) / self.sizes,
                    None if local is None else class_local)
        return class_probe

    def pospart_eval(self, b: float, tau: float | None, offset: float = 0.0):
        """``_pospart_eval`` of the target in these coordinates, ``read``
        from the dense one when ``small`` is None.  The complement eigenvalues
        -b w_t / |T_t| do not couple to the rest, so they add
        b^2 (|T_t| - 1) s (1 - s) / (tau |T_t|^2) to the second derivative
        along the weight of class t.  At ``tau=None`` s is the indicator of
        an eigenvalue above the floor, the exact probe's P: the complement
        eigenvalues are <= 0 and never enter it."""
        if self.small is None:
            return self.read(_pospart_eval(self.target, b, tau, offset))
        rest = self.sizes - 1.0
        mult = np.concatenate([np.ones(self.sizes.size), rest])
        t = self.sizes.size

        def probe(w_mat: np.ndarray):
            v = b * np.diag(w_mat) / self.sizes
            w, V = eigh(self.small - np.diag(v))
            lam, exact = np.concatenate([w, -v]), float(w[w > 0.0].sum())
            if tau is None:
                kept = lam > POSPART_FLOOR * (1.0 + b)
                smooth, sig = float(lam[kept].sum()), kept * 1.0
            else:
                smooth, sig = _softplus(lam, tau, offset, mult)

            def grad():
                return np.diag(-b * ((np.abs(V) ** 2) @ sig[:t]
                                     + rest * sig[t:]) / self.sizes)

            def local(mats):
                scaled = _AtomStack.of(mats).derived(
                    (self, "per member"), lambda st: st.mats / self.sizes)
                first, second = _softplus_derivatives(w, V, sig[:t], tau,
                                                      scaled)
                cls = scaled.diagonals
                first = first + cls @ (rest * sig[t:])
                curv = rest * sig[t:] * (1.0 - sig[t:]) / tau
                return -b * first, b * b * (second + (cls * curv) @ cls.T)
            return smooth, exact, grad, None if tau is None else local
        return probe


class _Search(NamedTuple):
    """The search of a solver over a family, for an objective in a target:
    its type-class coordinates (None for the vertex search), its oracle, the
    map ``enter`` of a dense start into its coordinates, the probe maker
    ``pospart(b, tau, offset)`` of the surrogate of Tr[(target - b sigma)_+]
    (exact at ``tau=None``), the reader of dense probes and the map to dense
    matrices."""

    coords: _TypeClassCoords | None
    lmo: Callable
    enter: Callable
    pospart: Callable
    read: Callable
    to_dense: Callable


def _search(family: FreeFamily, seed: int, target) -> _Search:
    """The search of every solver over the family, for an objective in
    ``target``: in type-class coordinates, entered at the twirl of the
    start, where ``_TypeClassCoords.of`` gives them (a power), else over the
    family's vertices."""
    coords = _TypeClassCoords.of(family, target)
    if coords is None:
        return _Search(None, partial(family.lmo, seed=seed), lambda m: m,
                       partial(_pospart_eval, target.mat), lambda p: p,
                       lambda m: m)
    return _Search(coords, coords.lmo, coords.weights, coords.pospart_eval,
                   coords.read, coords.dense)


def _rank_one_optimum(coords: _TypeClassCoords | None,
                      b: float) -> np.ndarray | None:
    """The invariant minimizer of Tr[(A - b sigma)_+], in closed form, as
    type-class coordinates diag(w), when the coordinates hold A's symmetric
    block ``small``: A is the power of a pure base, and ``small`` = a a^dag
    (``_TypeClassCoords.of``).  Else None.

    With v_t = b w_t / |T_t|, A - b sigma has the eigenvalues -v_t <= 0
    and those of a a^dag - diag(v), of which one at most, lambda, is
    positive: the root of the secular equation sum_t P_t / (lambda + v_t)
    = 1, P_t = small_tt.  Minimizing lambda subject to sum_t |T_t| v_t = b
    gives lambda + v_t = max(lambda, c r_t), r_t = sqrt(P_t / |T_t|), and
    classes with P_t = 0 get no weight.  With s_t = sqrt(|T_t| P_t) and
    S = sum_t s_t, the minimum is 0 if b >= S^2, at v proportional to r.
    Otherwise the active classes (v_t > 0) are the k of largest r_t, for
    some k.  For each such set A, with S_A = sum_A s_t, M_A = sum_A |T_t|
    and Q = sum_{t not in A} P_t, the secular equation S_A / c + Q / lambda
    = 1 and the budget c S_A - lambda M_A = b make c the larger root of
    S_A c^2 - (S_A^2 + M_A Q + b) c + b S_A = 0, computed as S_A + delta
    with no cancellation, and lambda = Q c / delta; when Q = 0, c = S and
    lambda = (S^2 - b) / M_A.  The set kept is the first consistent one,
    c r_t >= lambda on A and c r_t <= lambda off it (the least inconsistent
    if rounding leaves none), or all on the top class, the limit b -> 0, if
    it leaves no class weight (b below about 1e-16).  The caller's exact
    probe at the weights gives the value and its Frank-Wolfe bound the gap,
    so a rounding slip here
    can widen the gap but never pass as certified.
    """
    if coords is None or coords.small is None:
        return None
    sizes = coords.sizes
    P = np.clip(np.diag(coords.small).real, 0.0, None)
    r, s = np.sqrt(P / sizes), np.sqrt(P * sizes)
    S = float(s.sum())
    if b >= S * S:
        return np.diag(s / S)
    order = np.argsort(-r, kind="stable")[:np.count_nonzero(P)]

    def candidate(k: int):
        act, rest = order[:k], order[k:]
        S_A, M_A = float(s[act].sum()), float(sizes[act].sum())
        Q = float(P[rest].sum())
        if Q == 0.0:
            c, lam = S, (S * S - b) / M_A
        else:
            # delta = c - S_A > 0 solves S_A d^2 + beta d - M_A Q S_A = 0
            beta = S_A * S_A - M_A * Q - b
            root = math.sqrt(beta * beta + 4.0 * S_A * S_A * M_A * Q)
            delta = (2.0 * S_A * M_A * Q / (beta + root) if beta > 0.0
                     else (root - beta) / (2.0 * S_A))
            c, lam = S_A + delta, Q * (S_A + delta) / delta
        miss = max(lam - c * float(r[act].min()),
                   c * float(r[rest].max(initial=0.0)) - lam, 0.0)
        return miss, k, c, lam

    _, k, c, lam = min(candidate(k) for k in range(1, order.size + 1))
    act = order[:k]
    w = np.zeros_like(P)
    w[act] = sizes[act] * np.maximum(c * r[act] - lam, 0.0)
    if w.sum() == 0.0:
        w[order[0]] = 1.0
    return np.diag(w / w.sum())


def min_positive_part(rho: HermitianOperator | opalg.Power, b: float,
                      family: FreeFamily,
                      settings: SolverSettings = SolverSettings(),
                      start: HermitianOperator | OptResult | None = None
                      ) -> OptResult:
    """Minimize Tr[(rho - b sigma)_+] over the family.

    ``start`` may be an earlier result, whose minimizer is read only by an
    annealed solve.

    The search (``_search``) runs over the permutation-invariant members
    in type-class coordinates where ``rho`` is an ``opalg.Power`` and
    ``_TypeClassCoords.of`` holds, else over the family's vertices: on a
    power the objective is convex and permutation invariant, so twirling a
    minimizer gives an invariant one, and Frank-Wolfe needs at most one
    atom per type class.  The exit gap is certified with the search's own
    probe and oracle, at the exact probe's -b P (P over the eigenvalues
    above ``POSPART_FLOOR`` (1 + b)) at the minimizer and then the stage
    ends (``_certified``): at a non-smooth minimizer P alone can leave a
    gap of order 10, and the end of a smoothed stage has a subgradient that
    certifies.

    Where the power's base is pure, its symmetric block is rank one, the
    minimizer has a closed form (``_rank_one_optimum``) and nothing is
    annealed: ``start`` is unread, ``iterations`` is 0, and the value and
    gap come from the same exact probe and exit bound at the closed-form
    weights, so a rounding slip can widen the gap but never pass as
    certified.
    """
    if not 0.0 <= b < math.inf:
        raise ValueError(f"the threshold b must be in [0, inf), got {b}")
    family.check_dim(rho)
    if b == 0.0:
        return OptResult(opalg.positive_part_trace(rho.mat),
                         _feasible_start(family, settings.seed), 0.0, 0, True,
                         partial(HermitianOperator, family.shape))
    search = _search(family, settings.seed, rho)
    weights = _rank_one_optimum(search.coords, b)
    exact = search.pospart(b, None)
    if weights is None:
        if isinstance(start, OptResult):
            start = start.minimizer
        x0 = search.enter(_feasible_start(family, settings.seed)
                          if start is None else start.mat)
        tracker, iters = _anneal(partial(search.pospart, b),
                                 ANNEAL_TAUS, search.lmo, x0,
                                 max(12, settings.max_iters // 24),
                                 settings.tol / 4.0)
    else:
        tracker, iters = _Tracker(), 0
        tracker.offer(weights, exact(weights)[1])
    return _certified(tracker, iters,
                      partial(_fw_bound, exact, lmo=search.lmo),
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
            stack = _AtomStack.of(mats)
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
    """Annealed solve of the dual over X = b sigma: the exact value at its
    best probe, and the dense iterate at the end of its second temperature
    (of its first, if the schedule stops there) and its atoms of positive
    weight, from which the primal reads its test and its first cuts.
    Below K = 1 it starts at the optimum X = 0 (value >= 1 - b + b/K >= 1),
    as the oracle's zero atom would absorb a start K sigma near 0.

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
        search = _search(family, settings.seed, eta)

        def lmo(grad: np.ndarray) -> np.ndarray:
            s = K * search.lmo(grad)
            return s if _tr_prod(grad, s) < 0.0 else np.zeros_like(s)

        member = search.enter(_feasible_start(family, settings.seed))
        tracker, _ = _anneal(
            partial(_dual_eval, partial(search.pospart, 1.0), K),
            ANNEAL_TAUS, lmo, (K >= 1.0) * member,
            max(20, settings.max_iters // 3), settings.tol / 4.0)
        x, held = tracker.stage_ends[:2][-1]
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
    probe = _dual_eval(partial(_pospart_eval, eta_mat, 1.0), K, None)
    values = []

    def at(b: float) -> tuple[float, float, float]:
        _, exact, grad, _ = probe(b * s)
        values.append(exact)
        return b, exact, _tr_prod(grad(), s)

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
    (``_tangents_meet``); on a kink between two linear pieces (eta and s
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
            b = _tangents_meet(lo, hi)
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
    (``_search``).  On a family that declares ``one_member``, {s}, X = b s
    and the one weight b is searched with the same exact probe, by tangent
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
    minimizer X* (the iterate at the end of its second temperature) the
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

def _relent_eval(rho_mat: np.ndarray, witness: np.ndarray):
    """Probe of D(rho || M) in bits at M = (1 - floor) sigma + floor
    witness, floor = ``RELENT_FLOOR``, an exact objective.  Its ``local`` is
    the exact Hessian in the coordinates of a stack of atoms A_k:
    with M = V diag(lam) V^dag, X~ = V^dag X V and f[...] the divided
    differences of log, the gradient is -c sum_ij f[lam_i, lam_j] rho~_ji
    (A~_k)_ij and the Hessian the second-order Daleckii-Krein form
    -c (1 - floor) sum_ijm f[lam_i, lam_j, lam_m] rho~_mi ((A~_k)_ij
    (A~_l)_jm + (A~_l)_ij (A~_k)_jm), c = (1 - floor) / ln 2."""
    tr_rho_log_rho = _tr_x_log_x(rho_mat)
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
            stack = _AtomStack.of(mats)
            B = _in_eigenbasis(V, stack)
            F1 = _log_first_differences(w)
            rho_T = rho_t.T if rho_t.imag.any() else rho_t.T.real
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
    the invariant members only, in type-class coordinates (``_search``), as
    in ``min_positive_part``: on a power the optimum mixes every vertex.  The
    exit gap is certified against the search's own oracle.
    """
    family.check_dim(rho)
    witness = family.full_rank_witness().mat
    search = _search(family, settings.seed, rho)
    probe = search.read(_relent_eval(rho.mat, witness))
    tracker, iters = _anneal(lambda _: probe, (None,), search.lmo,
                             search.enter(witness),
                             max(12, settings.max_iters // 8), settings.tol)
    return _certified(tracker, iters,
                      partial(_fw_bound, probe, lmo=search.lmo),
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
