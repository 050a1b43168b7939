"""Convex optimization over free families.

Every minimization here is projection-free and runs through one routine,
``_anneal``: a fully-corrective Frank-Wolfe loop discovers extreme points
through a linear minimization oracle and re-optimizes the weights over the
discovered hull after every new atom.  Nonsmooth spectral objectives
(positive part, trace norm, top eigenvalue) are handled by annealing a
smooth spectral surrogate over a schedule of temperatures tau while
tracking the exact objective at every point probed; reported values are
always exact evaluations, and the reported duality gap is computed from the
exact subgradient, so it upper-bounds the true suboptimality.

A solver is that routine plus its data (m is ``settings.max_iters``; a tau of
``exact`` runs on the exact objective and its subgradient):

    solver                   tau schedule         atoms/stage     gap target
    frank_wolfe              exact                max(12, m//8)   tol
    rel_ent_of_resource      exact                max(12, m//8)   tol
    min_positive_part        1e-3, 1e-6, 1e-8     max(12, m//24)  tol / 4
    hypothesis_dual          1e-3, 1e-6, 1e-8     max(20, m//3)   tol / 4
    hypothesis_primal        reads stage 2's end of the dual's solve
    generalized_robustness   1e-2, 1e-5, exact    max(12, m//24)  tol / 4
    distance_to_family       1e-3, 1e-6, exact    max(12, m//24)  tol / 4

``hypothesis_primal`` reads its test off the iterate at the end of the
dual's second stage with a cutting-plane linear program.  Both ends of the
bracket share one solve: the last dual solve is memoized, so a primal and
a dual call on the same inputs, in either order, anneal once.
Oracles and iterates are plain matrices; a ``DensityMatrix`` is built
only for the minimizer a solver returns.

``min_positive_part`` and ``hypothesis_dual`` search the permutation-
invariant members only when the family offers ``type_class_lmo`` on
several copies and the inputs are invariant.  When the target operator
(rho or eta) also lies on the symmetric subspace, as a pure power does,
that search runs in type-class coordinates: the iterate is the T x T
diagonal of class weights, T the number of type classes, and each
evaluation is one T x T eigendecomposition instead of one of dimension
d^N.  The surrogate, its gradient and the exact value there equal the
dense ones to rounding, so the Frank-Wolfe path is the same.  The exit gap
of ``min_positive_part`` stays dense: it is computed once at the dense
minimizer against the family's vertex oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import opalg, symmetry
from .errors import DimensionCap, Infeasible, NoFullRankMember
from .freesets import FreeFamily, _type_classes
from .opalg import DensityMatrix, HermitianOperator, eigh


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
        if self.tol <= 0.0 or self.max_iters < 1:
            raise ValueError("tol must be positive and max_iters >= 1")


@dataclass(frozen=True)
class OptResult:
    """Outcome of a family minimization.

    ``value`` is the exact objective at ``minimizer``; ``fw_gap`` is the
    Frank-Wolfe gap computed with the exact (sub)gradient at the minimizer,
    a certified bound on the suboptimality.
    """

    value: float
    minimizer: DensityMatrix
    fw_gap: float
    iterations: int
    converged: bool


class _Tracker:
    """Remembers the best exact objective value seen at any probed member,
    and the iterate at the end of each annealing stage."""

    def __init__(self):
        self.best_value = math.inf
        self.best_mat = None
        self.stage_ends: list[np.ndarray] = []

    def offer(self, mat: np.ndarray, exact: float) -> None:
        if exact < self.best_value:
            self.best_value = exact
            self.best_mat = mat.copy()


def _corrective_reweight(atoms: list[list], eval_fn, tracker: _Tracker,
                         maxiter: int = 80) -> None:
    """Fully-corrective step: re-optimize the weights over the atom hull.

    The subproblem is smooth and low-dimensional (one variable per active
    atom), solved with SLSQP on the weight simplex; atoms themselves still
    come only from the family's linear oracle.
    """
    from scipy.optimize import minimize

    mats = [a for a, _ in atoms]
    w0 = np.array([w for _, w in atoms], dtype=float)

    def fun(w):
        sigma = sum(wi * m for wi, m in zip(w, mats))
        v, g, exact = eval_fn(sigma, True)
        if w.min() >= -1e-12 and abs(w.sum() - 1.0) <= 1e-9:
            tracker.offer(sigma, exact)
        jac = np.array([_tr_prod(g, m) for m in mats])
        return v, jac

    res = minimize(fun, w0, jac=True, method="SLSQP",
                   bounds=[(0.0, 1.0)] * len(mats),
                   constraints=[{"type": "eq",
                                 "fun": lambda w: w.sum() - 1.0,
                                 "jac": lambda w: np.ones_like(w)}],
                   options={"maxiter": maxiter, "ftol": 1e-14})
    w = np.clip(res.x, 0.0, None)
    tot = w.sum()
    if tot <= 0.0:
        return
    for entry, wi in zip(atoms, w / tot):
        entry[1] = float(wi)


def _fcfw_minimize(eval_fn, lmo, start: np.ndarray, max_outer: int,
                   gap_tol: float, tracker: _Tracker) -> tuple[np.ndarray, int]:
    """Fully-corrective Frank-Wolfe: grow the atom set through the linear
    oracle ``lmo(grad) -> matrix``, re-optimizing the hull weights after
    every new atom.

    ``eval_fn(mat, need_grad)`` returns (surrogate value, gradient or None,
    exact value).  Exact values of every probe go to the tracker.
    """
    sigma = start.copy()
    atoms: list[list] = [[sigma.copy(), 1.0]]
    _, grad, exact = eval_fn(sigma, True)
    tracker.offer(sigma, exact)
    iters = 0
    for k in range(max_outer):
        iters = k + 1
        s = lmo(grad)
        fw_gap = _tr_prod(grad, sigma - s)
        if fw_gap <= gap_tol:
            break
        for entry in atoms:
            # np.allclose(entry[0], s, atol=1e-13) written out, for speed;
            # its relative term 1e-5 |s| is kept, as dropping it would change
            # which atoms merge and so every Frank-Wolfe path
            if (np.abs(entry[0] - s) <= 1e-13 + 1e-5 * np.abs(s)).all():
                break
        else:
            atoms.append([s, 0.0])
        _corrective_reweight(atoms, eval_fn, tracker)
        atoms = [e for e in atoms if e[1] > 1e-14] or atoms[:1]
        total = sum(e[1] for e in atoms)
        sigma = sum(e[0] * (e[1] / total) for e in atoms)
        _, grad, exact = eval_fn(sigma, True)
        tracker.offer(sigma, exact)
    return sigma, iters


def _anneal(make_eval, taus, lmo, start: np.ndarray, stage_atoms: int,
            gap_tol: float) -> tuple[_Tracker, int]:
    """The one Frank-Wolfe routine: a fully-corrective solve per temperature.

    ``make_eval(tau)`` is the evaluator at temperature tau (``None`` for the
    exact objective).  Each stage gets ``stage_atoms`` atoms and starts at
    the last iterate of the one before; the schedule stops after a stage
    whose first oracle call certifies its start.  Returns the tracker of
    exact values, whose ``stage_ends`` are the iterates at the end of the
    stages run, and the iterations summed over the stages.
    """
    tracker = _Tracker()
    x, total = start, 0
    for tau in taus:
        x, it = _fcfw_minimize(make_eval(tau), lmo, x, stage_atoms, gap_tol,
                               tracker)
        tracker.stage_ends.append(x)
        total += it
        if it <= 1:
            break  # the oracle certifies the start point already
    return tracker, total


def _feasible_start(family: FreeFamily, seed: int,
                    start: DensityMatrix | None = None) -> np.ndarray:
    """``start`` if given, else the full-rank witness, else the oracle's
    answer to a zero gradient (a singular IID member has no full-rank
    witness)."""
    if start is not None:
        return start.mat
    try:
        return family.full_rank_witness().mat
    except NoFullRankMember:
        d = family.total_dim
        return family.lmo(np.zeros((d, d), dtype=complex), seed)


def _as_state(family: FreeFamily, mat: np.ndarray) -> DensityMatrix:
    return DensityMatrix(HermitianOperator(family.shape, mat))


def _certified(tracker: _Tracker, iters: int, subgrad, family: FreeFamily,
               settings: SolverSettings,
               minimizer: np.ndarray | None = None) -> OptResult:
    """Result at the best probe, with the Frank-Wolfe gap of the exact
    (sub)gradient ``subgrad(best)`` against the family's vertex oracle, so
    the gap certifies against the whole family."""
    best = tracker.best_mat
    grad = subgrad(best)
    gap = max(0.0, _tr_prod(grad, best - family.lmo(grad, settings.seed)))
    return OptResult(tracker.best_value,
                     _as_state(family, best if minimizer is None
                               else minimizer),
                     gap, iters, gap <= settings.tol)


def frank_wolfe(value_fn, grad_fn, family: FreeFamily,
                settings: SolverSettings = SolverSettings(),
                start: DensityMatrix | None = None) -> OptResult:
    """Minimize a convex differentiable functional over the family.

    ``value_fn`` and ``grad_fn`` act on plain matrices; the returned gap is
    evaluated with ``grad_fn`` at the minimizer and certifies suboptimality.
    """
    def eval_fn(mat, need_grad):
        v = float(value_fn(mat))
        return v, grad_fn(mat) if need_grad else None, v

    tracker, iters = _anneal(lambda _: eval_fn, (None,),
                             partial(family.lmo, seed=settings.seed),
                             _feasible_start(family, settings.seed, start),
                             max(12, settings.max_iters // 8), settings.tol)
    return _certified(tracker, iters, grad_fn, family, settings)


# ---------------------------------------------------------------------------
# positive-part minimization
# ---------------------------------------------------------------------------

def _softplus(w: np.ndarray, tau: float, offset: float, mult=1.0):
    """tau * sum_i mult_i softplus(w_i / tau + offset), and the sigmoids that
    are its derivatives in w."""
    x = w / tau + offset
    # softplus, stable for large |x|
    smooth = float(tau * np.sum(mult * np.logaddexp(0.0, x)))
    return smooth, 1.0 / (1.0 + np.exp(-np.clip(x, -500, 500)))


def _pospart_eval(rho_mat: np.ndarray, b: float, tau: float,
                  offset: float = 0.0):
    """Softplus surrogate of Tr[(rho - b sigma)_+]; ``offset`` shifts its
    argument, which sets the slope at a zero eigenvalue to sigmoid(offset)."""
    def eval_fn(sigma: np.ndarray, need_grad: bool):
        w, V = eigh(rho_mat - b * sigma)
        smooth, sig = _softplus(w, tau, offset)
        grad = -b * ((V * sig) @ V.conj().T) if need_grad else None
        return smooth, grad, float(w[w > 0.0].sum())
    return eval_fn


@dataclass(frozen=True)
class _TypeClassCoords:
    """Type-class coordinates of a search over permutation-invariant
    diagonal states, for a target operator on the symmetric subspace.

    The member sum_t w_t P_t / |T_t|, with P_t the projector onto type class
    t, is stored as the T x T matrix diag(w).  ``iso`` is the isometry D
    whose column t is the normalized indicator of class t; its range is the
    symmetric subspace, and ``small`` is D^T A D for the target A = D small
    D^T.  So A - b sigma has the spectrum of small - b diag(w / |T|) plus
    the eigenvalue -b w_t / |T_t| with multiplicity |T_t| - 1 (the rest of
    class t), and one T x T eigendecomposition evaluates the objective.
    Gradients are diag(g), g_t the class average of the dense gradient's
    diagonal, so Tr[g (w - s)] is the dense Frank-Wolfe gap.
    """

    labels: np.ndarray
    sizes: np.ndarray
    small: np.ndarray

    @classmethod
    def of(cls, family: FreeFamily,
           target: np.ndarray) -> "_TypeClassCoords | None":
        """The coordinates, or None if ``target`` is not supported on the
        symmetric subspace (||D D^T A D D^T - A||_max > 1e-12)."""
        labels, sizes = _type_classes(family.base_dim, family.copies)
        iso = symmetry.sym_isometry(family.copies, family.base_dim)
        small = iso.T @ target @ iso
        if float(np.abs(iso @ small @ iso.T - target).max()) > 1e-12:
            return None
        return cls(labels, sizes, small)

    def weights(self, mat: np.ndarray) -> np.ndarray:
        """diag(w) of an invariant diagonal matrix: class sums of its
        diagonal."""
        return np.diag(np.bincount(self.labels, weights=np.diag(mat).real,
                                   minlength=self.sizes.size))

    def dense(self, w_mat: np.ndarray) -> np.ndarray:
        """The dense diagonal matrix with coordinates ``w_mat``."""
        w = np.diag(w_mat)
        return np.diag(w[self.labels] / self.sizes[self.labels]).astype(
            complex)

    def lmo(self, grad: np.ndarray) -> np.ndarray:
        """The uniform state on the class of least average gradient, as
        ``type_class_lmo`` answers."""
        s = np.zeros(grad.shape)
        k = int(np.argmin(np.diag(grad)))
        s[k, k] = 1.0
        return s

    def pospart_eval(self, b: float, tau: float, offset: float = 0.0):
        """``_pospart_eval`` of the target in these coordinates."""
        rest = self.sizes - 1.0
        mult = np.concatenate([np.ones(self.sizes.size), rest])

        def eval_fn(w_mat: np.ndarray, need_grad: bool):
            v = b * np.diag(w_mat) / self.sizes
            w, V = eigh(self.small - np.diag(v))
            smooth, sig = _softplus(np.concatenate([w, -v]), tau, offset,
                                    mult)
            grad = None
            if need_grad:
                t = self.sizes.size
                grad = np.diag(-b * ((np.abs(V) ** 2) @ sig[:t]
                                     + rest * sig[t:]) / self.sizes)
            return smooth, grad, float(w[w > 0.0].sum())
        return eval_fn


def _symmetric_search(family: FreeFamily, *mats: np.ndarray) -> bool:
    """Whether the family offers a type-class oracle on several copies and
    every matrix is invariant under permutations of the copies."""
    if family.copies == 1 or family.type_class_lmo is None:
        return False
    return all(symmetry.is_perm_invariant(HermitianOperator(family.shape, m))
               for m in mats)


def _search(family: FreeFamily, seed: int, target: np.ndarray,
            start: np.ndarray):
    """Oracle, start point, surrogate ``pospart(b, tau, offset)`` of
    Tr[(target - b sigma)_+] and type-class coordinates (None on dense
    matrices) of a search over the family.

    Invariant inputs search the invariant members only, in type-class
    coordinates when ``target`` lies on the symmetric subspace; all other
    inputs search the whole family with its vertex oracle.
    """
    dense = partial(_pospart_eval, target)
    if not _symmetric_search(family, target, start):
        return partial(family.lmo, seed=seed), start, dense, None
    coords = _TypeClassCoords.of(family, target)
    if coords is None:
        return family.type_class_lmo, start, dense, None
    return coords.lmo, coords.weights(start), coords.pospart_eval, coords


def min_positive_part(rho: DensityMatrix | HermitianOperator, b: float,
                      family: FreeFamily,
                      settings: SolverSettings = SolverSettings(),
                      start: DensityMatrix | None = None) -> OptResult:
    """Minimize Tr[(rho - b sigma)_+] over the family.

    When the family has more than one copy and offers ``type_class_lmo``,
    and both rho and the start point are invariant under permutations of
    the copies, the search runs over permutation-invariant sigma only: the
    objective is then convex and permutation invariant, so twirling a
    minimizer gives an invariant one, and Frank-Wolfe needs at most one
    atom per type class.  If rho also lies on the symmetric subspace, the
    search runs in type-class coordinates (module docstring).  The exit
    gap is certified against the whole family either way: it uses the
    family's vertex oracle and the exact subgradient -b P_+ at the dense
    minimizer, with P_+ the projector onto the strictly positive
    eigenspace.
    """
    if b < 0.0:
        raise ValueError("b must be nonnegative")
    rho_mat = rho.mat
    if b == 0.0:
        return OptResult(opalg.positive_part_trace(rho_mat),
                         _as_state(family,
                                   _feasible_start(family, settings.seed)),
                         0.0, 0, True)
    lmo, x0, pospart, coords = _search(
        family, settings.seed, rho_mat,
        _feasible_start(family, settings.seed, start))
    tracker, iters = _anneal(partial(pospart, b), (1e-3, 1e-6, 1e-8), lmo, x0,
                             max(12, settings.max_iters // 24),
                             settings.tol / 4.0)
    if coords is not None:
        tracker.best_mat = coords.dense(tracker.best_mat)
    return _certified(
        tracker, iters,
        lambda m: -b * opalg.positive_eigenprojector(rho_mat - b * m),
        family, settings)


# ---------------------------------------------------------------------------
# composite hypothesis test: primal and dual
# ---------------------------------------------------------------------------

def _dual_eval(pospart, K: float, tau: float):
    """Surrogate of Tr[(eta - X)_+] + Tr X / K, with ``pospart(tau,
    offset)`` the surrogate of the first term.  The offset sets the slope
    at a zero eigenvalue of eta - X to 1/K, as at an optimum X = eta; at
    slope 1/2 the smoothed minimizer sits O(tau) off it, outside the cone
    when eta has eigenvalues below tau."""
    offset = -math.log(K - 1.0) if K > 1.0 else 0.0
    pospart = pospart(tau, offset)

    def eval_fn(x: np.ndarray, need_grad: bool):
        smooth, grad, exact = pospart(x, need_grad)
        mass = float(np.trace(x).real) / K
        if need_grad:
            grad = grad + np.eye(len(x)) / K
        return smooth + mass, grad, exact + mass
    return eval_fn


# The last dual solve: (copy of eta, K, family, settings, best value,
# primal iterate).
_DUAL_MEMO = None


def _dual_search(eta_mat: np.ndarray, K: float, family: FreeFamily,
                 settings: SolverSettings) -> tuple[float, np.ndarray]:
    """Annealed solve of the dual over X = b sigma: the exact value at its
    best probe, and the dense iterate at the end of its second temperature
    (of its first, if the schedule stops there), from which the primal
    reads its test.

    The last solve is kept in a one-entry memo, so that a primal and a dual
    call on the same inputs share it, in either order.  A call reuses it
    when ``family`` is the same object, K and ``settings`` are equal and
    eta equals the memo's copy entry by entry.  Families are matched by
    identity because not all of them can be hashed; the memo holds the
    family, so its identity cannot pass to a new object.  Reading the memo
    and replacing it are each one atomic step, so threads that race at
    worst both solve.
    """
    global _DUAL_MEMO
    memo = _DUAL_MEMO
    if (memo is not None and memo[2] is family and memo[1] == K
            and memo[3] == settings and np.array_equal(memo[0], eta_mat)):
        return memo[4], memo[5]
    member_lmo, member, pospart, coords = _search(
        family, settings.seed, eta_mat, _feasible_start(family, settings.seed))

    def lmo(grad: np.ndarray) -> np.ndarray:
        s = K * member_lmo(grad)
        return s if _tr_prod(grad, s) < 0.0 else np.zeros_like(s)

    tracker, _ = _anneal(partial(_dual_eval, partial(pospart, 1.0), K),
                         (1e-3, 1e-6, 1e-8), lmo, min(1.0, K) * member,
                         max(20, settings.max_iters // 3), settings.tol / 4.0)
    x = tracker.stage_ends[:2][-1]
    if coords is not None:
        x = coords.dense(x)
    _DUAL_MEMO = (eta_mat.copy(), K, family, settings, tracker.best_value, x)
    return tracker.best_value, x


def hypothesis_dual(eta: DensityMatrix, K: float, family: FreeFamily,
                    settings: SolverSettings = SolverSettings()) -> float:
    """min over b in [0, K] and sigma of Tr[(eta - b sigma)_+] + b/K.

    One jointly convex solve in X = b sigma: annealed fully-corrective
    Frank-Wolfe on Tr[(eta - X)_+] + Tr X / K over the hull of {0} and K
    times the family.  The oracle at gradient g returns K s, s the family's
    answer, if Tr[g s] < 0, else 0; so every probe is feasible (b = Tr X <=
    K, X / b free by convexity) and the exact value at the best probe is a
    certified upper bound on the primal.  Invariant multi-copy inputs use
    the type-class oracle, and type-class coordinates, as in
    ``min_positive_part``.  A ``hypothesis_primal`` call on the same
    inputs just before or after shares the solve (``_dual_search``).
    """
    if K <= 0.0:
        raise ValueError("K must be positive")
    return _dual_search(eta.mat, K, family, settings)[0]


def hypothesis_primal(eta: DensityMatrix, K: float, family: FreeFamily,
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
    <v_j|eta|v_j> by one linear program per round.  Its rows are Kelley
    cutting planes sum_j e_j <v_j|s_k|v_j> <= budget, one per oracle answer
    s_k to -E; a round adds the cut of the current answer until that answer
    exceeds the budget by at most a relative 1e-9, for at most ``max_iters``
    rounds.  The rows are divided by the budget and solved to HiGHS'
    tightest feasibility tolerance, 1e-10: at its default of 1e-7 a cut the
    LP already holds can stay violated by more than the 1e-9, and the same
    cut is added round after round.  The weights are clipped to [0, 1] (the
    LP meets its bounds only to about 1e-9), and the value Tr[E eta] is
    scaled by min(1, budget / Tr[E s]) at the last answer s.
    """
    from scipy.optimize import linprog

    if K <= 0.0:
        raise ValueError("K must be positive")
    budget = min(1.0, 1.0 / K)
    eta_mat = eta.mat
    x = _dual_search(eta_mat, K, family, settings)[1]
    _, V = eigh(eta_mat - x)

    def diag_in_basis(mat: np.ndarray) -> np.ndarray:
        return np.einsum("ij,ij->j", V.conj(), mat @ V).real

    gain = diag_in_basis(eta_mat)
    cuts: list[np.ndarray] = []
    for _ in range(settings.max_iters):
        res = linprog(-gain, A_ub=np.array(cuts) / budget if cuts else None,
                      b_ub=np.ones(len(cuts)) if cuts else None,
                      bounds=(0.0, 1.0), method="highs",
                      options={"primal_feasibility_tolerance": 1e-10})
        e = np.clip(res.x, 0.0, 1.0)
        cost = diag_in_basis(family.lmo(-(V * e) @ V.conj().T, settings.seed))
        if cost @ e <= budget * (1.0 + 1e-9):
            break
        cuts.append(cost)
    used = float(cost @ e)
    return float(gain @ e) * (budget / used if used > budget else 1.0)


# ---------------------------------------------------------------------------
# relative entropy of resource
# ---------------------------------------------------------------------------

def _relent_eval(rho_mat: np.ndarray, witness: np.ndarray, floor: float = 1e-9):
    w_rho, _ = eigh(rho_mat)
    w_rho = w_rho[w_rho > 0.0]
    tr_rho_log_rho = float((w_rho * np.log2(w_rho)).sum())

    def eval_fn(sigma: np.ndarray, need_grad: bool):
        mixed = (1.0 - floor) * sigma + floor * witness
        w, V = eigh(mixed)
        w = np.clip(w, 1e-300, None)
        lw = np.log2(w)
        rho_t = V.conj().T @ rho_mat @ V
        value = tr_rho_log_rho - float(np.sum(np.diag(rho_t).real * lw))
        grad = None
        if need_grad:
            diff = w[:, None] - w[None, :]
            phi = np.where(np.abs(diff) > 1e-14,
                           (lw[:, None] - lw[None, :]) / np.where(
                               np.abs(diff) > 1e-14, diff, 1.0),
                           1.0 / (w[:, None] * math.log(2.0)))
            grad = -(1.0 - floor) * (V @ (phi * rho_t) @ V.conj().T)
        return value, grad, value
    return eval_fn


def rel_ent_of_resource(rho: DensityMatrix | HermitianOperator,
                        family: FreeFamily,
                        settings: SolverSettings = SolverSettings()) -> OptResult:
    """min over the family of D(rho || sigma).

    Iterates are kept full rank by mixing a sliver of the full-rank witness
    into every evaluation point (the witness is free and the family convex,
    so membership is preserved exactly).
    """
    witness = family.full_rank_witness().mat
    floor = 1e-9
    eval_fn = _relent_eval(rho.mat, witness, floor)
    tracker, iters = _anneal(lambda _: eval_fn, (None,),
                             partial(family.lmo, seed=settings.seed), witness,
                             max(12, settings.max_iters // 8), settings.tol)
    mixed = (1.0 - floor) * tracker.best_mat + floor * witness
    return _certified(tracker, iters, lambda m: eval_fn(m, True)[1], family,
                      settings, mixed)


def regularized_sequence(rho: DensityMatrix, family: FreeFamily,
                         n_max: int,
                         settings: SolverSettings = SolverSettings(),
                         dim_cap: int = 1024) -> list[tuple[int, float]]:
    """Per-copy values of the family relative entropy on powers of rho."""
    d = rho.total_dim
    if d ** n_max > dim_cap:
        raise DimensionCap(
            f"dimension {d ** n_max} at n_max={n_max} exceeds cap {dim_cap}")
    out = []
    for n in range(1, n_max + 1):
        power = opalg.tensor_power(rho.op, n)
        res = rel_ent_of_resource(DensityMatrix(power), family.at_copies(n),
                                  settings)
        out.append((n, res.value / n))
    return out


# ---------------------------------------------------------------------------
# generalized robustness
# ---------------------------------------------------------------------------

def _lambda_max_eval(rho_mat: np.ndarray, scale: float, tau: float | None):
    def eval_fn(sigma: np.ndarray, need_grad: bool):
        w, V = eigh(rho_mat - scale * sigma)
        exact = float(w[-1])
        if tau is None:
            grad = None
            if need_grad:
                v = V[:, -1]
                grad = -scale * np.outer(v, v.conj())
            return exact, grad, exact
        x = (w - w[-1]) / tau
        lse = float(w[-1] + tau * np.log(np.sum(np.exp(x))))
        grad = None
        if need_grad:
            soft = np.exp(x)
            soft /= soft.sum()
            grad = -scale * ((V * soft) @ V.conj().T)
        return lse, grad, exact
    return eval_fn


def generalized_robustness(rho: DensityMatrix, family: FreeFamily,
                           settings: SolverSettings = SolverSettings(),
                           s_tol: float = 1e-6,
                           return_witness: bool = False):
    """Least s >= 0 with (rho + s tau)/(1+s) free for some state tau.

    Feasibility at s is the eigenvalue condition: some family member sigma
    satisfies (1+s) sigma >= rho, tested by minimizing the top eigenvalue of
    rho - (1+s) sigma over the family; bisection on s.
    """
    feas_tol = 1e-9
    start = _feasible_start(family, settings.seed)
    lmo = partial(family.lmo, seed=settings.seed)

    def feasible(s: float):
        tracker, _ = _anneal(partial(_lambda_max_eval, rho.mat, 1.0 + s),
                             (1e-2, 1e-5, None), lmo, start,
                             max(12, settings.max_iters // 24),
                             settings.tol / 4.0)
        return tracker.best_value <= feas_tol, tracker.best_mat

    ok, mat = feasible(0.0)
    if ok:
        return (0.0, _as_state(family, mat)) if return_witness else 0.0
    lo, hi = 0.0, 1.0
    mat_hi = None
    for _ in range(60):
        ok, mat = feasible(hi)
        if ok:
            mat_hi = mat
            break
        lo, hi = hi, 2.0 * hi
    else:
        raise Infeasible("no feasible robustness parameter found")
    while hi - lo > s_tol:
        mid = 0.5 * (lo + hi)
        ok, mat = feasible(mid)
        if ok:
            hi, mat_hi = mid, mat
        else:
            lo = mid
    if return_witness:
        return hi, _as_state(family, mat_hi)
    return hi


# ---------------------------------------------------------------------------
# trace distance to a family
# ---------------------------------------------------------------------------

def _distance_eval(target: np.ndarray, tau: float | None):
    def eval_fn(sigma: np.ndarray, need_grad: bool):
        w, V = eigh(sigma - target)
        exact = float(np.abs(w).sum())
        if tau is None:
            grad = None
            if need_grad:
                sgn = np.sign(w)
                sgn[np.abs(w) < 1e-14] = 0.0  # exclude the zero eigenspace
                grad = (V * sgn) @ V.conj().T
            return exact, grad, exact
        h = np.sqrt(w * w + tau * tau) - tau
        smooth = float(h.sum())
        grad = None
        if need_grad:
            grad = (V * (w / np.sqrt(w * w + tau * tau))) @ V.conj().T
        return smooth, grad, exact
    return eval_fn


def distance_to_family(sigma_tilde: DensityMatrix, family: FreeFamily,
                       settings: SolverSettings = SolverSettings(),
                       start: DensityMatrix | None = None) -> OptResult:
    """min over the family of || sigma_tilde - sigma ||_1."""
    target = sigma_tilde.mat
    tracker, iters = _anneal(partial(_distance_eval, target),
                             (1e-3, 1e-6, None),
                             partial(family.lmo, seed=settings.seed),
                             _feasible_start(family, settings.seed, start),
                             max(12, settings.max_iters // 24),
                             settings.tol / 4.0)
    return _certified(tracker, iters,
                      lambda m: _distance_eval(target, None)(m, True)[1],
                      family, settings)
