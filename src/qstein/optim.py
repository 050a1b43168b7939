"""Convex optimization over free families.

Every minimization here is projection-free and runs through one routine,
``_anneal``: a fully-corrective Frank-Wolfe loop discovers extreme points
through a linear minimization oracle and re-optimizes the weights over the
discovered hull after every new atom.  Nonsmooth spectral objectives
(positive part, trace norm, top eigenvalue) are handled by annealing a
smooth spectral surrogate over a schedule of temperatures tau while
tracking the exact objective at every point probed; reported values are
always exact evaluations, and the reported duality gap is computed from the
exact subgradient, so it upper-bounds the true suboptimality.  Each stage
starts from the atoms and weights the stage before ended with.

The weights are re-optimized by one corrective step, Newton's method on the
simplex (``_newton_reweight``), with the evaluator's exact Hessian in the
coordinates of the atoms: the Daleckii-Krein form of the softplus surrogate
of the positive part, and its second-order form for the relative entropy.
The evaluator of ``frank_wolfe`` has a gradient only and takes pairwise
steps.

A solver is that routine plus its data (m is ``settings.max_iters``; a tau of
``exact`` runs on the exact objective and its gradient; a stage makes at
most "calls/stage" oracle calls and ends at the oracle's "gap" target):

    solver                  tau schedule      calls/stage    gap
    frank_wolfe             exact             max(12, m//8)  tol
    rel_ent_of_resource     exact             max(12, m//8)  tol
    min_positive_part       1e-3, 1e-6, 1e-8  max(12, m//24) tol/4
    hypothesis_dual         1e-3, 1e-6, 1e-8  max(20, m//3)  tol/4
    hypothesis_primal       reads stage 2's end of the dual's solve

Each solver reports as ``fw_gap`` its value minus the best Frank-Wolfe
lower bound f(x) - gap(x) over its best probe and its stage ends, with an
exact (sub)gradient at each (-b P_+ for the positive part).  The trace
distance and the robustness's feasibility test are positive-part problems
and run through ``min_positive_part``: ||sigma~ - sigma||_1 = 2 Tr[(sigma~
- sigma)_+] for unit-trace states, and (1+s) sigma >= rho iff Tr[(rho -
(1+s) sigma)_+] = 0.

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
of ``min_positive_part`` stays dense: it is computed at the dense minimizer
and stage ends against the family's vertex oracle.
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

    ``value`` is the exact objective at ``minimizer``.  ``fw_gap`` is a
    certified bound on its suboptimality: value minus a Frank-Wolfe lower
    bound f(x) - Tr[g (x - s)], with g an exact (sub)gradient at x and s the
    family's oracle answer to g.  x is the best probe and then, while the
    gap exceeds tol, each stage end, and the best bound is kept (the trace
    distance doubles its positive-part gap).  ``converged`` is
    ``fw_gap <= tol``.  ``iterations`` counts the oracle calls of the
    Frank-Wolfe stages.

    The bound is only as exact as the family's oracle.  On the separable
    hull the oracle is a seesaw heuristic, so there ``fw_gap`` and
    ``converged`` are measured against the heuristic's answer and are not
    certificates.
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
        kkt = np.zeros((n + 1, n + 1))
        kkt[:n, :n] = hess[np.ix_(idx, idx)]
        ridge = 1e-12 * max(float(np.abs(np.diag(kkt)).max()),
                            float(np.abs(jac[idx]).max()))
        kkt[:n, :n] += ridge * np.eye(n)
        kkt[:n, n] = kkt[n, :n] = 1.0
        with np.errstate(all="ignore"):
            try:
                sol = np.linalg.solve(kkt, np.append(-jac[idx], 0.0))
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


def _backtrack(eval_fn, mats: np.ndarray, w: np.ndarray, d: np.ndarray,
               jac: np.ndarray, value: float, radius: float,
               tracker: _Tracker):
    """Backtracking along d on the weight simplex.

    The first trial step is the nearer of the simplex boundary and the trust
    radius (in the l1 norm of the weights); a boundary step sets the
    blocking weight to exactly 0.  A step is accepted on the Armijo
    condition, or, when the value has not risen beyond rounding, on a slope
    along d at the step that is still <= 0: by convexity that step
    descends, and near a hull optimum of a sharply curved surrogate the
    decrease is below what the value resolves while the slope still shows
    it.  Returns (weights, surrogate value, ``local``, next radius), or None
    when no step of at least 1e-15 in the weights is accepted.  The radius
    grows fourfold after a first trial that holds, and is twice the
    accepted step after one that had to shrink.
    """
    slope = float(jac @ d)
    shrink = np.flatnonzero(d < 0.0)
    if slope >= 0.0 or not shrink.size:
        return None
    ratios = w[shrink] / -d[shrink]
    hit = float(ratios.min())
    size = float(np.abs(d).sum())
    t = min(1.0, hit, radius / size)
    for halvings in range(60):
        if t * size <= 1e-15:
            break
        trial = np.clip(w + t * d, 0.0, None)
        if t == hit:
            trial[shrink[np.argmin(ratios)]] = 0.0
        trial /= trial.sum()
        x = np.tensordot(trial, mats, 1)
        v, exact, local = eval_fn.newton(x, mats)
        tracker.offer(x, exact)
        grown = (max(radius, 4.0 * t * size) if halvings == 0
                 else 2.0 * t * size)
        if v < value and v <= value + 1e-4 * t * slope:
            return trial, v, local, grown
        if v <= value + 1e-15 * abs(value):
            derivs = local()
            if derivs[0] @ d <= 0.0:
                return trial, v, lambda: derivs, grown
        t *= 0.5
    return None


def _newton_reweight(atoms: list[list], eval_fn, tracker: _Tracker,
                     hull_tol: float, maxiter: int = 60) -> None:
    """Fully-corrective step by Newton's method on the weight simplex.

    ``eval_fn.newton(x, mats)`` returns (surrogate value, exact value,
    ``local``) at x, and ``local()`` the gradient and the exact Hessian in
    the coordinates of the atoms ``mats`` (None for a gradient-only
    evaluator, which takes pairwise steps only).  Each step is backtracked
    to the Armijo condition (``_backtrack``); when the Newton step does not
    descend, the pairwise step is tried.  The solve stops at a hull gap
    jac.w - min(jac) of at most ``hull_tol``, or when no step descends.
    Every probe's exact value goes to the tracker.
    """
    mats = np.array([a for a, _ in atoms])
    w = np.array([v for _, v in atoms], dtype=float)
    value, _, local = eval_fn.newton(np.tensordot(w, mats, 1), mats)
    radius, moved = 1.0, False
    for _ in range(maxiter):
        jac, hess = local()
        if jac @ w - jac.min() <= hull_tol:
            break
        newton = None if hess is None else _newton_direction(w, jac, hess)
        for d in (newton, _pairwise_direction(w, jac)):
            step = None if d is None else _backtrack(
                eval_fn, mats, w, d, jac, value, radius, tracker)
            if step is not None:
                break
        else:
            break  # no step descends
        w, value, local, radius = step
        moved = True
    if moved:
        for entry, wi in zip(atoms, w):
            entry[1] = float(wi)


def _fcfw_minimize(eval_fn, lmo, atoms: list[list], max_outer: int,
                   gap_tol: float, tracker: _Tracker):
    """Fully-corrective Frank-Wolfe from the hull ``atoms``, a list of
    [matrix, weight]: grow the atom set through the linear oracle
    ``lmo(grad) -> matrix``, re-optimizing the hull weights after every new
    atom by Newton's method to a hull gap of ``gap_tol / 2``.

    ``eval_fn(mat, need_grad)`` returns (surrogate value, gradient or None,
    exact value), and ``eval_fn.newton`` serves the corrective step.  Exact
    values of every probe go to the tracker.  The solve ends when the oracle
    certifies the gap target, after ``max_outer`` oracle calls, or when an
    iteration leaves the atoms and weights bit for bit as they were, since
    every later one would repeat it.  Returns the last iterate, its atoms,
    the oracle calls made and whether the first call certified the start.
    """
    total = sum(e[1] for e in atoms)
    sigma = sum(e[0] * (e[1] / total) for e in atoms)
    _, grad, exact = eval_fn(sigma, True)
    tracker.offer(sigma, exact)
    for k in range(max_outer):
        s = lmo(grad)
        if _tr_prod(grad, sigma - s) <= gap_tol:
            return sigma, atoms, k + 1, k == 0
        before = [(m, v) for m, v in atoms]
        for entry in atoms:
            if (np.abs(entry[0] - s) <= 1e-13).all():
                break
        else:
            atoms.append([s, 0.0])
        _newton_reweight(atoms, eval_fn, tracker, gap_tol / 2.0)
        atoms = [e for e in atoms if e[1] > 1e-14] or atoms[:1]
        if len(atoms) == len(before) and all(
                e[0] is m and e[1] == v for e, (m, v) in zip(atoms, before)):
            return sigma, atoms, k + 1, False
        total = sum(e[1] for e in atoms)
        sigma = sum(e[0] * (e[1] / total) for e in atoms)
        _, grad, exact = eval_fn(sigma, True)
        tracker.offer(sigma, exact)
    return sigma, atoms, max_outer, False


def _anneal(make_eval, taus, lmo, start: np.ndarray, stage_atoms: int,
            gap_tol: float) -> tuple[_Tracker, int]:
    """The one Frank-Wolfe routine: a fully-corrective solve per temperature.

    ``make_eval(tau)`` is the evaluator at temperature tau (``None`` for the
    exact objective).  Each stage makes at most ``stage_atoms`` oracle calls
    and starts from the atoms and weights the one before ended with; the
    schedule stops after a stage whose first oracle call certifies its
    start.  Returns the tracker of exact values, whose ``stage_ends`` are
    the iterates at the end of the stages run, and the oracle calls summed
    over the stages.
    """
    tracker = _Tracker()
    atoms, total = [[start.copy(), 1.0]], 0
    for tau in taus:
        x, atoms, it, settled = _fcfw_minimize(make_eval(tau), lmo, atoms,
                                               stage_atoms, gap_tol, tracker)
        tracker.stage_ends.append(x)
        total += it
        if settled:
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


def _fw_gap(grad: np.ndarray, x: np.ndarray, family: FreeFamily,
            seed: int) -> float:
    """The Frank-Wolfe gap Tr[grad (x - s)] at x against the family's
    vertex oracle answer s, so it certifies against the whole family."""
    return max(0.0, _tr_prod(grad, x - family.lmo(grad, seed)))


def _certified(tracker: _Tracker, iters: int, bound, family: FreeFamily,
               settings: SolverSettings, minimizer: np.ndarray) -> OptResult:
    """Result with the best probe's value and ``minimizer``.

    Each point x tried gives the Frank-Wolfe lower bound ``bound(x)`` =
    f(x) - Tr[g (x - s)] on the minimum, with g an exact (sub)gradient at x
    and s the family's vertex oracle answer to g.  ``fw_gap`` is the value
    minus the best bound over the best probe and then the stage ends, last
    first, for as long as the gap exceeds tol.
    """
    value = tracker.best_value
    gap = value - bound(tracker.best_mat)
    for x in reversed(tracker.stage_ends):
        if gap <= settings.tol:
            break
        gap = min(gap, value - bound(x))
    gap = max(0.0, gap)
    return OptResult(value, _as_state(family, minimizer), gap, iters,
                     gap <= settings.tol)


def frank_wolfe(value_fn, grad_fn, family: FreeFamily,
                settings: SolverSettings = SolverSettings(),
                start: DensityMatrix | None = None) -> OptResult:
    """Minimize a convex differentiable functional over the family.

    ``value_fn`` and ``grad_fn`` act on plain matrices; the returned gap is
    evaluated with ``grad_fn`` (``_certified``) and certifies suboptimality.
    With no Hessian, the corrective step takes pairwise steps only.
    """
    def eval_fn(mat, need_grad):
        v = float(value_fn(mat))
        return v, grad_fn(mat) if need_grad else None, v

    def newton(mat: np.ndarray, mats: np.ndarray):
        v = float(value_fn(mat))
        return v, v, lambda: (
            np.einsum("ij,kji->k", grad_fn(mat), mats).real, None)
    eval_fn.newton = newton

    tracker, iters = _anneal(lambda _: eval_fn, (None,),
                             partial(family.lmo, seed=settings.seed),
                             _feasible_start(family, settings.seed, start),
                             max(12, settings.max_iters // 8), settings.tol)
    return _certified(tracker, iters,
                      lambda x: value_fn(x) - _fw_gap(grad_fn(x), x, family,
                                                      settings.seed),
                      family, settings, tracker.best_mat)


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


def _in_eigenbasis(V: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """The stack V^dag dirs_k V, real when V and dirs are: one matrix
    product per direction when every direction is diagonal, two
    otherwise."""
    if not V.imag.any() and not dirs.imag.any():
        V, dirs = V.real, dirs.real
    diag = np.diagonal(dirs, axis1=1, axis2=2)
    if np.count_nonzero(dirs) == np.count_nonzero(diag):
        return (V.conj().T * diag[:, None, :]) @ V
    return V.conj().T @ dirs @ V


def _softplus_derivatives(lam: np.ndarray, V: np.ndarray, sig: np.ndarray,
                          tau: float, dirs: np.ndarray):
    """First and second derivatives of tau sum_i softplus(lam_i / tau + c)
    at the spectrum (lam, V), along a stack of Hermitian directions.

    With B_k = V^dag dirs_k V and s the sigmoids, they are s . diag(B_k) and
    the Daleckii-Krein form sum_ij G_ij (B_k)_ij (B_l)_ji, where G_ij =
    (s_i - s_j) / (lam_i - lam_j), or s (1 - s) / tau for eigenvalues closer
    than 1e-6 tau.
    """
    B = _in_eigenbasis(V, dirs)
    slope = sig * (1.0 - sig) / tau
    gaps = lam[:, None] - lam[None, :]
    near = np.abs(gaps) <= 1e-6 * tau
    G = np.where(near, 0.5 * (slope[:, None] + slope[None, :]),
                 (sig[:, None] - sig[None, :]) / np.where(near, 1.0, gaps))
    flat = B.reshape(len(dirs), -1)
    first = np.diagonal(B, axis1=1, axis2=2).real @ sig
    return first, ((flat * G.ravel()) @ flat.conj().T).real


def _pospart_eval(rho_mat: np.ndarray, b: float, tau: float,
                  offset: float = 0.0):
    """Softplus surrogate of Tr[(rho - b sigma)_+]; ``offset`` shifts its
    argument, which sets the slope at a zero eigenvalue to sigmoid(offset).
    It carries its exact Hessian in the coordinates of a stack of atoms,
    for ``_newton_reweight``."""
    def spectrum(sigma: np.ndarray):
        w, V = eigh(rho_mat - b * sigma)
        return (w, V) + _softplus(w, tau, offset)

    def eval_fn(sigma: np.ndarray, need_grad: bool):
        w, V, smooth, sig = spectrum(sigma)
        grad = -b * ((V * sig) @ V.conj().T) if need_grad else None
        return smooth, grad, float(w[w > 0.0].sum())

    def newton(sigma: np.ndarray, mats: np.ndarray):
        w, V, smooth, sig = spectrum(sigma)

        def local():
            first, second = _softplus_derivatives(w, V, sig, tau, mats)
            return -b * first, b * b * second
        return smooth, float(w[w > 0.0].sum()), local
    eval_fn.newton = newton
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
        """``_pospart_eval`` of the target in these coordinates, with its
        Hessian.  The complement eigenvalues -b w_t / |T_t| do not couple to
        the rest, so they add b^2 (|T_t| - 1) s (1 - s) / (tau |T_t|^2) to
        the second derivative along the weight of class t."""
        rest = self.sizes - 1.0
        mult = np.concatenate([np.ones(self.sizes.size), rest])
        t = self.sizes.size

        def spectrum(w_mat: np.ndarray):
            v = b * np.diag(w_mat) / self.sizes
            w, V = eigh(self.small - np.diag(v))
            smooth, sig = _softplus(np.concatenate([w, -v]), tau, offset,
                                    mult)
            return w, V, smooth, sig

        def eval_fn(w_mat: np.ndarray, need_grad: bool):
            w, V, smooth, sig = spectrum(w_mat)
            grad = None
            if need_grad:
                grad = np.diag(-b * ((np.abs(V) ** 2) @ sig[:t]
                                     + rest * sig[t:]) / self.sizes)
            return smooth, grad, float(w[w > 0.0].sum())

        def newton(w_mat: np.ndarray, mats: np.ndarray):
            w, V, smooth, sig = spectrum(w_mat)

            def local():
                dirs = mats / self.sizes
                first, second = _softplus_derivatives(w, V, sig[:t], tau,
                                                      dirs)
                cls = np.diagonal(dirs, axis1=1, axis2=2).real
                first = first + cls @ (rest * sig[t:])
                curv = rest * sig[t:] * (1.0 - sig[t:]) / tau
                return -b * first, b * b * (second + (cls * curv) @ cls.T)
            return smooth, float(w[w > 0.0].sum()), local
        eval_fn.newton = newton
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
    gap is certified against the whole family either way.  Each point x
    tried gives the Frank-Wolfe lower bound f(x) - Tr[g (x - s)] on the
    minimum, with g = -b P_+ the exact subgradient at x (P_+ the projector
    onto the strictly positive eigenspace of rho - b x) and s the family's
    vertex oracle answer to g; the gap is the value minus the best bound.
    The points are the minimizer and then the stage ends, last first, for
    as long as the gap exceeds tol.  At a non-smooth minimizer P_+ alone
    can leave a gap of order 10; the end of a smoothed stage has a
    subgradient that certifies.
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
    to_dense = (lambda m: m) if coords is None else coords.dense

    def fw_bound(x: np.ndarray) -> float:
        """f(x) - gap(x) with the subgradient -b P_+ at x: a lower bound on
        the minimum, by convexity."""
        w, V = eigh(rho_mat - b * x)
        pos = V[:, w > 0.0]
        grad = -b * (pos @ pos.conj().T)
        return float(w[w > 0.0].sum()) - _fw_gap(grad, x, family,
                                                 settings.seed)

    return _certified(tracker, iters, lambda x: fw_bound(to_dense(x)),
                      family, settings, to_dense(tracker.best_mat))


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

    def newton(x: np.ndarray, mats: np.ndarray):
        smooth, exact, local = pospart.newton(x, mats)
        mass = float(np.trace(x).real) / K

        def with_mass():
            jac, hess = local()
            return jac + np.trace(mats, axis1=1, axis2=2).real / K, hess
        return smooth + mass, exact + mass, with_mass
    eval_fn.newton = newton
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


def _relent_eval(rho_mat: np.ndarray, witness: np.ndarray, floor: float = 1e-9):
    """D(rho || M) in bits at M = (1 - floor) sigma + floor witness.  It
    carries its exact Hessian in the coordinates of a stack of atoms A_k:
    with M = V diag(lam) V^dag, X~ = V^dag X V and f[...] the divided
    differences of log, the gradient is -c sum_ij f[lam_i, lam_j] rho~_ji
    (A~_k)_ij and the Hessian the second-order Daleckii-Krein form
    -c (1 - floor) sum_ijm f[lam_i, lam_j, lam_m] rho~_mi ((A~_k)_ij
    (A~_l)_jm + (A~_l)_ij (A~_k)_jm), c = (1 - floor) / ln 2."""
    w_rho, _ = eigh(rho_mat)
    w_rho = w_rho[w_rho > 0.0]
    tr_rho_log_rho = float((w_rho * np.log2(w_rho)).sum())
    c = (1.0 - floor) / math.log(2.0)

    def spectrum(sigma: np.ndarray):
        w, V = eigh((1.0 - floor) * sigma + floor * witness)
        w = np.clip(w, 1e-300, None)
        rho_t = V.conj().T @ rho_mat @ V
        value = tr_rho_log_rho - float(np.diag(rho_t).real @ np.log2(w))
        return w, V, rho_t, value

    def eval_fn(sigma: np.ndarray, need_grad: bool):
        w, V, rho_t, value = spectrum(sigma)
        grad = None
        if need_grad:
            grad = -c * (V @ (_log_first_differences(w) * rho_t)
                         @ V.conj().T)
        return value, grad, value

    def newton(sigma: np.ndarray, mats: np.ndarray):
        w, V, rho_t, value = spectrum(sigma)

        def local():
            B = _in_eigenbasis(V, mats)
            F1 = _log_first_differences(w)
            rho_T = rho_t.T if rho_t.imag.any() else rho_t.T.real
            jac = -c * np.einsum("ij,kij->k", F1 * rho_T, B).real
            S = np.zeros((len(mats), len(mats)))
            # slabs of j with at most about 2^20 triples bound the memory
            step = max(1, 2 ** 20 // w.size ** 2)
            for start in range(0, w.size, step):
                js = slice(start, start + step)
                P = _log_second_differences(w, F1, js) * rho_T[:, None, :]
                # G[j, k, m] = sum_i B_k[i, j] F2[i, j, m] rho~[m, i]
                G = np.matmul(B[:, :, js].transpose(2, 0, 1),
                              P.transpose(1, 0, 2))
                S += np.tensordot(G, B[:, js, :], axes=([0, 2], [1, 2])).real
            return jac, -c * (1.0 - floor) * (S + S.T)
        return value, value, local
    eval_fn.newton = newton
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

    def fw_bound(x: np.ndarray) -> float:
        value, grad, _ = eval_fn(x, True)
        return value - _fw_gap(grad, x, family, settings.seed)

    return _certified(tracker, iters, fw_bound, family, settings, mixed)


def regularized_sequence(rho: DensityMatrix, family: FreeFamily,
                         n_max: int,
                         settings: SolverSettings = SolverSettings(),
                         dim_cap: int = 1024
                         ) -> list[tuple[int, float, bool]]:
    """Per-copy values of the family relative entropy on powers of rho, as
    (n, value / n, converged) triples; ``converged`` is the solve's
    ``OptResult.converged``."""
    d = rho.total_dim
    if d ** n_max > dim_cap:
        raise DimensionCap(
            f"dimension {d ** n_max} at n_max={n_max} exceeds cap {dim_cap}")
    out = []
    for n in range(1, n_max + 1):
        power = opalg.tensor_power(rho.op, n)
        res = rel_ent_of_resource(DensityMatrix(power), family.at_copies(n),
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
    witness; bisection on s.
    """
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
    while hi - lo > s_tol:
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
                       start: DensityMatrix | None = None) -> OptResult:
    """min over the family of || sigma_tilde - sigma ||_1.

    For unit-trace sigma_tilde and sigma, || sigma_tilde - sigma ||_1 =
    2 Tr[(sigma_tilde - sigma)_+], so this is twice ``min_positive_part``
    at b = 1, its value and gap doubled; ``converged`` is the doubled gap
    <= tol.
    """
    res = min_positive_part(sigma_tilde, 1.0, family, settings, start)
    gap = 2.0 * res.fw_gap
    return OptResult(2.0 * res.value, res.minimizer, gap, res.iterations,
                     gap <= settings.tol)
