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
    generalized_robustness   1e-2, 1e-5, exact    max(12, m//24)  tol / 4
    distance_to_family       1e-3, 1e-6, exact    max(12, m//24)  tol / 4

Oracles and iterates are plain matrices; a ``DensityMatrix`` is built only
for the minimizer a solver returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import opalg, symmetry
from .errors import (ConstraintUncertified, DimensionCap, Infeasible,
                     NoFullRankMember)
from .freesets import FreeFamily
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
    """Remembers the best exact objective value seen at any probed member."""

    def __init__(self):
        self.best_value = math.inf
        self.best_mat = None

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
            if np.allclose(entry[0], s, atol=1e-13):
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
    exact values and the iterations summed over the stages.
    """
    tracker = _Tracker()
    x, total = start, 0
    for tau in taus:
        x, it = _fcfw_minimize(make_eval(tau), lmo, x, stage_atoms, gap_tol,
                               tracker)
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

def _pospart_eval(rho_mat: np.ndarray, b: float, tau: float,
                  offset: float = 0.0):
    """Softplus surrogate of Tr[(rho - b sigma)_+]; ``offset`` shifts its
    argument, which sets the slope at a zero eigenvalue to sigmoid(offset)."""
    def eval_fn(sigma: np.ndarray, need_grad: bool):
        w, V = eigh(rho_mat - b * sigma)
        exact = float(w[w > 0.0].sum())
        x = w / tau + offset
        # softplus, stable for large |x|
        smooth = float(tau * np.sum(np.logaddexp(0.0, x)))
        grad = None
        if need_grad:
            sig = 1.0 / (1.0 + np.exp(-np.clip(x, -500, 500)))
            grad = -b * ((V * sig) @ V.conj().T)
        return smooth, grad, exact
    return eval_fn


def _symmetric_search(family: FreeFamily, *mats: np.ndarray) -> bool:
    """Whether the family offers a type-class oracle on several copies and
    every matrix is invariant under permutations of the copies."""
    if family.copies == 1 or family.type_class_lmo is None:
        return False
    return all(symmetry.is_perm_invariant(HermitianOperator(family.shape, m))
               for m in mats)


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
    atom per type class.  The exit gap is certified against the whole
    family either way: it uses the family's vertex oracle and the exact
    subgradient -b P_+, with P_+ the projector onto the strictly positive
    eigenspace at the minimizer.
    """
    if b < 0.0:
        raise ValueError("b must be nonnegative")
    rho_mat = rho.mat
    if b == 0.0:
        return OptResult(opalg.positive_part_trace(rho_mat),
                         _as_state(family,
                                   _feasible_start(family, settings.seed)),
                         0.0, 0, True)
    sigma = _feasible_start(family, settings.seed, start)
    lmo = (family.type_class_lmo if _symmetric_search(family, rho_mat, sigma)
           else partial(family.lmo, seed=settings.seed))
    tracker, iters = _anneal(partial(_pospart_eval, rho_mat, b),
                             (1e-3, 1e-6, 1e-8), lmo, sigma,
                             max(12, settings.max_iters // 24),
                             settings.tol / 4.0)
    return _certified(
        tracker, iters,
        lambda m: -b * opalg.positive_eigenprojector(rho_mat - b * m),
        family, settings)


# ---------------------------------------------------------------------------
# composite hypothesis test: primal and dual
# ---------------------------------------------------------------------------

def _np_test(eta: np.ndarray, sigma: np.ndarray, budget: float) -> np.ndarray:
    """Most powerful test against a single alternative at the given budget.

    Maximizes Tr[E eta] over 0 <= E <= 1 with Tr[E sigma] <= budget by
    thresholding the likelihood-ratio operator eta - b sigma, with a
    fractional weight on the crossing eigenvector to use the budget exactly.
    """
    w, V = eigh(eta)
    support = (V[:, w > 0.0] @ V[:, w > 0.0].conj().T)
    if float(np.einsum("ij,ji->", support, sigma).real) <= budget + 1e-14:
        return support

    def used(bb: float) -> float:
        proj = opalg.positive_eigenprojector(eta - bb * sigma)
        return float(np.einsum("ij,ji->", proj, sigma).real)

    lo, hi = 0.0, 1.0
    while used(hi) > budget and hi < 1e12:
        hi *= 2.0
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if used(mid) > budget:
            lo = mid
        else:
            hi = mid
    w, V = eigh(eta - hi * sigma)
    pos = w > 0.0
    E = V[:, pos] @ V[:, pos].conj().T
    spent = float(np.einsum("ij,ji->", E, sigma).real)
    rest = budget - spent
    if rest > 0.0:
        # greedily add the eigenvectors at the threshold
        order = np.argsort(-w)
        for i in order:
            if pos[i] or rest <= 1e-15:
                continue
            v = V[:, i]
            cost = float(np.vdot(v, sigma @ v).real)
            gain = float(np.vdot(v, eta @ v).real)
            if gain <= 0.0:
                break
            frac = 1.0 if cost <= 1e-18 else min(1.0, rest / cost)
            E = E + frac * np.outer(v, v.conj())
            rest -= frac * cost
    return E


def hypothesis_primal(eta: DensityMatrix, K: float, family: FreeFamily,
                      settings: SolverSettings = SolverSettings()) -> float:
    """Best acceptance probability of eta under worst-case free error <= 1/K.

    Alternating ascent: a most-powerful test against the running average of
    the worst-case free states, then a feasibility rescaling certified by
    maximizing Tr[E sigma] over the family at exit.
    """
    if K <= 0.0:
        raise ValueError("K must be positive")
    budget = min(1.0, 1.0 / K)
    eta_mat = eta.mat
    sigma_bar = _feasible_start(family, settings.seed)
    best_val, best_E = 0.0, np.zeros_like(eta_mat)
    stale = 0
    rounds = min(max(40, settings.max_iters), 400)
    for t in range(1, rounds + 1):
        E = _np_test(eta_mat, sigma_bar, budget)
        worst = family.lmo(-E, settings.seed)
        m = _tr_prod(E, worst)
        val = _tr_prod(E, eta_mat)
        if m > budget:
            val *= budget / m
            E_feas = E * (budget / m)
        else:
            E_feas = E
        if val > best_val + 1e-12:
            best_val, best_E = val, E_feas
            stale = 0
        else:
            stale += 1
            if stale > 25:
                break
        sigma_bar = ((t - 1) * sigma_bar + worst) / t
    check = _tr_prod(best_E, family.lmo(-best_E, settings.seed))
    if check > budget + 1e-9:
        raise ConstraintUncertified(
            f"exit constraint {check:.3e} exceeds budget {budget:.3e}")
    return best_val


def _dual_eval(eta_mat: np.ndarray, K: float, tau: float):
    """Surrogate of Tr[(eta - X)_+] + Tr X / K.  The offset sets the slope
    at a zero eigenvalue of eta - X to 1/K, as at an optimum X = eta; at
    slope 1/2 the smoothed minimizer sits O(tau) off it, outside the cone
    when eta has eigenvalues below tau."""
    offset = -math.log(K - 1.0) if K > 1.0 else 0.0
    pospart = _pospart_eval(eta_mat, 1.0, tau, offset)

    def eval_fn(x: np.ndarray, need_grad: bool):
        smooth, grad, exact = pospart(x, need_grad)
        mass = float(np.trace(x).real) / K
        if need_grad:
            grad = grad + np.eye(len(x)) / K
        return smooth + mass, grad, exact + mass
    return eval_fn


def hypothesis_dual(eta: DensityMatrix, K: float, family: FreeFamily,
                    settings: SolverSettings = SolverSettings()) -> float:
    """min over b in [0, K] and sigma of Tr[(eta - b sigma)_+] + b/K.

    One jointly convex solve in X = b sigma: annealed fully-corrective
    Frank-Wolfe on Tr[(eta - X)_+] + Tr X / K over the hull of {0} and K
    times the family.  The oracle at gradient g returns K s, s the family's
    answer, if Tr[g s] < 0, else 0; so every probe is feasible (b = Tr X <=
    K, X / b free by convexity) and the exact value at the best probe is a
    certified upper bound on the primal.  Invariant multi-copy inputs use
    the type-class oracle, as in ``min_positive_part``.
    """
    if K <= 0.0:
        raise ValueError("K must be positive")
    eta_mat = eta.mat
    member = _feasible_start(family, settings.seed)
    member_lmo = (family.type_class_lmo
                  if _symmetric_search(family, eta_mat, member)
                  else partial(family.lmo, seed=settings.seed))

    def lmo(grad: np.ndarray) -> np.ndarray:
        s = K * member_lmo(grad)
        return s if _tr_prod(grad, s) < 0.0 else np.zeros_like(s)

    tracker, _ = _anneal(partial(_dual_eval, eta_mat, K), (1e-3, 1e-6, 1e-8),
                         lmo, min(1.0, K) * member,
                         max(20, settings.max_iters // 3), settings.tol / 4.0)
    return tracker.best_value


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
