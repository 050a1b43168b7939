"""The Frank-Wolfe driver that every annealed solve runs through.

``anneal`` is a fully-corrective Frank-Wolfe loop: it discovers extreme
points through a linear minimization oracle and re-optimizes the weights
over the discovered hull after every new atom.  A nonsmooth objective is
handled by annealing a smooth surrogate over a schedule of temperatures tau
while tracking the exact objective at every point probed (``Tracker``).
Each stage starts from the atoms and weights the stage before ended with,
and ends when its oracle certifies the gap target, at its call cap, or when
an oracle answer earns no weight in the re-solve (the atom set is left as
it was): fully-corrective Frank-Wolfe gains only from an answer that earns
weight.  A schedule may open with a warm-up: a stage at a high temperature
with a small call cap, which collects atoms on a smooth surrogate so that
the sharp stages after it start near their optimum (continuation in the
smoothing parameter).

Every objective is one probe, ``probe(x) -> (surrogate, exact, grad,
local)``: one eigendecomposition at x gives the surrogate and exact values,
and two lazy derivatives share it.  A stage probes each distinct point once:
a point that recurs bit for bit, such as a mixture equal to the trial just
accepted, reuses the stage's probe of it (``_fcfw_minimize``).  ``grad()`` is the gradient matrix the
linear oracle and the exit bound read; ``local(mats)`` is the gradient and
exact Hessian in the coordinates of a stack of atoms, which the corrective
step reads, passing the stack as an ``AtomStack`` prepared once per
re-solve.  The weights are re-optimized by that one step, Newton's method
on the simplex (``_newton_reweight``).  Its line search reads the slope at
a trial off the trial's ``grad()`` and steps back to where the tangents
meet (``tangents_meet``), the cut of Kelley's method.

The exit bound of a solve is the Frank-Wolfe lower bound ``fw_bound``,
f(x) - Tr[g (x - s)] at a point x with an exact (sub)gradient g, s the
oracle's answer to g.  Oracles and iterates are plain matrices.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Callable

import numpy as np

# the probes a Frank-Wolfe stage keeps, oldest dropped first: a point recurs
# soon (a mixture equal to the trial just accepted, or to the mixture before
# a re-solve whose trials all failed), and the cap keeps a long stage on
# large matrices from holding every eigendecomposition it made
PROBE_MEMO = 32


def tr_prod(a: np.ndarray, b: np.ndarray) -> float:
    """Re Tr[a b] without forming the product."""
    return float(np.einsum("ij,ji->", a, b).real)


class Tracker:
    """Remembers the best exact objective value seen at any probed member,
    and the temperature, the iterate and its atoms at the end of each
    annealing stage."""

    def __init__(self):
        self.best_value = math.inf
        self.best_mat = None
        self.stage_ends: list[tuple[float | None, np.ndarray, list]] = []

    def offer(self, mat: np.ndarray, exact: float) -> None:
        if exact < self.best_value:
            self.best_value = exact
            self.best_mat = mat.copy()


class AtomStack:
    """A stack of atoms ``mats`` as the local derivatives read it.

    ``_newton_reweight`` holds one stack for its whole loop, so what a
    ``local`` reads off it is worked out once per re-solve, not once per
    call: the traces, the stack ``in_eigenbasis`` transforms (the diagonals
    of diagonal matrices), and the stacks a reader derives from it
    (``derived``).  A ``local`` takes a stack or a plain array of
    matrices (``of``)."""

    def __init__(self, mats: np.ndarray):
        self.mats = mats
        self._derived: dict = {}

    @classmethod
    def of(cls, mats) -> "AtomStack":
        return mats if isinstance(mats, cls) else cls(mats)

    @cached_property
    def traces(self) -> np.ndarray:
        return np.trace(self.mats, axis1=1, axis2=2).real

    @cached_property
    def diagonals(self) -> np.ndarray:
        return np.diagonal(self.mats, axis1=1, axis2=2).real

    @cached_property
    def dirs(self) -> np.ndarray:
        """The matrices, or the diagonals of diagonal ones (a 2-D stack is
        read as diagonals), in the matrices' dtype."""
        dirs = self.mats
        if dirs.ndim == 3:
            diag = np.diagonal(dirs, axis1=1, axis2=2)
            if np.count_nonzero(dirs) == np.count_nonzero(diag):
                dirs = diag
        return dirs

    def derived(self, key, make: Callable) -> "AtomStack":
        """The stack of ``make(self)``, made once per ``key``."""
        if key not in self._derived:
            self._derived[key] = AtomStack(make(self))
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
        every = free.all()
        h, g = (hess, jac) if every else (hess[free][:, free], jac[free])
        n = g.size
        kkt = np.ones((n + 1, n + 1))
        kkt[n, n] = 0.0
        kkt[:n, :n] = h
        rhs = np.zeros(n + 1)
        np.negative(g, out=rhs[:n])
        kkt.reshape(-1)[:n * (n + 2):n + 2] += 1e-12 * max(
            float(np.abs(h.diagonal()).max()), float(np.abs(g).max()))
        try:  # solve raises on a singular system and warns of nothing
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:
            return None
        if not np.isfinite(sol).all():
            return None
        if every:
            d = sol[:n]
        else:
            d = np.zeros_like(w)
            d[free] = sol[:n]
        blocked = (d < 0.0) & ~held
        if not blocked.any():
            return d
        free ^= blocked


def _pairwise_direction(w: np.ndarray, jac: np.ndarray) -> np.ndarray:
    """The pairwise step: weight from the held atom of largest gradient to
    the atom of least gradient."""
    held = np.flatnonzero(w > 0.0)
    d = np.zeros_like(w)
    d[np.argmin(jac)] += 1.0
    d[held[np.argmax(jac[held])]] -= 1.0
    return d


def tangents_meet(lo: tuple, hi: tuple) -> float:
    """Where the tangents at lo = (a, g(a), g'(a)) and hi = (c, g(c),
    g'(c)) of a function g meet, the minimizer of Kelley's cutting-plane
    model on [a, c]; g'(a) != g'(c)."""
    (a, ga, sa), (c, gc, sc) = lo, hi
    return (gc - ga + sa * a - sc * c) / (sa - sc)


def _backtrack(probe, mats: np.ndarray, w: np.ndarray,
               d: np.ndarray, jac: np.ndarray, value: float, radius: float,
               tracker: Tracker):
    """Safeguarded backtracking along d on the weight simplex.

    The first trial step is the nearer of the simplex boundary and the trust
    radius (in the l1 norm of the weights); a boundary step sets the
    blocking weight to exactly 0.  A step is accepted on the Armijo
    condition, or, when the value has not risen beyond rounding, on a slope
    along d at the step that is still <= 0: by convexity that step
    descends, and near a hull optimum of a sharply curved surrogate the
    decrease is below what the value resolves while the slope still shows
    it.  That slope is Tr[grad D], D = sum_k d_k A_k the step in the
    iterate (formed once, at the first trial that fails the Armijo test),
    with ``grad()`` from the trial's own probe, so it costs no
    eigendecomposition and no Hessian.  A rejected step t is followed by
    the point where the tangents at 0 and t meet (``tangents_meet``), kept
    in [t/100, 0.9 t], or by t/2 if the slope at t is not above the slope at
    0: past a kink of the surrogate the tangent at t is steep, and the
    tangents meet near the kink.  Returns (weights, surrogate value, the
    probe's ``local``, next radius), or None when no step of at least 1e-15
    in the weights is accepted.  The radius grows fourfold after a first
    trial that holds, and is twice the accepted step after one that had to
    shrink.
    """
    slope = float(jac @ d)
    shrink = (d < 0.0).nonzero()[0]
    if slope >= 0.0 or not shrink.size:
        return None
    ratios = w[shrink] / -d[shrink]
    first = int(ratios.argmin())
    hit = float(ratios[first])
    size = float(np.abs(d).sum())
    flat = mats.reshape(len(w), -1)
    step_dir = None
    t = min(1.0, hit, radius / size)
    for tries in range(60):
        if t * size <= 1e-15:
            return None
        trial = np.maximum(w + t * d, 0.0)
        if t == hit:
            trial[shrink[first]] = 0.0
        trial /= trial.sum()
        x = (trial @ flat).reshape(mats.shape[1:])
        v, exact, grad, local = probe(x)
        tracker.offer(x, exact)
        if v < value and v <= value + 1e-4 * t * slope:
            break
        if step_dir is None:
            step_dir = (d @ flat).reshape(mats.shape[1:])
        slope_t = tr_prod(grad(), step_dir)
        if v <= value + 1e-15 * abs(value) and slope_t <= 0.0:
            break
        if slope_t > slope:
            meet = tangents_meet((0.0, value, slope), (t, v, slope_t))
            t = min(0.9 * t, max(0.01 * t, meet))
        else:
            t *= 0.5
    else:
        return None
    moved = t * size
    return trial, v, local, (max(radius, 4.0 * moved) if tries == 0
                             else 2.0 * moved)


def _newton_reweight(atoms: list[list], probe, tracker: Tracker,
                     hull_tol: float, start=None) -> None:
    """Fully-corrective step by Newton's method on the weight simplex.

    ``probe(x)`` returns (surrogate value, exact value, ``grad``,
    ``local``) at x, and ``local(mats)`` the gradient and the exact Hessian
    in the coordinates of the atoms, passed as one ``AtomStack`` for the
    whole solve; ``start`` is that probe at the atoms' mixture when the
    caller has made it, else it is made here.  Each step is backtracked to
    the Armijo condition (``_backtrack``, which steps back to where the
    tangents at the start and the trial meet); when the Newton step does
    not descend, the pairwise step is tried.  The solve stops at a hull gap
    jac.w - min(jac) of at most ``hull_tol``, when no step descends, or
    after 60 steps.  Every probe's exact value goes to the tracker.
    """
    stack = AtomStack(np.array([a for a, _ in atoms]))
    w = np.array([v for _, v in atoms], dtype=float)
    value, _, _, local = start or probe(np.tensordot(w, stack.mats, 1))
    radius, moved = 1.0, False
    for _ in range(60):
        jac, hess = local(stack)
        if jac @ w - jac.min() <= hull_tol:
            break
        d = _newton_direction(w, jac, hess)
        step = None if d is None else _backtrack(
            probe, stack.mats, w, d, jac, value, radius, tracker)
        if step is None:  # the pairwise step only if Newton's fails
            step = _backtrack(probe, stack.mats, w,
                              _pairwise_direction(w, jac), jac, value,
                              radius, tracker)
            if step is None:
                break  # no step descends
        w, value, local, radius = step
        moved = True
    if moved:
        for entry, wi in zip(atoms, w):
            entry[1] = float(wi)


def _fcfw_minimize(probe, lmo, atoms: list[list], max_outer: int,
                   gap_tol: float, tracker: Tracker):
    """Fully-corrective Frank-Wolfe from the hull ``atoms``, a list of
    [matrix, weight]: grow the atom set through the linear oracle
    ``lmo(grad) -> matrix``, re-optimizing the hull weights after every new
    atom by Newton's method to a hull gap of ``gap_tol / 2``.

    One ``probe(mat)`` per point serves both: the oracle reads its
    ``grad()``, the corrective step its ``local(mats)`` (a new atom enters
    at weight 0, so the re-solve starts from that probe).  The stage probes
    each distinct point once: its probes are kept, keyed on the point's
    dtype and bytes, and a point probed again gets the kept probe (the last
    ``PROBE_MEMO`` are kept, and none outlives the stage).  Exact values of
    every probe go to the tracker.  The solve ends when the oracle
    certifies the gap target, after ``max_outer`` oracle calls, or when an
    iteration leaves the atom set as it was: the answer was already held, or
    the re-solve gave it no weight (at most 1e-14).  Fully-corrective
    Frank-Wolfe gains only from an answer that earns weight, so the stage
    ends there, at the re-weighted mixture.  Returns the last iterate, its
    atoms, the oracle calls made and whether the first call certified the
    start.
    """
    memo = {}

    def probe_once(x: np.ndarray):
        key = (x.dtype, x.tobytes())
        here = memo.get(key)
        if here is None:
            here = memo[key] = probe(x)
            if len(memo) > PROBE_MEMO:
                del memo[next(iter(memo))]
        return here

    def probe_mixture():
        total = sum(e[1] for e in atoms)
        x = sum(e[0] * (e[1] / total) for e in atoms)
        here = probe_once(x)
        tracker.offer(x, here[1])
        return x, here

    sigma, here = probe_mixture()
    for k in range(max_outer):
        g = here[2]()
        s = lmo(g)
        if tr_prod(g, sigma - s) <= gap_tol:
            return sigma, atoms, k + 1, k == 0
        held = [m for m, _ in atoms]
        if not (np.abs(np.array(held) - s) <= 1e-13).all(axis=(1, 2)).any():
            atoms.append([s, 0.0])
        _newton_reweight(atoms, probe_once, tracker, gap_tol / 2.0, here)
        atoms = [e for e in atoms if e[1] > 1e-14] or atoms[:1]
        sigma, here = probe_mixture()
        if len(atoms) == len(held) and all(
                e[0] is m for e, m in zip(atoms, held)):
            return sigma, atoms, k + 1, False
    return sigma, atoms, max_outer, False


def anneal(make_probe, taus, lmo, start: np.ndarray, stage_atoms: int,
           gap_tol: float, warmup: int = 0) -> tuple[Tracker, int]:
    """The one Frank-Wolfe routine: a fully-corrective solve per temperature.

    ``make_probe(tau)`` is the probe at temperature tau (``None`` for the
    exact objective).  Each stage makes at most ``stage_atoms`` oracle calls
    and starts from the atoms and weights the one before ended with; the
    schedule stops after a stage whose first oracle call certifies its
    start.  A positive ``warmup`` makes the first stage a warm-up: it makes
    at most ``warmup`` oracle calls and never stops the schedule, so it
    only hands its atoms to the stages after it.  Returns the tracker of
    exact values, whose ``stage_ends`` are (tau, iterate, atoms of positive
    weight) at the end of each stage run, and the oracle calls summed over
    the stages.
    """
    tracker = Tracker()
    atoms, total = [[start.copy(), 1.0]], 0
    for k, tau in enumerate(taus):
        warm = k == 0 and warmup > 0
        x, atoms, it, settled = _fcfw_minimize(
            make_probe(tau), lmo, atoms, warmup if warm else stage_atoms,
            gap_tol, tracker)
        tracker.stage_ends.append(
            (tau, x, [m for m, v in atoms if v > 0.0]))
        total += it
        if settled and not warm:
            break  # the oracle certifies the start point already
    return tracker, total


def fw_bound(probe, x: np.ndarray, lmo) -> float:
    """The Frank-Wolfe lower bound l(x) - Tr[g (x - s)] on the minimum, by
    convexity: l and g the surrogate value and gradient that ``probe`` gives
    at x, of the objective or of a linear minorant of it, s the answer of
    the search's oracle ``lmo`` to g."""
    lower, _, grad, _ = probe(x)
    g = grad()
    return lower - max(0.0, tr_prod(g, x - lmo(g)))


def in_eigenbasis(V: np.ndarray, stack: AtomStack) -> np.ndarray:
    """The stack V^dag A_k V over the atoms A_k of ``stack``, real when V
    and the atoms are real arrays and complex otherwise (numpy's type
    promotion).  One matrix product per atom when every atom is diagonal,
    two otherwise."""
    dirs = stack.dirs
    if dirs.ndim == 3:
        return V.conj().T @ dirs @ V
    return (V.conj().T * dirs[:, None, :]) @ V
