"""The searches of the solvers: positive-part probes and type-class
coordinates.

One function, ``pick_search``, picks the search of every solver, from the
target's type alone.  A power, on a family that declares ``type_classes``
and has several copies, is invariant by construction, and its search
(``TypeClassCoords.of``) runs over the invariant members in type-class
coordinates: the iterate is the T x T diagonal of class weights, T the
number of type classes, and the start enters as its twirl, so any free
start will do.  A pure base gives the power's T x T block on the
symmetric subspace from its ray, so each positive-part evaluation is one
T x T eigendecomposition (and the threshold minimum has a closed form,
``rank_one_optimum``) and the solve makes nothing d^N wide; the probes of
a mixed base read the dense objective at the dense member.  A dense
operator searches the family's vertices, whatever its structure, and so
does any other input.  Every exit bound reads the probe and the oracle its
search ran with.  That is sound for the invariant searches: the objective
is convex and permutation invariant, so its minimum over the family is its
minimum over the invariant members, and the subgradient inequality over
those gives a bound that, at the same point, is never looser than the
vertex oracle's.

The nonsmooth positive part Tr[(rho - b sigma)_+] is probed through a
softplus surrogate at a temperature tau, whose ``local`` is the
Daleckii-Krein form of its exact Hessian (``pospart_eval``).  At tau =
None the probe gives the exact value and a linear minorant with the exact
subgradient -b P, the exit bound's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from . import opalg, symmetry
from .freesets import FreeFamily
from .fw import AtomStack, in_eigenbasis
from .opalg import eigh

# the exact positive-part probe's P keeps the eigenvalues of rho - b sigma
# above POSPART_FLOOR (1 + b), the rounding level of ||rho|| + ||b sigma||
POSPART_FLOOR = 1e-14


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


def _softplus_derivatives(lam: np.ndarray, V: np.ndarray, sig: np.ndarray,
                          tau: float, stack: AtomStack):
    """First and second derivatives of tau sum_i softplus(lam_i / tau + c)
    at the spectrum (lam, V), along a stack of Hermitian directions.

    With B_k = V^dag A_k V, A_k the directions of ``stack``, and s the
    sigmoids, they are s . diag(B_k) and the Daleckii-Krein form sum_ij
    G_ij (B_k)_ij (B_l)_ji, where G_ij = (s_i - s_j) / (lam_i - lam_j), or
    s (1 - s) / tau for eigenvalues closer than 1e-6 tau.
    """
    B = in_eigenbasis(V, stack)
    slope = sig * (1.0 - sig) / tau
    gaps = lam[:, None] - lam[None, :]
    near = np.abs(gaps) <= 1e-6 * tau
    G = np.where(near, 0.5 * (slope[:, None] + slope[None, :]),
                 (sig[:, None] - sig[None, :]) / np.where(near, 1.0, gaps))
    flat = B.reshape(len(B), -1)
    first = np.diagonal(B, axis1=1, axis2=2).real @ sig
    return first, ((flat * G.ravel()) @ flat.conj().T).real


def pospart_eval(rho_mat: np.ndarray, b: float, tau: float | None,
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
                                                  AtomStack.of(mats))
            return -b * first, b * b * second
        return smooth, exact, lambda: -b * ((V * sig) @ V.conj().T), local
    return probe


@dataclass(frozen=True, eq=False)
class TypeClassCoords:
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
        return symmetry.type_classes(self.family.base_dim, self.family.copies)[0]

    @classmethod
    def of(cls, family: FreeFamily,
           power: opalg.Power) -> "TypeClassCoords | None":
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
            return cls(family, symmetry.type_classes(family.base_dim,
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
        def dense_atoms(stack: AtomStack) -> np.ndarray:
            return (stack.diagonals / self.sizes)[:, self.labels]

        def class_probe(w_mat: np.ndarray):
            smooth, exact, grad, local = probe(self.dense(w_mat))

            def class_local(mats):
                return local(AtomStack.of(mats).derived((self, "dense"),
                                                        dense_atoms))
            return (smooth, exact, lambda: self.weights(grad()) / self.sizes,
                    None if local is None else class_local)
        return class_probe

    def threshold_operands(self, b: float, w_mat: np.ndarray):
        """A - b sigma at coordinates ``w_mat`` on the class block, where
        ``small`` holds A's: ``small``, v = b w / |T| (b sigma's block is
        diag(v)), and the v_t of the classes of several members, which
        give A - b sigma its eigenvalues -v_t off the block, each |T_t| - 1
        times."""
        v = b * np.diag(w_mat) / self.sizes
        return self.small, v, v[self.sizes > 1]

    def lift(self, block: np.ndarray) -> np.ndarray:
        """The dense matrix D block D^T of a T x T block on the class
        vectors D."""
        scale = 1.0 / np.sqrt(self.sizes)
        return (scale[:, None] * block * scale)[np.ix_(self.labels,
                                                       self.labels)]

    def pospart_eval(self, b: float, tau: float | None, offset: float = 0.0):
        """``pospart_eval`` of the target in these coordinates, ``read``
        from the dense one when ``small`` is None.  The complement eigenvalues
        -b w_t / |T_t| do not couple to the rest, so they add
        b^2 (|T_t| - 1) s (1 - s) / (tau |T_t|^2) to the second derivative
        along the weight of class t.  At ``tau=None`` s is the indicator of
        an eigenvalue above the floor, the exact probe's P: the complement
        eigenvalues are <= 0 and never enter it."""
        if self.small is None:
            return self.read(pospart_eval(self.target, b, tau, offset))
        rest = self.sizes - 1.0
        mult = np.concatenate([np.ones(self.sizes.size), rest])
        t = self.sizes.size

        def probe(w_mat: np.ndarray):
            small, v, _ = self.threshold_operands(b, w_mat)
            w, V = eigh(small - np.diag(v))
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
                scaled = AtomStack.of(mats).derived(
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

    coords: TypeClassCoords | None
    lmo: Callable
    enter: Callable
    pospart: Callable
    read: Callable
    to_dense: Callable


def pick_search(family: FreeFamily, seed: int, target) -> _Search:
    """The search of every solver over the family, for an objective in
    ``target``: in type-class coordinates, entered at the twirl of the
    start, where ``TypeClassCoords.of`` gives them (a power), else over the
    family's vertices."""
    coords = TypeClassCoords.of(family, target)
    if coords is None:
        return _Search(None, partial(family.lmo, seed=seed), lambda m: m,
                       partial(pospart_eval, target.mat), lambda p: p,
                       lambda m: m)
    return _Search(coords, coords.lmo, coords.weights, coords.pospart_eval,
                   coords.read, coords.dense)


def rank_one_optimum(coords: TypeClassCoords | None,
                     b: float) -> np.ndarray | None:
    """The invariant minimizer of Tr[(A - b sigma)_+], in closed form, as
    type-class coordinates diag(w), when the coordinates hold A's symmetric
    block ``small``: A is the power of a pure base, and ``small`` = a a^dag
    (``TypeClassCoords.of``).  Else None.

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
