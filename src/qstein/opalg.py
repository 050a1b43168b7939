"""Dense Hermitian operator algebra over tensor-product systems.

Everything downstream (entropies, solvers, symmetric-subspace machinery, the
certificate pipeline) is built on the handful of primitives in this module.
Every spectral computation routes through a single eigendecomposition
backend, :func:`eigh`, so there is exactly one numerical kernel to trust;
the one exception is the polar factor in
:func:`symmetry.perm_invariant_purification`, taken from ``np.linalg.svd``.

A :class:`DensityMatrix` is a :class:`HermitianOperator` that passed the
state check, so every operation here takes a state where it takes an
operator.

A matrix is as real as its data: real input stays real through every
operation, and complex input stays complex.  Two functions decide whether
a matrix is real: :func:`eigh`, which sends numerically real complex input
to the real LAPACK path, and :func:`load_operator`, which reads a file
whose imaginary parts are all 0 as a real matrix.

Values are immutable after construction and every operation is a pure
function, so concurrent use from several threads is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import (DimensionCap, NegativeEigenvalue, NotTracePreserving,
                     ShapeMismatch)

# Numerical policy.  The algebra assumes exact arithmetic; floating point
# needs explicit cutoffs, collected here.
PSD_TOL = 1e-10
SUPPORT_CUTOFF = 1e-12  # relative to the largest eigenvalue
TRACE_TOL = 1e-10
# widest dense power: a complex 4096 x 4096 matrix takes 256 MiB
DENSE_DIM_CAP = 4096
# widest power a solve runs on (pipeline step 1, ``regularized_sequence``)
SOLVE_DIM_CAP = 1024
# the most matrix entries ``save_operator`` formats into one string
SAVE_BLOCK = 1 << 16


@dataclass(frozen=True)
class SystemShape:
    """An ordered list of subsystem dimensions."""

    dims: tuple[int, ...]

    def __post_init__(self):
        if not self.dims or any(d < 1 for d in self.dims):
            raise ValueError(f"subsystem dimensions must be >= 1, got {self.dims}")
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    def concat(self, other: "SystemShape") -> "SystemShape":
        return SystemShape(self.dims + other.dims)

    def drop(self, subsystems: Iterable[int]) -> "SystemShape":
        drop = set(subsystems)
        keep = [d for i, d in enumerate(self.dims) if i not in drop]
        if not keep:
            keep = [1]
        return SystemShape(tuple(keep))


def eigh(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, or of a stack of them with
    shape (..., n, n); the single spectral backend.

    The input is symmetrized before the call so that tiny anti-Hermitian
    noise cannot leak into eigenvalues.  Real input, and complex input whose
    every imaginary part is below 1e-14, takes the real LAPACK path, which
    is several times faster at larger sizes; the test is taken over the
    whole stack, so a stack goes real only if all its matrices do.  Returns
    ascending eigenvalues and matching orthonormal eigenvectors (as
    columns), stacked like the input: real eigenvectors on the real path,
    complex ones otherwise.  This is the one test of whether a computed
    matrix is real.
    """
    m = np.asarray(mat)
    if np.iscomplexobj(m) and m.size and float(np.abs(m.imag).max()) < 1e-14:
        m = m.real
    return np.linalg.eigh(0.5 * (m + m.conj().mT))


def _hermitize(mat: np.ndarray) -> np.ndarray:
    m = np.asarray(mat)
    m = m.astype(np.result_type(m, np.float64), copy=False)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return 0.5 * (m + m.conj().T)


@dataclass(frozen=True)
class HermitianOperator:
    """Dense Hermitian matrix over a multi-subsystem shape.

    The matrix is symmetrized at construction, enforcing Hermiticity to
    machine precision regardless of the input.  It is as real as its input:
    a real matrix is stored real (at least float64), a complex one complex.
    """

    shape: SystemShape
    mat: np.ndarray = field(repr=False)

    def __post_init__(self):
        m = _hermitize(self.mat)
        if m.shape[0] != self.shape.total_dim:
            raise ShapeMismatch(
                f"matrix of size {m.shape[0]} does not match shape {self.shape.dims}"
            )
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)

    @property
    def total_dim(self) -> int:
        return self.shape.total_dim

    def trace(self) -> float:
        return float(np.trace(self.mat).real)

    def eig(self) -> tuple[np.ndarray, np.ndarray]:
        return eigh(self.mat)

    def eigvals(self) -> np.ndarray:
        return self.eig()[0]

    def lambda_min(self) -> float:
        return float(self.eigvals()[0])

    def __add__(self, other: "HermitianOperator") -> "HermitianOperator":
        _require_same_shape(self, other)
        return HermitianOperator(self.shape, self.mat + other.mat)

    def __sub__(self, other: "HermitianOperator") -> "HermitianOperator":
        _require_same_shape(self, other)
        return HermitianOperator(self.shape, self.mat - other.mat)

    def __mul__(self, scalar: float) -> "HermitianOperator":
        return HermitianOperator(self.shape, self.mat * float(scalar))

    __rmul__ = __mul__


@dataclass(frozen=True)
class DensityMatrix(HermitianOperator):
    """A HermitianOperator that passed the state check: finite entries, no
    eigenvalue below -``PSD_TOL`` and a trace within ``TRACE_TOL`` of 1."""

    def __post_init__(self):
        super().__post_init__()
        if not np.isfinite(self.mat).all():
            raise ValueError("density matrix has non-finite entries")
        w = self.eigvals()
        if w[0] < -PSD_TOL:
            raise NegativeEigenvalue(
                f"density matrix has eigenvalue {w[0]:.3e} below -{PSD_TOL:.0e}"
            )
        tr = self.trace()
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix trace {tr} deviates from 1")


@dataclass(frozen=True)
class PureState:
    """Unit vector over a multi-subsystem shape."""

    shape: SystemShape
    vec: np.ndarray = field(repr=False)

    def __post_init__(self):
        v = np.asarray(self.vec, dtype=complex).reshape(-1)
        if v.size != self.shape.total_dim:
            raise ShapeMismatch(
                f"vector of length {v.size} does not match shape {self.shape.dims}"
            )
        if not np.isfinite(v).all():
            raise ValueError("pure state has non-finite entries")
        n = np.linalg.norm(v)
        if abs(n - 1.0) > 1e-12:
            raise ValueError(f"pure state norm {n} deviates from 1 beyond 1e-12")
        v.setflags(write=False)
        object.__setattr__(self, "vec", v)

    def projector(self) -> HermitianOperator:
        return HermitianOperator(self.shape, np.outer(self.vec, self.vec.conj()))

    def density(self) -> DensityMatrix:
        return DensityMatrix(self.shape, np.outer(self.vec, self.vec.conj()))


def _require_same_shape(a, b) -> None:
    if a.shape.dims != b.shape.dims:
        raise ShapeMismatch(f"shapes {a.shape.dims} and {b.shape.dims} differ")


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def operator(mat: np.ndarray, dims: Sequence[int] | None = None) -> HermitianOperator:
    """Wrap a square array as a HermitianOperator (single subsystem by default)."""
    m = np.asarray(mat)
    shape = SystemShape(tuple(dims) if dims is not None else (m.shape[0],))
    return HermitianOperator(shape, m)


def density(mat: np.ndarray, dims: Sequence[int] | None = None) -> DensityMatrix:
    """Validate a square array as a state (single subsystem by default)."""
    m = np.asarray(mat)
    shape = SystemShape(tuple(dims) if dims is not None else (m.shape[0],))
    return DensityMatrix(shape, m)


def pure(vec: np.ndarray, dims: Sequence[int] | None = None) -> PureState:
    v = np.asarray(vec, dtype=complex).reshape(-1)
    shape = SystemShape(tuple(dims) if dims is not None else (v.size,))
    return PureState(shape, v / np.linalg.norm(v))


def identity(shape: SystemShape) -> HermitianOperator:
    return HermitianOperator(shape, np.eye(shape.total_dim))


def maximally_mixed(shape: SystemShape) -> DensityMatrix:
    n = shape.total_dim
    return DensityMatrix(shape, np.eye(n) / n)


# ---------------------------------------------------------------------------
# core operations
# ---------------------------------------------------------------------------

def tensor(a: HermitianOperator, b: HermitianOperator) -> HermitianOperator:
    """Kronecker product; the shape is the concatenation of the inputs'."""
    return HermitianOperator(a.shape.concat(b.shape), np.kron(a.mat, b.mat))


def kron_power(x: np.ndarray, n: int) -> np.ndarray:
    """n-fold Kronecker power of a vector or matrix, folded from the left;
    n = 0 gives ones of shape (1,) or (1, 1)."""
    if n < 0:
        raise ValueError("Kronecker power requires n >= 0")
    x = np.asarray(x)
    if n == 0:
        return np.ones((1,) * x.ndim, dtype=x.dtype)
    out = x
    for _ in range(n - 1):
        out = np.kron(out, x)
    return out


def check_dense_power(d: int, n: int, cap: int = DENSE_DIM_CAP) -> None:
    """DimensionCap when the n-fold power of a d-dimensional space, d^n
    wide, exceeds ``cap``."""
    if d ** n > cap:
        raise DimensionCap(f"dense dimension {d ** n} exceeds the {cap} cap")


def rank_one_factor(mat: np.ndarray) -> np.ndarray | None:
    """a with mat = a a^dag to 1e-12 max-abs, else None: the column of the
    largest diagonal entry, divided by that entry's square root."""
    diag = np.diag(mat).real
    top = int(np.argmax(diag))
    if not diag[top] > 0.0:
        return None
    a = mat[:, top] / math.sqrt(diag[top])
    if float(np.abs(np.outer(a, a.conj()) - mat).max()) > 1e-12:
        return None
    return a


def tensor_power(a: HermitianOperator, n: int) -> HermitianOperator:
    """n-fold tensor power; DimensionCap, before anything is allocated, when
    d^n exceeds ``DENSE_DIM_CAP`` (``check_dense_power``)."""
    if n < 1:
        raise ValueError("tensor power requires n >= 1")
    check_dense_power(a.total_dim, n)
    return HermitianOperator(SystemShape(a.shape.dims * n), kron_power(a.mat, n))


@dataclass(frozen=True)
class Power:
    """The n-fold tensor power of a state, held as its ``base`` and n.

    A solver that can read the power off its base (a pure base in
    type-class coordinates) builds nothing d^n wide.  ``mat`` is the dense
    power, built by ``tensor_power`` on first use.  A power wider than
    ``DENSE_DIM_CAP`` is refused at construction (``check_dense_power``):
    the solvers are certified up to that width only."""

    base: DensityMatrix
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("tensor power requires n >= 1")
        check_dense_power(self.base.total_dim, self.n)

    @property
    def shape(self) -> SystemShape:
        return SystemShape(self.base.shape.dims * self.n)

    @property
    def total_dim(self) -> int:
        return self.base.total_dim ** self.n

    @cached_property
    def ray(self) -> np.ndarray | None:
        """The base's ``support_ray``: its unit vector if it is pure."""
        return support_ray(self.base.mat)

    @cached_property
    def mat(self) -> np.ndarray:
        return tensor_power(self.base, self.n).mat


def pure_power(a: PureState, n: int) -> PureState:
    if n < 1:
        raise ValueError("tensor power requires n >= 1")
    return PureState(SystemShape(a.shape.dims * n), kron_power(a.vec, n))


def partial_trace(a: HermitianOperator, subsystems: Iterable[int]) -> HermitianOperator:
    """Trace out the given subsystem indices."""
    drop = sorted(set(int(i) for i in subsystems))
    dims = a.shape.dims
    for i in drop:
        if i < 0 or i >= len(dims):
            raise IndexError(f"subsystem index {i} out of range for {dims}")
    if not drop:
        return a
    t = a.mat.reshape(dims + dims)
    # contract row/column axes pairwise, highest index first so positions stay valid
    for i in reversed(drop):
        t = np.trace(t, axis1=i, axis2=i + (t.ndim // 2))
    keep_shape = a.shape.drop(drop)
    d = keep_shape.total_dim
    return HermitianOperator(keep_shape, t.reshape(d, d))


def partial_trace_pure(v: PureState, subsystems: Iterable[int]) -> HermitianOperator:
    """Reduced operator of a pure state without forming the full projector."""
    drop = sorted(set(int(i) for i in subsystems))
    dims = v.shape.dims
    keep = [i for i in range(len(dims)) if i not in drop]
    t = v.vec.reshape(dims)
    t = np.transpose(t, drop + keep)
    d_drop = math.prod(dims[i] for i in drop) if drop else 1
    d_keep = math.prod(dims[i] for i in keep) if keep else 1
    m = t.reshape(d_drop, d_keep)
    red = np.einsum("ab,ac->bc", m, m.conj())
    return HermitianOperator(v.shape.drop(drop), red)


def positive_part(a: HermitianOperator) -> HermitianOperator:
    """Spectral truncation to the strictly positive eigenspace, eigenvalues kept."""
    w, V = a.eig()
    wp = np.where(w > 0.0, w, 0.0)
    return HermitianOperator(a.shape, (V * wp) @ V.conj().T)


def positive_part_trace(mat: np.ndarray) -> float:
    """Sum of the positive eigenvalues of a Hermitian matrix."""
    w, _ = eigh(mat)
    return float(w[w > 0.0].sum())


def normalized_positive_part(mat: np.ndarray,
                             fallback: np.ndarray) -> np.ndarray:
    """Positive part of a Hermitian matrix scaled to unit trace, or
    ``fallback`` when that trace is at most 1e-14."""
    w, V = eigh(mat)
    pos = np.where(w > 0.0, w, 0.0)
    tr = float(pos.sum())
    if tr <= 1e-14:
        return fallback
    return (V * pos) @ V.conj().T / tr


def trace_norm(a: HermitianOperator | np.ndarray) -> float:
    """Trace norm of a Hermitian operator or matrix: the sum of its absolute
    eigenvalues."""
    w, _ = eigh(a if isinstance(a, np.ndarray) else a.mat)
    return float(np.abs(w).sum())


def trace_norm_mat(mat: np.ndarray) -> float:
    """Trace norm of a matrix that need not be Hermitian, routed through the
    Hermitian backend (for Hermitian input, :func:`trace_norm` needs one
    eigendecomposition of half the size).

    Uses the Hermitian dilation [[0, X], [X^dag, 0]], whose spectrum is the
    singular values of X with both signs; this keeps full absolute accuracy
    where a Gram-matrix route would square the condition number.
    """
    m = np.asarray(mat)
    n = m.shape[0]
    dil = np.zeros((2 * n, 2 * n), dtype=np.result_type(m, np.float64))
    dil[:n, n:] = m
    dil[n:, :n] = m.conj().T
    w, _ = eigh(dil)
    return 0.5 * float(np.abs(w).sum())


def support_split(mat: np.ndarray):
    """Eigenpairs of a Hermitian matrix and the mask of its support: the
    eigenvalues above ``SUPPORT_CUTOFF`` times the largest (above 0 when none
    is positive).  The rest are numerical zeros."""
    w, V = eigh(mat)
    return w, V, w > SUPPORT_CUTOFF * max(float(w[-1]), 0.0)


def support_ray(mat: np.ndarray) -> np.ndarray | None:
    """The unit vector spanning a PSD matrix's support when
    :func:`support_split` finds one eigenvalue on it, else None: the one
    test of whether a state read from input is pure."""
    _, V, on = support_split(mat)
    return V[:, -1] if on.sum() == 1 else None


def complement(v: np.ndarray) -> np.ndarray:
    """An orthonormal basis, as the d - 1 columns of a d x (d - 1) matrix,
    of the complement of a unit vector, or of each row of a stack
    (..., d): the last columns of the Householder reflection taking v to
    a multiple of e_0, so that [v, complement(v)] is unitary."""
    w = v.astype(complex)
    w[..., 0] += np.exp(1j * np.angle(v[..., 0]))
    w /= np.sqrt(1.0 + np.abs(v[..., :1]))
    return (np.eye(v.shape[-1])[:, 1:]
            - w[..., :, None] * w[..., None, 1:].conj())


def _checked_psd(split, tol: float):
    """A ``support_split`` whose least eigenvalue is not below -tol."""
    w = split[0]
    if w[0] < -tol:
        raise NegativeEigenvalue(f"eigenvalue {w[0]:.3e} below -{tol:.0e}")
    return split


def _sqrt_of_split(w: np.ndarray, V: np.ndarray,
                   on: np.ndarray) -> np.ndarray:
    ws = np.where(on, np.sqrt(np.clip(w, 0.0, None)), 0.0)
    return (V * ws) @ V.conj().T


def sqrt_psd(mat: np.ndarray, tol: float = PSD_TOL) -> np.ndarray:
    """PSD square root; eigenvalues in (-tol, 0) are clamped to zero.

    Eigenvalues off the support (:func:`support_split`) are chopped before
    the root, which would otherwise amplify them to sqrt-of-noise size in
    arbitrary directions.
    """
    return _sqrt_of_split(*_checked_psd(support_split(mat), tol))


def pinv_sqrt_psd(mat: np.ndarray) -> np.ndarray:
    """Pseudo-inverse square root of a PSD matrix (zero off the support)."""
    w, V, on = support_split(mat)
    inv = np.where(on, 1.0 / np.sqrt(np.clip(w, 1e-300, None)), 0.0)
    return (V * inv) @ V.conj().T


def fidelity(p: HermitianOperator, q: HermitianOperator) -> float:
    """Trace norm of sqrt(p) sqrt(q) for PSD operators p, q.

    When q's support (:func:`support_split`) is one eigenvector v, with
    eigenvalue lam, this is sqrt(lam <v|p|v>): one eigendecomposition of q,
    in place of two square roots and the 2n-wide dilation of
    :func:`trace_norm_mat`.  That route checks p only through <v|p|v>.
    """
    w, V, on = _checked_psd(support_split(q.mat), PSD_TOL)
    if on.sum() == 1:
        v = V[:, -1]
        quad = float(np.vdot(v, p.mat @ v).real)
        if quad < -PSD_TOL:
            raise NegativeEigenvalue(f"<v|p|v> = {quad:.3e} below "
                                     f"-{PSD_TOL:.0e}")
        return math.sqrt(float(w[-1]) * max(quad, 0.0))
    return trace_norm_mat(sqrt_psd(p.mat) @ _sqrt_of_split(w, V, on))


def log2_on_support(a: HermitianOperator) -> HermitianOperator:
    """Base-2 matrix logarithm restricted to the support.

    Eigenvalues off the support (:func:`support_split`) map to 0 in the
    result, so the output acts as log2 on the support and annihilates the
    null space; an operator with no positive eigenvalue maps to 0.
    """
    w, V, on = support_split(a.mat)
    lw = np.where(on, np.log2(np.clip(w, 1e-300, None)), 0.0)
    return HermitianOperator(a.shape, (V * lw) @ V.conj().T)


def apply_kraus(a: HermitianOperator,
                kraus: Sequence[np.ndarray]) -> HermitianOperator:
    """Apply the CPTP map with the given Kraus operators."""
    ks = [np.asarray(k, dtype=complex) for k in kraus]
    d = a.total_dim
    comp = sum(k.conj().T @ k for k in ks)
    if not np.allclose(comp, np.eye(d), atol=1e-10):
        dev = float(np.abs(comp - np.eye(d)).max())
        raise NotTracePreserving(f"completeness violated by {dev:.3e}")
    out = sum(k @ a.mat @ k.conj().T for k in ks)
    return HermitianOperator(a.shape, out)


def permute_factors(x: np.ndarray, dims: Sequence[int],
                    perm: Sequence[int]) -> np.ndarray:
    """Reorder the tensor factors of a vector or square matrix over ``dims``.

    Output factor k is input factor perm[k]; a matrix is conjugated by the
    permutation unitary.
    """
    dims, p = tuple(dims), list(perm)
    n = len(dims)
    if sorted(p) != list(range(n)):
        raise ValueError(f"{perm} is not a permutation of {n} subsystems")
    x = np.asarray(x)
    if x.ndim == 1:
        return x.reshape(dims).transpose(p).reshape(-1)
    t = x.reshape(dims + dims).transpose(p + [n + i for i in p])
    return t.reshape(x.shape)


def pairs_to_blocks(x: np.ndarray, da: int, db: int, n: int) -> np.ndarray:
    """Regroup n (a, b) pair factors, a1 b1 a2 b2 ..., into the a-block
    a1 ... an followed by the b-block b1 ... bn."""
    order = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))
    return permute_factors(x, (da, db) * n, order)


def blocks_to_pairs(x: np.ndarray, da: int, db: int, n: int) -> np.ndarray:
    """Inverse of :func:`pairs_to_blocks`: a1 ... an b1 ... bn to a1 b1 a2 b2 ..."""
    order = [k + n * s for k in range(n) for s in (0, 1)]
    return permute_factors(x, (da,) * n + (db,) * n, order)


def permute_subsystems(a: HermitianOperator, perm: Sequence[int]) -> HermitianOperator:
    """Conjugate by the permutation unitary; output slot k holds input subsystem perm[k]."""
    mat = permute_factors(a.mat, a.shape.dims, perm)
    return HermitianOperator(SystemShape(tuple(a.shape.dims[i] for i in perm)), mat)


def permute_pure(v: PureState, perm: Sequence[int]) -> PureState:
    vec = permute_factors(v.vec, v.shape.dims, perm)
    return PureState(SystemShape(tuple(v.shape.dims[i] for i in perm)), vec)


# ---------------------------------------------------------------------------
# plain-text serialization
# ---------------------------------------------------------------------------

def _reprs(x: np.ndarray, end: str) -> np.ndarray:
    """``repr(v) + end`` for each float ``v`` of ``x``, as an object array.
    Each distinct bit pattern is formatted once; keying on bits rather than
    values keeps 0.0 and -0.0 apart."""
    bits, inv = np.unique(x.view(np.uint64), return_inverse=True)
    text = [repr(v) + end for v in bits.view(np.float64).tolist()]
    return np.array(text, dtype=object)[inv]


def save_operator(a: HermitianOperator, path: str) -> None:
    """Write the operator in the plain-text exchange format.

    Header ``dims: d1,d2,...`` then one ``row col re im`` line per nonzero
    upper-triangle entry, row by row.  Floats are printed with full
    precision (repr), so readers reconstruct the matrix bit-exactly.  The
    lines are formatted and written a band of rows at a time, of at most
    ``SAVE_BLOCK`` entries (one row where a row is wider).  Within a band
    each distinct bit pattern of the real and of the imaginary parts is
    formatted once, and each line is joined from those strings; the bytes
    are those of formatting every entry on its own.
    """
    m = a.mat
    heads = np.array([f"{k} " for k in range(m.shape[0])], dtype=object)
    band = max(1, SAVE_BLOCK // m.shape[0])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("dims: " + ",".join(str(d) for d in a.shape.dims) + "\n")
        for top in range(0, m.shape[0], band):
            upper = np.triu(m[top:top + band], top)
            i, j = np.nonzero(upper)
            z = upper[i, j]
            fields = (heads[i + top], heads[j],
                      _reprs(z.real, " "), _reprs(z.imag, "\n"))
            fh.write("".join(np.stack(fields, axis=1).ravel().tolist()))


def load_operator(path: str) -> HermitianOperator:
    """Read an operator written by :func:`save_operator`, as a real matrix
    when every imaginary part read is 0.  Every entry line must hold four
    numeric fields, with both indices in [0, n), and name an entry that no
    earlier line named, itself or as its mirror; a header or entry line
    that breaks this raises ValueError naming ``path:line``."""
    with open(path, encoding="utf-8") as fh:
        lines = [(k, ln.strip()) for k, ln in enumerate(fh, 1)
                 if ln.strip() and not ln.startswith("#")]
    if not lines or not lines[0][1].startswith("dims:"):
        raise ValueError(f"{path}: missing 'dims:' header")
    (k, ln), want = lines[0], "'dims: d1,d2,...'"
    try:
        shape = SystemShape(tuple(int(x) for x in
                                  ln.removeprefix("dims:").split(",")))
        n = shape.total_dim
        m = np.zeros((n, n), dtype=complex)
        want = (f"'row col re im' with row and col in [0, {n}),"
                " for an entry not read before")
        seen = set()
        for k, ln in lines[1:]:
            row, col, re, im = ln.split()
            i, j, z = int(row), int(col), complex(float(re), float(im))
            entry = (min(i, j), max(i, j))
            if not (0 <= i < n and 0 <= j < n) or entry in seen:
                raise ValueError
            seen.add(entry)
            m[i, j] = z
            if i != j:
                m[j, i] = z.conjugate()
    except ValueError:
        raise ValueError(f"{path}:{k}: {ln!r} is not {want}") from None
    # the mirrored matrix is exactly Hermitian, so symmetrization is bit-exact
    return HermitianOperator(shape, m if m.imag.any() else m.real)


def load_density(path: str) -> DensityMatrix:
    """Read a state written by :func:`save_operator`; a matrix that fails
    the state check raises ValueError naming ``path``."""
    op = load_operator(path)
    try:
        return DensityMatrix(op.shape, op.mat)
    except (ValueError, NegativeEigenvalue) as exc:
        raise ValueError(f"{path}: {exc}") from None
