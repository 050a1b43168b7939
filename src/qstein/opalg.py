"""Dense Hermitian operator algebra over tensor-product systems.

Everything downstream (entropies, solvers, symmetric-subspace machinery, the
certificate pipeline) is built on the handful of primitives in this module.
All spectral computations route through a single eigendecomposition backend,
:func:`eigh`, so there is exactly one numerical kernel to trust.

Values are immutable after construction and every operation is a pure
function, so concurrent use from several threads is safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from .errors import NegativeEigenvalue, NotTracePreserving, ShapeMismatch

# Numerical policy.  The algebra assumes exact arithmetic; floating point
# needs explicit cutoffs, collected here and overridable per call.
HERM_TOL = 1e-12
PSD_TOL = 1e-10
SUPPORT_CUTOFF = 1e-12  # relative to the largest eigenvalue
TRACE_TOL = 1e-10


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
        keep = [d for i, d in enumerate(self.dims) if i not in set(subsystems)]
        if not keep:
            keep = [1]
        return SystemShape(tuple(keep))


def eigh(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix, or of a stack of them with
    shape (..., n, n); the single spectral backend.

    The input is symmetrized before the call so that tiny anti-Hermitian
    noise cannot leak into eigenvalues.  Real symmetric inputs take the
    real LAPACK path, which is several times faster at larger sizes.  The
    real-path test (every imaginary part below 1e-14) is taken over the
    whole stack: a stack goes real only if all its matrices do.  Returns
    ascending eigenvalues and matching orthonormal eigenvectors (as
    columns), stacked like the input.
    """
    m = np.asarray(mat)
    if np.iscomplexobj(m):
        if m.size and float(np.abs(m.imag).max()) < 1e-14:
            m = m.real
        else:
            m = 0.5 * (m + m.conj().mT)
            return np.linalg.eigh(m)
    m = 0.5 * (m + m.mT)
    w, v = np.linalg.eigh(m)
    return w, v.astype(complex)


def _hermitize(mat: np.ndarray) -> np.ndarray:
    m = np.asarray(mat, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    return 0.5 * (m + m.conj().T)


@dataclass(frozen=True)
class HermitianOperator:
    """Dense Hermitian matrix over a multi-subsystem shape.

    The matrix is symmetrized at construction, enforcing Hermiticity to
    machine precision regardless of the input.
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
class DensityMatrix:
    """PSD unit-trace Hermitian operator."""

    op: HermitianOperator

    def __post_init__(self):
        w = self.op.eigvals()
        if w[0] < -PSD_TOL:
            raise NegativeEigenvalue(
                f"density matrix has eigenvalue {w[0]:.3e} below -{PSD_TOL:.0e}"
            )
        tr = self.op.trace()
        if abs(tr - 1.0) > TRACE_TOL:
            raise ValueError(f"density matrix trace {tr} deviates from 1")

    @property
    def shape(self) -> SystemShape:
        return self.op.shape

    @property
    def mat(self) -> np.ndarray:
        return self.op.mat

    @property
    def total_dim(self) -> int:
        return self.op.total_dim

    def eig(self):
        return self.op.eig()

    def lambda_min(self) -> float:
        return self.op.lambda_min()


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
        n = np.linalg.norm(v)
        if abs(n - 1.0) > 1e-12:
            raise ValueError(f"pure state norm {n} deviates from 1 beyond 1e-12")
        v.setflags(write=False)
        object.__setattr__(self, "vec", v)

    def projector(self) -> HermitianOperator:
        return HermitianOperator(self.shape, np.outer(self.vec, self.vec.conj()))

    def density(self) -> DensityMatrix:
        return DensityMatrix(self.projector())


def _require_same_shape(a, b) -> None:
    if a.shape.dims != b.shape.dims:
        raise ShapeMismatch(f"shapes {a.shape.dims} and {b.shape.dims} differ")


# ---------------------------------------------------------------------------
# constructors
# ---------------------------------------------------------------------------

def operator(mat: np.ndarray, dims: Sequence[int] | None = None) -> HermitianOperator:
    """Wrap a square array as a HermitianOperator (single subsystem by default)."""
    m = np.asarray(mat, dtype=complex)
    shape = SystemShape(tuple(dims) if dims is not None else (m.shape[0],))
    return HermitianOperator(shape, m)


def density(mat: np.ndarray, dims: Sequence[int] | None = None) -> DensityMatrix:
    return DensityMatrix(operator(mat, dims))


def pure(vec: np.ndarray, dims: Sequence[int] | None = None) -> PureState:
    v = np.asarray(vec, dtype=complex).reshape(-1)
    shape = SystemShape(tuple(dims) if dims is not None else (v.size,))
    return PureState(shape, v / np.linalg.norm(v))


def identity(shape: SystemShape) -> HermitianOperator:
    return HermitianOperator(shape, np.eye(shape.total_dim))


def maximally_mixed(shape: SystemShape) -> DensityMatrix:
    n = shape.total_dim
    return DensityMatrix(HermitianOperator(shape, np.eye(n) / n))


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


def tensor_power(a: HermitianOperator, n: int) -> HermitianOperator:
    if n < 1:
        raise ValueError("tensor power requires n >= 1")
    return HermitianOperator(SystemShape(a.shape.dims * n), kron_power(a.mat, n))


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
    n = len(dims)
    t = a.mat.reshape(dims + dims)
    # contract row/column axes pairwise, highest index first so positions stay valid
    for i in reversed(drop):
        t = np.trace(t, axis1=i, axis2=i + (t.ndim // 2))
        n -= 1
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
    m = np.asarray(mat, dtype=complex)
    n = m.shape[0]
    dil = np.zeros((2 * n, 2 * n), dtype=complex)
    dil[:n, n:] = m
    dil[n:, :n] = m.conj().T
    w, _ = eigh(dil)
    return 0.5 * float(np.abs(w).sum())


def sqrt_psd(mat: np.ndarray, tol: float = PSD_TOL,
             rel_cutoff: float = SUPPORT_CUTOFF) -> np.ndarray:
    """PSD square root; eigenvalues in (-tol, 0) are clamped to zero.

    Eigenvalues below ``rel_cutoff`` times the largest are numerical zeros
    and are chopped before the root, which would otherwise amplify them to
    sqrt-of-noise size in arbitrary directions.
    """
    w, V = eigh(mat)
    if w[0] < -tol:
        raise NegativeEigenvalue(f"eigenvalue {w[0]:.3e} below -{tol:.0e}")
    cut = rel_cutoff * max(float(w[-1]), 0.0)
    ws = np.where(w > cut, np.sqrt(np.clip(w, 0.0, None)), 0.0)
    return (V * ws) @ V.conj().T


def pinv_sqrt_psd(mat: np.ndarray, rel_cutoff: float = SUPPORT_CUTOFF) -> np.ndarray:
    """Pseudo-inverse square root of a PSD matrix (zero on the null space)."""
    w, V = eigh(mat)
    cut = rel_cutoff * max(float(w[-1]), 0.0)
    inv = np.where(w > cut, 1.0 / np.sqrt(np.clip(w, 1e-300, None)), 0.0)
    return (V * inv) @ V.conj().T


def fidelity(p: HermitianOperator | DensityMatrix,
             q: HermitianOperator | DensityMatrix,
             tol: float = PSD_TOL) -> float:
    """Trace norm of sqrt(p) sqrt(q) for PSD operators p, q."""
    pm = p.mat if not isinstance(p, np.ndarray) else p
    qm = q.mat if not isinstance(q, np.ndarray) else q
    sp = sqrt_psd(pm, tol)
    sq = sqrt_psd(qm, tol)
    return trace_norm_mat(sp @ sq)


def log2_on_support(a: HermitianOperator, rel_cutoff: float = SUPPORT_CUTOFF) -> HermitianOperator:
    """Base-2 matrix logarithm restricted to the support.

    Eigenvalues below the support cutoff map to 0 in the result, so the
    output acts as log2 on the support and annihilates the null space.
    """
    w, V = a.eig()
    top = float(w[-1])
    if top <= 0.0:
        return HermitianOperator(a.shape, np.zeros_like(a.mat))
    cut = rel_cutoff * top
    lw = np.where(w > cut, np.log2(np.clip(w, 1e-300, None)), 0.0)
    return HermitianOperator(a.shape, (V * lw) @ V.conj().T)


def apply_kraus(a: HermitianOperator, kraus: Sequence[np.ndarray],
                tol: float = 1e-10) -> HermitianOperator:
    """Apply the CPTP map with the given Kraus operators."""
    ks = [np.asarray(k, dtype=complex) for k in kraus]
    d = a.total_dim
    comp = sum(k.conj().T @ k for k in ks)
    if not np.allclose(comp, np.eye(d), atol=tol):
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

def save_operator(a: HermitianOperator, path: str) -> None:
    """Write the operator in the plain-text exchange format.

    Header ``dims: d1,d2,...`` then one ``row col re im`` line per nonzero
    upper-triangle entry.  Floats are printed with full precision (repr), so
    readers reconstruct the matrix bit-exactly.
    """
    lines = ["dims: " + ",".join(str(d) for d in a.shape.dims)]
    m = a.mat
    n = m.shape[0]
    for i in range(n):
        for j in range(i, n):
            z = m[i, j]
            if z != 0:
                lines.append(f"{i} {j} {float(z.real)!r} {float(z.imag)!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def load_operator(path: str) -> HermitianOperator:
    """Read an operator written by :func:`save_operator`."""
    with open(path, encoding="utf-8") as fh:
        lines = [ln.strip() for ln in fh if ln.strip() and not ln.startswith("#")]
    if not lines or not lines[0].startswith("dims:"):
        raise ValueError(f"{path}: missing 'dims:' header")
    dims = tuple(int(x) for x in lines[0][len("dims:"):].split(","))
    shape = SystemShape(dims)
    n = shape.total_dim
    m = np.zeros((n, n), dtype=complex)
    for ln in lines[1:]:
        i_s, j_s, re_s, im_s = ln.split()
        i, j = int(i_s), int(j_s)
        z = complex(float(re_s), float(im_s))
        m[i, j] = z
        if i != j:
            m[j, i] = z.conjugate()
    # the mirrored matrix is exactly Hermitian, so symmetrization is bit-exact
    return HermitianOperator(shape, m)


def save_density(rho: DensityMatrix, path: str) -> None:
    save_operator(rho.op, path)


def load_density(path: str) -> DensityMatrix:
    return DensityMatrix(load_operator(path))
