"""Symmetric-subspace machinery.

Projectors onto the permutation-fixed subspace, states with a bounded number
of tensor factors outside a given ray ("almost power states"), permutation
invariant purifications, and the conditioning/truncation constructions used
by the certificate pipeline.

Almost power states, the symmetric vectors with at most R factors off a
base ray, are drawn and cut in one frame, ``_defect_frame``.

Conventions: purified systems store one (system, environment) pair per copy
as a single subsystem of dimension d e, so copy permutations act on whole
pairs.  :func:`perm_invariant_purification` gives a mixed base state e = d,
and a pure one its ray pair with e = 1 (a ray is its own purification);
conditioning and truncation act on either unchanged.  The pair order
(s1 e1 s2 e2 ...) and the block order (system block, environment block) are
converted by :func:`opalg.pairs_to_blocks` and :func:`opalg.blocks_to_pairs`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import opalg
from .certificates import Certificate
from .entropy import binary_entropy
from .errors import (ConstructionFailed, NotPermutationInvariant,
                     PremiseFailed, ZeroNorm, ZeroOverlap)
from .opalg import (DensityMatrix, HermitianOperator, PureState, SystemShape,
                    eigh, partial_trace_pure, sqrt_psd)

CONDITIONING_TOL = 1e-9


def sym_dim(n: int, d: int) -> int:
    """Dimension of the permutation-fixed subspace of (C^d)^{x n}."""
    if n < 1 or d < 1:
        raise ValueError("sym_dim needs n >= 1 and d >= 1")
    return math.comb(n + d - 1, n)


@lru_cache(maxsize=None)
def type_classes(d: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Type-class label of every basis string of n digits base d, and the
    size of each class."""
    digits = np.indices((d,) * n).reshape(n, -1)
    counts = np.stack([(digits == a).sum(axis=0) for a in range(d)], axis=1)
    _, labels = np.unique(counts, axis=0, return_inverse=True)
    labels = labels.reshape(-1)
    sizes = np.bincount(labels).astype(float)
    labels.setflags(write=False)
    sizes.setflags(write=False)
    return labels, sizes


def _compositions(n: int, d: int):
    """The count vectors (c_0, ..., c_{d-1}) summing to n, ascending."""
    if d == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in _compositions(n - first, d - 1):
            yield (first, *rest)


@lru_cache(maxsize=None)
def _class_counts(d: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The digit counts c_t of every type class of n digits base d, one row
    per class in ``type_classes``' order (ascending counts), and each
    class's size n! / prod_i c_{t,i}!; nothing d^n long is built."""
    counts = np.array(list(_compositions(n, d)))
    sizes = np.array([math.factorial(n) // math.prod(map(math.factorial, c))
                      for c in counts.tolist()], dtype=float)
    counts.setflags(write=False)
    sizes.setflags(write=False)
    return counts, sizes


def power_coefficients(ray: np.ndarray,
                       n: int) -> tuple[np.ndarray, np.ndarray]:
    """D^T a^{x n} for a unit vector a of C^d, D the isometry of
    ``sym_isometry``, with the class sizes: entry t is sqrt(|T_t|) prod_i
    a_i^{c_{t,i}} (``_class_counts``), as every string of class t carries
    the same product.  So the symmetric block D^T (a a^dag)^{x n} D is
    u u^dag, read off a alone."""
    counts, sizes = _class_counts(ray.size, n)
    pows = np.vander(ray, n + 1, increasing=True)[np.arange(ray.size), counts]
    return np.sqrt(sizes) * pows.prod(axis=1), sizes


def sym_isometry(n: int, d: int) -> np.ndarray:
    """Orthonormal basis of the symmetric subspace of (C^d)^{x n}: column t
    is the normalized indicator of type class t of ``type_classes``."""
    labels, sizes = type_classes(d, n)
    iso = np.zeros((labels.size, sizes.size))
    iso[np.arange(labels.size), labels] = 1.0 / np.sqrt(sizes[labels])
    return iso


def sym_projector(n: int, d: int) -> HermitianOperator:
    """Projector onto the symmetric subspace of (C^d)^{x n}."""
    opalg.check_dense_power(d, n)
    basis = sym_isometry(n, d)
    return HermitianOperator(SystemShape((d,) * n), basis @ basis.T)


def sym_residual(v: PureState) -> float:
    """Norm of the component of v outside the symmetric subspace."""
    dims = v.shape.dims
    d = dims[0]
    if any(x != d for x in dims):
        raise ValueError("sym_residual needs equal subsystem dimensions")
    basis = sym_isometry(len(dims), d)
    coeff = basis.T @ v.vec
    return float(np.linalg.norm(v.vec - basis @ coeff))


def twirl(a: HermitianOperator) -> HermitianOperator:
    """Average of U_pi a U_pi^dag over all permutations of equal subsystems.

    Every permutation of subsystems 0..k is, in one way, a transposition
    (j k) with j <= k after a permutation that fixes k.  So the average over
    them is (1/(k+1)) (e + sum_{j<k} (j k)) applied after the average over
    the permutations of 0..k-1, and the twirl takes n(n-1)/2 transposes
    instead of n!.
    """
    dims = a.shape.dims
    n = len(dims)
    if any(x != dims[0] for x in dims):
        raise ValueError("twirl needs equal subsystem dimensions")
    t = a.mat.reshape(dims + dims)
    for k in range(1, n):
        acc = t.copy()
        for j in range(k):
            p = list(range(n))
            p[j], p[k] = k, j
            acc += t.transpose(p + [n + i for i in p])
        t = acc / (k + 1)
    return HermitianOperator(a.shape, t.reshape(a.total_dim, a.total_dim))


def is_perm_invariant(a: HermitianOperator, tol: float = 1e-8) -> bool:
    """Check invariance under the transposition (0,1) and the full cycle.

    The two generate the whole symmetric group, so passing both implies
    invariance under every permutation.
    """
    n = len(a.shape.dims)
    if n == 1:
        return True
    gens = [tuple([1, 0] + list(range(2, n))),
            tuple(list(range(1, n)) + [0])]
    for g in gens:
        moved = opalg.permute_factors(a.mat, a.shape.dims, g)
        if float(np.abs(moved - a.mat).max()) > tol:
            return False
    return True


# ---------------------------------------------------------------------------
# almost power states
# ---------------------------------------------------------------------------

def _rotate_factors(t: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Apply U to every tensor factor (every axis) of t."""
    for ax in range(t.ndim):
        t = np.moveaxis(np.tensordot(U, t, axes=(1, ax)), 0, ax)
    return t


def _defect_frame(base: PureState, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The base ray's frame on n factors: the unitary U = [a,
    opalg.complement(a)] whose first column is the base vector a, and the
    defect count (digits other than 0) of each of the d^n basis strings of
    U^{x n}; U^dag on every factor enters it."""
    d = base.shape.total_dim
    U = np.column_stack([base.vec, opalg.complement(base.vec)])
    digits = np.array(np.unravel_index(np.arange(d ** n), (d,) * n))
    return U, (digits != 0).sum(axis=0)


def _in_frame(v: PureState, base: PureState
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """v's amplitudes on the strings of the base ray's frame, with the
    frame's U and defect counts."""
    dims = v.shape.dims
    if any(x != base.shape.total_dim for x in dims):
        raise ValueError("the frame needs factors of the base's dimension")
    U, defects = _defect_frame(base, len(dims))
    amps = _rotate_factors(v.vec.reshape(dims), U.conj().T).reshape(-1)
    return amps, U, defects


def truncate_to_almost_power(v: PureState, base: PureState,
                             R: int) -> tuple[PureState, float]:
    """Keep the defect-<=R part of a symmetric v, renormalized.

    Returns the truncated state, masked in the base ray's frame, and its
    trace distance to v (for pure states 2 sqrt(1 - |overlap|^2)).
    """
    res = sym_residual(v)
    if res > 1e-8:
        raise NotPermutationInvariant(f"symmetric-subspace residual {res:.3e}")
    amps, U, defects = _in_frame(v, base)
    kept = _rotate_factors(np.where(defects <= R, amps, 0.0).reshape(
        v.shape.dims), U).reshape(-1)
    nrm = float(np.linalg.norm(kept))
    if nrm < 1e-12:
        raise ZeroNorm("truncation annihilated the state")
    out = PureState(v.shape, kept / nrm)
    overlap = abs(complex(np.vdot(out.vec, v.vec)))
    dist = 2.0 * math.sqrt(max(0.0, 1.0 - overlap ** 2))
    return out, dist


# ---------------------------------------------------------------------------
# purification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PurificationPair:
    """Aligned purifications of a single-copy state and an N-copy state.

    Both live on pair subsystems of dimension d e (system tensor an
    environment of dimension e per copy; e = 1 for the ray pair of a pure
    base state);
    ``overlap`` equals the fidelity between the N-copy state and the IID
    power state.
    """

    rho_pur: PureState
    rhoN_pur: PureState
    overlap: float


def canonical_purification(rho: DensityMatrix) -> PureState:
    """sqrt(rho) flattened into a (system, environment) pair vector."""
    d = rho.total_dim
    vec = sqrt_psd(rho.mat).reshape(-1)
    return PureState(SystemShape((d * d,)), vec)


def perm_invariant_purification(rho: DensityMatrix,
                                rho_N: HermitianOperator) -> PurificationPair:
    """The pair step 2 runs on: purifications of rho and of a
    permutation-invariant rho_N, the second symmetric (as a vector over copy
    pairs), whose overlap is their fidelity.

    A pure base state (:func:`opalg.support_ray`) takes the ray pair
    (q, phi) with e = 1: rho_N must then be the ray of a symmetric phi, and
    a ray is its own purification.  A mixed one takes e = d: the N-copy
    purification is ((sqrt(rho_N) V) x 1)|Omega> with V the alignment
    unitary from the polar part of sqrt(rho^{x N}) sqrt(rho_N); V is
    assembled from permutation-invariant operators, which keeps the output
    in the permutation-fixed subspace of the pair system.
    """
    d = rho.total_dim
    dims = rho_N.shape.dims
    n = len(dims)
    if any(x != d for x in dims):
        raise ValueError("rho_N must consist of copies of rho's system")
    q = opalg.support_ray(rho.mat)
    if q is not None:
        a = opalg.rank_one_factor(rho_N.mat)
        if a is None:
            raise ConstructionFailed("rho_N of a pure base state is not a ray")
        phi = PureState(rho_N.shape, a / np.linalg.norm(a))
        if sym_residual(phi) > 1e-8:
            raise NotPermutationInvariant("rho_N is not a symmetric ray")
        ray = PureState(rho.shape, q)
        overlap = abs(complex(np.vdot(opalg.pure_power(ray, n).vec, phi.vec)))
        return PurificationPair(ray, phi, overlap)
    if not is_perm_invariant(rho_N):
        raise NotPermutationInvariant("rho_N is not permutation invariant")

    rho_pow = opalg.tensor_power(rho, n)
    sqrt_N = sqrt_psd(rho_N.mat)
    # the singular values of sqrt(rho^{x N}) sqrt(rho_N) sum to the fidelity
    P, s, Qh = np.linalg.svd(sqrt_psd(rho_pow.mat) @ sqrt_N)
    fid = float(s.sum())
    V = Qh.conj().T @ P.conj().T

    amps = opalg.blocks_to_pairs((sqrt_N @ V).reshape(-1), d, d, n)
    nrm = float(np.linalg.norm(amps))
    rhoN_pur = PureState(SystemShape((d * d,) * n), amps / nrm)
    rho_pur = canonical_purification(rho)

    iid_vec = opalg.pure_power(rho_pur, n).vec
    overlap = abs(complex(np.vdot(iid_vec, rhoN_pur.vec)))
    if abs(overlap - fid) > 1e-8:
        raise ConstructionFailed(
            f"overlap {overlap:.12f} misses the fidelity {fid:.12f}"
        )
    _check_purification_marginals(rho, rho_N, rho_pur, rhoN_pur)
    return PurificationPair(rho_pur, rhoN_pur, overlap)


def _check_purification_marginals(rho, rho_N, rho_pur, rhoN_pur) -> None:
    d = rho.total_dim
    n = len(rho_N.shape.dims)
    m1 = rho_pur.vec.reshape(d, d)
    rec1 = m1 @ m1.conj().T
    if float(np.abs(rec1 - rho.mat).max()) > 1e-9:
        raise ConstructionFailed("single-copy purification marginal mismatch")
    mN = opalg.pairs_to_blocks(rhoN_pur.vec, d, d, n).reshape(d ** n, d ** n)
    recN = mN @ mN.conj().T
    if float(np.abs(recN - rho_N.mat).max()) > 1e-9:
        raise ConstructionFailed("N-copy purification marginal mismatch")


def conditioned_state(pair: PurificationPair, m_condition: int
                      ) -> tuple[PureState, HermitianOperator, Certificate]:
    """Project the first M copy-pairs of the purified state onto the IID ray.

    Returns the renormalized conditioned state, the partial trace of the
    purified N-copy state over those M pairs, and a certificate of the
    dominance of the conditioned state by that partial trace divided by the
    squared overlap ``pair.overlap`` with the IID purification.
    """
    rho_N_pur, rho_pur = pair.rhoN_pur, pair.rho_pur
    dims = rho_N_pur.shape.dims
    D = dims[0]
    n = len(dims)
    m = int(m_condition)
    if m < 0 or m > n:
        raise ValueError("conditioning count out of range")
    bra = opalg.kron_power(rho_pur.vec, m)
    mat = rho_N_pur.vec.reshape(D ** m, D ** (n - m))
    w = bra.conj() @ mat
    nrm = float(np.linalg.norm(w))
    if nrm < 1e-12:
        raise ZeroOverlap("conditioning annihilated the state")
    cond = PureState(SystemShape((D,) * (n - m)), w / nrm)
    if pair.overlap < 1e-12:
        raise ZeroOverlap("zero overlap with the IID purification")
    reduced = partial_trace_pure(rho_N_pur, range(m))
    gap = reduced.mat / pair.overlap ** 2 - np.outer(cond.vec, cond.vec.conj())
    margin = float(eigh(gap)[0][0])
    cert = Certificate("conditioned-state dominance", margin, CONDITIONING_TOL)
    return cond, reduced, cert


def beta_truncation_delta(v: PureState, base: PureState, N: int) -> np.ndarray:
    """Correction state for dropping the small-amplitude defect sectors of v.

    Sectors (defect counts in the base ray's frame) with norm below 1/N are
    masked out and the vector renormalized; the returned state is the
    normalized positive part of the difference of projectors (the projector
    of v itself when nothing is dropped).
    """
    amps, U, defects = _in_frame(v, base)
    norms = np.sqrt(np.bincount(defects, np.abs(amps) ** 2))
    kept = _rotate_factors(np.where(norms[defects] >= 1.0 / N, amps,
                                    0.0).reshape(v.shape.dims), U).reshape(-1)
    knorm = float(np.linalg.norm(kept))
    proj_v = np.outer(v.vec, v.vec.conj())
    if knorm < 1e-12:
        return proj_v
    tilde = kept / knorm
    return opalg.normalized_positive_part(
        np.outer(tilde, tilde.conj()) - proj_v, proj_v)


def truncation_weight(N: int, R: int) -> float:
    """2 sqrt(2R)/N, the weight of the tail-truncation correction Delta."""
    return 2.0 * math.sqrt(2.0 * R) / N


def verify_power_inequality(v: PureState, base: PureState, N: int, M: int,
                            R: int) -> tuple[Certificate, np.ndarray]:
    """Certify the tail bound relating an almost power state to the IID state.

    Checks base^{x (N-M-R)} <= 2^{N h(R/(N-M))} N^2 Tr_{1..R}[vv* + c Delta]
    with c = 2 sqrt(2R)/N (:func:`truncation_weight`) and Delta the
    normalized positive part of the difference between the large-amplitude
    truncation of v and v itself (:func:`beta_truncation_delta`).  Returns
    the certificate and Delta.
    """
    n = len(v.shape.dims)
    if n != N - M:
        raise ValueError(f"v has {n} factors, expected N-M = {N - M}")
    if N - M < 2 * R:
        raise PremiseFailed(f"need N - M >= 2R, got N-M={N - M}, R={R}")
    proj_v = np.outer(v.vec, v.vec.conj())
    delta = beta_truncation_delta(v, base, N)
    c = truncation_weight(N, R)
    inner = HermitianOperator(v.shape, proj_v + c * delta)
    reduced = opalg.partial_trace(inner, range(R))
    factor = 2.0 ** (N * binary_entropy(R / (N - M))) * N ** 2
    lhs = opalg.pure_power(base, N - M - R).projector()
    gap = factor * reduced.mat - lhs.mat
    margin = float(eigh(gap)[0][0])
    return Certificate("power-state tail bound", margin, 1e-8), delta


def random_almost_power(rng: np.random.Generator, base: PureState,
                        n_factors: int, R: int) -> PureState:
    """Haar-random unit vector of the symmetric subspace with at most R
    factors off the base ray: Gaussian amplitudes on the frame's strings
    with at most R defects, projected onto the symmetric subspace (defect
    counts and U^{x n} commute with permutations) and rotated back."""
    if not 0 <= R <= n_factors:
        raise ValueError("R must lie in [0, n_factors]")
    d = base.shape.total_dim
    U, defects = _defect_frame(base, n_factors)
    amps = (rng.standard_normal(defects.size)
            + 1j * rng.standard_normal(defects.size))
    amps[defects > R] = 0.0
    iso = sym_isometry(n_factors, d)
    vec = (iso @ (iso.T @ amps)).reshape((d,) * n_factors)
    return PureState(SystemShape(vec.shape), _rotate_factors(
        vec / np.linalg.norm(vec), U).reshape(-1))
