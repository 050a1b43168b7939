"""Symmetric-subspace machinery.

Projectors onto the permutation-fixed subspace, states with a bounded number
of tensor factors outside a given ray ("almost power states"), permutation
invariant purifications, and the conditioning/truncation constructions used
by the certificate pipeline.

Conventions: purified systems store one (system, environment) pair per copy
as a single subsystem of dimension d^2, so copy permutations act on whole
pairs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import opalg
from .certificates import Certificate
from .entropy import binary_entropy
from .errors import (ConstructionFailed, DimensionCap, NotOrthogonal,
                     NotPermutationInvariant, PremiseFailed, ZeroNorm,
                     ZeroOverlap)
from .opalg import (DensityMatrix, HermitianOperator, PureState, SystemShape,
                    eigh, partial_trace_pure, sqrt_psd)

SYM_DIM_CAP = 4096
TWIRL_FACTORIAL_CAP = 5040  # 7!


def sym_dim(n: int, d: int) -> int:
    """Dimension of the permutation-fixed subspace of (C^d)^{x n}."""
    if n < 1 or d < 1:
        raise ValueError("sym_dim needs n >= 1 and d >= 1")
    return math.comb(n + d - 1, n)


def _multiset_basis(n: int, d: int) -> np.ndarray:
    """Orthonormal basis of the symmetric subspace, one column per multiset."""
    cols = []
    radix = d ** np.arange(n - 1, -1, -1)
    for combo in itertools.combinations_with_replacement(range(d), n):
        arrangements = set(itertools.permutations(combo))
        v = np.zeros(d ** n, dtype=complex)
        for arr in arrangements:
            v[int(np.dot(arr, radix))] = 1.0
        cols.append(v / math.sqrt(len(arrangements)))
    return np.column_stack(cols)


def sym_projector(n: int, d: int) -> HermitianOperator:
    """Projector onto the symmetric subspace of (C^d)^{x n}."""
    if d ** n > SYM_DIM_CAP:
        raise DimensionCap(f"d^n = {d ** n} exceeds cap {SYM_DIM_CAP}")
    basis = _multiset_basis(n, d)
    return HermitianOperator(SystemShape((d,) * n), basis @ basis.conj().T)


def sym_residual(v: PureState) -> float:
    """Norm of the component of v outside the symmetric subspace."""
    dims = v.shape.dims
    d = dims[0]
    if any(x != d for x in dims):
        raise ValueError("sym_residual needs equal subsystem dimensions")
    basis = _multiset_basis(len(dims), d)
    coeff = basis.conj().T @ v.vec
    return float(np.linalg.norm(v.vec - basis @ coeff))


def twirl(a: HermitianOperator) -> HermitianOperator:
    """Average of U_pi a U_pi^dag over all permutations of equal subsystems."""
    dims = a.shape.dims
    n = len(dims)
    if any(x != dims[0] for x in dims):
        raise ValueError("twirl needs equal subsystem dimensions")
    if math.factorial(n) > TWIRL_FACTORIAL_CAP:
        raise DimensionCap(f"{n}! permutations exceed the twirl cap")
    t = a.mat.reshape(dims + dims)
    acc = np.zeros_like(t)
    for p in itertools.permutations(range(n)):
        acc += t.transpose(p + tuple(n + i for i in p))
    acc /= math.factorial(n)
    return HermitianOperator(a.shape, acc.reshape(a.total_dim, a.total_dim))


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
        moved = opalg.permute_subsystems(a, g)
        if float(np.abs(moved.mat - a.mat).max()) > tol:
            return False
    return True


# ---------------------------------------------------------------------------
# almost power states
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AlmostPowerSpec:
    """Description of a symmetric state with at most R tail factors off-ray.

    ``betas`` has length R+1; ``orth_components[r]`` for r >= 1 is a
    permutation-invariant vector on r factors, each factor orthogonal to the
    base ray (entry 0 of the list is None).
    """

    base: PureState
    n_factors: int  # number of tensor factors of the output state
    R: int
    betas: tuple[complex, ...]
    orth_components: tuple[PureState | None, ...]

    def __post_init__(self):
        if self.R > self.n_factors:
            raise ValueError("R cannot exceed the number of factors")
        if len(self.betas) != self.R + 1:
            raise ValueError("betas must have length R+1")
        ss = sum(abs(b) ** 2 for b in self.betas)
        if abs(ss - 1.0) > 1e-10:
            raise ValueError(f"sum |beta_r|^2 = {ss} deviates from 1")


def _factor_overlap_with_base(psi: np.ndarray, base: np.ndarray, r: int,
                              d: int) -> float:
    """Largest norm of a single-factor contraction of psi with the base ray."""
    worst = 0.0
    t = psi.reshape((d,) * r)
    for k in range(r):
        contracted = np.tensordot(base.conj(), t, axes=(0, k))
        worst = max(worst, float(np.linalg.norm(contracted)))
    return worst


def symmetrize_tail(base: PureState, psi_r: PureState | None,
                    n_factors: int, r: int,
                    orth_tol: float = 1e-8) -> PureState:
    """Uniform superposition of the C(n, r) placements of psi_r among base factors.

    Unit norm relies on the factorwise orthogonality of psi_r to the base;
    violations beyond ``orth_tol`` raise :class:`NotOrthogonal`.
    """
    d = base.shape.total_dim
    shape = SystemShape((d,) * n_factors)
    if r == 0:
        t = np.array([1.0 + 0j])
        for _ in range(n_factors):
            t = np.kron(t, base.vec)
        return PureState(shape, t)
    if psi_r is None:
        raise ValueError("psi_r required for r >= 1")
    if r > n_factors:
        raise ValueError("r cannot exceed the number of factors")
    ov = _factor_overlap_with_base(psi_r.vec, base.vec, r, d)
    if ov > orth_tol:
        raise NotOrthogonal(f"tail component overlaps the base ray by {ov:.3e}")
    n_base = n_factors - r
    base_block = np.array([1.0 + 0j])
    for _ in range(n_base):
        base_block = np.kron(base_block, base.vec)
    prod = np.kron(base_block, psi_r.vec).reshape((d,) * n_factors)
    acc = np.zeros((d,) * n_factors, dtype=complex)
    for slots in itertools.combinations(range(n_factors), r):
        rest = [i for i in range(n_factors) if i not in slots]
        # axis k of the output takes axis order[k] of (base..., psi...)
        order = [0] * n_factors
        for pos, ax in enumerate(rest):
            order[ax] = pos
        for pos, ax in enumerate(slots):
            order[ax] = n_base + pos
        acc += prod.transpose(order)
    acc /= math.sqrt(math.comb(n_factors, r))
    vec = acc.reshape(-1)
    nrm = float(np.linalg.norm(vec))
    if abs(nrm - 1.0) > 1e-10:
        raise ConstructionFailed(f"symmetrized tail norm {nrm} deviates from 1")
    return PureState(shape, vec / nrm)


def build_almost_power(spec: AlmostPowerSpec) -> PureState:
    """Assemble sum_r beta_r Sym(base^{n-r} x psi_r)."""
    d = spec.base.shape.total_dim
    shape = SystemShape((d,) * spec.n_factors)
    acc = np.zeros(shape.total_dim, dtype=complex)
    for r in range(spec.R + 1):
        if abs(spec.betas[r]) == 0.0:
            continue
        term = symmetrize_tail(spec.base, spec.orth_components[r],
                               spec.n_factors, r)
        acc += spec.betas[r] * term.vec
    nrm = float(np.linalg.norm(acc))
    if abs(nrm - 1.0) > 1e-9:
        raise ConstructionFailed(f"almost power state norm {nrm} deviates from 1")
    return PureState(shape, acc / nrm)


def _unitary_with_first_column(b: np.ndarray) -> np.ndarray:
    """Complete a unit vector to a unitary whose first column is the vector."""
    d = b.size
    cols = [b.astype(complex)]
    for k in range(d):
        v = np.zeros(d, dtype=complex)
        v[k] = 1.0
        for c in cols:
            v = v - c * np.vdot(c, v)
        n = np.linalg.norm(v)
        if n > 1e-10:
            cols.append(v / n)
        if len(cols) == d:
            break
    return np.column_stack(cols)


def _rotate_factors(t: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Apply U to every tensor factor (every axis) of t."""
    for ax in range(t.ndim):
        t = np.moveaxis(np.tensordot(U, t, axes=(1, ax)), 0, ax)
    return t


def defect_projector(base: PureState, n: int, R: int) -> np.ndarray:
    """Projector onto the components of n factors with at most R factors
    off the base ray."""
    d = base.shape.total_dim
    U = _unitary_with_first_column(base.vec)
    digits = np.array(np.unravel_index(np.arange(d ** n), (d,) * n))
    defects = (digits != 0).sum(axis=0)
    mask = (defects <= R).astype(float)
    u_n = np.array([1.0 + 0j])
    for _ in range(n):
        u_n = np.kron(u_n, U)
    return (u_n * mask) @ u_n.conj().T


def grade_by_defect(v: PureState, base: PureState) -> list[np.ndarray]:
    """Split v into components with exactly r factors outside the base ray.

    Returns a list of length n+1 of (generally unnormalized) vectors in the
    original basis whose sum is v.
    """
    dims = v.shape.dims
    d = dims[0]
    if any(x != d for x in dims) or base.shape.total_dim != d:
        raise ValueError("grading needs equal factor dimensions matching the base")
    n = len(dims)
    U = _unitary_with_first_column(base.vec)
    rotated = _rotate_factors(v.vec.reshape(dims), U.conj().T).reshape(-1)
    digits = np.array(np.unravel_index(np.arange(d ** n), dims))
    defects = (digits != 0).sum(axis=0)
    return [_rotate_factors(np.where(defects == r, rotated, 0.0).reshape(dims),
                            U).reshape(-1)
            for r in range(n + 1)]


def extract_almost_power_spec(v: PureState, base: PureState,
                              R: int) -> AlmostPowerSpec:
    """Read off (beta_r, psi_r) for a symmetric v supported on defects <= R."""
    dims = v.shape.dims
    d = dims[0]
    n = len(dims)
    U = _unitary_with_first_column(base.vec)
    t = _rotate_factors(v.vec.reshape(dims), U.conj().T)
    betas: list[complex] = []
    comps: list[PureState | None] = []
    for r in range(R + 1):
        if r == 0:
            betas.append(complex(t[(0,) * n]))
            comps.append(None)
            continue
        block = t[(0,) * (n - r)]  # first n-r indices pinned to the base ray
        digits = np.array(np.unravel_index(np.arange(d ** r), (d,) * r))
        pure_defect = (digits != 0).all(axis=0)
        flat = np.where(pure_defect, block.reshape(-1), 0.0)
        beta = math.sqrt(math.comb(n, r)) * float(np.linalg.norm(flat))
        betas.append(complex(beta))
        if beta < 1e-14:
            comps.append(None)
            betas[-1] = 0.0
            continue
        psi_rot = math.sqrt(math.comb(n, r)) * flat / beta
        psi = _rotate_factors(psi_rot.reshape((d,) * r), U)
        comps.append(PureState(SystemShape((d,) * r), psi.reshape(-1)))
    total = sum(abs(b) ** 2 for b in betas)
    betas = [b / math.sqrt(total) for b in betas]
    return AlmostPowerSpec(base, n, R, tuple(betas), tuple(comps))


def truncate_to_almost_power(v: PureState, base: PureState, R: int,
                             sym_tol: float = 1e-8) -> tuple[PureState, float]:
    """Keep the defect-<=R part of a symmetric v, renormalized.

    Returns the truncated state and its trace distance to v (for pure states
    the trace distance is 2 sqrt(1 - |overlap|^2)).
    """
    res = sym_residual(v)
    if res > sym_tol:
        raise NotPermutationInvariant(f"symmetric-subspace residual {res:.3e}")
    comps = grade_by_defect(v, base)
    kept = np.sum(comps[: R + 1], axis=0)
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

    Both live on pair subsystems of dimension d^2 (system tensor
    environment per copy); ``overlap`` equals the fidelity between the
    N-copy state and the IID power state.
    """

    rho_pur: PureState
    rhoN_pur: PureState
    overlap: float


def canonical_purification(rho: DensityMatrix) -> PureState:
    """sqrt(rho) flattened into a (system, environment) pair vector."""
    d = rho.total_dim
    vec = sqrt_psd(rho.mat).reshape(-1)
    return PureState(SystemShape((d * d,)), vec)


def _interleave_pairs(vec_sys_env: np.ndarray, d: int, n: int) -> np.ndarray:
    """(sys block, env block) ordering to one (sys, env) pair per copy."""
    t = vec_sys_env.reshape((d,) * (2 * n))
    order = []
    for k in range(n):
        order += [k, n + k]
    return t.transpose(order).reshape(-1)


def _pairs_to_blocks(vec_pairs: np.ndarray, d: int, n: int) -> np.ndarray:
    t = vec_pairs.reshape((d,) * (2 * n))
    order = [2 * k for k in range(n)] + [2 * k + 1 for k in range(n)]
    return t.transpose(order).reshape(-1)


def _plane_rotation(q: np.ndarray, w_hat: np.ndarray) -> np.ndarray:
    """Unitary mapping q to w_hat, acting only on their span."""
    dim = q.size
    c = complex(np.vdot(q, w_hat))
    resid = w_hat - c * q
    s = float(np.linalg.norm(resid))
    V = np.eye(dim, dtype=complex)
    if s < 1e-14:
        return V + (c - 1.0) * np.outer(q, q.conj())
    u2 = resid / s
    V += (c - 1.0) * np.outer(q, q.conj())
    V += (np.conj(c) - 1.0) * np.outer(u2, u2.conj())
    V += s * np.outer(u2, q.conj())
    V -= s * np.outer(q, u2.conj())
    return V


def perm_invariant_purification(rho: DensityMatrix, rho_N: DensityMatrix,
                                tol: float = 1e-8) -> PurificationPair:
    """Purify a permutation-invariant rho_N so that it is itself permutation
    invariant (as a vector over copy pairs) and overlaps the IID purification
    of rho at exactly their fidelity.

    The N-copy purification is ((sqrt(rho_N) V) x 1)|Omega> with V the
    alignment unitary from the polar part of sqrt(rho^{x N}) sqrt(rho_N); V is
    assembled from permutation-invariant operators, which keeps the output in
    the permutation-fixed subspace of the pair system.
    """
    d = rho.total_dim
    dims = rho_N.shape.dims
    n = len(dims)
    if any(x != d for x in dims):
        raise ValueError("rho_N must consist of copies of rho's system")
    if not is_perm_invariant(rho_N.op, tol):
        raise NotPermutationInvariant("rho_N is not permutation invariant")

    rho_pow = opalg.tensor_power(rho.op, n)
    fid = opalg.fidelity(rho_N.op, rho_pow)

    sqrt_pow = sqrt_psd(rho_pow.mat)
    sqrt_N = sqrt_psd(rho_N.mat)
    w_pow = rho_pow.eigvals()
    if w_pow[0] > opalg.SUPPORT_CUTOFF * max(w_pow[-1], 0.0):
        B = sqrt_pow @ sqrt_N
        P, _, Qh = np.linalg.svd(B)
        V = Qh.conj().T @ P.conj().T
    else:
        # rank-deficient power state: align along the ray pair instead
        w, Vec = eigh(rho_pow.mat)
        if np.sum(w > opalg.SUPPORT_CUTOFF * w[-1]) != 1:
            B = sqrt_pow @ sqrt_N
            P, _, Qh = np.linalg.svd(B)
            V = Qh.conj().T @ P.conj().T
        else:
            q = Vec[:, -1]
            w_vec = sqrt_N @ q
            nw = float(np.linalg.norm(w_vec))
            if nw < 1e-14:
                raise ZeroOverlap("rho_N has no weight on the power ray")
            V = _plane_rotation(q, w_vec / nw)

    rho_pur_vec = canonical_purification(rho).vec
    amps = (sqrt_N @ V).reshape(-1)
    amps = _interleave_pairs(amps, d, n)
    nrm = float(np.linalg.norm(amps))
    rhoN_pur = PureState(SystemShape((d * d,) * n), amps / nrm)
    rho_pur = PureState(SystemShape((d * d,)), rho_pur_vec)

    iid_vec = opalg.pure_power(rho_pur, n).vec if n > 1 else rho_pur.vec
    overlap = abs(complex(np.vdot(iid_vec, rhoN_pur.vec)))
    if abs(overlap - fid) > 1e-8:
        raise ConstructionFailed(
            f"overlap {overlap:.12f} misses the fidelity {fid:.12f}"
        )
    _check_purification_marginals(rho, rho_N, rho_pur, rhoN_pur)
    return PurificationPair(rho_pur, rhoN_pur, overlap)


def _check_purification_marginals(rho, rho_N, rho_pur, rhoN_pur,
                                  tol: float = 1e-9) -> None:
    d = rho.total_dim
    n = len(rho_N.shape.dims)
    m1 = rho_pur.vec.reshape(d, d)
    rec1 = m1 @ m1.conj().T
    if float(np.abs(rec1 - rho.mat).max()) > tol:
        raise ConstructionFailed("single-copy purification marginal mismatch")
    blocks = _pairs_to_blocks(rhoN_pur.vec, d, n)
    mN = blocks.reshape(d ** n, d ** n)
    recN = mN @ mN.conj().T
    if float(np.abs(recN - rho_N.mat).max()) > tol:
        raise ConstructionFailed("N-copy purification marginal mismatch")


def conditioned_state(rho_N_pur: PureState, rho_pur: PureState,
                      m_condition: int) -> tuple[PureState, Certificate]:
    """Project the first M copy-pairs of the purified state onto the IID ray.

    Returns the renormalized conditioned state together with a certificate of
    the dominance by the normalized partial trace, with normalization given by
    the squared overlap with the IID purification.
    """
    dims = rho_N_pur.shape.dims
    D = dims[0]
    n = len(dims)
    m = int(m_condition)
    if m < 0 or m > n:
        raise ValueError("conditioning count out of range")
    iid = opalg.pure_power(rho_pur, n).vec if n > 1 else rho_pur.vec
    overlap = abs(complex(np.vdot(iid, rho_N_pur.vec)))
    if m == 0:
        cond = rho_N_pur
    else:
        bra = np.array([1.0 + 0j])
        for _ in range(m):
            bra = np.kron(bra, rho_pur.vec)
        mat = rho_N_pur.vec.reshape(D ** m, D ** (n - m))
        w = bra.conj() @ mat
        nrm = float(np.linalg.norm(w))
        if nrm < 1e-12:
            raise ZeroOverlap("conditioning annihilated the state")
        cond = PureState(SystemShape((D,) * (n - m)), w / nrm)
    if overlap < 1e-12:
        raise ZeroOverlap("zero overlap with the IID purification")
    reduced = partial_trace_pure(rho_N_pur, range(m))
    gap = reduced.mat / overlap ** 2 - np.outer(cond.vec, cond.vec.conj())
    margin = float(eigh(gap)[0][0])
    cert = Certificate("conditioned-state dominance", margin, 1e-9)
    return cond, cert


def beta_truncation_delta(v: PureState, base: PureState, N: int) -> np.ndarray:
    """Correction state for dropping the small-amplitude defect sectors of v.

    Sectors with amplitude below 1/N are removed and the vector renormalized;
    the returned state is the normalized positive part of the difference of
    projectors (the projector of v itself when nothing is dropped).
    """
    comps = grade_by_defect(v, base)
    norms = np.array([float(np.linalg.norm(c)) for c in comps])
    keep = norms >= 1.0 / N
    kept = np.sum([c for c, k in zip(comps, keep) if k], axis=0)
    knorm = float(np.linalg.norm(kept))
    proj_v = np.outer(v.vec, v.vec.conj())
    if knorm < 1e-12:
        return proj_v
    tilde = kept / knorm
    diff = np.outer(tilde, tilde.conj()) - proj_v
    w, Vc = eigh(diff)
    pos = np.where(w > 0.0, w, 0.0)
    tr = float(pos.sum())
    return (Vc * pos) @ Vc.conj().T / tr if tr > 1e-14 else proj_v


def verify_power_inequality(v: PureState, base: PureState, N: int, M: int,
                            R: int, tol: float = 1e-8) -> Certificate:
    """Certify the tail bound relating an almost power state to the IID state.

    Checks base^{x (N-M-R)} <= 2^{N h(R/(N-M))} N^2 Tr_{1..R}[vv* + c Delta]
    with c = 2 sqrt(2R)/N and Delta the normalized positive part of the
    difference between the large-amplitude truncation of v and v itself.
    """
    n = len(v.shape.dims)
    if n != N - M:
        raise ValueError(f"v has {n} factors, expected N-M = {N - M}")
    if N - M < 2 * R:
        raise PremiseFailed(f"need N - M >= 2R, got N-M={N - M}, R={R}")
    proj_v = np.outer(v.vec, v.vec.conj())
    delta = beta_truncation_delta(v, base, N)
    c = 2.0 * math.sqrt(2.0 * R) / N
    inner = HermitianOperator(v.shape, proj_v + c * delta)
    reduced = opalg.partial_trace(inner, range(R)) if R > 0 else inner
    factor = 2.0 ** (N * binary_entropy(R / (N - M))) * N ** 2
    lhs = opalg.pure_power(base, N - M - R).projector() if N - M - R > 1 \
        else base.projector()
    gap = factor * reduced.mat - lhs.mat
    margin = float(eigh(gap)[0][0])
    return Certificate("power-state tail bound", margin, tol)


def random_almost_power(rng: np.random.Generator, base: PureState,
                        n_factors: int, R: int) -> PureState:
    """Random state of the almost-power form for randomized certificates."""
    d = base.shape.total_dim
    U = _unitary_with_first_column(base.vec)
    betas = rng.standard_normal(R + 1) + 1j * rng.standard_normal(R + 1)
    betas /= np.linalg.norm(betas)
    comps: list[PureState | None] = [None]
    for r in range(1, R + 1):
        t = (rng.standard_normal((d - 1,) * r)
             + 1j * rng.standard_normal((d - 1,) * r))
        # symmetrize over the r factors
        acc = np.zeros_like(t)
        for p in itertools.permutations(range(r)):
            acc += t.transpose(p)
        emb = np.zeros((d,) * r, dtype=complex)
        emb[(slice(1, None),) * r] = acc
        flat = _rotate_factors(emb, U).reshape(-1)
        comps.append(PureState(SystemShape((d,) * r),
                               flat / np.linalg.norm(flat)))
    spec = AlmostPowerSpec(base, n_factors, R, tuple(map(complex, betas)),
                           tuple(comps))
    return build_almost_power(spec)
