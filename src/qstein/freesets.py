"""Convex families of free states.

Each family exposes the three capabilities every solver in this package
needs: a membership test, a linear-minimization oracle (``lmo``), and a
full-rank witness.  A family may also offer ``type_class_lmo``, the linear
oracle restricted to its permutation-invariant members.  Both oracles
return a plain complex matrix, not a validated ``DensityMatrix``: solvers
call them thousands of times, and validation belongs where a state leaves
a solver.  Families are immutable descriptors; oracles are pure given an
explicit seed, so concurrent use is safe.

Supported kinds:

* ``DiagonalFamily`` - states diagonal in the computational basis.
* ``SingletonIIDFamily`` - the single product state sigma0^{x N}.
* ``FullSpaceFamily`` - every density matrix (the trivial theory).
* ``SeparableHullFamily`` - convex hull of product states across a fixed
  bipartition, represented through a multi-start alternating-eigenvector
  oracle over pure product states (a heuristic, so its gaps certify
  nothing).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

from . import opalg
from .errors import NoFullRankMember, ShapeMismatch
from .opalg import DensityMatrix, HermitianOperator, SystemShape

EXACT_MEMBER_TOL = 1e-8
SEP_MEMBER_TOL = 1e-3


@dataclass(frozen=True)
class PropertyReport:
    """Result of a randomized check of one family axiom (1..5)."""

    property_id: int
    trials: int
    worst_margin: float

    @property
    def passed(self) -> bool:
        return self.worst_margin >= -EXACT_MEMBER_TOL


@dataclass(frozen=True)
class FreeFamily:
    """Base descriptor: a convex family on ``copies`` subsystems of ``base_dim``."""

    base_dim: int
    copies: int = 1

    kind = "abstract"
    # optional capability: (grad) -> argmin of Tr[grad sigma] over the
    # permutation-invariant members, as a plain matrix; those members must
    # be the mixtures of uniform states on type classes, the coordinates
    # that optim's reduced search works in
    type_class_lmo = None

    @property
    def shape(self) -> SystemShape:
        return SystemShape((self.base_dim,) * self.copies)

    @property
    def total_dim(self) -> int:
        return self.shape.total_dim

    def at_copies(self, n: int) -> "FreeFamily":
        return replace(self, copies=n)

    # capability surface -----------------------------------------------------

    def membership_defect(self, sigma: DensityMatrix) -> float:
        raise NotImplementedError

    def membership(self, sigma: DensityMatrix, tol: float) -> bool:
        if sigma.shape.total_dim != self.total_dim:
            raise ShapeMismatch(
                f"state of dimension {sigma.shape.total_dim} vs family "
                f"dimension {self.total_dim}")
        return self.membership_defect(sigma) <= tol

    def lmo(self, grad: np.ndarray, seed: int = 0) -> np.ndarray:
        """argmin over the family of Tr[grad sigma], as a plain matrix."""
        raise NotImplementedError

    def full_rank_witness(self) -> DensityMatrix:
        raise NotImplementedError

    def random_member(self, rng: np.random.Generator) -> DensityMatrix:
        raise NotImplementedError

    @property
    def membership_check_tol(self) -> float:
        return EXACT_MEMBER_TOL


def _ray(vec: np.ndarray) -> np.ndarray:
    """Projector onto a unit vector, Hermitian to the last bit (an outer
    product alone leaves rounding noise on the imaginary diagonal)."""
    m = np.outer(vec, vec.conj())
    return 0.5 * (m + m.conj().T)


@lru_cache(maxsize=None)
def _type_classes(d: int, n: int) -> tuple[np.ndarray, np.ndarray]:
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


@dataclass(frozen=True)
class DiagonalFamily(FreeFamily):
    """States diagonal in the computational product basis (free coherence)."""

    kind = "diagonal"

    def membership_defect(self, sigma: DensityMatrix) -> float:
        off = sigma.mat - np.diag(np.diag(sigma.mat))
        return opalg.trace_norm(off)

    def lmo(self, grad: np.ndarray, seed: int = 0) -> np.ndarray:
        i = int(np.argmin(np.diag(grad).real))
        m = np.zeros((self.total_dim, self.total_dim), dtype=complex)
        m[i, i] = 1.0
        return m

    def type_class_lmo(self, grad: np.ndarray) -> np.ndarray:
        """argmin of Tr[grad sigma] over the permutation-invariant members.

        Those members are the mixtures of the uniform states on the type
        classes (basis strings with the same multiset of digits), so the
        minimum is the uniform state on the class with the least average
        diagonal entry of grad.
        """
        labels, sizes = _type_classes(self.base_dim, self.copies)
        means = np.bincount(labels, weights=np.diag(grad).real) / sizes
        k = int(np.argmin(means))
        return np.diag((labels == k) / sizes[k]).astype(complex)

    def full_rank_witness(self) -> DensityMatrix:
        return opalg.maximally_mixed(self.shape)

    def random_member(self, rng: np.random.Generator) -> DensityMatrix:
        p = rng.dirichlet(np.ones(self.total_dim))
        return DensityMatrix(HermitianOperator(self.shape, np.diag(p)))


@dataclass(frozen=True)
class SingletonIIDFamily(FreeFamily):
    """The one-element family {sigma0^{x copies}}."""

    sigma0: np.ndarray = field(default=None, repr=False)

    kind = "iid"

    def __post_init__(self):
        m = 0.5 * (np.asarray(self.sigma0, complex)
                   + np.asarray(self.sigma0, complex).conj().T)
        if m.shape[0] != self.base_dim:
            raise ShapeMismatch("sigma0 dimension does not match base_dim")
        m.setflags(write=False)
        object.__setattr__(self, "sigma0", m)

    def _member(self) -> DensityMatrix:
        return DensityMatrix(HermitianOperator(
            self.shape, opalg.kron_power(self.sigma0, self.copies)))

    def membership_defect(self, sigma: DensityMatrix) -> float:
        return opalg.trace_norm(
            sigma.mat - opalg.kron_power(self.sigma0, self.copies))

    def lmo(self, grad: np.ndarray, seed: int = 0) -> np.ndarray:
        return opalg.kron_power(self.sigma0, self.copies)

    def full_rank_witness(self) -> DensityMatrix:
        w = self._member()
        if w.lambda_min() <= 0.0:
            raise NoFullRankMember("sigma0 is singular")
        return w

    def random_member(self, rng: np.random.Generator) -> DensityMatrix:
        return self._member()


@dataclass(frozen=True)
class FullSpaceFamily(FreeFamily):
    """All density matrices; the linear oracle is the bottom eigenprojector."""

    kind = "full"

    def membership_defect(self, sigma: DensityMatrix) -> float:
        return 0.0

    def lmo(self, grad: np.ndarray, seed: int = 0) -> np.ndarray:
        return _ray(opalg.eigh(grad)[1][:, 0])

    def full_rank_witness(self) -> DensityMatrix:
        return opalg.maximally_mixed(self.shape)

    def random_member(self, rng: np.random.Generator) -> DensityMatrix:
        from .rand import random_density
        return random_density(rng, self.shape)


@dataclass(frozen=True)
class SeparableHullFamily(FreeFamily):
    """Convex hull of bipartite product states, one (dA x dB) pair per copy.

    The hull is entered through its extreme points: the linear oracle runs a
    multi-start alternating-eigenvector search over pure product states of
    the global cut (all A factors versus all B factors).  Each alternating
    step solves an eigenproblem exactly, so the sweep value never increases.
    The ``n_restarts`` restarts run as one batch, one stacked ``eigh`` per
    half-sweep; each restart stops on its own once a sweep lowers its value
    by less than ``seesaw_tol``, and the first restart with the least value
    wins.

    The search is a heuristic: it finds a local minimum of Tr[grad sigma]
    over product states, not a certified global one.  So on this family
    every solver's ``fw_gap`` and ``converged`` are measured against the
    seesaw's answer and are not certificates.  Values stay attained: the
    atoms are true product states, so ``membership_defect`` is an upper
    bound on the distance to the hull, but not a tight one.
    """

    dim_a: int = 2
    dim_b: int = 2
    n_restarts: int = 32
    seesaw_iters: int = 100
    seesaw_tol: float = 1e-10

    kind = "sep"

    def __post_init__(self):
        if self.dim_a * self.dim_b != self.base_dim:
            raise ShapeMismatch("base_dim must equal dim_a * dim_b")

    @property
    def membership_check_tol(self) -> float:
        return SEP_MEMBER_TOL

    def membership_defect(self, sigma: DensityMatrix) -> float:
        from .optim import SolverSettings, distance_to_family
        res = distance_to_family(sigma, self, SolverSettings(max_iters=300,
                                                             tol=1e-6))
        return res.value

    def lmo(self, grad: np.ndarray, seed: int = 0) -> np.ndarray:
        n = self.copies
        da, db = self.dim_a ** n, self.dim_b ** n
        g4 = opalg.pairs_to_blocks(grad, self.dim_a, self.dim_b,
                                   n).reshape(da, db, da, db)
        r = self.n_restarts
        # one row per restart, drawn in the order of one restart at a time:
        # the real parts of its B start, then the imaginary parts
        z = np.random.default_rng(seed).standard_normal((r, 2, db))
        b = z[:, 0] + 1j * z[:, 1]
        b /= np.linalg.norm(b, axis=1, keepdims=True)
        a = np.zeros((r, da), dtype=complex)
        prev = np.full(r, np.inf)
        live = np.arange(r)
        for _ in range(self.seesaw_iters):
            bl = b[live]
            ma = np.einsum("ijkl,rj,rl->rik", g4, bl.conj(), bl)
            al = opalg.eigh(ma)[1][:, :, 0]
            mb = np.einsum("ijkl,ri,rk->rjl", g4, al.conj(), al)
            w, V = opalg.eigh(mb)
            a[live], b[live] = al, V[:, :, 0]
            # a restart stops once its sweep value fails to drop by tol and
            # keeps the pair of that sweep
            stop = prev[live] - w[:, 0] < self.seesaw_tol
            prev[live] = w[:, 0]
            live = live[~stop]
            if not live.size:
                break
        vals = np.einsum("ijkl,ri,rj,rk,rl->r", g4, a.conj(), b.conj(), a,
                         b).real
        k = int(np.argmin(vals))
        return _ray(opalg.blocks_to_pairs(np.kron(a[k], b[k]), self.dim_a,
                                          self.dim_b, n))

    def full_rank_witness(self) -> DensityMatrix:
        return opalg.maximally_mixed(self.shape)

    def random_member(self, rng: np.random.Generator) -> DensityMatrix:
        n = self.copies
        da, db = self.dim_a ** n, self.dim_b ** n
        k = 4
        weights = rng.dirichlet(np.ones(k))
        m = np.zeros((self.total_dim, self.total_dim), dtype=complex)
        for w in weights:
            a = rng.standard_normal(da) + 1j * rng.standard_normal(da)
            b = rng.standard_normal(db) + 1j * rng.standard_normal(db)
            vec = opalg.blocks_to_pairs(np.kron(a / np.linalg.norm(a),
                                                b / np.linalg.norm(b)),
                                        self.dim_a, self.dim_b, n)
            m += w * np.outer(vec, vec.conj())
        return DensityMatrix(HermitianOperator(self.shape, m))


# ---------------------------------------------------------------------------
# randomized axiom checks
# ---------------------------------------------------------------------------

def check_property(family: FreeFamily, property_id: int, trials: int,
                   seed: int) -> PropertyReport:
    """Randomized certificate for one of the five family axioms.

    Margins for membership-style checks are (check tolerance - defect); for
    the full-rank axiom the margin is the witness's smallest eigenvalue.
    Randomized probing, not a proof.
    """
    if property_id not in (1, 2, 3, 4, 5):
        raise ValueError("property_id must be in 1..5")
    rng = np.random.default_rng(seed)
    tol = family.membership_check_tol
    margins = []
    n_hi = max(2, family.copies)
    for _ in range(trials):
        if property_id == 1:
            s1 = family.random_member(rng)
            s2 = family.random_member(rng)
            t = float(rng.uniform())
            mix = DensityMatrix(HermitianOperator(
                family.shape, t * s1.mat + (1.0 - t) * s2.mat))
            margins.append(tol - family.membership_defect(mix))
        elif property_id == 2:
            w = family.full_rank_witness()
            margins.append(w.lambda_min())
        elif property_id == 3:
            fam_hi = family.at_copies(n_hi)
            fam_lo = family.at_copies(n_hi - 1)
            member = fam_hi.random_member(rng)
            which = int(rng.integers(n_hi))
            red = opalg.partial_trace(member.op, [which])
            margins.append(tol - fam_lo.membership_defect(DensityMatrix(red)))
        elif property_id == 4:
            fam_1 = family.at_copies(1)
            fam_n = family.at_copies(n_hi)
            member = fam_1.random_member(rng)
            power = opalg.tensor_power(member.op, n_hi)
            margins.append(tol - fam_n.membership_defect(DensityMatrix(power)))
        else:
            fam_hi = family.at_copies(n_hi)
            member = fam_hi.random_member(rng)
            perm = [int(i) for i in rng.permutation(n_hi)]
            moved = opalg.permute_subsystems(member.op, perm)
            margins.append(tol - fam_hi.membership_defect(DensityMatrix(moved)))
    return PropertyReport(property_id, trials, float(min(margins)))


# ---------------------------------------------------------------------------
# CLI descriptors
# ---------------------------------------------------------------------------

def parse_family_spec(spec: str, base_dim: int, copies: int) -> FreeFamily:
    """Build a family from its config-file descriptor.

    Accepted forms: ``diagonal``, ``iid:<path-to-sigma0>``, ``full``,
    ``sep:<dA>x<dB>``.
    """
    s = spec.strip()
    if s == "diagonal":
        return DiagonalFamily(base_dim, copies)
    if s == "full":
        return FullSpaceFamily(base_dim, copies)
    if s.startswith("iid:"):
        sigma0 = opalg.load_density(s[len("iid:"):])
        if sigma0.total_dim != base_dim:
            raise ShapeMismatch(
                f"sigma0 dimension {sigma0.total_dim} != state dimension {base_dim}")
        return SingletonIIDFamily(base_dim, copies, sigma0=sigma0.mat)
    if s.startswith("sep:"):
        try:
            da, db = (int(x) for x in s[len("sep:"):].split("x"))
        except ValueError as exc:
            raise ValueError(f"bad separable descriptor {spec!r}") from exc
        if da * db != base_dim:
            raise ShapeMismatch(
                f"sep:{da}x{db} does not match state dimension {base_dim}")
        return SeparableHullFamily(base_dim, copies, dim_a=da, dim_b=db)
    raise ValueError(f"unknown family descriptor {spec!r}")
