"""Convex families of free states.

Each family exposes the three capabilities every solver in this package
needs: a membership test, a linear-minimization oracle (``lmo``), and a
full-rank witness; it may declare ``type_classes``, that its invariant
members are the mixtures of uniform states on type classes, or
``one_member``, that it holds one state, which every oracle answer is.
Oracles return plain complex matrices, and the witness and
``random_member`` unvalidated ``HermitianOperator``s: solvers call them
thousands of times, and validation belongs where a state enters the
program.  Families are
immutable descriptors; oracles are pure given an explicit seed, so
concurrent use is safe.

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

import numpy as np

from . import opalg
from .certificates import CheckResult, randomized_check
from .errors import NoFullRankMember, ShapeMismatch
from .opalg import HermitianOperator, SystemShape
from .rand import random_psd

EXACT_MEMBER_TOL = 1e-8
SEP_MEMBER_TOL = 1e-3


@dataclass(frozen=True)
class FreeFamily:
    """Base descriptor: a convex family on ``copies`` subsystems of ``base_dim``."""

    base_dim: int
    copies: int = 1

    kind = "abstract"
    # optional capability: the permutation-invariant members are exactly the
    # mixtures of uniform states on type classes, the full-rank witness among
    # them; optim then searches invariant inputs in type-class coordinates
    type_classes = False
    # optional capability: the family holds one state, so every oracle answer
    # is that state; optim then solves the hypothesis-test dual as a 1-D
    # problem in its weight and the primal's one-row LP in closed form
    one_member = False

    @property
    def shape(self) -> SystemShape:
        return SystemShape((self.base_dim,) * self.copies)

    @property
    def total_dim(self) -> int:
        return self.shape.total_dim

    def at_copies(self, n: int) -> "FreeFamily":
        return replace(self, copies=n)

    # capability surface -----------------------------------------------------

    def check_dim(self, op: HermitianOperator) -> None:
        """ShapeMismatch unless ``op`` acts on the family's space."""
        if op.total_dim != self.total_dim:
            raise ShapeMismatch(
                f"operator of dimension {op.total_dim} vs family "
                f"dimension {self.total_dim}")

    def membership_defect(self, sigma: HermitianOperator) -> float:
        raise NotImplementedError

    def membership(self, sigma: HermitianOperator, tol: float) -> bool:
        self.check_dim(sigma)
        return self.membership_defect(sigma) <= tol

    def lmo(self, grad: np.ndarray, seed: int = 0) -> np.ndarray:
        """argmin over the family of Tr[grad sigma], as a plain matrix."""
        raise NotImplementedError

    def full_rank_witness(self) -> HermitianOperator:
        """The maximally mixed state, a member of all but the IID family."""
        n = self.total_dim
        return HermitianOperator(self.shape, np.eye(n) / n)

    def random_member(self, rng: np.random.Generator) -> HermitianOperator:
        """A random member, unvalidated (tests pin it as a state)."""
        raise NotImplementedError

    @property
    def membership_check_tol(self) -> float:
        return EXACT_MEMBER_TOL


def _ray(vec: np.ndarray) -> np.ndarray:
    """Projector onto a unit vector, Hermitian to the last bit (an outer
    product alone leaves rounding noise on the imaginary diagonal)."""
    m = np.outer(vec, vec.conj())
    return 0.5 * (m + m.conj().T)


@dataclass(frozen=True)
class DiagonalFamily(FreeFamily):
    """States diagonal in the computational product basis (free coherence)."""

    kind = "diagonal"
    type_classes = True

    def membership_defect(self, sigma: HermitianOperator) -> float:
        off = sigma.mat - np.diag(np.diag(sigma.mat))
        return opalg.trace_norm(off)

    def lmo(self, grad: np.ndarray, seed: int = 0) -> np.ndarray:
        i = int(np.argmin(np.diag(grad).real))
        m = np.zeros((self.total_dim, self.total_dim), dtype=complex)
        m[i, i] = 1.0
        return m

    def random_member(self, rng: np.random.Generator) -> HermitianOperator:
        p = rng.dirichlet(np.ones(self.total_dim))
        return HermitianOperator(self.shape, np.diag(p))


@dataclass(frozen=True)
class SingletonIIDFamily(FreeFamily):
    """The one-element family {sigma0^{x copies}}."""

    sigma0: np.ndarray = field(default=None, repr=False)

    kind = "iid"
    one_member = True

    def __post_init__(self):
        m = 0.5 * (np.asarray(self.sigma0, complex)
                   + np.asarray(self.sigma0, complex).conj().T)
        if m.shape[0] != self.base_dim:
            raise ShapeMismatch("sigma0 dimension does not match base_dim")
        m.setflags(write=False)
        object.__setattr__(self, "sigma0", m)

    def membership_defect(self, sigma: HermitianOperator) -> float:
        return opalg.trace_norm(
            sigma.mat - opalg.kron_power(self.sigma0, self.copies))

    def lmo(self, grad: np.ndarray, seed: int = 0) -> np.ndarray:
        return opalg.kron_power(self.sigma0, self.copies)

    def full_rank_witness(self) -> HermitianOperator:
        # sigma0^{x N} is singular exactly when sigma0 is
        if opalg.eigh(self.sigma0)[0][0] <= 0.0:
            raise NoFullRankMember("sigma0 is singular")
        return HermitianOperator(self.shape,
                                 opalg.kron_power(self.sigma0, self.copies))

    def random_member(self, rng: np.random.Generator) -> HermitianOperator:
        return HermitianOperator(self.shape,
                                 opalg.kron_power(self.sigma0, self.copies))


@dataclass(frozen=True)
class FullSpaceFamily(FreeFamily):
    """All density matrices; the linear oracle is the bottom eigenprojector."""

    kind = "full"

    def membership_defect(self, sigma: HermitianOperator) -> float:
        return 0.0

    def lmo(self, grad: np.ndarray, seed: int = 0) -> np.ndarray:
        return _ray(opalg.eigh(grad)[1][:, 0])

    def random_member(self, rng: np.random.Generator) -> HermitianOperator:
        m = random_psd(rng, self.shape).mat
        return HermitianOperator(self.shape, m / np.trace(m).real)


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
    atoms are true product states.

    ``membership_defect`` is exact where the global cut is at most 2 x 3:
    there a state is separable iff its partial transpose is positive
    (Horodecki 1996), and the defect is -lambda_min of that partial
    transpose, or 0.  On larger cuts it is the trace distance to the hull
    found by ``distance_to_family``, driven by the same seesaw: an upper
    bound on the distance, but not a tight one.
    """

    dim_a: int = 2
    dim_b: int = 2
    n_restarts: int = 32

    kind = "sep"
    seesaw_iters = 100
    seesaw_tol = 1e-10

    def __post_init__(self):
        if self.dim_a * self.dim_b != self.base_dim:
            raise ShapeMismatch("base_dim must equal dim_a * dim_b")

    @property
    def membership_check_tol(self) -> float:
        return SEP_MEMBER_TOL

    def membership_defect(self, sigma: HermitianOperator) -> float:
        n = self.copies
        da, db = self.dim_a ** n, self.dim_b ** n
        if da * db <= 6:
            # PPT decides separability up to 2 x 3 (Horodecki 1996)
            pt = opalg.pairs_to_blocks(sigma.mat, self.dim_a, self.dim_b,
                                       n).reshape(da, db, da, db)
            pt = pt.transpose(0, 3, 2, 1).reshape(da * db, da * db)
            return max(0.0, -float(opalg.eigh(pt)[0][0]))
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

    def random_member(self, rng: np.random.Generator) -> HermitianOperator:
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
        return HermitianOperator(self.shape, m)


# ---------------------------------------------------------------------------
# randomized axiom checks
# ---------------------------------------------------------------------------

def check_property(family: FreeFamily, property_id: int, trials: int,
                   seed: int) -> CheckResult:
    """Randomized certificate for one of the five family axioms, as the
    check ``family-axiom-<id>`` at tolerance ``EXACT_MEMBER_TOL``.

    Margins for membership-style checks are (check tolerance - defect); for
    the full-rank axiom the margin is the witness's smallest eigenvalue.
    Randomized probing, not a proof.  On ``SeparableHullFamily(4, 1)``
    axioms 4 and 5 test members on a 4 x 4 cut, where membership is the
    seesaw-driven distance, an upper bound above ``SEP_MEMBER_TOL`` on
    true members: they report violations (-0.22 and -0.014 at seed 1).
    """
    if property_id not in (1, 2, 3, 4, 5):
        raise ValueError("property_id must be in 1..5")
    tol = family.membership_check_tol
    n_hi = max(2, family.copies)
    fam_hi = family.at_copies(n_hi)

    @randomized_check(f"family-axiom-{property_id}", EXACT_MEMBER_TOL)
    def trial(rng, i, seed):
        if property_id == 1:
            s1 = family.random_member(rng)
            s2 = family.random_member(rng)
            t = float(rng.uniform())
            return [tol - family.membership_defect(t * s1 + (1.0 - t) * s2)]
        if property_id == 2:
            return [family.full_rank_witness().lambda_min()]
        if property_id == 3:
            member = fam_hi.random_member(rng)
            red = opalg.partial_trace(member, [int(rng.integers(n_hi))])
            return [tol - family.at_copies(n_hi - 1).membership_defect(red)]
        if property_id == 4:
            member = family.at_copies(1).random_member(rng)
            return [tol - fam_hi.membership_defect(
                opalg.tensor_power(member, n_hi))]
        member = fam_hi.random_member(rng)
        perm = [int(k) for k in rng.permutation(n_hi)]
        return [tol - fam_hi.membership_defect(
            opalg.permute_subsystems(member, perm))]
    return trial(trials, seed)


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
