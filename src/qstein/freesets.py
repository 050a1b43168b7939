"""Convex families of free states.

Each family exposes the three capabilities every solver in this package
needs: a membership test, a linear-minimization oracle (``lmo``), and a
full-rank witness; it may declare ``type_classes``, that its invariant
members are the mixtures of uniform states on type classes, or
``one_member``, that it holds one state, which every oracle answer is.
Oracles return plain matrices, as real as the family's data and the
gradient, and the witness and ``random_member`` unvalidated
``HermitianOperator``s: solvers call them thousands of times, and
validation belongs where a state enters the program.  Families are
immutable descriptors; oracles are pure given an explicit seed, so
concurrent use is safe.

Supported kinds:

* ``DiagonalFamily`` - states diagonal in the computational basis.
* ``SingletonIIDFamily`` - the single product state sigma0^{x N}.
* ``FullSpaceFamily`` - every density matrix (the trivial theory).
* ``SeparableHullFamily`` - convex hull of product states across a fixed
  bipartition, represented through a multi-start alternating-eigenvector
  oracle over pure product states with a Newton finish (a heuristic, so
  its gaps certify nothing); its membership test is the exact PPT test
  up to a 2 x 3 cut and refuses larger cuts.
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
        m = np.zeros((self.total_dim, self.total_dim))
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
        m = opalg.operator(self.sigma0).mat
        if m.shape[0] != self.base_dim:
            raise ShapeMismatch("sigma0 dimension does not match base_dim")
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


def _outer(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Row-wise outer products of two stacks of vectors, flattened."""
    return (x[:, :, None] * y[:, None, :]).reshape(len(x), -1)


def _put_real(out: np.ndarray, m: np.ndarray) -> None:
    """Write a stack of complex p x p matrices as they act on (Re z, Im z)."""
    p = m.shape[-1]
    out[:, :p, :p] = out[:, p:, p:] = m.real
    out[:, :p, p:] = -m.imag
    out[:, p:, :p] = m.imag


class _PairForm:
    """The form <a b|G|a' b'> of a matrix G on A x B, contracted against
    stacks of pairs (one row each) by one matrix product per contraction."""

    def __init__(self, g: np.ndarray, da: int, db: int):
        g4 = g.reshape(da, db, da, db)
        self.da, self.db = da, db
        # g[ijkl] with rows and columns indexed by (ij),(kl) in g, by
        # (ik),(jl) in g_ab and by (jk),(il) in g_x
        self.g = g
        self.g_ab = g4.transpose(0, 2, 1, 3).reshape(da * da, db * db)
        self.g_x = g4.transpose(1, 2, 0, 3).reshape(db * da, da * db)

    def on_a(self, b: np.ndarray) -> np.ndarray:
        """M_b = <b|G|b>, an operator on A, per row of b."""
        return (_outer(b.conj(), b) @ self.g_ab.T).reshape(-1, self.da,
                                                          self.da)

    def on_b(self, a: np.ndarray) -> np.ndarray:
        """M_a = <a|G|a>, an operator on B, per row of a."""
        return (_outer(a.conj(), a) @ self.g_ab).reshape(-1, self.db, self.db)

    def value(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        ab = _outer(a, b)
        return np.einsum("ri,ri->r", ab.conj() @ self.g, ab).real

    def newton_step(self, a, b, f, m_a):
        """One saddle-free Riemannian Newton step per row from the unit pair
        (a, b) of value f and M_a = m_a, kept where the exact value drops.

        For da orthogonal to a and db to b (complex-orthogonal, which fixes
        the phases), the normalized value is to second order
        f + 2Re(da' M_b a) + 2Re(db' M_a b) + da'(M_b - f)da + db'(M_a - f)db
        + 2Re(da' K db) + 2Re(da^T N db), with K[i,l] = sum b*_j g[ijkl] a_k
        and N[k,l] = sum a*_i b*_j g[ijkl].  In real coordinates of the
        tangent space, the Hessian's eigenvalues are taken in absolute value
        and those at most 1e-12 times the largest are dropped.
        """
        da, db = self.da, self.db
        qa, qb = opalg.complement(a), opalg.complement(b)
        qah, qbh = qa.conj().mT, qb.conj().mT
        m_b = self.on_a(b)
        k = (_outer(b.conj(), a) @ self.g_x).reshape(-1, da, db)
        nk = (_outer(a, b).conj() @ self.g).reshape(-1, da, db)
        p, q = da - 1, db - 1
        h = np.empty((len(a), 2 * (p + q), 2 * (p + q)))
        _put_real(h[:, :2 * p, :2 * p], qah @ m_b @ qa)
        _put_real(h[:, 2 * p:, 2 * p:], qbh @ m_a @ qb)
        # 2Re(da' K db) is sesquilinear and 2Re(da^T N db) bilinear, so on
        # the Im rows of da the two enter with opposite signs
        k, nk = qah @ k @ qb, qa.mT @ nk @ qb
        plus, minus = k + nk, k - nk
        h[:, :p, 2 * p:2 * p + q] = plus.real
        h[:, :p, 2 * p + q:] = -plus.imag
        h[:, p:2 * p, 2 * p:2 * p + q] = minus.imag
        h[:, p:2 * p, 2 * p + q:] = minus.real
        h[:, 2 * p:, :2 * p] = h[:, :2 * p, 2 * p:].mT
        diag = np.arange(2 * (p + q))
        h[:, diag, diag] -= f[:, None]
        ga = (qah @ (m_b @ a[:, :, None]))[:, :, 0]
        gb = (qbh @ (m_a @ b[:, :, None]))[:, :, 0]
        grad = np.concatenate([ga.real, ga.imag, gb.real, gb.imag], axis=1)
        lam, u = opalg.eigh(h)
        u, lam = u.real, np.abs(lam)
        keep = lam > 1e-12 * lam.max(axis=1, keepdims=True)
        c = np.where(keep, np.einsum("rnk,rn->rk", u, grad)
                     / np.where(keep, lam, 1.0), 0.0)
        z = -np.einsum("rnk,rk->rn", u, c)
        step_a = (qa @ (z[:, :p] + 1j * z[:, p:2 * p])[:, :, None])[:, :, 0]
        step_b = (qb @ (z[:, 2 * p:2 * p + q]
                        + 1j * z[:, 2 * p + q:])[:, :, None])[:, :, 0]
        # far from a minimum the full step overshoots: try it and seven
        # halvings, and keep the least exact value if it is below f
        scale = 0.5 ** np.arange(8)[:, None, None]
        a2 = a + scale * step_a
        b2 = b + scale * step_b
        a2 /= np.linalg.norm(a2, axis=2, keepdims=True)
        b2 /= np.linalg.norm(b2, axis=2, keepdims=True)
        f2 = self.value(a2.reshape(-1, da), b2.reshape(-1, db)).reshape(8, -1)
        j = np.argmin(f2, axis=0)
        rows = np.arange(len(a))
        a2, b2, f2 = a2[j, rows], b2[j, rows], f2[j, rows]
        ok = f2 < f
        return (np.where(ok[:, None], a2, a), np.where(ok[:, None], b2, b),
                np.where(ok, f2, f))


@dataclass(frozen=True)
class SeparableHullFamily(FreeFamily):
    """Convex hull of bipartite product states, one (dA x dB) pair per copy.

    The hull is entered through its extreme points: the linear oracle runs a
    multi-start alternating-eigenvector search over pure product states of
    the global cut (all A factors versus all B factors).  Each alternating
    step solves an eigenproblem exactly, so the sweep value never increases.
    Along a flat valley those steps creep (about 2e-7 a sweep on the Bell
    state's gradients), so from its third sweep on every restart ends its
    sweep with a saddle-free Riemannian Newton step on the product of unit
    spheres (``_PairForm.newton_step``; Absil, Mahony & Sepulchre 2008),
    kept only where it lowers the value, which converges quadratically.  The
    ``n_restarts`` restarts run as one batch, one stacked ``eigh`` per
    half-sweep and per Newton step; each restart stops on its own once a
    sweep lowers its value by less than ``seesaw_tol``, and the first
    restart with the least value wins.

    The search is still a heuristic: it finds a local minimum of
    Tr[grad sigma] over product states, not a certified global one.  So on
    this family every solver's ``fw_gap`` and ``converged`` are measured
    against the seesaw's answer and are not certificates.  Values stay
    attained: the atoms are true product states.

    ``membership_defect`` is exact where the global cut is at most 2 x 3:
    there a state is separable iff its partial transpose is positive
    (Horodecki 1996), and the defect is -lambda_min of that partial
    transpose, or 0.  On a larger cut it raises ``NotImplementedError``:
    no exact test is implemented there, and a heuristic distance would
    report true members as violations.
    """

    dim_a: int = 2
    dim_b: int = 2
    n_restarts: int = 32

    kind = "sep"
    seesaw_iters = 100
    seesaw_tol = 1e-10

    def __post_init__(self):
        if (min(self.dim_a, self.dim_b) < 1
                or self.dim_a * self.dim_b != self.base_dim):
            raise ShapeMismatch("need dim_a, dim_b >= 1 with product base_dim")

    def membership_defect(self, sigma: HermitianOperator) -> float:
        n = self.copies
        da, db = self.dim_a ** n, self.dim_b ** n
        if da * db <= 6:
            # PPT decides separability up to 2 x 3 (Horodecki 1996)
            pt = opalg.pairs_to_blocks(sigma.mat, self.dim_a, self.dim_b,
                                       n).reshape(da, db, da, db)
            pt = pt.transpose(0, 3, 2, 1).reshape(da * db, da * db)
            return max(0.0, -float(opalg.eigh(pt)[0][0]))
        raise NotImplementedError(
            f"separable membership on a {da} x {db} cut: PPT decides it "
            f"only up to 2 x 3")

    def lmo(self, grad: np.ndarray, seed: int = 0) -> np.ndarray:
        n = self.copies
        da, db = self.dim_a ** n, self.dim_b ** n
        form = _PairForm(opalg.pairs_to_blocks(grad, self.dim_a, self.dim_b,
                                               n), da, db)
        r = self.n_restarts
        # one row per restart, drawn in the order of one restart at a time:
        # the real parts of its B start, then the imaginary parts
        z = np.random.default_rng(seed).standard_normal((r, 2, db))
        b = z[:, 0] + 1j * z[:, 1]
        b /= np.linalg.norm(b, axis=1, keepdims=True)
        a = np.zeros((r, da), dtype=complex)
        prev = np.full(r, np.inf)
        live = np.arange(r)
        for sweep in range(self.seesaw_iters):
            al = opalg.eigh(form.on_a(b[live]))[1][:, :, 0]
            m_a = form.on_b(al)
            w, V = opalg.eigh(m_a)
            bl, val = V[:, :, 0], w[:, 0]
            if sweep >= 2:
                # a restart still live after two sweeps is creeping along a
                # valley, where a Newton step converges quadratically
                al, bl, val = form.newton_step(al, bl, val, m_a)
            a[live], b[live] = al, bl
            # a restart stops once its sweep value fails to drop by tol and
            # keeps the pair of that sweep
            stop = prev[live] - val < self.seesaw_tol
            prev[live] = val
            live = live[~stop]
            if not live.size:
                break
        k = int(np.argmin(form.value(a, b)))
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
    axioms 4 and 5 test members on two copies, a 4 x 4 cut, where
    ``membership_defect`` raises ``NotImplementedError``.
    """
    if property_id not in (1, 2, 3, 4, 5):
        raise ValueError("property_id must be in 1..5")
    tol = EXACT_MEMBER_TOL
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
        if min(da, db) < 1:
            raise ValueError(f"{spec!r}: each factor dimension must be >= 1")
        if da * db != base_dim:
            raise ShapeMismatch(
                f"sep:{da}x{db} does not match state dimension {base_dim}")
        return SeparableHullFamily(base_dim, copies, dim_a=da, dim_b=db)
    raise ValueError(f"unknown family descriptor {spec!r}")
