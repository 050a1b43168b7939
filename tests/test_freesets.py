import math

import numpy as np
import pytest

from qstein import opalg, rand, symmetry, typeclass
from qstein.errors import NoFullRankMember, ShapeMismatch
from qstein.freesets import (DiagonalFamily, FullSpaceFamily,
                             SeparableHullFamily, SingletonIIDFamily,
                             check_property, parse_family_spec)
from qstein.opalg import SystemShape
from qstein.optim import (SolverSettings, distance_to_family,
                          rel_ent_of_resource)

from oracles import max_product_overlap_bell, sequential_seesaw_lmo

RNG = np.random.default_rng(11)


def bell_state():
    v = np.zeros(4)
    v[0] = v[3] = 1.0 / math.sqrt(2.0)
    return opalg.density(np.outer(v, v))


class TestMembership:
    def test_diagonal_accepts_mixed(self):
        fam = DiagonalFamily(2, 2)
        assert fam.membership(opalg.maximally_mixed(SystemShape((2, 2))), 1e-8)

    def test_diagonal_rejects_plus(self):
        fam = DiagonalFamily(2, 1)
        plus = opalg.density(0.5 * np.ones((2, 2)))
        assert not fam.membership(plus, 1e-8)
        assert abs(fam.membership_defect(plus) - 1.0) < 1e-12

    def test_singleton(self):
        fam = SingletonIIDFamily(2, 2, sigma0=np.diag([0.6, 0.4]))
        member = opalg.density(np.kron(np.diag([0.6, 0.4]),
                                       np.diag([0.6, 0.4])), (2, 2))
        assert fam.membership(member, 1e-10)
        assert not fam.membership(opalg.maximally_mixed(SystemShape((2, 2))),
                                  1e-3)

    def test_separable_rejects_bell(self):
        fam = SeparableHullFamily(4, 1, dim_a=2, dim_b=2, n_restarts=8)
        assert not fam.membership(bell_state(), 1e-3)

    def test_separable_bell_defect(self):
        # -lambda_min of the partial transpose of a Bell state
        fam = SeparableHullFamily(4, 1, dim_a=2, dim_b=2, n_restarts=8)
        assert abs(fam.membership_defect(bell_state()) - 0.5) <= 1e-12

    def test_separable_accepts_mixtures_of_products(self):
        # the solvers' minimizers mix product states; a seesaw-driven
        # distance put them 0.0111 and 0.0081 off the hull
        fam = SeparableHullFamily(4, 1, dim_a=2, dim_b=2, n_restarts=8)
        rng = np.random.default_rng(313)
        rho = rand.random_density(rng, SystemShape((2, 2)))
        settings = SolverSettings(200, 1e-7)
        for solve in (rel_ent_of_resource, distance_to_family):
            sigma = solve(rho, fam, settings).minimizer
            assert fam.membership_defect(sigma) <= 1e-12
        fam = SeparableHullFamily(6, 1, dim_a=2, dim_b=3)
        assert fam.membership_defect(fam.random_member(rng)) <= 1e-12

    def test_shape_mismatch(self):
        fam = DiagonalFamily(2, 1)
        with pytest.raises(ShapeMismatch):
            fam.membership(opalg.maximally_mixed(SystemShape((3,))), 1e-8)


class TestLinearOracle:
    def test_diagonal_picks_min_entry(self):
        fam = DiagonalFamily(2, 2)
        g = np.diag([3.0, 1.0, 2.0, 5.0])
        out = fam.lmo(g)
        assert abs(out[1, 1] - 1.0) < 1e-14

    def test_diagonal_exactness(self):
        fam = DiagonalFamily(3, 1)
        for _ in range(20):
            g = rand.random_hermitian(RNG, SystemShape((3,))).mat
            out = fam.lmo(g)
            val = float(np.einsum("ij,ji->", g, out).real)
            assert abs(val - float(np.diag(g).real.min())) < 1e-13

    def test_full_space_rayleigh(self):
        fam = FullSpaceFamily(4, 1)
        g = rand.random_hermitian(RNG, SystemShape((4,))).mat
        out = fam.lmo(g)
        val = float(np.einsum("ij,ji->", g, out).real)
        assert abs(val - float(np.linalg.eigvalsh(g)[0])) < 1e-10

    def test_separable_bell_overlap(self):
        # max product overlap with the 2x2 maximally entangled ray is 1/2
        grid = max_product_overlap_bell()
        assert abs(grid - 0.5) < 1e-3
        fam = SeparableHullFamily(4, 1, dim_a=2, dim_b=2, n_restarts=16)
        out = fam.lmo(-bell_state().mat, seed=0)
        val = float(np.einsum("ij,ji->", -bell_state().mat, out).real)
        assert abs(val - (-0.5)) < 1e-9

    def test_lmo_outputs_are_members(self):
        fams = [DiagonalFamily(2, 2), FullSpaceFamily(4, 1),
                SingletonIIDFamily(2, 2, sigma0=np.diag([0.7, 0.3]))]
        for fam in fams:
            for _ in range(200):
                g = rand.random_hermitian(RNG, fam.shape).mat
                out = opalg.density(fam.lmo(g), fam.shape.dims)
                assert fam.membership(out, 1e-8)

    def test_seesaw_sweep_is_monotone(self):
        # each alternating step solves an eigenproblem exactly, so the
        # sweep value can never increase
        fam = SeparableHullFamily(4, 1, dim_a=2, dim_b=2)
        for trial in range(5):
            g4 = rand.random_hermitian(RNG, fam.shape).mat.reshape(2, 2, 2, 2)
            b = RNG.standard_normal(2) + 1j * RNG.standard_normal(2)
            b /= np.linalg.norm(b)
            vals = []
            for _ in range(20):
                ma = np.einsum("ijkl,j,l->ik", g4, b.conj(), b)
                w, V = np.linalg.eigh(0.5 * (ma + ma.conj().T))
                a = V[:, 0]
                mb = np.einsum("ijkl,i,k->jl", g4, a.conj(), a)
                w, V = np.linalg.eigh(0.5 * (mb + mb.conj().T))
                b = V[:, 0]
                vals.append(float(w[0]))
            assert all(y <= x + 1e-12 for x, y in zip(vals, vals[1:]))

    def test_sep_lmo_membership(self):
        fam = SeparableHullFamily(4, 1, dim_a=2, dim_b=2, n_restarts=4)
        for seed in range(3):
            g = rand.random_hermitian(RNG, fam.shape).mat
            out = opalg.density(fam.lmo(g, seed=seed), fam.shape.dims)
            assert fam.membership(out, 1e-3)


@pytest.mark.parametrize("copies,n_restarts",
                         [(1, 1), (1, 5), (1, 32), (2, 1), (2, 32)])
def test_sep_lmo_matches_sequential_restarts(copies, n_restarts):
    # the batched seesaw draws the same starts, takes the same Newton steps,
    # stops each restart by the same rule and keeps the first least value as
    # the loop over restarts; the Newton finish never ends above the plain
    # seesaw
    fam = SeparableHullFamily(4, copies, dim_a=2, dim_b=2,
                              n_restarts=n_restarts)
    rng = np.random.default_rng(100 * copies + n_restarts)
    for seed in range(6):
        g = rand.random_hermitian(rng, fam.shape).mat
        got = float(np.einsum("ij,ji->", g, fam.lmo(g, seed=seed)).real)
        want = float(np.einsum("ij,ji->", g,
                               sequential_seesaw_lmo(fam, g, seed)).real)
        plain = float(np.einsum("ij,ji->", g, sequential_seesaw_lmo(
            fam, g, seed, newton=False)).real)
        assert abs(got - want) <= 1e-12
        assert got <= plain + 1e-12


# An oracle gradient of E_R on the Bell state, met by Frank-Wolfe with the
# plain seesaw (rounded to 8 decimals): about -2.885 on |Phi> plus entries
# near 1e-5, so every product state with b close to conj(a) is nearly
# optimal, and most plain restarts creep along that valley for 100 sweeps.
BELL_VALLEY_GRAD = (np.array(
    [[-1.44269979, -1.346e-05, -8.33e-06, -1.44268924],
     [-1.346e-05, -4.658e-05, -2.76e-06, 1.044e-05],
     [-8.33e-06, -2.76e-06, -4.662e-05, 1.561e-05],
     [-1.44268924, 1.044e-05, 1.561e-05, -1.44270188]])
    + 1j * np.array(
    [[0.0, 7.89e-06, -1.267e-05, 2.08e-06],
     [-7.89e-06, 0.0, -4.651e-05, 1.466e-05],
     [1.267e-05, 4.651e-05, 0.0, -9.86e-06],
     [-2.08e-06, -1.466e-05, 9.86e-06, 0.0]]))


def test_sep_lmo_newton_finish_leaves_the_valley(eigh_widths):
    fam = SeparableHullFamily(4, 1, dim_a=2, dim_b=2)
    g = BELL_VALLEY_GRAD
    sweeps = []
    plain = sequential_seesaw_lmo(fam, g, 0, newton=False, sweeps=sweeps)
    assert sweeps.count(fam.seesaw_iters) >= 16
    eigh_widths.clear()
    out = fam.lmo(g, seed=0)
    # two eigh calls per sweep and one per Newton step, over all restarts
    assert len(eigh_widths) <= 3 * 10
    val = float(np.einsum("ij,ji->", g, out).real)
    assert val <= float(np.einsum("ij,ji->", g, plain).real) + 1e-12
    # the returned pair is stationary on the product of spheres
    u, _, vh = np.linalg.svd(np.linalg.eigh(out)[1][:, -1].reshape(2, 2))
    a, b = u[:, 0], vh[0]
    g4 = g.reshape(2, 2, 2, 2)
    m_b = np.einsum("ijkl,j,l->ik", g4, b.conj(), b)
    m_a = np.einsum("ijkl,i,k->jl", g4, a.conj(), a)
    bound = 1e-8 * np.linalg.norm(g, 2)
    assert np.linalg.norm(m_b @ a - a * (a.conj() @ m_b @ a)) <= bound
    assert np.linalg.norm(m_a @ b - b * (b.conj() @ m_a @ b)) <= bound


LMO_FAMILIES = {
    "diagonal": DiagonalFamily(2, 2),
    "iid": SingletonIIDFamily(2, 2, sigma0=np.diag([0.7, 0.3])),
    "full": FullSpaceFamily(4, 1),
    "sep": SeparableHullFamily(4, 1, dim_a=2, dim_b=2, n_restarts=8),
}


@pytest.mark.parametrize("kind", sorted(LMO_FAMILIES))
def test_lmo_contract(kind):
    # a plain matrix of the family's dimension that validates as a state,
    # is a member, and is no worse than any member on the linear objective
    fam = LMO_FAMILIES[kind]
    rng = np.random.default_rng(29)
    slack = fam.seesaw_tol if kind == "sep" else 1e-12
    for _ in range(3):
        g = rand.random_hermitian(rng, fam.shape).mat
        out = fam.lmo(g, seed=0)
        assert type(out) is np.ndarray
        assert out.shape == (fam.total_dim, fam.total_dim)
        assert fam.membership(opalg.density(out, fam.shape.dims),
                              fam.membership_check_tol)
        val = float(np.einsum("ij,ji->", g, out).real)
        for _ in range(10):
            m = fam.random_member(rng).mat
            assert val <= float(np.einsum("ij,ji->", g, m).real) + slack


@pytest.mark.parametrize("fam", [
    DiagonalFamily(2, 2), DiagonalFamily(3, 1),
    SingletonIIDFamily(2, 2, sigma0=np.diag([0.8, 0.2])),
    FullSpaceFamily(3, 1), FullSpaceFamily(2, 2),
    SeparableHullFamily(4, 1, dim_a=2, dim_b=2),
    SeparableHullFamily(6, 1, dim_a=2, dim_b=3)],
    ids=["diagonal-2-2", "diagonal-3-1", "iid-2-2", "full-3-1", "full-2-2",
         "sep-2x2", "sep-2x3"])
def test_random_member_is_a_state_and_a_member(fam):
    # random_member is not validated; this pins what validation would check
    rng = np.random.default_rng(17)
    for _ in range(5):
        member = fam.random_member(rng)
        assert member.shape == fam.shape
        assert np.linalg.eigvalsh(member.mat)[0] >= -opalg.PSD_TOL
        assert abs(member.trace() - 1.0) <= opalg.TRACE_TOL
        assert fam.membership(member, fam.membership_check_tol)


class TestWitness:
    def test_diagonal(self):
        fam = DiagonalFamily(2, 2)
        w = fam.full_rank_witness()
        assert abs(w.lambda_min() - 0.25) < 1e-14

    def test_singleton_product_eigenvalues(self):
        fam = SingletonIIDFamily(2, 3, sigma0=np.diag([0.9, 0.1]))
        w = fam.full_rank_witness()
        assert abs(w.lambda_min() - 1e-3) < 1e-12

    def test_singular_sigma0_rejected(self):
        fam = SingletonIIDFamily(2, 2, sigma0=np.diag([1.0, 0.0]))
        with pytest.raises(NoFullRankMember):
            fam.full_rank_witness()


class TestProperties:
    @pytest.mark.parametrize("prop", [1, 2, 3, 4, 5])
    def test_diagonal_all_properties(self, prop):
        rep = check_property(DiagonalFamily(2, 2), prop, trials=40, seed=5)
        assert rep.passed, f"property {prop}: {rep.worst}"

    def test_singleton_tensor_power(self):
        fam = SingletonIIDFamily(2, 1, sigma0=np.diag([0.8, 0.2]))
        rep = check_property(fam, 4, trials=10, seed=1)
        assert rep.passed

    def test_full_space(self):
        for prop in (1, 2, 3, 4, 5):
            assert check_property(FullSpaceFamily(3, 1), prop, 15, 2).passed

    def test_separable_partial_trace(self):
        fam = SeparableHullFamily(4, 1, dim_a=2, dim_b=2, n_restarts=6)
        rep = check_property(fam, 3, trials=6, seed=3)
        assert rep.passed

    def test_bad_property_id(self):
        with pytest.raises(ValueError):
            check_property(DiagonalFamily(2, 1), 6, 1, 0)


class TestParse:
    def test_diagonal(self):
        fam = parse_family_spec("diagonal", 2, 3)
        assert fam.kind == "diagonal" and fam.copies == 3

    def test_full(self):
        assert parse_family_spec("full", 4, 1).kind == "full"

    def test_iid_roundtrip(self, tmp_path):
        path = tmp_path / "sigma0.op"
        opalg.save_operator(opalg.density(np.diag([0.5, 0.5])), str(path))
        fam = parse_family_spec(f"iid:{path}", 2, 2)
        assert fam.kind == "iid"
        assert np.allclose(fam.sigma0, np.eye(2) / 2)

    def test_sep(self):
        fam = parse_family_spec("sep:2x2", 4, 1)
        assert fam.kind == "sep" and (fam.dim_a, fam.dim_b) == (2, 2)

    def test_sep_dim_mismatch(self):
        with pytest.raises(ShapeMismatch):
            parse_family_spec("sep:2x3", 4, 1)

    @pytest.mark.parametrize("spec", ["sep:-2x-2", "sep:-1x-4", "sep:0x4"])
    def test_sep_nonpositive_factor(self, spec):
        with pytest.raises(ValueError, match=spec):
            parse_family_spec(spec, 4, 1)
        da, db = (int(x) for x in spec[4:].split("x"))
        with pytest.raises(ShapeMismatch):
            SeparableHullFamily(4, 1, dim_a=da, dim_b=db)

    def test_unknown(self):
        with pytest.raises(ValueError):
            parse_family_spec("magic", 2, 1)


class TestTypeClassOracle:
    """``typeclass.TypeClassCoords.lmo``, the linear oracle over the
    invariant members, asked with the class averages of a dense gradient
    and read back as a dense matrix."""

    @staticmethod
    def _answer(fam, g):
        base = opalg.maximally_mixed(SystemShape((fam.base_dim,)))
        coords = typeclass.TypeClassCoords.of(fam,
                                              opalg.Power(base, fam.copies))
        return coords.dense(coords.lmo(coords.weights(g) / coords.sizes))

    def test_output_is_member(self):
        fam = DiagonalFamily(3, 3)
        rng = np.random.default_rng(17)
        for _ in range(20):
            g = rand.random_hermitian(rng, fam.shape).mat
            out = opalg.density(self._answer(fam, g), fam.shape.dims)
            assert fam.membership(out, 1e-8)

    def test_picks_least_class_mean(self):
        fam = DiagonalFamily(2, 3)
        rng = np.random.default_rng(17)
        for _ in range(20):
            g = rand.random_hermitian(rng, fam.shape).mat
            diag = np.diag(g).real
            weight = [bin(i).count("1") for i in range(8)]
            means = [np.mean([diag[i] for i in range(8) if weight[i] == k])
                     for k in range(4)]
            val = float(np.einsum("ij,ji->", g, self._answer(fam, g)).real)
            assert abs(val - min(means)) < 1e-13

    def test_matches_vertex_oracle_on_invariant_grad(self):
        fam = DiagonalFamily(2, 3)
        rng = np.random.default_rng(17)
        for _ in range(20):
            g = symmetry.twirl(rand.random_hermitian(rng, fam.shape)).mat
            val = float(np.einsum("ij,ji->", g, self._answer(fam, g)).real)
            vertex = float(np.einsum("ij,ji->", g, fam.lmo(g)).real)
            assert abs(vertex - float(np.diag(g).real.min())) < 1e-13
            assert abs(val - vertex) < 1e-13
