import math

import numpy as np
import pytest

from qstein import opalg, rand, symmetry
from qstein.errors import NoFullRankMember, ShapeMismatch
from qstein.freesets import (DiagonalFamily, FullSpaceFamily,
                             SeparableHullFamily, SingletonIIDFamily,
                             check_property, parse_family_spec)
from qstein.opalg import SystemShape

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
    # the batched seesaw draws the same starts, stops each restart by the
    # same rule and keeps the first least value as the loop over restarts
    fam = SeparableHullFamily(4, copies, dim_a=2, dim_b=2,
                              n_restarts=n_restarts)
    rng = np.random.default_rng(100 * copies + n_restarts)
    for seed in range(6):
        g = rand.random_hermitian(rng, fam.shape).mat
        got = float(np.einsum("ij,ji->", g, fam.lmo(g, seed=seed)).real)
        want = float(np.einsum("ij,ji->", g,
                               sequential_seesaw_lmo(fam, g, seed)).real)
        assert abs(got - want) <= 1e-12


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
        assert rep.passed, f"property {prop}: {rep.worst_margin}"

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
        opalg.save_density(opalg.density(np.diag([0.5, 0.5])), str(path))
        fam = parse_family_spec(f"iid:{path}", 2, 2)
        assert fam.kind == "iid"
        assert np.allclose(fam.sigma0, np.eye(2) / 2)

    def test_sep(self):
        fam = parse_family_spec("sep:2x2", 4, 1)
        assert fam.kind == "sep" and (fam.dim_a, fam.dim_b) == (2, 2)

    def test_sep_dim_mismatch(self):
        with pytest.raises(ShapeMismatch):
            parse_family_spec("sep:2x3", 4, 1)

    def test_unknown(self):
        with pytest.raises(ValueError):
            parse_family_spec("magic", 2, 1)


class TestTypeClassOracle:
    def test_output_is_member(self):
        fam = DiagonalFamily(3, 3)
        rng = np.random.default_rng(17)
        for _ in range(20):
            g = rand.random_hermitian(rng, fam.shape).mat
            out = opalg.density(fam.type_class_lmo(g), fam.shape.dims)
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
            val = float(np.einsum("ij,ji->", g, fam.type_class_lmo(g)).real)
            assert abs(val - min(means)) < 1e-13

    def test_matches_vertex_oracle_on_invariant_grad(self):
        fam = DiagonalFamily(2, 3)
        rng = np.random.default_rng(17)
        for _ in range(20):
            g = symmetry.twirl(rand.random_hermitian(rng, fam.shape)).mat
            val = float(np.einsum("ij,ji->", g, fam.type_class_lmo(g)).real)
            vertex = float(np.einsum("ij,ji->", g, fam.lmo(g)).real)
            assert abs(vertex - float(np.diag(g).real.min())) < 1e-13
            assert abs(val - vertex) < 1e-13
