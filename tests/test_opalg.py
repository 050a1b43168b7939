import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qstein import opalg, rand
from qstein.errors import (NegativeEigenvalue, NotTracePreserving,
                           ShapeMismatch)
from qstein.opalg import SystemShape

from oracles import kron_index_formula, partial_trace_index_sum

RNG = np.random.default_rng(20240811)


def rand_herm(n):
    g = RNG.standard_normal((n, n)) + 1j * RNG.standard_normal((n, n))
    return 0.5 * (g + g.conj().T)


def rand_state(n):
    g = RNG.standard_normal((n, n)) + 1j * RNG.standard_normal((n, n))
    m = g @ g.conj().T
    return m / np.trace(m).real


class TestShapesAndTypes:
    def test_shape_product(self):
        s = SystemShape((2, 3, 4))
        assert s.total_dim == 24
        assert s.drop([1]).dims == (2, 4)

    def test_shape_rejects_bad_dims(self):
        with pytest.raises(ValueError):
            SystemShape((2, 0))

    def test_hermitian_symmetrized_at_construction(self):
        m = np.array([[1.0, 1.0], [0.0, 2.0]])
        op = opalg.operator(m)
        assert np.abs(op.mat - op.mat.conj().T).max() <= 1e-12

    def test_density_rejects_negative(self):
        with pytest.raises(NegativeEigenvalue):
            opalg.density(np.diag([1.1, -0.1]))

    def test_density_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            opalg.density(np.diag([0.6, 0.6]))

    def test_pure_norm(self):
        with pytest.raises(ValueError):
            opalg.PureState(SystemShape((2,)), np.array([1.0, 1.0]))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            opalg.operator(np.eye(3), dims=(2,))


class TestTensor:
    def test_identity_case(self):
        i2 = opalg.identity(SystemShape((2,)))
        t = opalg.tensor(i2, i2)
        assert t.shape.dims == (2, 2)
        assert_allclose(t.mat, np.eye(4))

    def test_basis_projectors(self):
        a = opalg.operator(np.diag([1.0, 0.0]))
        b = opalg.operator(np.diag([0.0, 1.0]))
        assert_allclose(opalg.tensor(a, b).mat, np.diag([0.0, 1.0, 0.0, 0.0]))

    def test_against_index_formula(self):
        a, b = rand_herm(2), rand_herm(2)
        got = opalg.tensor(opalg.operator(a), opalg.operator(b)).mat
        assert_allclose(got, kron_index_formula(a, b), atol=1e-14)


class TestPartialTrace:
    def test_product_state(self):
        rho, sigma = rand_state(2), rand_state(3)
        full = opalg.tensor(opalg.operator(rho), opalg.operator(sigma, (3,)))
        red = opalg.partial_trace(full, [1])
        assert_allclose(red.mat, rho, atol=1e-13)

    def test_bell_marginal(self):
        v = np.zeros(4)
        v[0] = v[3] = 1.0 / math.sqrt(2.0)
        bell = opalg.operator(np.outer(v, v), (2, 2))
        red = opalg.partial_trace(bell, [1])
        assert_allclose(red.mat, np.eye(2) / 2, atol=1e-14)

    def test_against_index_sum(self):
        rho = rand_state(4)
        op = opalg.operator(rho, (2, 2))
        for drop in (0, 1):
            got = opalg.partial_trace(op, [drop]).mat
            want = partial_trace_index_sum(rho, (2, 2), drop)
            assert_allclose(got, want, atol=1e-13)

    def test_trace_preserved(self):
        op = opalg.operator(rand_herm(8), (2, 2, 2))
        red = opalg.partial_trace(op, [0, 2])
        assert red.shape.dims == (2,)
        assert abs(red.trace() - op.trace()) < 1e-12

    def test_index_out_of_range(self):
        op = opalg.operator(rand_herm(4), (2, 2))
        with pytest.raises(IndexError):
            opalg.partial_trace(op, [2])

    def test_pure_state_reduction(self):
        v = rand.random_pure(RNG, SystemShape((2, 3)))
        direct = opalg.partial_trace(v.projector(), [0]).mat
        fast = opalg.partial_trace_pure(v, [0]).mat
        assert_allclose(direct, fast, atol=1e-13)


class TestPositivePart:
    def test_diagonal_case(self):
        out = opalg.positive_part(opalg.operator(np.diag([0.3, -0.1])))
        assert_allclose(out.mat, np.diag([0.3, 0.0]), atol=1e-15)

    def test_psd_unchanged(self):
        rho = rand_state(4)
        assert_allclose(opalg.positive_part(opalg.operator(rho)).mat, rho,
                        atol=1e-12)

    def test_eigendecomposition_oracle(self):
        a = rand_herm(5)
        w, v = np.linalg.eigh(a)  # independent route
        want = (v * np.where(w > 0, w, 0.0)) @ v.conj().T
        got = opalg.positive_part(opalg.operator(a, (5,))).mat
        assert_allclose(got, want, atol=1e-10)

    def test_result_dominates_input(self):
        a = opalg.operator(rand_herm(6), (6,))
        p = opalg.positive_part(a)
        assert (p - a).lambda_min() >= -1e-12
        assert p.lambda_min() >= -1e-12


class TestTraceNorm:
    def test_zero(self):
        rho = opalg.operator(rand_state(3), (3,))
        assert opalg.trace_norm(rho - rho) == 0.0

    def test_orthogonal_pure(self):
        d = opalg.operator(np.diag([1.0, -1.0]))
        assert abs(opalg.trace_norm(d) - 2.0) < 1e-14

    def test_eigenvalue_oracle(self):
        a = rand_herm(6)
        want = float(np.abs(np.linalg.eigvalsh(a)).sum())
        assert abs(opalg.trace_norm(opalg.operator(a, (6,))) - want) < 1e-12

    def test_general_matrix_singular_values(self):
        g = RNG.standard_normal((5, 5)) + 1j * RNG.standard_normal((5, 5))
        want = float(np.linalg.svd(g, compute_uv=False).sum())
        assert abs(opalg.trace_norm_mat(g) - want) < 1e-10


class TestFidelity:
    def test_self(self):
        rho = opalg.density(rand_state(4), (4,))
        assert abs(opalg.fidelity(rho, rho) - 1.0) < 1e-10

    def test_pure_states(self):
        a = rand.random_pure(RNG, SystemShape((3,)))
        b = rand.random_pure(RNG, SystemShape((3,)))
        want = abs(np.vdot(a.vec, b.vec))
        got = opalg.fidelity(a.projector(), b.projector())
        assert abs(got - want) < 1e-10

    def test_commuting_formula(self):
        got = opalg.fidelity(opalg.density(np.diag([0.75, 0.25])),
                             opalg.density(np.diag([0.5, 0.5])))
        want = math.sqrt(0.375) + math.sqrt(0.125)
        assert abs(got - want) < 1e-12
        assert abs(want - 0.96593) < 5e-6

    def test_rejects_non_psd(self):
        with pytest.raises(NegativeEigenvalue):
            opalg.fidelity(opalg.operator(np.diag([1.0, -0.5])),
                           opalg.operator(np.eye(2)))


class TestLog2OnSupport:
    def test_maximally_mixed(self):
        out = opalg.log2_on_support(opalg.operator(np.eye(2) / 2))
        assert_allclose(out.mat, -np.eye(2), atol=1e-14)

    def test_rank_one(self):
        out = opalg.log2_on_support(opalg.operator(np.diag([1.0, 0.0])))
        assert_allclose(out.mat, np.zeros((2, 2)), atol=1e-14)

    def test_exp_log_roundtrip(self):
        rho = rand_state(4) + 0.1 * np.eye(4)
        rho /= np.trace(rho).real
        lg = opalg.log2_on_support(opalg.operator(rho, (4,))).mat
        w, v = np.linalg.eigh(lg)
        back = (v * (2.0 ** w)) @ v.conj().T
        assert_allclose(back, rho, atol=1e-10)


class TestApplyKraus:
    def test_identity_channel(self):
        a = opalg.operator(rand_herm(3), (3,))
        out = opalg.apply_kraus(a, [np.eye(3)])
        assert_allclose(out.mat, a.mat, atol=1e-14)

    def test_full_dephasing(self):
        plus = opalg.operator(0.5 * np.ones((2, 2)))
        kraus = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        assert_allclose(opalg.apply_kraus(plus, kraus).mat, np.eye(2) / 2,
                        atol=1e-14)

    def test_trace_preserved(self):
        rho = opalg.operator(rand_state(4), (4,))
        kraus = rand.random_kraus_channel(RNG, 4)
        out = opalg.apply_kraus(rho, kraus)
        assert abs(out.trace() - 1.0) < 1e-12

    def test_completeness_enforced(self):
        with pytest.raises(NotTracePreserving):
            opalg.apply_kraus(opalg.operator(np.eye(2)), [0.5 * np.eye(2)])


class TestPermute:
    def test_identity(self):
        a = opalg.operator(rand_herm(4), (2, 2))
        assert_allclose(opalg.permute_subsystems(a, [0, 1]).mat, a.mat)

    def test_swap_product(self):
        rho, sigma = rand_state(2), rand_state(2)
        ab = opalg.tensor(opalg.operator(rho), opalg.operator(sigma))
        ba = opalg.permute_subsystems(ab, [1, 0])
        assert_allclose(ba.mat, np.kron(sigma, rho), atol=1e-13)

    def test_cycle_group_law(self):
        a = opalg.operator(rand_herm(8), (2, 2, 2))
        fwd = opalg.permute_subsystems(a, [1, 2, 0])
        back = opalg.permute_subsystems(fwd, [2, 0, 1])
        assert np.abs(back.mat - a.mat).max() < 1e-14

    def test_rejects_non_permutation(self):
        a = opalg.operator(rand_herm(4), (2, 2))
        with pytest.raises(ValueError):
            opalg.permute_subsystems(a, [0, 0])


class TestKronPower:
    @pytest.mark.parametrize("shape", [(3,), (2, 2)])
    def test_equals_kron_loop(self, shape):
        x = RNG.standard_normal(shape) + 1j * RNG.standard_normal(shape)
        want = np.ones((1,) * len(shape), dtype=complex)
        for n in range(4):
            assert np.array_equal(opalg.kron_power(x, n), want)
            want = np.kron(want, x)


class TestPairRegrouping:
    # two (a, b) pairs with da = 2, db = 3: pair order a1 b1 a2 b2
    DA, DB, N = 2, 3, 2
    TO_BLOCKS = [0, 2, 1, 3]

    def test_vector_roundtrip_and_permute_pure(self):
        vec = RNG.standard_normal(36) + 1j * RNG.standard_normal(36)
        blocks = opalg.pairs_to_blocks(vec, self.DA, self.DB, self.N)
        assert np.array_equal(
            opalg.blocks_to_pairs(blocks, self.DA, self.DB, self.N), vec)
        v = opalg.pure(vec, (self.DA, self.DB) * self.N)
        moved = opalg.permute_pure(v, self.TO_BLOCKS)
        assert moved.shape.dims == (2, 2, 3, 3)
        assert np.array_equal(moved.vec, blocks / np.linalg.norm(vec))

    def test_matrix_roundtrip_and_permute_subsystems(self):
        mat = rand_herm(36)
        blocks = opalg.pairs_to_blocks(mat, self.DA, self.DB, self.N)
        assert np.array_equal(
            opalg.blocks_to_pairs(blocks, self.DA, self.DB, self.N), mat)
        a = opalg.operator(mat, (self.DA, self.DB) * self.N)
        assert np.array_equal(
            opalg.permute_subsystems(a, self.TO_BLOCKS).mat, blocks)

    def test_product_regrouping(self):
        a = [RNG.standard_normal(self.DA) for _ in range(self.N)]
        b = [RNG.standard_normal(self.DB) for _ in range(self.N)]
        pairs = np.kron(np.kron(a[0], b[0]), np.kron(a[1], b[1]))
        blocks = np.kron(np.kron(a[0], a[1]), np.kron(b[0], b[1]))
        assert_allclose(
            opalg.pairs_to_blocks(pairs, self.DA, self.DB, self.N), blocks)


def _projectors(v):
    # one rank-one eigenprojector per column: free of the eigenvectors' phases
    return np.einsum("...ik,...jk->...kij", v, v.conj())


class TestEighStacks:
    K, N = 7, 4

    def _check(self, stack):
        w, v = opalg.eigh(stack)
        assert w.shape == (self.K, self.N)
        assert v.shape == (self.K, self.N, self.N)
        assert np.iscomplexobj(v)
        for m, wk, vk in zip(stack, w, v):
            w1, v1 = opalg.eigh(m)
            assert_allclose(wk, w1, rtol=0, atol=1e-14)
            assert_allclose(_projectors(vk), _projectors(v1), rtol=0,
                            atol=1e-12)

    def _real_sym(self):
        g = RNG.standard_normal((self.K, self.N, self.N))
        return 0.25 * (g + g.mT)

    def test_real_stack(self):
        self._check(self._real_sym())

    def test_complex_stack(self):
        self._check(np.stack([rand_herm(self.N) for _ in range(self.K)]))

    def test_nearly_real_stack_takes_the_real_path(self):
        noise = 1e-15 * RNG.standard_normal((self.K, self.N, self.N))
        stack = self._real_sym() + 1j * (noise - noise.mT)
        self._check(stack)
        w, _ = opalg.eigh(stack)
        assert_allclose(w, opalg.eigh(stack.real)[0], rtol=0, atol=0)

    def test_one_complex_matrix_sends_the_stack_complex(self):
        # the real-path test is taken over the whole stack, so nearly-real
        # members go the complex path here but agree with their single calls
        noise = 1e-15 * RNG.standard_normal((self.K, self.N, self.N))
        stack = self._real_sym() + 1j * (noise - noise.mT)
        stack[3] = rand_herm(self.N)
        self._check(stack)


class TestNormalizedPositivePart:
    def test_fallback_on_negative_semidefinite(self):
        fallback = np.eye(3) / 3
        neg = -rand_state(3)
        assert opalg.normalized_positive_part(neg, fallback) is fallback
        assert opalg.normalized_positive_part(np.zeros((3, 3)),
                                              fallback) is fallback

    def test_unit_trace_positive_part(self):
        m = np.diag([0.5, -0.2, 1.5])
        out = opalg.normalized_positive_part(m, None)
        assert_allclose(out, np.diag([0.25, 0.0, 0.75]), atol=1e-15)


class TestSerialization:
    def test_bit_exact_roundtrip(self, tmp_path):
        op = rand.random_hermitian(RNG, SystemShape((2, 3)))
        path = tmp_path / "op.txt"
        opalg.save_operator(op, str(path))
        back = opalg.load_operator(str(path))
        assert back.shape.dims == (2, 3)
        assert np.array_equal(back.mat, op.mat)

    def test_density_roundtrip(self, tmp_path):
        rho = rand.random_density(RNG, SystemShape((4,)))
        path = tmp_path / "rho.txt"
        opalg.save_density(rho, str(path))
        assert np.array_equal(opalg.load_density(str(path)).mat, rho.mat)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 0 1.0 0.0\n")
        with pytest.raises(ValueError):
            opalg.load_operator(str(path))
