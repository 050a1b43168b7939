import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qstein import entropy, opalg, optim, rand
from qstein.errors import (DimensionCap, NegativeEigenvalue,
                           NotTracePreserving, ShapeMismatch, SingularSigma)
from qstein.freesets import DiagonalFamily
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

    def test_drop_reads_any_iterable_once(self):
        # a one-shot iterable is consumed by its first pass
        s = SystemShape((2, 3, 4, 5))
        assert s.drop(i for i in (0, 1)).dims == (4, 5)
        assert s.drop(iter([2])).dims == (2, 3, 5)
        assert s.drop([0, 3]).dims == (3, 4)
        assert s.drop(range(1, 4)).dims == (2,)
        assert s.drop(range(4)).dims == (1,)

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

    def test_density_rejects_nan(self):
        # every comparison with NaN is False, so the PSD and trace checks
        # alone let it through
        with pytest.raises(ValueError, match="non-finite"):
            opalg.density(np.array([[0.5, np.nan], [np.nan, 0.5]]))

    def test_pure_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            opalg.PureState(SystemShape((2,)), np.array([1.0, np.nan]))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            opalg.operator(np.eye(3), dims=(2,))


class TestDensityMatrix:
    def test_is_an_operator_taken_without_unwrapping(self):
        rho = opalg.density(np.diag([0.75, 0.25]))
        assert isinstance(rho, opalg.HermitianOperator)
        power = opalg.tensor_power(rho, 2)
        assert power.shape.dims == (2, 2)
        assert np.array_equal(power.mat, np.kron(rho.mat, rho.mat))
        assert abs(opalg.fidelity(rho, rho) - 1.0) < 1e-12
        # a diagonal state is free, so its threshold value at b = 1 is 0
        res = optim.min_positive_part(rho, 1.0, DiagonalFamily(2, 1))
        assert res.value <= 1e-12

    @pytest.mark.parametrize("mat, exc, message", [
        (np.array([[0.5, np.nan], [np.nan, 0.5]]), ValueError,
         "density matrix has non-finite entries"),
        (np.diag([1.2, -0.2]), NegativeEigenvalue,
         "density matrix has eigenvalue -2.000e-01 below -1e-10"),
        (np.diag([0.7, 0.7]), ValueError,
         "density matrix trace 1.4 deviates from 1"),
    ], ids=["non-finite", "negative", "trace"])
    def test_constructor_checks_the_state(self, mat, exc, message):
        with pytest.raises(exc, match=re.escape(message)):
            opalg.DensityMatrix(SystemShape((2,)), mat)


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

    def test_rank_one_q_matches_dilation(self, monkeypatch):
        # a q supported on one eigenvector takes sqrt(lam <v|p|v>): one
        # eigendecomposition, equal to the square roots and the dilation
        rng = np.random.default_rng(5)
        calls = []

        def spy(m, _eigh=np.linalg.eigh):
            calls.append(m.shape)
            return _eigh(m)
        monkeypatch.setattr(np.linalg, "eigh", spy)
        for n in range(2, 33):
            p = rand.random_density(rng, SystemShape((n,)))
            a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            q = opalg.operator(rng.uniform(0.1, 2.0) * np.outer(a, a.conj())
                               / np.vdot(a, a).real)
            calls.clear()
            got = opalg.fidelity(p, q)
            assert calls == [(n, n)]
            want = opalg.trace_norm_mat(opalg.sqrt_psd(p.mat)
                                        @ opalg.sqrt_psd(q.mat))
            assert abs(got - want) < 1e-12

    def test_rank_one_q_rejects_non_psd_p(self):
        with pytest.raises(NegativeEigenvalue):
            opalg.fidelity(opalg.operator(np.diag([-0.5, 1.0])),
                           opalg.operator(np.diag([1.0, 0.0])))


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


class TestSupportCutoff:
    """The support rule: an eigenvalue is a numerical zero unless it exceeds
    SUPPORT_CUTOFF times the largest."""

    # eigenvalues 1% below and 1% above the cutoff, beside the top one
    top = 1.0 - 2e-12
    below = 0.99 * opalg.SUPPORT_CUTOFF
    above = 1.01 * opalg.SUPPORT_CUTOFF

    def spectrum(self):
        return np.diag([self.top, self.above, self.below])

    def test_sqrt_psd(self):
        out = opalg.sqrt_psd(self.spectrum())
        assert abs(out[1, 1] - math.sqrt(self.above)) <= 1e-12 * out[1, 1]
        assert out[2, 2] == 0.0

    def test_pinv_sqrt_psd(self):
        out = opalg.pinv_sqrt_psd(self.spectrum())
        assert abs(out[1, 1] - 1.0 / math.sqrt(self.above)) <= 1e-6
        assert out[2, 2] == 0.0

    def test_log2_on_support(self):
        out = opalg.log2_on_support(opalg.operator(self.spectrum())).mat
        assert abs(out[1, 1] - math.log2(self.above)) <= 1e-12
        assert out[2, 2] == 0.0

    def test_support_ray(self):
        rng = np.random.default_rng(41)
        v = rand.random_pure(rng, SystemShape((3,)))
        ray = opalg.support_ray(v.projector().mat)
        # rays are compared as projectors, so the phase does not count
        assert_allclose(np.outer(ray, ray.conj()), v.projector().mat,
                        atol=1e-12)
        chopped = opalg.support_ray(np.diag([self.top, self.below]))
        assert_allclose(np.abs(chopped), [1.0, 0.0], atol=1e-12)
        w = rand.random_pure(rng, SystemShape((3,))).vec
        w = w - v.vec * np.vdot(v.vec, w)
        w /= np.linalg.norm(w)
        for eps in (self.above, 1e-10):
            mixed = ((1.0 - eps) * v.projector().mat
                     + eps * np.outer(w, w.conj()))
            assert opalg.support_ray(mixed) is None

    def test_log2_of_zero_operator_is_zero(self):
        for m in (np.zeros((2, 2)), -np.eye(2)):
            out = opalg.log2_on_support(opalg.operator(m))
            assert np.array_equal(out.mat, np.zeros((2, 2)))

    def test_relative_entropy_support_test(self):
        sigma = opalg.density(self.spectrum())
        kept = entropy.relative_entropy(opalg.density(np.diag([0.0, 1.0, 0.0])),
                                        sigma)
        assert math.isfinite(kept)
        assert abs(kept + math.log2(self.above)) <= 1e-12
        chopped = entropy.relative_entropy(
            opalg.density(np.diag([0.0, 0.0, 1.0])), sigma)
        assert chopped == math.inf

    def test_relent_upper_bound(self):
        with pytest.raises(SingularSigma):
            entropy.relent_upper_bound(
                opalg.density(np.diag([1.0 - self.below, self.below])))
        kept = opalg.density(np.diag([1.0 - self.above, self.above]))
        assert entropy.relent_upper_bound(kept) == -math.log2(self.above)


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


class TestPower:
    def test_refuses_a_power_past_the_cap(self):
        # past N of about 48 the closed form on a pure power returns values
        # out of [0, 1], so a power is refused where the dense cap ends
        v = np.array([math.sqrt(0.8), math.sqrt(0.2)])
        coherence = opalg.density(np.outer(v, v))
        assert opalg.Power(coherence, 12).total_dim == opalg.DENSE_DIM_CAP
        with pytest.raises(DimensionCap):
            opalg.Power(coherence, 13)


class TestDtypeFollowsData:
    """A matrix is as real as its data: real input gives real matrices,
    complex input complex ones."""

    REAL = np.array([[0.7, 0.2], [0.2, 0.3]])
    COMPLEX = np.array([[0.7, 0.2j], [-0.2j, 0.3]])

    @pytest.mark.parametrize("make", [opalg.operator, opalg.density])
    def test_operator_and_density(self, make):
        assert make(self.REAL).mat.dtype == np.float64
        assert make(self.COMPLEX).mat.dtype == np.complex128

    def test_promoted_to_float64(self):
        for dtype in (int, np.float32):
            op = opalg.operator(np.eye(2, dtype=dtype))
            assert op.mat.dtype == np.float64

    def test_power(self):
        for data, dtype in ((self.REAL, np.float64),
                            (self.COMPLEX, np.complex128)):
            assert opalg.Power(opalg.density(data), 3).mat.dtype == dtype


class TestComplement:
    @pytest.mark.parametrize("d", range(2, 7))
    def test_completes_to_unitary(self, d):
        # [v, complement(v)] is unitary with first column v, for one vector
        # and for each row of a stack
        rng = np.random.default_rng(d)
        vs = rng.standard_normal((5, d)) + 1j * rng.standard_normal((5, d))
        vs /= np.linalg.norm(vs, axis=1, keepdims=True)
        stacked = opalg.complement(vs)
        assert stacked.shape == (5, d, d - 1)
        for v, q in zip(vs, stacked):
            for basis in (q, opalg.complement(v)):
                u = np.column_stack([v, basis])
                assert np.array_equal(u[:, 0], v)
                assert np.abs(u.conj().T @ u - np.eye(d)).max() <= 1e-14


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

    def _check(self, stack, real):
        # real eigenvectors for a real or numerically real stack, complex
        # ones for a complex stack
        w, v = opalg.eigh(stack)
        assert w.shape == (self.K, self.N)
        assert v.shape == (self.K, self.N, self.N)
        assert np.iscomplexobj(v) != real
        for m, wk, vk in zip(stack, w, v):
            w1, v1 = opalg.eigh(m)
            assert_allclose(wk, w1, rtol=0, atol=1e-14)
            assert_allclose(_projectors(vk), _projectors(v1), rtol=0,
                            atol=1e-12)

    def _real_sym(self):
        g = RNG.standard_normal((self.K, self.N, self.N))
        return 0.25 * (g + g.mT)

    def test_real_stack(self):
        self._check(self._real_sym(), real=True)

    def test_complex_stack(self):
        self._check(np.stack([rand_herm(self.N) for _ in range(self.K)]),
                    real=False)

    def test_nearly_real_stack_takes_the_real_path(self):
        noise = 1e-15 * RNG.standard_normal((self.K, self.N, self.N))
        stack = self._real_sym() + 1j * (noise - noise.mT)
        self._check(stack, real=True)
        w, _ = opalg.eigh(stack)
        assert_allclose(w, opalg.eigh(stack.real)[0], rtol=0, atol=0)

    def test_one_complex_matrix_sends_the_stack_complex(self):
        # the real-path test is taken over the whole stack, so nearly-real
        # members go the complex path here but agree with their single calls
        noise = 1e-15 * RNG.standard_normal((self.K, self.N, self.N))
        stack = self._real_sym() + 1j * (noise - noise.mT)
        stack[3] = rand_herm(self.N)
        self._check(stack, real=False)


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
        opalg.save_operator(rho, str(path))
        assert np.array_equal(opalg.load_density(str(path)).mat, rho.mat)

    def test_exact_text(self, tmp_path):
        # upper triangle, row by row; zero entries are skipped, a nonzero
        # entry with a zero part prints that part as 0.0
        mat = np.array([[0.5, 0.0, -0.25 + 0.125j],
                        [0.0, -1.5, 0.3j],
                        [-0.25 - 0.125j, -0.3j, 0.1]])
        path = tmp_path / "op.txt"
        opalg.save_operator(opalg.operator(mat, (1, 3)), str(path))
        assert path.read_text() == (
            "dims: 1,3\n0 0 0.5 0.0\n0 2 -0.25 0.125\n1 1 -1.5 0.0\n"
            "1 2 0.0 0.3\n2 2 0.1 0.0\n")

    def test_real_file_loads_real(self, tmp_path):
        # a file whose imaginary column is all 0 loads as a real matrix, one
        # nonzero imaginary part keeps it complex; either saves back the
        # bytes it was read from
        path, back = tmp_path / "op.txt", tmp_path / "back.txt"
        for im, dtype in (("0.0", np.float64), ("0.125", np.complex128)):
            path.write_text(f"dims: 2\n0 0 0.7 0.0\n0 1 0.2 {im}\n"
                            "1 1 0.3 0.0\n")
            op = opalg.load_operator(str(path))
            assert op.mat.dtype == dtype
            opalg.save_operator(op, str(back))
            assert back.read_bytes() == path.read_bytes()

    def test_missing_header(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 0 1.0 0.0\n")
        with pytest.raises(ValueError):
            opalg.load_operator(str(path))

    @pytest.mark.parametrize("line", ["-1 0 0.25 0.0", "0 -2 0.25 0.0",
                                      "2 0 0.25 0.0", "0 5 0.25 0.0",
                                      "0 1 0.25", "0 1 0.25 0.0 7",
                                      "1.5 1 0.25 0.0", "0 0 abc 0",
                                      "dims: 2,x"])
    def test_rejects_bad_entry_line(self, tmp_path, line):
        # a negative index would wrap to another entry, a large one would
        # escape as IndexError, and a field that is no number would raise
        # a message that names no line; a bad header is the file's line 4
        # after comments and blank lines
        path = tmp_path / "bad.txt"
        head = ("# comment\n\n\n" if line.startswith("dims:")
                else "dims: 2\n# comment\n0 0 0.75 0.0\n")
        path.write_text(f"{head}{line}\n")
        with pytest.raises(ValueError, match=r"bad\.txt:4"):
            opalg.load_operator(str(path))

    def test_nan_entry_loads_no_state(self, tmp_path):
        path = tmp_path / "nan.txt"
        path.write_text("dims: 2\n0 0 0.5 0.0\n0 1 nan 0.0\n1 1 0.5 0.0\n")
        with pytest.raises(ValueError, match="non-finite"):
            opalg.load_density(str(path))
