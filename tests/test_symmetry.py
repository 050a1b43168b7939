import itertools
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from qstein import opalg, rand, symmetry
from qstein.errors import (ConstructionFailed, NotPermutationInvariant,
                           PremiseFailed, ZeroOverlap)
from qstein.opalg import SystemShape

@pytest.mark.parametrize("n,d,want", [(3, 2, 4), (2, 3, 6), (1, 5, 5)])
def test_sym_dim(n, d, want):
    assert symmetry.sym_dim(n, d) == want


class TestClassCounts:
    """``_class_counts`` lists the type classes in ``type_classes``'
    order without the d^n labels, and ``power_coefficients`` is D^T a^{x n}
    from those counts."""

    @pytest.mark.parametrize("d,n", [(2, 1), (2, 7), (3, 4), (4, 3), (1, 3)])
    def test_matches_type_classes(self, d, n):
        labels, sizes = symmetry.type_classes(d, n)
        counts, count_sizes = symmetry._class_counts(d, n)
        digits = np.indices((d,) * n).reshape(n, -1)
        first = [int(np.flatnonzero(labels == t)[0])
                 for t in range(sizes.size)]
        for t, string in enumerate(first):
            assert counts[t].tolist() == [int((digits[:, string] == a).sum())
                                          for a in range(d)]
        assert np.array_equal(count_sizes, sizes)

    @pytest.mark.parametrize("d,n", [(2, 6), (3, 4)])
    def test_power_coefficients(self, d, n):
        vec = rand.random_pure(np.random.default_rng(5), SystemShape((d,))).vec
        u, sizes = symmetry.power_coefficients(vec, n)
        want = symmetry.sym_isometry(n, d).T @ opalg.kron_power(vec, n)
        assert np.abs(u - want).max() <= 1e-14
        assert np.array_equal(sizes, symmetry.type_classes(d, n)[1])


class TestSymProjector:
    def test_single_copy_identity(self):
        assert_allclose(symmetry.sym_projector(1, 3).mat, np.eye(3))

    def test_two_qubits(self):
        p = symmetry.sym_projector(2, 2)
        assert abs(p.trace() - 3.0) < 1e-12
        singlet = np.array([0.0, 1.0, -1.0, 0.0]) / math.sqrt(2.0)
        assert np.linalg.norm(p.mat @ singlet) < 1e-14

    def test_trace_equals_dimension(self):
        for n, d in [(3, 2), (4, 2), (2, 3)]:
            p = symmetry.sym_projector(n, d)
            assert abs(p.trace() - symmetry.sym_dim(n, d)) < 1e-8

    def test_idempotent(self):
        p = symmetry.sym_projector(3, 2).mat
        assert opalg.trace_norm(p @ p - p) < 1e-10

    def test_against_permutation_average(self):
        # independent oracle: (1/n!) sum of permutation unitaries
        n, d = 3, 2
        dims = (d,) * n
        acc = np.zeros((d ** n, d ** n))
        for perm in itertools.permutations(range(n)):
            u = np.zeros((d ** n, d ** n))
            for i in range(d ** n):
                idx = np.unravel_index(i, dims)
                j = int(np.ravel_multi_index([idx[k] for k in perm], dims))
                u[j, i] = 1.0
            acc += u
        acc /= math.factorial(n)
        assert_allclose(symmetry.sym_projector(n, d).mat, acc, atol=1e-12)


class TestAlmostPower:
    def test_r0_is_power(self):
        rng = np.random.default_rng(11)
        base = rand.random_pure(rng, SystemShape((2,)))
        v = symmetry.random_almost_power(rng, base, 3, 0)
        want = opalg.pure_power(base, 3).vec
        assert abs(abs(np.vdot(v.vec, want)) - 1.0) < 1e-12

    @staticmethod
    def _graded_draws():
        """(v, its components with exactly r factors off the base ray for
        r = 0..n, R) for draws at two (d, n, R)."""
        rng = np.random.default_rng(12)
        for d, n, R in [(2, 4, 2), (3, 3, 1)]:
            base = rand.random_pure(rng, SystemShape((d,)))
            v = symmetry.random_almost_power(rng, base, n, R)
            U, defects = symmetry._defect_frame(base, n)
            amps = symmetry._rotate_factors(v.vec.reshape((d,) * n),
                                            U.conj().T).reshape(-1)
            comps = [symmetry._rotate_factors(
                np.where(defects == r, amps, 0.0).reshape((d,) * n),
                U).reshape(-1) for r in range(n + 1)]
            yield v, comps, R

    def test_single_defect_orthogonal_to_power(self):
        # the defect components, the power's among them, are orthogonal
        for _, comps, _ in self._graded_draws():
            gram = np.array([[np.vdot(a, b) for b in comps] for a in comps])
            assert np.abs(gram - np.diag(np.diag(gram))).max() <= 1e-12

    def test_random_specs_live_in_sym_subspace(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            base = rand.random_pure(rng, SystemShape((2,)))
            v = symmetry.random_almost_power(rng, base, 4, 2)
            assert symmetry.sym_residual(v) < 1e-10

    def test_extraction_roundtrip(self):
        # nothing of a draw lies more than R factors off the base ray, and
        # its defect components sum back to it
        for v, comps, R in self._graded_draws():
            assert max(np.linalg.norm(c) for c in comps[R + 1:]) <= 1e-12
            assert np.abs(np.sum(comps, axis=0) - v.vec).max() <= 1e-12

    def test_spec_validates_normalization(self):
        base = opalg.pure(np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            symmetry.random_almost_power(np.random.default_rng(14), base, 2, 3)


@pytest.mark.parametrize("d,n", [(2, 5), (3, 3)])
def test_truncation_matches_dense_projector(d, n):
    # the masked frame equals the dense projector U^{xn} diag(defects <= R)
    # U^{xn dag} at every R
    rng = np.random.default_rng(15)
    base = rand.random_pure(rng, SystemShape((d,)))
    iso = symmetry.sym_isometry(n, d)
    coeff = (rng.standard_normal(iso.shape[1])
             + 1j * rng.standard_normal(iso.shape[1]))
    v = opalg.pure(iso @ coeff, (d,) * n)
    U, defects = symmetry._defect_frame(base, n)
    u_n = opalg.kron_power(U, n)
    for R in range(n + 1):
        proj = (u_n * (defects <= R)) @ u_n.conj().T
        want = proj @ v.vec
        out, _ = symmetry.truncate_to_almost_power(v, base, R)
        assert np.abs(out.vec - want / np.linalg.norm(want)).max() <= 1e-12


class TestTruncation:
    def test_already_truncated_unchanged(self):
        rng = np.random.default_rng(20)
        base = rand.random_pure(rng, SystemShape((2,)))
        v = symmetry.random_almost_power(rng, base, 4, 2)
        out, dist = symmetry.truncate_to_almost_power(v, base, 2)
        assert dist < 1e-12
        assert abs(abs(np.vdot(out.vec, v.vec)) - 1.0) < 1e-12

    def test_power_state_any_r(self):
        rng = np.random.default_rng(21)
        base = rand.random_pure(rng, SystemShape((2,)))
        v = opalg.pure_power(base, 4)
        out, dist = symmetry.truncate_to_almost_power(v, base, 0)
        assert dist < 1e-12

    def test_pure_distance_formula(self):
        rng = np.random.default_rng(22)
        base = rand.random_pure(rng, SystemShape((2,)))
        v = symmetry.random_almost_power(rng, base, 4, 2)
        out, dist = symmetry.truncate_to_almost_power(v, base, 1)
        want = opalg.trace_norm(np.outer(v.vec, v.vec.conj())
                                - np.outer(out.vec, out.vec.conj()))
        assert abs(dist - want) < 1e-9

    def test_rejects_asymmetric(self):
        rng = np.random.default_rng(23)
        v = rand.random_pure(rng, SystemShape((2, 2)))
        base = rand.random_pure(rng, SystemShape((2,)))
        with pytest.raises(NotPermutationInvariant):
            symmetry.truncate_to_almost_power(v, base, 1)


class TestPurification:
    def test_iid_overlap_one(self):
        rng = np.random.default_rng(24)
        rho = rand.random_density(rng, SystemShape((2,)))
        op = opalg.tensor_power(rho, 3)
        power = opalg.DensityMatrix(op.shape, op.mat)
        pair = symmetry.perm_invariant_purification(rho, power)
        assert abs(pair.overlap - 1.0) < 1e-9

    def test_overlap_equals_fidelity_random(self):
        rng = np.random.default_rng(25)
        for _ in range(4):
            rho = rand.random_density(rng, SystemShape((2,)))
            rho_n = rand.random_perm_invariant_density(rng, 2, 3)
            pair = symmetry.perm_invariant_purification(rho, rho_n)
            want = opalg.fidelity(rho_n, opalg.tensor_power(rho, 3))
            assert abs(pair.overlap - want) < 1e-6

    def test_pure_base_state(self):
        # a pure base state takes the ray pair (environment dimension 1),
        # so its rho_N must be a symmetric ray
        rng = np.random.default_rng(26)
        v = rand.random_pure(rng, SystemShape((2,)))
        phi = symmetry.random_almost_power(rng, v, 3, 1)
        pair = symmetry.perm_invariant_purification(v.density(),
                                                    phi.density())
        assert pair.rho_pur.shape.dims == (2,)
        assert pair.rhoN_pur.shape.dims == (2, 2, 2)
        want = opalg.fidelity(phi.density(),
                              opalg.tensor_power(v.projector(), 3))
        assert abs(pair.overlap - want) < 1e-8
        rho_n = rand.random_perm_invariant_density(rng, 2, 3)
        with pytest.raises(ConstructionFailed, match="not a ray"):
            symmetry.perm_invariant_purification(v.density(), rho_n)

    def test_purification_is_symmetric(self):
        rng = np.random.default_rng(27)
        rho = rand.random_density(rng, SystemShape((2,)))
        rho_n = rand.random_perm_invariant_density(rng, 2, 3)
        pair = symmetry.perm_invariant_purification(rho, rho_n)
        assert symmetry.sym_residual(pair.rhoN_pur) < 1e-10

    def test_rejects_non_invariant(self):
        rng = np.random.default_rng(28)
        rho = rand.random_density(rng, SystemShape((2,)))
        rho_n = rand.random_density(rng, SystemShape((2, 2, 2)))
        with pytest.raises(NotPermutationInvariant):
            symmetry.perm_invariant_purification(rho, rho_n)
        # a pure base state's ray pair checks phi on the vector
        v = rand.random_pure(rng, SystemShape((2,)))
        phi = rand.random_pure(rng, SystemShape((2, 2, 2)))
        with pytest.raises(NotPermutationInvariant):
            symmetry.perm_invariant_purification(v.density(), phi.density())


class TestConditionedState:
    def test_iid_collapses_to_power(self):
        rng = np.random.default_rng(29)
        rho = rand.random_density(rng, SystemShape((2,)))
        op = opalg.tensor_power(rho, 3)
        power = opalg.DensityMatrix(op.shape, op.mat)
        pair = symmetry.perm_invariant_purification(rho, power)
        cond, _, cert = symmetry.conditioned_state(pair, 2)
        assert cert.passed
        assert abs(abs(np.vdot(cond.vec, pair.rho_pur.vec)) - 1.0) < 1e-9

    def test_m_zero_identity(self):
        rng = np.random.default_rng(30)
        rho = rand.random_density(rng, SystemShape((2,)))
        rho_n = rand.random_perm_invariant_density(rng, 2, 3)
        pair = symmetry.perm_invariant_purification(rho, rho_n)
        cond, _, cert = symmetry.conditioned_state(pair, 0)
        assert_allclose(cond.vec, pair.rhoN_pur.vec)
        assert cert.passed

    def test_dominance_margin_random(self):
        rng = np.random.default_rng(31)
        for _ in range(5):
            rho = rand.random_density(rng, SystemShape((2,)))
            rho_n = rand.random_perm_invariant_density(rng, 2, 4)
            pair = symmetry.perm_invariant_purification(rho, rho_n)
            _, _, cert = symmetry.conditioned_state(pair, 1)
            assert cert.margin >= -1e-9

    def test_zero_overlap(self):
        base = opalg.pure(np.array([1.0, 0.0]))
        # two copies of a ray orthogonal to the base
        other = opalg.pure(np.array([0.0, 1.0]))
        v = opalg.pure_power(other, 2)
        with pytest.raises(ZeroOverlap):
            symmetry.conditioned_state(
                symmetry.PurificationPair(base, v, 0.0), 1)


class TestPowerInequality:
    def test_r_zero_reduces(self):
        rng = np.random.default_rng(32)
        base = rand.random_pure(rng, SystemShape((2,)))
        v = opalg.pure_power(base, 3)
        cert = symmetry.verify_power_inequality(v, base, 4, 1, 0)
        assert cert.passed

    @pytest.mark.parametrize("N,M,R", [(4, 1, 1), (6, 2, 2)])
    def test_random_instances(self, N, M, R):
        rng = np.random.default_rng(33)
        base = rand.random_pure(rng, SystemShape((2,)))
        v = symmetry.random_almost_power(rng, base, N - M, R)
        cert = symmetry.verify_power_inequality(v, base, N, M, R)
        assert cert.margin >= -1e-8

    def test_premise(self):
        rng = np.random.default_rng(34)
        base = rand.random_pure(rng, SystemShape((2,)))
        v = symmetry.random_almost_power(rng, base, 3, 1)
        with pytest.raises(PremiseFailed):
            symmetry.verify_power_inequality(v, base, 5, 2, 2)


def test_twirl_makes_invariant():
    rng = np.random.default_rng(35)
    a = rand.random_hermitian(rng, SystemShape((2, 2, 2)))
    t = symmetry.twirl(a)
    assert symmetry.is_perm_invariant(t, 1e-12)
    assert abs(t.trace() - a.trace()) < 1e-12


@pytest.mark.parametrize("d,n", [(2, 2), (2, 3), (2, 4), (2, 5), (3, 3),
                                 (3, 4)])
def test_twirl_matches_permutation_sum(d, n):
    # the coset recursion against the explicit sum over all n! permutations
    a = rand.random_hermitian(np.random.default_rng(101), SystemShape((d,) * n))
    t = a.mat.reshape((d,) * (2 * n))
    acc = sum(t.transpose(p + tuple(n + i for i in p))
              for p in itertools.permutations(range(n)))
    want = acc.reshape(d ** n, d ** n) / math.factorial(n)
    assert np.abs(symmetry.twirl(a).mat - want).max() <= 1e-12


def test_twirl_eight_copies():
    a = rand.random_hermitian(np.random.default_rng(103),
                              SystemShape((2,) * 8))
    t = symmetry.twirl(a)
    assert symmetry.is_perm_invariant(t, 1e-12)
    assert abs(t.trace() - a.trace()) < 1e-12
