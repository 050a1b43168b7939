import math

import numpy as np
import pytest

from qstein import opalg, rand
from qstein.entropy import binary_entropy, relative_entropy, von_neumann_entropy
from qstein.freesets import (DiagonalFamily, FullSpaceFamily,
                             SeparableHullFamily, SingletonIIDFamily)
from qstein.errors import DimensionCap, NoFullRankMember
from qstein.opalg import SystemShape
from qstein.optim import (SolverSettings, distance_to_family, frank_wolfe,
                          generalized_robustness, hypothesis_dual,
                          hypothesis_primal, min_positive_part,
                          regularized_sequence, rel_ent_of_resource)

from oracles import (classical_neyman_pearson, coherence_power_state,
                     diagonal_dual_optimum, diagonal_threshold_optimum,
                     robustness_qubit_diagonal_grid)

RNG = np.random.default_rng(313)
FAST = SolverSettings(max_iters=200, tol=1e-7, seed=0)


def coherence_qubit(p=0.8):
    v = np.array([math.sqrt(p), math.sqrt(1 - p)])
    return opalg.density(np.outer(v, v))


class TestFrankWolfe:
    def test_linear_objective_hits_oracle(self):
        fam = DiagonalFamily(2, 1)
        c = np.diag([2.0, 1.0])
        res = frank_wolfe(lambda m: float(np.einsum("ij,ji->", c, m).real),
                          lambda m: c, fam, FAST)
        assert abs(res.value - 1.0) < 1e-10
        assert res.fw_gap <= 1e-7

    def test_quadratic_projection_of_member(self):
        fam = DiagonalFamily(2, 1)
        target = np.diag([0.3, 0.7])
        res = frank_wolfe(lambda m: float(np.linalg.norm(m - target) ** 2),
                          lambda m: 2.0 * (m - target), fam, FAST)
        assert res.value < 1e-12
        assert np.abs(res.minimizer.mat - target).max() < 1e-6

    def test_relent_objective_matches_closed_form(self):
        fam = DiagonalFamily(2, 1)
        rho = rand.random_density(RNG, SystemShape((2,)))
        res = rel_ent_of_resource(rho, fam, SolverSettings(max_iters=240,
                                                           tol=1e-9))
        closed = (von_neumann_entropy(opalg.density(np.diag(np.diag(rho.mat))))
                  - von_neumann_entropy(rho))
        assert abs(res.value - closed) < 1e-6

    def test_minimizer_is_member(self):
        fam = DiagonalFamily(2, 2)
        rho = rand.random_density(RNG, SystemShape((2, 2)))
        res = min_positive_part(rho, 1.5, fam, FAST)
        assert fam.membership(res.minimizer, 1e-8)


class TestMinPositivePart:
    def test_b_zero(self):
        fam = DiagonalFamily(2, 1)
        rho = rand.random_density(RNG, SystemShape((2,)))
        res = min_positive_part(rho, 0.0, fam, FAST)
        assert abs(res.value - 1.0) < 1e-12

    def test_full_space_b_one(self):
        fam = FullSpaceFamily(2, 1)
        rho = opalg.density(np.diag([0.75, 0.25]))
        res = min_positive_part(rho, 1.0, fam, FAST)
        assert res.value < 1e-6

    def test_singleton_diagonal_arithmetic(self):
        fam = SingletonIIDFamily(2, 1, sigma0=np.eye(2) / 2)
        rho = opalg.density(np.diag([0.75, 0.25]))
        res = min_positive_part(rho, 2.0, fam, FAST)
        assert res.value == 0.0  # Tr[(rho - I)_+] = 0

    def test_singular_sigma0(self):
        # the only member diag(1,0,0,0) has no full-rank witness; the value
        # is Tr[(rho - 2 sigma)_+] = Tr[diag(-1.5, 0.5, 0, 0)_+]
        fam = SingletonIIDFamily(2, 2, sigma0=np.diag([1.0, 0.0]))
        rho = opalg.density(np.diag([0.5, 0.5, 0.0, 0.0]), (2, 2))
        res = min_positive_part(rho, 2.0, fam, FAST)
        assert res.value == 0.5
        assert res.converged

    def test_matches_typeclass_oracle(self):
        p = 0.8
        R = binary_entropy(p)
        s = SolverSettings(max_iters=512, tol=1e-8, seed=0)
        for n in (2, 3):
            fam = DiagonalFamily(2, n)
            power = opalg.operator(coherence_power_state(p, n), (2,) * n)
            for y in (R - 0.2, R, R + 0.1):
                res = min_positive_part(power, 2.0 ** (y * n), fam, s)
                want = diagonal_threshold_optimum(n, y, p)
                assert abs(res.value - want) < 1e-6

    def test_symmetric_search_reaches_n8_optimum(self):
        # at N = 8 the optimum is a mixture over up to 2^8 diagonal vertices,
        # beyond the vertex oracle's atom budget at this max_iters
        y = binary_entropy(0.8) + 0.1
        power = opalg.operator(coherence_power_state(0.8, 8), (2,) * 8)
        res = min_positive_part(power, 2.0 ** (y * 8), DiagonalFamily(2, 8),
                                SolverSettings(max_iters=160, tol=1e-7,
                                               seed=0))
        assert abs(res.value - diagonal_threshold_optimum(8, y)) < 1e-4

    def test_non_invariant_state_keeps_vertex_search(self):
        # psi psi^T <= b sigma for sigma ~ |psi_x| once b >= (sum |psi_x|)^2;
        # the best permutation-invariant sigma leaves about 0.0238
        psi = np.kron([math.sqrt(0.8), math.sqrt(0.2)],
                      [math.sqrt(0.6), math.sqrt(0.4)])
        rho = opalg.density(np.outer(psi, psi), (2, 2))
        b = 1.001 * float(np.abs(psi).sum()) ** 2
        res = min_positive_part(rho, b, DiagonalFamily(2, 2), FAST)
        assert res.value == 0.0

    def test_monotone_in_b_with_warm_start(self):
        fam = DiagonalFamily(2, 2)
        rho = rand.random_density(RNG, SystemShape((2, 2)))
        prev, start = None, None
        for b in (0.25, 0.5, 1.0, 2.0, 4.0):
            res = min_positive_part(rho, b, fam, FAST, start=start)
            start = res.minimizer
            if prev is not None:
                assert res.value <= prev + 1e-9
            prev = res.value


class TestHypothesisTesting:
    def test_k_one_is_trivial(self):
        fam = DiagonalFamily(2, 1)
        eta = rand.random_density(RNG, SystemShape((2,)))
        assert abs(hypothesis_primal(eta, 1.0, fam, FAST) - 1.0) < 1e-9

    def test_classical_neyman_pearson(self):
        eta = opalg.density(np.diag([0.75, 0.25]))
        fam = SingletonIIDFamily(2, 1, sigma0=np.eye(2) / 2)
        p = hypothesis_primal(eta, 2.0, fam, FAST)
        want = classical_neyman_pearson(np.array([0.75, 0.25]),
                                        np.array([0.5, 0.5]), 0.5)
        assert abs(want - 0.75) < 1e-12
        assert abs(p - want) < 1e-9

    def test_orthogonal_support(self):
        fam = SingletonIIDFamily(2, 1, sigma0=np.diag([1.0, 0.0]))
        eta = opalg.density(np.diag([0.0, 1.0]))
        assert abs(hypothesis_primal(eta, 1e9, fam, FAST) - 1.0) < 1e-12

    def test_dual_k_one(self):
        fam = SingletonIIDFamily(2, 1, sigma0=np.eye(2) / 2)
        eta = opalg.density(np.diag([0.75, 0.25]))
        assert abs(hypothesis_dual(eta, 1.0, fam, FAST) - 1.0) < 1e-6

    def test_dual_matches_primal_classical(self):
        fam = SingletonIIDFamily(2, 1, sigma0=np.eye(2) / 2)
        eta = opalg.density(np.diag([0.75, 0.25]))
        d = hypothesis_dual(eta, 2.0, fam, FAST)
        assert abs(d - 0.75) < 1e-4

    def test_dual_member_large_k(self):
        sigma0 = np.diag([0.75, 0.25])
        fam = SingletonIIDFamily(2, 1, sigma0=sigma0)
        eta = opalg.density(sigma0)
        val = hypothesis_dual(eta, 1e6, fam, FAST)
        assert val < 5e-6

    def test_dual_singular_sigma0(self):
        # the exact dual is attained at b = 1/2: 1/2 + (1/2)/4
        fam = SingletonIIDFamily(2, 1, sigma0=np.diag([1.0, 0.0]))
        eta = opalg.density(np.eye(2) / 2)
        assert abs(hypothesis_dual(eta, 4.0, fam, FAST) - 0.625) < 1e-6

    def test_dual_full_family_closed_form(self):
        # for K >= 1, Tr[(eta - X)_+] >= Tr[eta - X] / K bounds the dual
        # below by 1/K, attained at X = eta when eta is free
        rng = np.random.default_rng(17)
        for d in range(2, 7):
            fam = FullSpaceFamily(d, 1)
            for K in (1.5, 3.0, 5.0, 8.0):
                eta = rand.random_density(rng, SystemShape((d,)))
                dual = hypothesis_dual(eta, K, fam, FAST)
                assert abs(dual - 1.0 / K) <= 1e-6

    def test_dual_diagonal_closed_form(self):
        # a diagonal eta is free, so the dual is 1/K as for the full family
        rng = np.random.default_rng(19)
        for d in range(2, 7):
            fam = DiagonalFamily(d, 1)
            for K in (2.0, 8.0):
                eta = opalg.density(np.diag(rng.dirichlet(np.ones(d))))
                dual = hypothesis_dual(eta, K, fam, FAST)
                assert abs(dual - 1.0 / K) <= 1e-6

    def test_dual_small_k_is_one(self):
        # b <= K <= 1 gives Tr[(eta - b sigma)_+] + b/K >= 1 - b + b/K >= 1
        rng = np.random.default_rng(23)
        for d in (2, 3, 4):
            eta = rand.random_density(rng, SystemShape((d,)))
            sigma0 = rand.random_density(rng, SystemShape((d,))).mat
            for fam in (FullSpaceFamily(d, 1), DiagonalFamily(d, 1),
                        SingletonIIDFamily(d, 1, sigma0=sigma0)):
                for K in (0.5, 1.0):
                    dual = hypothesis_dual(eta, K, fam, FAST)
                    assert abs(dual - 1.0) <= 1e-9

    def test_dual_power_state_matches_type_class_oracle(self):
        # an invariant input on 7 copies: the solve runs over invariant X
        y = binary_entropy(0.8) + 0.1
        K = 2.0 ** (y * 7)
        eta = opalg.density(coherence_power_state(0.8, 7), (2,) * 7)
        val = hypothesis_dual(eta, K, DiagonalFamily(2, 7), FAST)
        assert abs(val - diagonal_dual_optimum(7, K)) < 1e-6

    def test_weak_duality_random(self):
        for i in range(12):
            d = int(RNG.integers(2, 5))
            eta = rand.random_density(RNG, SystemShape((d,)))
            if i % 2:
                fam = DiagonalFamily(d, 1)
            else:
                fam = SingletonIIDFamily(
                    d, 1, sigma0=rand.random_density(RNG, SystemShape((d,))).mat)
            K = float(RNG.choice([2.0, 4.0, 8.0]))
            p = hypothesis_primal(eta, K, fam, FAST)
            du = hypothesis_dual(eta, K, fam, FAST)
            assert p <= du + 1e-6


class TestResourceMeasures:
    def test_free_state_zero(self):
        fam = DiagonalFamily(2, 1)
        free = opalg.density(np.diag([0.3, 0.7]))
        res = rel_ent_of_resource(free, fam, FAST)
        assert res.value < 1e-7

    def test_coherence_value(self):
        res = rel_ent_of_resource(coherence_qubit(), DiagonalFamily(2, 1),
                                  SolverSettings(max_iters=240, tol=1e-9))
        assert abs(res.value - binary_entropy(0.8)) < 1e-7

    def test_regularized_sequence_constant(self):
        seq = regularized_sequence(coherence_qubit(), DiagonalFamily(2, 1), 3,
                                   SolverSettings(max_iters=200, tol=1e-8))
        for _, v in seq:
            assert abs(v - binary_entropy(0.8)) < 1e-6

    def test_regularized_sequence_free(self):
        seq = regularized_sequence(opalg.density(np.diag([0.5, 0.5])),
                                   DiagonalFamily(2, 1), 3, FAST)
        assert all(v < 1e-6 for _, v in seq)

    def test_regularized_sequence_singleton(self):
        sigma0 = np.diag([0.6, 0.4])
        rho = rand.random_density(RNG, SystemShape((2,)))
        fam = SingletonIIDFamily(2, 1, sigma0=sigma0)
        want = relative_entropy(rho, opalg.density(sigma0)).value
        seq = regularized_sequence(rho, fam, 3, FAST)
        for _, v in seq:
            assert abs(v - want) < 1e-9

    def test_regularized_sequence_cap(self):
        with pytest.raises(DimensionCap):
            regularized_sequence(coherence_qubit(), DiagonalFamily(2, 1), 20,
                                 FAST)

    def test_robustness_free(self):
        fam = DiagonalFamily(2, 1)
        assert generalized_robustness(opalg.density(np.diag([0.2, 0.8])),
                                      fam, FAST) == 0.0

    def test_robustness_plus_state(self):
        plus = opalg.density(0.5 * np.ones((2, 2)))
        got = generalized_robustness(plus, DiagonalFamily(2, 1), FAST)
        want = robustness_qubit_diagonal_grid(plus.mat)
        assert abs(want - 1.0) < 5e-4
        assert abs(got - 1.0) < 1e-4

    def test_robustness_random_vs_grid(self):
        rho = rand.random_density(RNG, SystemShape((2,)))
        got = generalized_robustness(rho, DiagonalFamily(2, 1), FAST)
        want = robustness_qubit_diagonal_grid(rho.mat)
        assert abs(got - want) < 5e-4

    def test_singular_sigma0_family(self):
        # distance and robustness start from the only member; the relative
        # entropy needs a full-rank witness and still refuses
        fam = SingletonIIDFamily(2, 1, sigma0=np.diag([1.0, 0.0]))
        rho = opalg.density(np.eye(2) / 2)
        assert abs(distance_to_family(rho, fam, FAST).value - 1.0) < 1e-12
        member = opalg.density(np.diag([1.0, 0.0]))
        assert generalized_robustness(member, fam, FAST) == 0.0
        with pytest.raises(NoFullRankMember):
            rel_ent_of_resource(rho, fam, FAST)

    def test_distance_member_zero(self):
        fam = DiagonalFamily(2, 1)
        free = opalg.density(np.diag([0.4, 0.6]))
        res = distance_to_family(free, fam, FAST)
        assert res.value < 1e-8

    def test_distance_plus(self):
        plus = opalg.density(0.5 * np.ones((2, 2)))
        res = distance_to_family(plus, DiagonalFamily(2, 1), FAST)
        # off-diagonal lower bound 1 is met by the maximally mixed state
        assert abs(res.value - 1.0) < 1e-8

    def test_distance_perturbation_construction(self):
        fam = DiagonalFamily(2, 1)
        free = opalg.density(np.diag([0.35, 0.65]))
        delta = rand.random_density(RNG, SystemShape((2,)))
        eps = 0.01
        mix = opalg.density((free.mat + 0.5 * eps * delta.mat)
                            / (1.0 + 0.5 * eps))
        res = distance_to_family(mix, fam, FAST, start=free)
        assert res.value <= eps
