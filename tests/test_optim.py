import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from qstein import opalg, optim, rand
from qstein.entropy import binary_entropy, relative_entropy, von_neumann_entropy
from qstein.freesets import (DiagonalFamily, FullSpaceFamily,
                             SeparableHullFamily, SingletonIIDFamily,
                             _type_classes)
from qstein.errors import DimensionCap, NoFullRankMember
from qstein.opalg import SystemShape
from qstein.optim import (SolverSettings, distance_to_family, frank_wolfe,
                          generalized_robustness, hypothesis_dual,
                          hypothesis_primal, min_positive_part,
                          regularized_sequence, rel_ent_of_resource)

from oracles import (classical_neyman_pearson, classical_threshold_value,
                     coherence_power_state, diagonal_dual_optimum,
                     diagonal_threshold_optimum, hull_minimum_slsqp,
                     robustness_qubit_diagonal_grid)

RNG = np.random.default_rng(313)
FAST = SolverSettings(max_iters=200, tol=1e-7, seed=0)


def _tr(a, b):
    return float(np.einsum("ij,ji->", a, b).real)


def coherence_qubit(p=0.8):
    v = np.array([math.sqrt(p), math.sqrt(1 - p)])
    return opalg.density(np.outer(v, v))


class TestFrankWolfe:
    def test_linear_objective_hits_oracle(self):
        fam = DiagonalFamily(2, 1)
        c = np.diag([2.0, 1.0])
        res = frank_wolfe(lambda m: _tr(c, m), lambda m: c, fam, FAST)
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

    def test_criterion_2_sweep_converges_at_n8(self):
        # criterion 2's warm-started sweep at N = 8: the optima at R - 0.25
        # and R are non-smooth, where the subgradient -b P_+ at the best
        # probe alone leaves gaps of 10 and more
        R = binary_entropy(0.8)
        power = opalg.operator(coherence_power_state(0.8, 8), (2,) * 8)
        fam = DiagonalFamily(2, 8)
        settings = SolverSettings(max_iters=160, tol=1e-7, seed=0)
        start = None
        for dy in (-0.25, -0.1, 0.0, 0.1, 0.25):
            res = min_positive_part(power, 2.0 ** ((R + dy) * 8), fam,
                                    settings, start=start)
            start = res.minimizer
            assert res.converged, (dy, res.fw_gap)

    def test_lower_bound_below_type_class_optimum(self):
        # value - fw_gap is a Frank-Wolfe lower bound on the minimum, so it
        # cannot exceed the optimum the type-class oracle finds
        R = binary_entropy(0.8)
        for n in range(2, 8):
            power = opalg.operator(coherence_power_state(0.8, n), (2,) * n)
            fam = DiagonalFamily(2, n)
            for dy in (-0.25, -0.1, 0.0, 0.1, 0.25):
                res = min_positive_part(power, 2.0 ** ((R + dy) * n), fam)
                want = diagonal_threshold_optimum(n, R + dy)
                assert res.converged
                assert res.value - res.fw_gap <= want + 1e-12
                assert res.value <= want + res.fw_gap + 1e-12

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


def test_no_solver_calls_slsqp(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("SLSQP called")
    monkeypatch.setattr("scipy.optimize.minimize", refuse)
    monkeypatch.setattr(optim, "_DUAL_MEMO", None)
    rng = np.random.default_rng(59)
    for fam in (DiagonalFamily(2, 2), FullSpaceFamily(4, 1)):
        rho = rand.random_density(rng, fam.shape)
        min_positive_part(rho, 1.5, fam, FAST)
        hypothesis_primal(rho, 3.0, fam, FAST)
        hypothesis_dual(rho, 3.0, fam, FAST)
        distance_to_family(rho, fam, FAST)
        generalized_robustness(rho, fam, FAST)
    power = opalg.density(coherence_power_state(0.8, 4), (2,) * 4)
    min_positive_part(power, 6.0, DiagonalFamily(2, 4), FAST)
    hypothesis_dual(power, 6.0, DiagonalFamily(2, 4), FAST)
    c = np.diag([2.0, 1.0])
    frank_wolfe(lambda m: _tr(c, m), lambda m: c, DiagonalFamily(2, 1), FAST)
    rel_ent_of_resource(coherence_qubit(), DiagonalFamily(2, 1), FAST)
    bell = np.zeros(4)
    bell[0] = bell[3] = 1.0 / math.sqrt(2.0)
    rel_ent_of_resource(opalg.density(np.outer(bell, bell)),
                        SeparableHullFamily(4, 1, dim_a=2, dim_b=2,
                                            n_restarts=8),
                        SolverSettings(max_iters=100, tol=1e-6, seed=0))


def _pure_power(vec: np.ndarray, n: int) -> opalg.HermitianOperator:
    power = opalg.kron_power(vec, n)
    return opalg.operator(np.outer(power, power.conj()), (vec.size,) * n)


def _dense_only(monkeypatch):
    """Make every search skip type-class coordinates, as for an input off
    the symmetric subspace."""
    monkeypatch.setattr(optim._TypeClassCoords, "of",
                        classmethod(lambda cls, family, target: None))


class TestTypeClassCoordinates:
    """The reduced path of ``min_positive_part`` and ``hypothesis_dual``
    against the dense path it replaces."""

    def _both(self, monkeypatch, power, b, fam):
        assert optim._TypeClassCoords.of(fam, power.mat) is not None
        reduced = min_positive_part(power, b, fam)
        with monkeypatch.context() as m:
            _dense_only(m)
            dense = min_positive_part(power, b, fam)
        return reduced.value, dense.value

    @pytest.mark.parametrize("n", range(2, 9))
    def test_coherence_sweep_matches_dense(self, monkeypatch, n):
        # the five rates of the benchmark sweep, at default settings.  At
        # N = 8 a stage can end anywhere within its gap target, and which
        # probe it ends at turns on rounding (R - 0.1 ends 1.3e-9 above the
        # type-class optimum on the reduced path, 4e-12 on the dense one),
        # so there the paths agree to the gap target only
        R = binary_entropy(0.8)
        power = opalg.operator(coherence_power_state(0.8, n), (2,) * n)
        fam = DiagonalFamily(2, n)
        for dy in (-0.25, -0.1, 0.0, 0.1, 0.25):
            red, dense = self._both(monkeypatch, power, 2.0 ** ((R + dy) * n),
                                    fam)
            assert abs(red - dense) <= (1e-9 if n < 8 else 1e-7)

    @pytest.mark.parametrize("n", (3, 4))
    def test_qutrit_power_matches_dense(self, monkeypatch, n):
        vec = rand.random_pure(np.random.default_rng(41),
                               SystemShape((3,))).vec
        probs = np.abs(vec) ** 2
        R = float(-(probs * np.log2(probs)).sum())
        fam = DiagonalFamily(3, n)
        for dy in (-0.25, 0.0, 0.25):
            red, dense = self._both(monkeypatch, _pure_power(vec, n),
                                    2.0 ** ((R + dy) * n), fam)
            assert abs(red - dense) <= (1e-9 if n < 8 else 1e-7)

    @pytest.mark.parametrize("offset", (0.0, -math.log(3.0)))
    def test_surrogate_matches_dense(self, offset):
        # at a random invariant sigma, for each temperature of the schedule
        rng = np.random.default_rng(43)
        n = 5
        power = opalg.operator(coherence_power_state(0.8, n), (2,) * n).mat
        coords = optim._TypeClassCoords.of(DiagonalFamily(2, n), power)
        labels, sizes = _type_classes(2, n)
        w = np.diag(rng.dirichlet(np.ones(sizes.size)))
        b = 2.0 ** (binary_entropy(0.8) * n)
        for tau in (1e-3, 1e-6, 1e-8):
            s_d, g_d, e_d = optim._pospart_eval(power, b, tau, offset)(
                coords.dense(w), True)
            s_r, g_r, e_r = coords.pospart_eval(b, tau, offset)(w, True)
            class_avg = np.bincount(labels, weights=np.diag(g_d).real) / sizes
            assert abs(s_r - s_d) <= 1e-12
            assert abs(e_r - e_d) <= 1e-12
            assert np.abs(np.diag(g_r) - class_avg).max() <= 1e-12

    def test_mixed_power_keeps_dense_path(self):
        # diag(0.7, 0.3)^{x4} is invariant but off the symmetric subspace; it
        # is free, so the threshold value is the binomial sum at sigma0 = rho
        # and the dual is 1/K, the Neyman-Pearson value against rho itself
        n, p = 4, 0.7
        fam = DiagonalFamily(2, n)
        eta = opalg.density(np.diag([p, 1.0 - p]), (2,))
        power = opalg.tensor_power(eta.op, n)
        assert optim._symmetric_search(fam, power.mat)
        assert optim._TypeClassCoords.of(fam, power.mat) is None
        for y in (-0.25, -0.1, 0.1):
            res = min_positive_part(power, 2.0 ** (y * n), fam, FAST)
            assert abs(res.value - classical_threshold_value(n, y, p, p)) \
                <= 1e-9
        diag = np.diag(power.mat).real
        for K in (2.0, 8.0):
            dual = hypothesis_dual(opalg.DensityMatrix(power), K, fam, FAST)
            want = classical_neyman_pearson(diag, diag, 1.0 / K)
            assert abs(dual - want) <= 1e-6


class TestNewtonReweight:
    """The Newton corrective step on the atom weights of a dual instance:
    atoms 0 and K times family members, surrogate of Tr[(eta - X)_+] +
    Tr X / K."""

    K = 4.0

    def _instance(self, seed, tau, duplicate=False):
        rng = np.random.default_rng(seed)
        d = 3
        eta = rand.random_density(rng, SystemShape((d,))).mat
        fam = FullSpaceFamily(d, 1)
        mats = [np.zeros((d, d), dtype=complex)]
        for _ in range(4):
            g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
            mats.append(self.K * fam.lmo(g + g.conj().T))
        if duplicate:
            mats.append(mats[1].copy())
        eval_fn = optim._dual_eval(
            lambda t, off: optim._pospart_eval(eta, 1.0, t, off), self.K, tau)
        return eval_fn, [[m, 1.0 / len(mats)] for m in mats]

    def _hull_gap(self, eval_fn, atoms):
        mats = np.array([m for m, _ in atoms])
        w = np.array([v for _, v in atoms])
        value, _, local = eval_fn.newton(np.tensordot(w, mats, 1), mats)
        jac = local()[0]
        return value, float(jac @ w - jac.min()), w

    @pytest.mark.parametrize("duplicate", (False, True))
    def test_meets_hull_gap(self, duplicate):
        # a repeated atom makes the Hessian singular; the ridged KKT system
        # still gives finite steps, with no floating-point warning
        for seed in (61, 62, 63):
            eval_fn, atoms = self._instance(seed, 1e-3, duplicate)
            reference = hull_minimum_slsqp(eval_fn, atoms)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                optim._newton_reweight(atoms, eval_fn, optim._Tracker(), 1e-10)
            value, gap, w = self._hull_gap(eval_fn, atoms)
            assert np.isfinite(w).all() and w.min() >= 0.0
            assert abs(w.sum() - 1.0) <= 1e-12
            assert gap <= 1e-10
            assert value <= reference + 1e-12

    def test_singular_kkt_gives_no_step(self):
        # a zero Hessian and a constant gradient: the ridge is zero and the
        # KKT system singular, which must not produce NaN
        w = np.array([0.5, 0.5, 0.0])
        d = optim._newton_direction(w, np.zeros(3), np.zeros((3, 3)))
        assert d is None or (np.isfinite(d).all() and not d.any())

    def test_tracker_sees_the_exact_values(self):
        eval_fn, atoms = self._instance(64, 1e-6)
        tracker = optim._Tracker()
        optim._newton_reweight(atoms, eval_fn, tracker, 1e-10)
        mats = np.array([m for m, _ in atoms])
        w = np.array([v for _, v in atoms])
        assert tracker.best_value <= eval_fn(np.tensordot(w, mats, 1),
                                             False)[2] + 1e-15


class TestRelentNewton:
    """The gradient and Hessian that ``_relent_eval`` gives the corrective
    step, in atom coordinates, against central differences."""

    @staticmethod
    def _check(eval_fn, mats):
        n = len(mats)
        w = np.full(n, 1.0 / n)
        _, _, local = eval_fn.newton(np.tensordot(w, mats, 1), mats)
        jac, hess = local()
        steps = np.eye(n)

        def value(u):
            return eval_fn(np.tensordot(u, mats, 1), False)[0]

        def gradient(u):
            return eval_fn.newton(np.tensordot(u, mats, 1), mats)[2]()[0]

        h = 1e-5
        jac_fd = np.array([(value(w + h * e) - value(w - h * e)) / (2 * h)
                           for e in steps])
        h = 1e-6
        hess_fd = np.array([(gradient(w + h * e) - gradient(w - h * e))
                            / (2 * h) for e in steps])
        assert np.abs(jac - jac_fd).max() <= 1e-8
        assert np.abs(hess - hess_fd).max() <= 1e-8
        assert np.abs(hess - hess.T).max() <= 1e-12
        return hess

    def test_random_full_rank_atoms(self):
        rng = np.random.default_rng(71)
        d = 4
        rho = rand.random_density(rng, SystemShape((d,))).mat
        eval_fn = optim._relent_eval(rho, np.eye(d) / d)
        mats = np.array([rand.random_density(rng, SystemShape((d,))).mat
                         for _ in range(5)])
        assert np.linalg.eigvalsh(self._check(eval_fn, mats)).min() > 0.0

    def test_diagonal_atoms_repeated_eigenvalues(self):
        # at equal weights the mixture is diag(5, 3, 5, 3) / 16, so both
        # divided differences meet coincident eigenvalues
        rng = np.random.default_rng(73)
        rho = rand.random_density(rng, SystemShape((4,))).mat
        eval_fn = optim._relent_eval(rho, np.eye(4) / 4)
        mats = np.array([np.diag(v).astype(complex) for v in
                         ([0.5, 0.5, 0, 0], [0.25] * 4, [0, 0, 0.5, 0.5],
                          [0.5, 0, 0.5, 0])])
        self._check(eval_fn, mats)


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

    def test_dual_power_state_matches_type_class_oracle(self, monkeypatch):
        # an invariant input on 7 copies, on the symmetric subspace: the
        # solve runs over invariant X in type-class coordinates
        y = binary_entropy(0.8) + 0.1
        K = 2.0 ** (y * 7)
        eta = opalg.density(coherence_power_state(0.8, 7), (2,) * 7)
        # a memo left on equal inputs but another family object must not
        # stand in for the solve the spy watches
        primal = hypothesis_primal(eta, K, DiagonalFamily(2, 7), FAST)
        calls = []
        pospart = optim._TypeClassCoords.pospart_eval
        monkeypatch.setattr(optim._TypeClassCoords, "pospart_eval",
                            lambda self, *a: calls.append(a)
                            or pospart(self, *a))
        val = hypothesis_dual(eta, K, DiagonalFamily(2, 7), FAST)
        assert calls
        assert abs(val - diagonal_dual_optimum(7, K)) < 1e-6
        assert primal <= val

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
            assert p <= du + 1e-12

    @staticmethod
    def _count_solves(monkeypatch):
        """Empty the dual's memo and count the annealed solves from here."""
        monkeypatch.setattr(optim, "_DUAL_MEMO", None)
        calls = []
        anneal = optim._anneal
        monkeypatch.setattr(optim, "_anneal",
                            lambda *a: calls.append(a) or anneal(*a))
        return calls

    def test_bracket_shares_one_solve(self, monkeypatch):
        eta = rand.random_density(np.random.default_rng(41), SystemShape((3,)))
        fam = DiagonalFamily(3, 1)
        calls = self._count_solves(monkeypatch)
        hypothesis_primal(eta, 4.0, fam, FAST)
        hypothesis_dual(eta, 4.0, fam, FAST)
        assert len(calls) == 1
        hypothesis_dual(eta, 2.0, fam, FAST)
        hypothesis_primal(eta, 2.0, fam, FAST)
        assert len(calls) == 2

    def test_bracket_memo_keys(self, monkeypatch):
        # another K, an equal but distinct family, other settings or an eta
        # changed in place after the solve: each solves anew
        eta = rand.random_density(np.random.default_rng(43), SystemShape((3,)))
        fam = DiagonalFamily(3, 1)
        calls = self._count_solves(monkeypatch)
        hypothesis_dual(eta, 4.0, fam, FAST)
        hypothesis_dual(eta, 4.0, fam, FAST)
        assert len(calls) == 1
        hypothesis_dual(eta, 3.0, fam, FAST)
        assert len(calls) == 2
        hypothesis_dual(eta, 3.0, DiagonalFamily(3, 1), FAST)
        assert len(calls) == 3
        hypothesis_dual(eta, 3.0, fam, SolverSettings(max_iters=201))
        assert len(calls) == 4
        mat = eta.mat.copy()
        optim._dual_search(mat, 3.0, fam, FAST)
        assert len(calls) == 5
        mat[0, 1] += 0.01
        mat[1, 0] += 0.01
        optim._dual_search(mat, 3.0, fam, FAST)
        assert len(calls) == 6

    def test_bracket_values_match_fresh_solves(self, monkeypatch):
        rng = np.random.default_rng(47)
        shape = SystemShape((4,))
        sigma0 = rand.random_density(rng, shape).mat
        for fam in (FullSpaceFamily(4, 1), DiagonalFamily(4, 1),
                    SingletonIIDFamily(4, 1, sigma0=sigma0)):
            eta = rand.random_density(rng, shape)
            monkeypatch.setattr(optim, "_DUAL_MEMO", None)
            p_alone = hypothesis_primal(eta, 3.0, fam, FAST)
            monkeypatch.setattr(optim, "_DUAL_MEMO", None)
            d_alone = hypothesis_dual(eta, 3.0, fam, FAST)
            for first, second in ((hypothesis_primal, hypothesis_dual),
                                  (hypothesis_dual, hypothesis_primal)):
                monkeypatch.setattr(optim, "_DUAL_MEMO", None)
                got = {f: f(eta, 3.0, fam, FAST) for f in (first, second)}
                assert got[hypothesis_primal] == p_alone
                assert got[hypothesis_dual] == d_alone

    def test_primal_full_family_closed_form(self):
        # E = I/K is optimal on the full family, so the primal is 1/K
        rng = np.random.default_rng(29)
        for d in range(2, 7):
            fam = FullSpaceFamily(d, 1)
            for K in (1.5, 2.0, 8.0):
                eta = rand.random_density(rng, SystemShape((d,)))
                assert abs(hypothesis_primal(eta, K, fam, FAST) - 1.0 / K) \
                    <= 1e-9

    def test_primal_power_state_meets_type_class_dual(self):
        # the primal is a lower bound on the exact dual optimum, and the
        # test read off the dual's probe comes close to it
        for n in range(2, 8):
            eta = opalg.density(coherence_power_state(0.8, n), (2,) * n)
            fam = DiagonalFamily(2, n)
            for K in (1.5, 2.0, 8.0):
                p = hypothesis_primal(eta, K, fam, FAST)
                want = diagonal_dual_optimum(n, K)
                assert p <= want + 1e-9
                assert want - p <= 1e-6


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

    def test_relent_certifies_at_last_iterate(self):
        # E_R of two Bell pairs on the separable hull is 2; the best probe,
        # a line-search point under 1e-15 lower in value, leaves a Frank-Wolfe gap
        # above tol, and the stage's last iterate certifies
        bell = np.zeros(4)
        bell[0] = bell[3] = 1.0 / math.sqrt(2.0)
        phi = np.outer(bell, bell)
        res = rel_ent_of_resource(
            opalg.density(np.kron(phi, phi), (4, 4)),
            SeparableHullFamily(4, 2, dim_a=2, dim_b=2),
            SolverSettings(max_iters=400, tol=1e-7, seed=0))
        assert abs(res.value - 2.0) < 1e-6
        assert res.converged

    def test_regularized_sequence_constant(self):
        seq = regularized_sequence(coherence_qubit(), DiagonalFamily(2, 1), 3,
                                   SolverSettings(max_iters=200, tol=1e-8))
        for _, v, ok in seq:
            assert ok
            assert abs(v - binary_entropy(0.8)) < 1e-6

    def test_regularized_sequence_free(self):
        seq = regularized_sequence(opalg.density(np.diag([0.5, 0.5])),
                                   DiagonalFamily(2, 1), 3, FAST)
        assert all(ok and v < 1e-6 for _, v, ok in seq)

    def test_regularized_sequence_singleton(self):
        sigma0 = np.diag([0.6, 0.4])
        rho = rand.random_density(RNG, SystemShape((2,)))
        fam = SingletonIIDFamily(2, 1, sigma0=sigma0)
        want = relative_entropy(rho, opalg.density(sigma0)).value
        seq = regularized_sequence(rho, fam, 3, FAST)
        for _, v, ok in seq:
            assert ok
            assert abs(v - want) < 1e-9

    def test_regularized_sequence_reports_each_flag(self, monkeypatch):
        # each triple carries its own solve's flag, uncertified ones too
        solve = optim.rel_ent_of_resource

        def every_other(rho, family, settings):
            return replace(solve(rho, family, settings),
                           converged=family.copies % 2 == 0)
        monkeypatch.setattr(optim, "rel_ent_of_resource", every_other)
        seq = regularized_sequence(coherence_qubit(), DiagonalFamily(2, 1), 3,
                                   FAST)
        assert [(n, ok) for n, _, ok in seq] == [(1, False), (2, True),
                                                 (3, False)]

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

    def test_distance_is_trace_norm_at_minimizer(self):
        rng = np.random.default_rng(67)
        for fam in (DiagonalFamily(2, 2), FullSpaceFamily(3, 1),
                    DiagonalFamily(3, 1)):
            target = rand.random_density(rng, fam.shape)
            res = distance_to_family(target, fam, FAST)
            want = opalg.trace_norm(target.mat - res.minimizer.mat)
            assert abs(res.value - want) <= 1e-12

    def test_distance_perturbation_construction(self):
        fam = DiagonalFamily(2, 1)
        free = opalg.density(np.diag([0.35, 0.65]))
        delta = rand.random_density(RNG, SystemShape((2,)))
        eps = 0.01
        mix = opalg.density((free.mat + 0.5 * eps * delta.mat)
                            / (1.0 + 0.5 * eps))
        res = distance_to_family(mix, fam, FAST, start=free)
        assert res.value <= eps
