import math
import sys
import warnings
from dataclasses import dataclass, replace
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest

from qstein import (fw, lp, opalg, optim, pipeline, rand, symmetry,
                    typeclass, verify)
from qstein.entropy import binary_entropy, relative_entropy, von_neumann_entropy
from qstein.freesets import (DiagonalFamily, FullSpaceFamily,
                             SeparableHullFamily, SingletonIIDFamily,
                             parse_family_spec)
from qstein.errors import DimensionCap, NoFullRankMember, ShapeMismatch
from qstein.opalg import SystemShape
from qstein.optim import (SolverSettings, distance_to_family,
                          generalized_robustness, hypothesis_dual,
                          hypothesis_primal, min_positive_part,
                          regularized_sequence, rel_ent_of_resource)
from qstein.symmetry import type_classes

from oracles import (classical_neyman_pearson, classical_threshold_value,
                     coherence_power_state, diagonal_dual_optimum,
                     diagonal_threshold_optimum, hull_minimum_slsqp,
                     pure_power_threshold_optimum,
                     robustness_qubit_diagonal_grid)

RNG = np.random.default_rng(313)
FAST = SolverSettings(max_iters=200, tol=1e-7, seed=0)


def coherence_qubit(p=0.8):
    v = np.array([math.sqrt(p), math.sqrt(1 - p)])
    return opalg.density(np.outer(v, v))


def _anneal_only(monkeypatch):
    """Make every threshold solve anneal, as for a target that is not rank
    one: the closed form for rank-one targets is patched out."""
    monkeypatch.setattr(optim, "rank_one_optimum", lambda coords, b: None)


def _count_anneals(monkeypatch):
    """The list of the arguments of every ``anneal`` call from here."""
    calls = []
    anneal = optim.anneal
    monkeypatch.setattr(optim, "anneal",
                        lambda *a: calls.append(a) or anneal(*a))
    return calls


class TestFrankWolfe:
    def test_relent_objective_matches_closed_form(self):
        fam = DiagonalFamily(2, 1)
        rho = rand.random_density(RNG, SystemShape((2,)))
        res = rel_ent_of_resource(rho, fam, SolverSettings(max_iters=240,
                                                           tol=1e-9))
        closed = (von_neumann_entropy(opalg.density(np.diag(np.diag(rho.mat))))
                  - von_neumann_entropy(rho))
        assert abs(res.value - closed) < 1e-6

    def test_minimizer_is_member(self):
        # solvers return their minimizers unvalidated: each must be a state
        # and a member, on the dense and the type-class path and at b = 0
        # (membership on sep:2x2 is the exact PPT test)
        rng = np.random.default_rng(17)
        iid = SingletonIIDFamily(2, 2, sigma0=np.diag([0.6, 0.4]))
        sep = SeparableHullFamily(4, 1, dim_a=2, dim_b=2, n_restarts=8)
        results = []
        for fam in (DiagonalFamily(2, 2), FullSpaceFamily(4, 1), iid, sep):
            rho = rand.random_density(rng, fam.shape)
            results += [(fam, min_positive_part(rho, b, fam, FAST))
                        for b in (0.0, 1.5)]
            results.append((fam, rel_ent_of_resource(rho, fam, FAST)))
            results.append((fam, distance_to_family(rho, fam, FAST)))
        fam = DiagonalFamily(2, 4)
        power = opalg.Power(coherence_qubit(), 4)
        assert typeclass.TypeClassCoords.of(fam, power) is not None
        results.append((fam, min_positive_part(power, 6.0, fam, FAST)))
        for fam, res in results:
            sigma = res.minimizer
            assert np.linalg.eigvalsh(sigma.mat)[0] >= -opalg.PSD_TOL
            assert abs(sigma.trace() - 1.0) <= opalg.TRACE_TOL
            assert fam.membership(sigma, 1e-8)


class TestMinPositivePart:
    def test_b_zero(self):
        fam = DiagonalFamily(2, 1)
        rho = rand.random_density(RNG, SystemShape((2,)))
        res = min_positive_part(rho, 0.0, fam, FAST)
        assert abs(res.value - 1.0) < 1e-12

    def test_b_zero_is_the_positive_part_trace(self):
        # at b = 0 the search's exact probe reads Tr[rho_+] itself, on the
        # vertex search of every family
        rng = np.random.default_rng(23)
        sep = SeparableHullFamily(4, 1, dim_a=2, dim_b=2, n_restarts=8)
        iid = SingletonIIDFamily(2, 2, sigma0=np.diag([0.6, 0.4]))
        for fam in (DiagonalFamily(2, 2), FullSpaceFamily(4, 1), iid, sep):
            rho = rand.random_density(rng, fam.shape)
            res = min_positive_part(rho, 0.0, fam, FAST)
            assert res.value == opalg.positive_part_trace(rho.mat)
            assert res.converged

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
            power = opalg.Power(coherence_qubit(p), n)
            for y in (R - 0.2, R, R + 0.1):
                res = min_positive_part(power, 2.0 ** (y * n), fam, s)
                want = diagonal_threshold_optimum(n, y, p)
                assert abs(res.value - want) < 1e-6

    def test_invariant_search_reaches_n8_optimum(self, monkeypatch):
        # at N = 8 the optimum is a mixture over up to 2^8 diagonal vertices,
        # beyond the vertex oracle's atom budget at this max_iters; the
        # annealed type-class search reaches it
        _anneal_only(monkeypatch)
        y = binary_entropy(0.8) + 0.1
        power = opalg.Power(coherence_qubit(), 8)
        res = min_positive_part(power, 2.0 ** (y * 8), DiagonalFamily(2, 8),
                                SolverSettings(max_iters=160, tol=1e-7,
                                               seed=0))
        assert abs(res.value - diagonal_threshold_optimum(8, y)) < 1e-4

    def test_criterion_2_sweep_converges_at_n8(self, monkeypatch):
        # criterion 2's warm-started sweep at N = 8, annealed: the optima at
        # R - 0.25 and R are non-smooth, where the subgradient -b P_+ at the
        # best probe alone leaves gaps of 10 and more
        _anneal_only(monkeypatch)
        R = binary_entropy(0.8)
        power = opalg.Power(coherence_qubit(), 8)
        fam = DiagonalFamily(2, 8)
        settings = SolverSettings(max_iters=160, tol=1e-7, seed=0)
        start = None
        for dy in (-0.25, -0.1, 0.0, 0.1, 0.25):
            res = min_positive_part(power, 2.0 ** ((R + dy) * 8), fam,
                                    settings, start=start)
            start = res.minimizer
            assert res.converged, (dy, res.fw_gap)

    def test_lower_bound_below_type_class_optimum(self, monkeypatch):
        # value - fw_gap is a Frank-Wolfe lower bound on the minimum, so it
        # cannot exceed the optimum the type-class oracle finds; checked on
        # the annealed search, whose stage ends give the bound
        _anneal_only(monkeypatch)
        R = binary_entropy(0.8)
        for n in range(2, 8):
            power = opalg.Power(coherence_qubit(), n)
            fam = DiagonalFamily(2, n)
            for dy in (-0.25, -0.1, 0.0, 0.1, 0.25):
                res = min_positive_part(power, 2.0 ** ((R + dy) * n), fam)
                want = diagonal_threshold_optimum(n, R + dy)
                assert res.converged
                assert res.value - res.fw_gap <= want + 1e-12
                assert res.value <= want + res.fw_gap + 1e-12

    def test_type_class_search_makes_no_dense_eigh(self, monkeypatch):
        # a pure power searches and certifies in type-class coordinates, and
        # no state is validated on the way: every eigendecomposition the
        # solve makes, in optim, typeclass and opalg, is (N+1) x (N+1).  The
        # base's purity is decided on the base, once, before the solve
        power = opalg.Power(coherence_qubit(), 8)
        assert power.ray is not None
        shapes = []
        eigh = opalg.eigh
        for module in (optim, typeclass, opalg):
            monkeypatch.setattr(module, "eigh",
                                lambda m: shapes.append(m.shape) or eigh(m))
        min_positive_part(power, 2.0 ** (binary_entropy(0.8) * 8),
                          DiagonalFamily(2, 8))
        assert shapes and set(shapes) == {(9, 9)}

    def test_non_invariant_start_enters_as_its_twirl(self, monkeypatch):
        # a free start off the invariant members: the annealed type-class
        # search starts at its twirl and reaches the optimum (a vertex
        # search from this start stops near 0.3025).  Like the default
        # start, it stops 1.3e-9 above the oracle, inside its certified gap.
        # The closed form, which ignores the start, is patched out
        _anneal_only(monkeypatch)
        n, y = 8, binary_entropy(0.8)
        p = np.ones(2 ** n)
        p[1] = 3.0  # the string 00000001
        start = opalg.density(np.diag(p / p.sum()), (2,) * n)
        calls = []
        pospart = typeclass.TypeClassCoords.pospart_eval
        monkeypatch.setattr(typeclass.TypeClassCoords, "pospart_eval",
                            lambda self, *a: calls.append(a)
                            or pospart(self, *a))
        power = opalg.Power(coherence_qubit(), n)
        res = min_positive_part(power, 2.0 ** (y * n), DiagonalFamily(2, n),
                                start=start)
        want = diagonal_threshold_optimum(n, y)
        assert calls
        assert res.converged
        assert res.value - res.fw_gap <= want + 1e-12
        assert abs(res.value - want) <= 1e-8

    def test_mixed_power_from_non_invariant_start(self, monkeypatch):
        # an invariant target off the symmetric subspace, from the start
        # above: the search starts at the start's twirl in type-class
        # coordinates and reaches the binomial optimum (a vertex search
        # from this start stops at 0.4626 with gap 0.095).  That search and
        # the relative entropy of a pure power hold (N+1) x (N+1) atoms only
        shapes = set()
        fcfw = fw._fcfw_minimize

        def spied(probe, lmo, atoms, *rest):
            def answer(grad):
                s = lmo(grad)
                shapes.add(s.shape)
                return s
            shapes.update(m.shape for m, _ in atoms)
            return fcfw(probe, answer, atoms, *rest)
        monkeypatch.setattr(fw, "_fcfw_minimize", spied)
        n, y, p = 8, -0.1, 0.7
        weights = np.ones(2 ** n)
        weights[1] = 3.0  # the string 00000001
        start = opalg.density(np.diag(weights / weights.sum()), (2,) * n)
        power = opalg.Power(opalg.density(np.diag([p, 1 - p])), n)
        res = min_positive_part(power, 2.0 ** (y * n), DiagonalFamily(2, n),
                                start=start)
        assert res.converged
        assert abs(res.value - classical_threshold_value(n, y, p, p)) <= 1e-9
        assert shapes == {(n + 1, n + 1)}
        shapes.clear()
        power = opalg.Power(coherence_qubit(), 6)
        res = rel_ent_of_resource(power, DiagonalFamily(2, 6),
                                  SolverSettings(max_iters=200))
        assert res.converged
        assert shapes == {(7, 7)}

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
    power = opalg.Power(coherence_qubit(), 4)
    min_positive_part(power, 6.0, DiagonalFamily(2, 4), FAST)
    hypothesis_dual(power, 6.0, DiagonalFamily(2, 4), FAST)
    rel_ent_of_resource(coherence_qubit(), DiagonalFamily(2, 1), FAST)
    bell = np.zeros(4)
    bell[0] = bell[3] = 1.0 / math.sqrt(2.0)
    rel_ent_of_resource(opalg.density(np.outer(bell, bell)),
                        SeparableHullFamily(4, 1, dim_a=2, dim_b=2,
                                            n_restarts=8),
                        SolverSettings(max_iters=100, tol=1e-6, seed=0))


def _pure_power(vec: np.ndarray, n: int) -> opalg.Power:
    return opalg.Power(opalg.density(np.outer(vec, vec.conj())), n)


def _dense_only(monkeypatch):
    """Make every type-class search read the dense objective at the dense
    member, as for the power of a mixed base."""
    of = typeclass.TypeClassCoords.of
    monkeypatch.setattr(typeclass.TypeClassCoords, "of", classmethod(
        lambda cls, family, power: replace(of(family, power), small=None,
                                           target=power.mat)))


class TestTypeClassCoordinates:
    """The reduced evaluator of ``min_positive_part`` and ``hypothesis_dual``
    against the dense evaluator, both in type-class coordinates."""

    def _both(self, monkeypatch, power, b, fam):
        assert typeclass.TypeClassCoords.of(fam, power) is not None
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
        # so there the paths agree to the gap target only.  Both anneal: the
        # closed form is pinned to the oracle in TestClosedForm
        _anneal_only(monkeypatch)
        R = binary_entropy(0.8)
        power = opalg.Power(coherence_qubit(), n)
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
        coords = typeclass.TypeClassCoords.of(DiagonalFamily(2, n),
                                           opalg.Power(coherence_qubit(), n))
        labels, sizes = type_classes(2, n)
        w = np.diag(rng.dirichlet(np.ones(sizes.size)))
        b = 2.0 ** (binary_entropy(0.8) * n)
        for tau in (1e-3, 1e-6, 1e-8):
            s_d, e_d, g_d, _ = typeclass.pospart_eval(power, b, tau, offset)(
                coords.dense(w))
            s_r, e_r, g_r, _ = coords.pospart_eval(b, tau, offset)(w)
            class_avg = np.bincount(labels,
                                    weights=np.diag(g_d()).real) / sizes
            assert abs(s_r - s_d) <= 1e-12
            assert abs(e_r - e_d) <= 1e-12
            assert np.abs(np.diag(g_r()) - class_avg).max() <= 1e-12

    def test_mixed_power_keeps_dense_path(self):
        # diag(0.7, 0.3)^{x4} is invariant but off the symmetric subspace; it
        # is free, so the threshold value is the binomial sum at sigma0 = rho
        # and the dual is 1/K, the Neyman-Pearson value against rho itself
        n, p = 4, 0.7
        fam = DiagonalFamily(2, n)
        eta = opalg.density(np.diag([p, 1.0 - p]), (2,))
        power = opalg.Power(eta, n)
        assert typeclass.TypeClassCoords.of(fam, power).small is None
        for y in (-0.25, -0.1, 0.1):
            res = min_positive_part(power, 2.0 ** (y * n), fam, FAST)
            assert abs(res.value - classical_threshold_value(n, y, p, p)) \
                <= 1e-9
        diag = np.diag(power.mat).real
        for K in (2.0, 8.0):
            dual = hypothesis_dual(power, K, fam, FAST)
            want = classical_neyman_pearson(diag, diag, 1.0 / K)
            assert abs(dual - want) <= 1e-6


@dataclass(frozen=True)
class _VertexDiagonal(DiagonalFamily):
    """The diagonal family searched over its vertices only."""

    type_classes = False


class TestNonCommutingMixedPower:
    """A mixed power that does not commute with the diagonal family's
    members: the type-class search against the dense vertex search.  Half
    of these solves stop uncertified, so ``converged`` is not asserted."""

    @pytest.mark.parametrize("n", (2, 3, 4))
    def test_matches_vertex_search(self, n):
        rho = opalg.density(np.array([[0.7, 0.2], [0.2, 0.3]]))
        power = opalg.Power(rho, n)
        fam, vertex = DiagonalFamily(2, n), _VertexDiagonal(2, n)
        assert typeclass.TypeClassCoords.of(fam, power) is not None
        assert typeclass.TypeClassCoords.of(vertex, power) is None
        prev = math.inf
        for y in (0.0, 0.1, 0.2, 0.3):
            b = optim.rate_threshold(y, n)
            red = min_positive_part(power, b, fam)
            dense = min_positive_part(power, b, vertex)
            assert abs(red.value - dense.value) <= 1e-10
            assert red.value <= prev
            prev = red.value
            assert red.value - red.fw_gap <= dense.value + 1e-12
            assert dense.value - dense.fw_gap <= red.value + 1e-12


class TestClosedForm:
    """The threshold minimum of a rank-one target on the symmetric subspace
    in closed form (``typeclass.rank_one_optimum``), read by the exact probe
    and certified by the unchanged exit bound."""

    @staticmethod
    def _bracket(monkeypatch, power, b, fam):
        """The closed-form solve, and the annealed one's bracket [value -
        fw_gap, value] with 1e-12 of slack each way."""
        res = min_positive_part(power, b, fam)
        with monkeypatch.context() as m:
            _anneal_only(m)
            annealed = min_positive_part(power, b, fam)
        assert annealed.value - annealed.fw_gap - 1e-12 <= res.value \
            <= annealed.value + 1e-12
        return res

    @pytest.mark.parametrize("n", range(2, 9))
    def test_coherence_sweep_matches_oracle(self, monkeypatch, n):
        # the five rates of the benchmark sweep: no anneal, the oracle's
        # value to 1e-10 and a gap of rounding size
        R = binary_entropy(0.8)
        power = opalg.Power(coherence_qubit(), n)
        fam = DiagonalFamily(2, n)
        calls = _count_anneals(monkeypatch)
        for dy in (-0.25, -0.1, 0.0, 0.1, 0.25):
            y = R + dy
            before = len(calls)
            res = min_positive_part(power, 2.0 ** (y * n), fam)
            assert len(calls) == before and res.iterations == 0
            assert res.converged and res.fw_gap <= 1e-12
            assert abs(res.value - diagonal_threshold_optimum(n, y)) <= 1e-10
            self._bracket(monkeypatch, power, 2.0 ** (y * n), fam)

    @pytest.mark.parametrize("n", (3, 4))
    def test_qutrit_power(self, monkeypatch, n):
        vec = rand.random_pure(np.random.default_rng(41),
                               SystemShape((3,))).vec
        probs = np.abs(vec) ** 2
        R = float(-(probs * np.log2(probs)).sum())
        fam = DiagonalFamily(3, n)
        for dy in (-0.25, 0.0, 0.25):
            res = self._bracket(monkeypatch, _pure_power(vec, n),
                                2.0 ** ((R + dy) * n), fam)
            assert res.converged and res.fw_gap <= 1e-12

    def test_tied_classes(self, monkeypatch):
        # coherence:0.5 gives every string the same amplitude, so every
        # class ties and the optimum is the maximally mixed state:
        # e = max(0, 1 - b / 2^N)
        n = 4
        power = opalg.Power(coherence_qubit(0.5), n)
        fam = DiagonalFamily(2, n)
        for b in (0.5, 4.0, 15.0, 16.0, 20.0):
            res = self._bracket(monkeypatch, power, b, fam)
            assert res.converged and res.fw_gap <= 1e-12
            assert abs(res.value - max(0.0, 1.0 - b / 2 ** n)) <= 1e-12
            assert np.abs(res.minimizer.mat - np.eye(2 ** n) / 2 ** n).max() \
                <= 1e-15

    @pytest.mark.parametrize("p", (1.0, 0.0))
    def test_one_class(self, monkeypatch, p):
        # coherence:1.0 and :0.0 are a basis string: e = max(0, 1 - b)
        n = 4
        power = opalg.Power(coherence_qubit(p), n)
        fam = DiagonalFamily(2, n)
        for b in (0.25, 0.5, 1.0, 3.0):
            res = self._bracket(monkeypatch, power, b, fam)
            assert res.converged and res.fw_gap <= 1e-12
            assert abs(res.value - max(0.0, 1.0 - b)) <= 1e-12

    @pytest.mark.parametrize("n", range(2, 9))
    def test_tiny_threshold(self, n):
        # below b ~ 1e-16, c r_t - lambda rounds to <= 0 on every class:
        # all weight goes to the top class, the limit b -> 0, where the
        # value is 1
        power = opalg.Power(coherence_qubit(), n)
        fam = DiagonalFamily(2, n)
        for b in (1e-16, 1e-30, 1e-100, 1e-300):
            res = min_positive_part(power, b, fam)
            assert np.isfinite(res.weights).all()
            assert abs(res.value - 1.0) <= 1e-15
            assert res.converged and res.fw_gap <= 1e-15

    def test_threshold_above_amplitude_sum(self):
        # psi psi^T <= b sigma for sigma ~ |psi_x| once b >= (sum |psi_x|)^2
        # = S^2: the value is 0 there, at that sigma, and positive below
        n = 5
        psi = opalg.kron_power(np.array([math.sqrt(0.8), math.sqrt(0.2)]), n)
        power = opalg.Power(coherence_qubit(), n)
        fam = DiagonalFamily(2, n)
        S2 = float(psi.sum()) ** 2
        res = min_positive_part(power, 1.001 * S2, fam)
        assert res.value == 0.0 and res.fw_gap == 0.0 and res.converged
        diag = np.diag(res.minimizer.mat).real
        assert np.abs(diag - psi / psi.sum()).max() <= 1e-15
        assert min_positive_part(power, 0.999 * S2, fam).value > 0.0

    def test_other_inputs_anneal(self, monkeypatch):
        # a mixed power, a single copy and a pure power off the symmetric
        # subspace keep the annealed search
        calls = _count_anneals(monkeypatch)
        n, p = 4, 0.7
        mixed = opalg.Power(opalg.density(np.diag([p, 1.0 - p])), n)
        res = min_positive_part(mixed, 2.0 ** (0.1 * n), DiagonalFamily(2, n),
                                FAST)
        assert len(calls) == 1 and res.iterations > 0
        min_positive_part(coherence_qubit(), 1.2, DiagonalFamily(2, 1), FAST)
        assert len(calls) == 2
        psi = np.kron([math.sqrt(0.8), math.sqrt(0.2)],
                      [math.sqrt(0.6), math.sqrt(0.4)])
        rho = opalg.operator(np.outer(psi, psi), (2, 2))
        min_positive_part(rho, 1.2, DiagonalFamily(2, 2), FAST)
        assert len(calls) == 3


class TestPowerTarget:
    """``min_positive_part`` on an ``opalg.Power``: a pure base is read off
    its ray in type-class coordinates, with no d^N object, and pinned to
    the type-class optimum of the pure power and to the certified bracket
    of the vertex search on the dense power; other bases are made dense."""

    RATES = (-0.25, -0.1, 0.0, 0.1, 0.25)
    COHERENT = np.array([math.sqrt(0.8), math.sqrt(0.2)])

    @staticmethod
    def _vertex_miss(base, n, rates, R):
        """The largest distance by which the power's value leaves the
        certified bracket [value - fw_gap, value] of the vertex search on
        the dense power, over the rates R + dy.  The dense power is exactly
        invariant, and gets no type-class coordinates."""
        fam = DiagonalFamily(base.total_dim, n)
        power, dense = opalg.Power(base, n), opalg.tensor_power(base, n)
        assert typeclass.TypeClassCoords.of(fam, dense) is None
        worst = 0.0
        for dy in rates:
            b = 2.0 ** ((R + dy) * n)
            got, ref = (min_positive_part(power, b, fam),
                        min_positive_part(dense, b, fam))
            assert got.converged
            worst = max(worst, ref.value - ref.fw_gap - got.value,
                        got.value - ref.value)
        return worst

    def _oracle_miss(self, vec, n, rates, R):
        """The largest distance between the power's value and the
        type-class optimum of vec^{x n}, over the rates R + dy, where each
        solve is certified to a gap of rounding size."""
        power = opalg.Power(opalg.density(np.outer(vec, vec.conj())), n)
        fam, worst = DiagonalFamily(vec.size, n), 0.0
        for dy in rates:
            res = min_positive_part(power, 2.0 ** ((R + dy) * n), fam)
            assert res.converged and res.fw_gap <= 1e-12
            want = pure_power_threshold_optimum(vec, n, R + dy)
            worst = max(worst, abs(res.value - want))
        return worst

    @pytest.mark.parametrize("n", range(2, 11))
    def test_coherence_sweep_matches_dense(self, n):
        # the optimum of the dense program to 1e-10, as in TestClosedForm,
        # with the oracle evaluated in the classes (the dense evaluation
        # takes over a minute a rate at N = 10); up to N = 4, also inside
        # the dense power's vertex-search bracket
        R = binary_entropy(0.8)
        assert self._oracle_miss(self.COHERENT, n, self.RATES, R) <= 1e-10
        if n <= 4:
            assert self._vertex_miss(coherence_qubit(), n, self.RATES,
                                     R) <= 1e-12

    def test_class_oracle_matches_dense_oracle(self):
        R = binary_entropy(0.8)
        for n in range(2, 5):
            for dy in self.RATES:
                assert abs(pure_power_threshold_optimum(self.COHERENT, n,
                                                        R + dy)
                           - diagonal_threshold_optimum(n, R + dy)) <= 1e-12

    @pytest.mark.parametrize("n", (3, 4, 5))
    def test_complex_qutrit_matches_dense(self, n):
        # the oracle at every n, and the vertex-search bracket at N = 3 (on
        # 243 x 243 that search takes a minute)
        vec = rand.random_pure(np.random.default_rng(41),
                               SystemShape((3,))).vec
        assert np.abs(vec.imag).max() > 0.1
        probs = np.abs(vec) ** 2
        R = float(-(probs * np.log2(probs)).sum())
        rates = (-0.25, 0.0, 0.25)
        assert self._oracle_miss(vec, n, rates, R) <= 1e-10
        if n == 3:
            base = opalg.density(np.outer(vec, vec.conj()))
            assert self._vertex_miss(base, n, rates, R) <= 1e-12

    @pytest.mark.parametrize("n", (2, 6, 10))
    def test_nearly_pure_base(self, n):
        # eigenvalues 1 - 1e-13 and 1e-13: support_ray calls the base pure,
        # so the power drops a weight of about n 1e-13 that the dense power
        # keeps.  Against the pure power's oracle at every n, and at N = 2
        # the dense power's vertex-search bracket
        eps = 1e-13
        v = self.COHERENT
        w = np.array([-v[1], v[0]])
        base = opalg.density((1.0 - eps) * np.outer(v, v)
                             + eps * np.outer(w, w))
        power, R = opalg.Power(base, n), binary_entropy(0.8)
        assert power.ray is not None
        fam = DiagonalFamily(2, n)
        for dy in self.RATES:
            res = min_positive_part(power, 2.0 ** ((R + dy) * n), fam)
            want = pure_power_threshold_optimum(v, n, R + dy)
            assert abs(res.value - want) <= 2 * n * eps + 1e-10
        if n == 2:
            worst = self._vertex_miss(base, n, self.RATES, R)
            assert worst <= 2 * n * eps + 1e-12

    def test_reads_no_dense_power(self, monkeypatch):
        # the pure power's solve builds no Kronecker power or class labels,
        # and its minimizer only when read: a diagonal state at which the
        # dense objective is the value reported
        def refuse(*args):
            raise AssertionError("dense object built")

        n, b = 6, 2.0 ** (0.6 * 6)
        power = opalg.Power(coherence_qubit(), n)
        with monkeypatch.context() as m:
            m.setattr(opalg, "kron_power", refuse)
            m.setattr(symmetry, "type_classes", refuse)
            res = min_positive_part(power, b, DiagonalFamily(2, n))
        assert "mat" not in vars(power) and "minimizer" not in vars(res)
        sigma = res.minimizer.mat
        assert DiagonalFamily(2, n).membership(res.minimizer, 1e-12)
        assert abs(np.trace(sigma).real - 1.0) <= 1e-12
        dense = coherence_power_state(0.8, n) - b * sigma
        assert abs(opalg.positive_part_trace(dense) - res.value) <= 1e-12

    @pytest.mark.parametrize("n", (2, 6, 12))
    def test_b_zero_reads_no_dense_power(self, monkeypatch, n):
        # b = 0 takes the closed form, all weight on the top class, and
        # builds nothing d^N wide; the value is Tr[rho] = 1 to the rounding
        # of one T x T eigendecomposition (5.5 eps at N = 12)
        def refuse(*args):
            raise AssertionError("dense object built")

        power = opalg.Power(coherence_qubit(), n)
        monkeypatch.setattr(opalg, "kron_power", refuse)
        monkeypatch.setattr(symmetry, "type_classes", refuse)
        res = min_positive_part(power, 0.0, DiagonalFamily(2, n))
        assert abs(res.value - 1.0) <= n * np.finfo(float).eps
        assert res.converged and "mat" not in vars(power)

    def test_other_bases_are_made_dense(self):
        # a mixed base solves in type-class coordinates on the dense power,
        # free here, so the value is the binomial sum at sigma0 = rho; a
        # pure base of another dimension than the family's solves the dense
        # power over the vertices, as the operator does
        n, p = 3, 0.7
        power = opalg.Power(opalg.density(np.diag([p, 1.0 - p])), n)
        fam = DiagonalFamily(2, n)
        assert typeclass.TypeClassCoords.of(fam, power).small is None
        res = min_positive_part(power, 1.5, fam, FAST)
        assert "mat" in vars(power)
        assert abs(res.value - classical_threshold_value(
            n, math.log2(1.5) / n, p, p)) <= 1e-9
        vec = rand.random_pure(np.random.default_rng(7), SystemShape((4,))).vec
        base = opalg.density(np.outer(vec, vec.conj()))
        fam, power = DiagonalFamily(2, 4), opalg.Power(base, 2)
        assert typeclass.TypeClassCoords.of(fam, power) is None
        res = min_positive_part(power, 1.5, fam, FAST)
        want = min_positive_part(opalg.tensor_power(base, 2), 1.5, fam, FAST)
        assert "mat" in vars(power)
        assert res.value == want.value and res.fw_gap == want.fw_gap

    def test_result_start_is_read_as_its_minimizer(self):
        # an annealed solve started at an earlier result starts where its
        # dense minimizer would
        n = 3
        power = opalg.Power(opalg.density(np.diag([0.7, 0.3])), n)
        fam = DiagonalFamily(2, n)
        first = min_positive_part(power, 2.0 ** (0.1 * n), fam, FAST)
        a = min_positive_part(power, 2.0 ** (0.3 * n), fam, FAST, first)
        b = min_positive_part(power, 2.0 ** (0.3 * n), fam, FAST,
                              first.minimizer)
        assert a.value == b.value and a.fw_gap == b.fw_gap


class TestStructureFromType:
    """Type-class coordinates come from an ``opalg.Power`` alone: no
    support test or invariance scan reads a dense operator's structure."""

    def test_invariant_dense_operator_takes_vertex_search(self, monkeypatch):
        # the dense power is invariant, but only its type says so: it gets
        # no coordinates, its solve never asks the type-class oracle, and
        # its certified bracket holds the power's closed-form value
        n, R = 4, binary_entropy(0.8)
        fam = DiagonalFamily(2, n)
        power = opalg.Power(coherence_qubit(), n)
        dense = opalg.HermitianOperator(power.shape, power.mat)
        assert symmetry.is_perm_invariant(dense)
        assert typeclass.TypeClassCoords.of(fam, dense) is None

        def refuse(*args):
            raise AssertionError("type-class oracle asked")
        for dy in (-0.1, 0.0, 0.1):
            b = 2.0 ** ((R + dy) * n)
            got = min_positive_part(power, b, fam)
            with monkeypatch.context() as m:
                m.setattr(typeclass.TypeClassCoords, "lmo", refuse)
                ref = min_positive_part(dense, b, fam)
            assert ref.value - ref.fw_gap - 1e-12 <= got.value \
                <= ref.value + 1e-12

    def test_mixed_power_guesses_no_structure(self, monkeypatch):
        # no invariance scan or symmetric isometry runs, and every solver
        # returns, bit for bit, what it gave when a dense power's
        # invariance was scanned for
        def refuse(*args, **kwargs):
            raise AssertionError("structure guessed")
        monkeypatch.setattr(symmetry, "is_perm_invariant", refuse)
        monkeypatch.setattr(symmetry, "sym_isometry", refuse)
        monkeypatch.setattr(optim, "_DUAL_MEMO", None)
        n = 3
        fam = DiagonalFamily(2, n)
        power = opalg.Power(opalg.density(np.array([[0.7, 0.2],
                                                    [0.2, 0.3]])), n)
        res = min_positive_part(power, optim.rate_threshold(0.1, n), fam)
        assert (res.value, res.fw_gap) == (0.2035685073015513,
                                           0.05411632006378192)
        assert (hypothesis_primal(power, 4.0, fam),
                hypothesis_dual(power, 4.0, fam)) == (0.5107323210772574,
                                                      0.5107323288254514)
        res = rel_ent_of_resource(power, fam)
        assert (res.value, res.fw_gap) == (0.37904454386369446,
                                           1.300626273348371e-13)


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
        probe = optim._dual_eval(
            lambda t, off: typeclass.pospart_eval(eta, 1.0, t, off), self.K,
            tau)
        return probe, [[m, 1.0 / len(mats)] for m in mats]

    def _hull_gap(self, probe, atoms):
        mats = np.array([m for m, _ in atoms])
        w = np.array([v for _, v in atoms])
        value, _, _, local = probe(np.tensordot(w, mats, 1))
        jac = local(mats)[0]
        return value, float(jac @ w - jac.min()), w

    def test_backtrack_on_a_kink(self):
        # X = w_1 K sigma0 with eta = sigma0: eta - X has a kink 1e-5 along
        # d, and the first trial (the radius, 1/2) overshoots it 5e4 times;
        # plain halving would take 16 probes to come back, a quadratic
        # model through the values 9, the tangents' meeting point 4
        eta = np.diag([0.6, 0.4]).astype(complex)
        probe = optim._dual_eval(
            lambda t, off: typeclass.pospart_eval(eta, 1.0, t, off), 2.0, 1e-8)
        mats = np.array([np.zeros_like(eta), 2.0 * eta])
        w, d = np.array([0.5 + 1e-5, 0.5 - 1e-5]), np.array([-1.0, 1.0])
        value, _, _, local = probe(np.tensordot(w, mats, 1))
        jac = local(mats)[0]
        probes = []

        def counted(x):
            probes.append(x)
            return probe(x)
        step = fw._backtrack(counted, mats, w, d, jac, value, 1.0,
                                fw.Tracker())
        assert step is not None and len(probes) <= 4
        trial, v = step[0], step[1]
        t = float(trial[1] - w[1])
        assert v < value and v <= value + 1e-4 * t * float(jac @ d)

    def test_annealed_dual_probe_count(self, monkeypatch):
        # every surrogate probe of one annealed dual on a random qudit
        # against the full state space: 18 with the capped tau = 1 warm-up,
        # 66 if the tau = 1e-3 stage starts cold at K times the member (53
        # to 78 over seeds 1 to 8, against 17 to 23 with the warm-up)
        dual_eval, probes = optim._dual_eval, []

        def counting(pospart, K, tau):
            probe = dual_eval(pospart, K, tau)

            def counted(x):
                probes.append(tau)
                return probe(x)
            return probe if tau is None else counted
        monkeypatch.setattr(optim, "_dual_eval", counting)
        monkeypatch.setattr(optim, "_DUAL_MEMO", None)
        eta = rand.random_density(np.random.default_rng(1), SystemShape((5,)))
        fam = FullSpaceFamily(5, 1)
        dual = hypothesis_dual(eta, 2.0, fam)
        assert 0 < len(probes) <= 30
        assert dual - hypothesis_primal(eta, 2.0, fam) <= 1e-12

    @pytest.mark.parametrize("duplicate", (False, True))
    def test_meets_hull_gap(self, duplicate):
        # a repeated atom makes the Hessian singular; the ridged KKT system
        # still gives finite steps, with no floating-point warning
        for seed in (61, 62, 63):
            probe, atoms = self._instance(seed, 1e-3, duplicate)
            reference = hull_minimum_slsqp(probe, atoms)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                fw._newton_reweight(atoms, probe, fw.Tracker(), 1e-10)
            value, gap, w = self._hull_gap(probe, atoms)
            assert np.isfinite(w).all() and w.min() >= 0.0
            assert abs(w.sum() - 1.0) <= 1e-12
            assert gap <= 1e-10
            assert value <= reference + 1e-12

    def test_singular_kkt_gives_no_step(self):
        # a zero Hessian and a constant gradient: the ridge is zero and the
        # KKT system singular, which must not produce NaN
        w = np.array([0.5, 0.5, 0.0])
        d = fw._newton_direction(w, np.zeros(3), np.zeros((3, 3)))
        assert d is None or (np.isfinite(d).all() and not d.any())

    def test_tracker_sees_the_exact_values(self):
        probe, atoms = self._instance(64, 1e-6)
        tracker = fw.Tracker()
        fw._newton_reweight(atoms, probe, tracker, 1e-10)
        mats = np.array([m for m, _ in atoms])
        w = np.array([v for _, v in atoms])
        assert tracker.best_value <= probe(np.tensordot(w, mats, 1))[1] \
            + 1e-15


class TestRelentNewton:
    """The gradient and Hessian that ``_relent_eval`` gives the corrective
    step, in atom coordinates, against central differences."""

    @staticmethod
    def _check(probe, mats):
        n = len(mats)
        w = np.full(n, 1.0 / n)
        jac, hess = probe(np.tensordot(w, mats, 1))[3](mats)
        steps = np.eye(n)

        def value(u):
            return probe(np.tensordot(u, mats, 1))[0]

        def gradient(u):
            return probe(np.tensordot(u, mats, 1))[3](mats)[0]

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
        probe = optim._relent_eval(rho, np.eye(d) / d)
        mats = np.array([rand.random_density(rng, SystemShape((d,))).mat
                         for _ in range(5)])
        assert np.linalg.eigvalsh(self._check(probe, mats)).min() > 0.0

    def test_diagonal_atoms_repeated_eigenvalues(self):
        # at equal weights the mixture is diag(5, 3, 5, 3) / 16, so both
        # divided differences meet coincident eigenvalues
        rng = np.random.default_rng(73)
        rho = rand.random_density(rng, SystemShape((4,))).mat
        probe = optim._relent_eval(rho, np.eye(4) / 4)
        mats = np.array([np.diag(v).astype(complex) for v in
                         ([0.5, 0.5, 0, 0], [0.25] * 4, [0, 0, 0.5, 0.5],
                          [0.5, 0, 0.5, 0])])
        self._check(probe, mats)


class TestProbe:
    """One probe per objective: the gradient matrix the oracle reads and the
    atom-coordinate gradient the corrective step reads agree."""

    @staticmethod
    def _check(probe, mats):
        w = np.random.default_rng(79).dirichlet(np.ones(len(mats)))
        _, _, grad, local = probe(np.tensordot(w, mats, 1))
        g = grad()
        want = np.array([np.trace(g @ m).real for m in mats])
        assert np.abs(local(mats)[0] - want).max() <= 1e-10

    @staticmethod
    def _states(rng, d, k=5):
        return np.array([rand.random_density(rng, SystemShape((d,))).mat
                         for _ in range(k)])

    def test_dense_positive_part(self):
        rng = np.random.default_rng(81)
        rho = rand.random_density(rng, SystemShape((4,))).mat
        self._check(typeclass.pospart_eval(rho, 1.5, 1e-3),
                    self._states(rng, 4))

    def test_type_class_coordinates(self):
        n = 5
        coords = typeclass.TypeClassCoords.of(DiagonalFamily(2, n),
                                           opalg.Power(coherence_qubit(), n))
        rng = np.random.default_rng(83)
        mats = np.array([np.diag(rng.dirichlet(np.ones(n + 1)))
                         for _ in range(5)])
        b = 2.0 ** (binary_entropy(0.8) * n)
        self._check(coords.pospart_eval(b, 1e-3), mats)

    def test_dual(self):
        rng = np.random.default_rng(85)
        eta = rand.random_density(rng, SystemShape((3,))).mat
        probe = optim._dual_eval(
            lambda t, off: typeclass.pospart_eval(eta, 1.0, t, off), 4.0, 1e-3)
        self._check(probe, 4.0 * self._states(rng, 3))

    def test_relative_entropy(self):
        rng = np.random.default_rng(87)
        rho = rand.random_density(rng, SystemShape((4,))).mat
        self._check(optim._relent_eval(rho, np.eye(4) / 4),
                    self._states(rng, 4))

    def test_exact_positive_part(self):
        # tau=None probes Tr[(rho - b sigma)_+] and its subgradient -b P_+
        rng = np.random.default_rng(89)
        rho = rand.random_density(rng, SystemShape((4,))).mat
        sigma = rand.random_density(rng, SystemShape((4,))).mat
        b = 1.5
        smooth, exact, grad, _ = typeclass.pospart_eval(rho, b, None)(sigma)
        want = opalg.positive_part_trace(rho - b * sigma)
        assert smooth == exact == want
        w, V = np.linalg.eigh(rho - b * sigma)
        pos = V[:, w > 0.0]
        assert 0 < pos.shape[1] < 4
        assert np.abs(grad() + b * pos @ pos.conj().T).max() <= 1e-12

    def test_exact_positive_part_ignores_rounding(self):
        # at a free target the rounding-level eigenvalues of rho - sigma
        # stay out of P, so the exit bound certifies the minimum 0
        rho = np.diag(opalg.kron_power(np.array([0.7, 0.3]), 3)) + 0j
        x = rho.copy()
        x[0, 0] -= 5e-16
        x[7, 7] += 5e-16
        bound = fw.fw_bound(typeclass.pospart_eval(rho, 1.0, None), x,
                                DiagonalFamily(2, 3).lmo)
        assert bound >= -1e-12

    def test_exact_type_class_coordinates(self):
        # tau=None in class coordinates probes the dense exact objective and
        # the class averages of -b P_+, and its bound against the type-class
        # oracle is never looser than the dense one against the vertex oracle
        n = 6
        power = opalg.operator(coherence_power_state(0.8, n), (2,) * n).mat
        fam = DiagonalFamily(2, n)
        coords = typeclass.TypeClassCoords.of(fam,
                                           opalg.Power(coherence_qubit(), n))
        labels, sizes = type_classes(2, n)
        rng = np.random.default_rng(91)
        for dy in (-0.1, 0.0, 0.1):
            b = 2.0 ** ((binary_entropy(0.8) + dy) * n)
            w = np.diag(rng.dirichlet(np.ones(sizes.size)))
            x = coords.dense(w)
            dense = typeclass.pospart_eval(power, b, None)
            reduced = coords.pospart_eval(b, None)
            _, e_d, g_d, _ = dense(x)
            s_r, e_r, g_r, local = reduced(w)
            class_avg = np.bincount(labels,
                                    weights=np.diag(g_d()).real) / sizes
            assert s_r == e_r and local is None
            assert abs(e_r - e_d) <= 1e-12
            assert np.abs(np.diag(g_r()) - class_avg).max() <= 1e-12
            vertex = fw.fw_bound(dense, x, lambda g: fam.lmo(g, 0))
            assert fw.fw_bound(reduced, w, coords.lmo) >= vertex - 1e-12


class TestAtomStack:
    """A ``local`` read off one prepared stack, whose facts are worked out
    once for every probe, equals one that re-derives them on every call,
    bit for bit."""

    @staticmethod
    def _per_call_in_eigenbasis(V, stack):
        """``in_eigenbasis`` with its diagonal test made on every call."""
        dirs = stack.mats
        if dirs.ndim == 3:
            diag = np.diagonal(dirs, axis1=1, axis2=2)
            if np.count_nonzero(dirs) != np.count_nonzero(diag):
                return V.conj().T @ dirs @ V
            dirs = diag
        return (V.conj().T * dirs[:, None, :]) @ V

    def _check(self, monkeypatch, probes, mats):
        """Every probe of ``probes`` at three mixtures of ``mats`` reads one
        shared stack, then a fresh array per call through the per-call
        transform."""
        rng = np.random.default_rng(97)
        points = [(probe, np.tensordot(rng.dirichlet(np.ones(len(mats))),
                                       mats, 1))
                  for probe in probes for _ in range(3)]
        stack = fw.AtomStack(mats)
        shared = [probe(x)[3](stack) for probe, x in points]
        for module in (optim, typeclass):
            monkeypatch.setattr(module, "in_eigenbasis",
                                self._per_call_in_eigenbasis)
        for (probe, x), derivs in zip(points, shared):
            for got, want in zip(derivs, probe(x)[3](mats.copy())):
                assert got.dtype == want.dtype
                assert got.tobytes() == want.tobytes()

    @staticmethod
    def _dual(eta, K=4.0, tau=1e-3):
        return optim._dual_eval(
            lambda t, off: typeclass.pospart_eval(eta, 1.0, t, off), K, tau)

    def test_dense_stacks(self, monkeypatch):
        # a complex and a real stack, each read by a probe with a complex
        # and one with a real eigenbasis
        rng = np.random.default_rng(93)
        shape = SystemShape((3,))
        complex_eta = rand.random_density(rng, shape).mat
        real_eta = complex_eta.real + 0j
        states = np.array([rand.random_density(rng, shape).mat
                           for _ in range(4)])
        for mats in (4.0 * states, 4.0 * states.real + 0j):
            self._check(monkeypatch, [self._dual(complex_eta),
                                      self._dual(real_eta),
                                      optim._relent_eval(complex_eta,
                                                         np.eye(3) / 3)],
                        mats)

    def test_diagonal_stacks(self, monkeypatch):
        rng = np.random.default_rng(95)
        eta = rand.random_density(rng, SystemShape((4,))).mat
        mats = np.array([np.diag(rng.dirichlet(np.ones(4))) + 0j
                         for _ in range(4)])
        mats[0] = 0.0  # the dual's atom 0
        self._check(monkeypatch, [self._dual(eta), self._dual(eta.real),
                                  typeclass.pospart_eval(eta, 1.5, 1e-6)],
                    mats)

    def test_type_class_coordinates(self, monkeypatch):
        # the mixed power reads the dense probe through the class averages
        # (``read``); the pure power evaluates in the T x T block
        n = 4
        fam = DiagonalFamily(2, n)
        mixed = opalg.Power(
            rand.random_density(np.random.default_rng(99),
                                SystemShape((2,))), n)
        pure = opalg.Power(coherence_qubit(), n)
        rng = np.random.default_rng(101)
        mats = np.array([np.diag(rng.dirichlet(np.ones(n + 1)))
                         for _ in range(4)])
        b = 2.0 ** (binary_entropy(0.8) * n)
        for target in (mixed, pure):
            coords = typeclass.TypeClassCoords.of(fam, target)
            assert (coords.small is None) == (target is mixed)
            self._check(monkeypatch, [
                coords.pospart_eval(b, 1e-3),
                optim._dual_eval(partial(coords.pospart_eval, 1.0), 4.0,
                                 1e-6),
                coords.read(optim._relent_eval(target.mat,
                                               np.eye(2 ** n) / 2 ** n))],
                mats)


class TestRealDataStaysReal:
    """On real instances no eigendecomposition receives a complex matrix:
    ``opalg.eigh`` is rebound in every module that holds it and records
    the kind of each matrix it is given."""

    MIXED = np.array([[0.7, 0.2], [0.2, 0.3]])
    ETA = np.diag([0.5, 0.3, 0.2])
    SIGMA0 = np.diag([0.2, 0.3, 0.5])

    @staticmethod
    def _spy(monkeypatch):
        kinds, eigh = [], opalg.eigh

        def spy(mat):
            kinds.append(np.iscomplexobj(mat))
            return eigh(mat)
        for name, module in list(sys.modules.items()):
            if name == "qstein" or name.startswith("qstein."):
                for attr, value in list(vars(module).items()):
                    if value is eigh:
                        monkeypatch.setattr(module, attr, spy)
        return kinds

    @pytest.mark.parametrize("case", [
        "pure power", "mixed power", "primal full", "dual full",
        "primal iid", "dual iid", "relent", "step1", "robustness"])
    def test_no_complex_eigh(self, monkeypatch, case):
        mixed = opalg.density(self.MIXED)
        eta = opalg.density(self.ETA)
        iid = SingletonIIDFamily(3, 1, sigma0=self.SIGMA0)
        run = {
            "pure power": lambda: min_positive_part(
                opalg.Power(coherence_qubit(), 6),
                optim.rate_threshold(0.3, 6), DiagonalFamily(2, 6)),
            "mixed power": lambda: min_positive_part(
                opalg.Power(mixed, 4), optim.rate_threshold(0.1, 4),
                DiagonalFamily(2, 4)),
            "primal full": lambda: hypothesis_primal(
                eta, 2.0, FullSpaceFamily(3, 1)),
            "dual full": lambda: hypothesis_dual(
                eta, 2.0, FullSpaceFamily(3, 1)),
            "primal iid": lambda: hypothesis_primal(eta, 2.0, iid),
            "dual iid": lambda: hypothesis_dual(eta, 2.0, iid),
            "relent": lambda: rel_ent_of_resource(
                opalg.Power(coherence_qubit(), 3), DiagonalFamily(2, 3)),
            "step1": lambda: pipeline.step1(
                coherence_qubit(), binary_entropy(0.8), 5,
                DiagonalFamily(2, 5)),
            "robustness": lambda: generalized_robustness(
                mixed, DiagonalFamily(2, 1)),
        }[case]
        monkeypatch.setattr(optim, "_DUAL_MEMO", None)
        kinds = self._spy(monkeypatch)
        run()
        assert kinds and not any(kinds)


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

    def test_weak_duality_check_reaches_full_family(self):
        # trial i draws the full family when i % 3 == 2, so three trials are
        # the fewest that run it
        res = verify.check_weak_duality(3, 0)
        assert len(res.margins) == 3
        assert res.passed

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
                for K in (1e-20, 1e-13, 0.5, 1.0):
                    dual = hypothesis_dual(eta, K, fam, FAST)
                    assert abs(dual - 1.0) <= 1e-9

    def test_dual_power_state_matches_type_class_oracle(self, monkeypatch):
        # an invariant input on 7 copies, on the symmetric subspace: the
        # solve runs over invariant X in type-class coordinates
        y = binary_entropy(0.8) + 0.1
        K = 2.0 ** (y * 7)
        eta = opalg.Power(coherence_qubit(), 7)
        # a memo left on equal inputs but another family object must not
        # stand in for the solve the spy watches
        primal = hypothesis_primal(eta, K, DiagonalFamily(2, 7), FAST)
        calls = []
        pospart = typeclass.TypeClassCoords.pospart_eval
        monkeypatch.setattr(typeclass.TypeClassCoords, "pospart_eval",
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
    def _count_lps(monkeypatch):
        """The list of the arguments of every ``lp.maximize_packing`` call
        from here."""
        calls = []
        solve = lp.maximize_packing
        monkeypatch.setattr(lp, "maximize_packing",
                            lambda *a: calls.append(a) or solve(*a))
        return calls

    @staticmethod
    def _count_solves(monkeypatch):
        """Empty the dual's memo and count the annealed solves from here."""
        monkeypatch.setattr(optim, "_DUAL_MEMO", None)
        return _count_anneals(monkeypatch)

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
        target = SimpleNamespace(mat=mat)
        optim._dual_search(target, 3.0, fam, FAST)
        assert len(calls) == 5
        mat[0, 1] += 0.01
        mat[1, 0] += 0.01
        optim._dual_search(target, 3.0, fam, FAST)
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

    def test_primal_first_round_needs_no_lp(self, monkeypatch):
        # with no cuts the LP's optimum is e = 1 where the gain is positive;
        # on disjoint supports that test already meets the budget
        calls = self._count_lps(monkeypatch)
        fam = SingletonIIDFamily(3, 1, sigma0=np.diag([0.0, 0.0, 1.0]))
        eta = opalg.density(np.diag([0.6, 0.4, 0.0]))
        assert abs(hypothesis_primal(eta, 4.0, fam, FAST) - 1.0) <= 1e-12
        assert not calls

    def test_primal_one_lp_per_bracket(self, monkeypatch):
        # the dual's atoms are the cuts an optimal test makes tight, so the
        # first linear program already meets the budget
        calls = self._count_lps(monkeypatch)
        rng = np.random.default_rng(29)
        for d in range(2, 7):
            for K in (2.0, 4.0, 8.0):
                eta = rand.random_density(rng, SystemShape((d,)))
                calls.clear()
                p = hypothesis_primal(eta, K, FullSpaceFamily(d, 1), FAST)
                assert len(calls) <= 1
                assert abs(p - 1.0 / K) <= 1e-9
        eta_diag, sigma_diag = rng.dirichlet(np.ones(5), 2)
        fam = SingletonIIDFamily(5, 1, sigma0=np.diag(sigma_diag))
        p = hypothesis_primal(opalg.density(np.diag(eta_diag)), 4.0, fam,
                              FAST)
        want = classical_neyman_pearson(eta_diag, sigma_diag, 0.25)
        assert abs(p - want) <= 1e-9

    @staticmethod
    def _record_stages(monkeypatch):
        """The list of (oracle calls, call cap) of every Frank-Wolfe stage
        from here."""
        stages = []
        fcfw = fw._fcfw_minimize

        def recorded(probe, lmo, atoms, max_outer, *rest):
            out = fcfw(probe, lmo, atoms, max_outer, *rest)
            stages.append((out[2], max_outer))
            return out
        monkeypatch.setattr(fw, "_fcfw_minimize", recorded)
        return stages

    def test_dual_stages_end_before_their_cap(self, monkeypatch):
        # a stage ends once an oracle answer earns no weight in the hull
        # re-solve, instead of asking the oracle again up to its cap; the
        # full family's value is 1/K
        stages = self._record_stages(monkeypatch)
        rng = np.random.default_rng(29)
        settings = SolverSettings(120, 1e-8)
        for d in range(2, 7):
            for K in (2.0, 4.0, 8.0):
                eta = rand.random_density(rng, SystemShape((d,)))
                stages.clear()
                val = hypothesis_dual(eta, K, FullSpaceFamily(d, 1), settings)
                assert all(calls < cap for calls, cap in stages)
                assert abs(val - 1.0 / K) <= 1e-12

    def test_dual_warmup_is_capped_and_followed(self, monkeypatch):
        # the tau = 1 stage only warms the schedule up: it asks the oracle
        # at most DUAL_WARMUP times, and never ends the schedule, even
        # where its first oracle call certifies its start
        stages = self._record_stages(monkeypatch)
        rng = np.random.default_rng(31)
        for d in range(2, 6):
            eta = rand.random_density(rng, SystemShape((d,)))
            for K in (0.5, 1.0, 2.0):
                monkeypatch.setattr(optim, "_DUAL_MEMO", None)
                stages.clear()
                hypothesis_dual(eta, K, FullSpaceFamily(d, 1))
                calls, cap = stages[0]
                assert cap == optim.DUAL_WARMUP and 0 < calls <= cap
                assert len(stages) >= 2

    def test_warmup_spares_an_expensive_oracle(self, monkeypatch):
        # the warm-up's cap keeps a seesaw oracle from collecting product
        # atoms at tau = 1: Bell x2 against the separable hull at K = 4
        # takes 24 oracle calls with the cap, 36 with no warm-up and 104
        # with a warm-up capped at the stage cap only
        calls = []
        lmo = SeparableHullFamily.lmo
        monkeypatch.setattr(SeparableHullFamily, "lmo", lambda *a, **kw: (
            calls.append(1) or lmo(*a, **kw)))
        monkeypatch.setattr(optim, "_DUAL_MEMO", None)
        bell = np.zeros(4)
        bell[0] = bell[3] = 1.0 / math.sqrt(2.0)
        phi = np.outer(bell, bell)
        eta = opalg.density(np.kron(phi, phi), (4, 4))
        hypothesis_dual(eta, 4.0, parse_family_spec("sep:2x2", 4, 2))
        assert 0 < len(calls) <= 39

    def test_one_member_brackets_are_exact_and_solve_no_lp(self,
                                                           monkeypatch):
        # on {s} the dual is a 1-D problem in b and the primal's one cut
        # has a closed form, so both ends meet and no LP is solved
        calls = self._count_lps(monkeypatch)

        def bracket(eta, K, fam):
            ends = (hypothesis_primal(eta, K, fam, FAST),
                    hypothesis_dual(eta, K, fam, FAST))
            assert not calls
            return ends

        rng = np.random.default_rng(4)  # criterion 4's commuting instances
        for _ in range(50):
            d = int(rng.integers(2, 5))
            eta_diag = rng.dirichlet(np.ones(d))
            sig_diag = rng.dirichlet(np.ones(d)) + 0.05
            sig_diag /= sig_diag.sum()
            K = float(rng.choice([2.0, 4.0, 8.0]))
            want = classical_neyman_pearson(eta_diag, sig_diag, 1.0 / K)
            fam = SingletonIIDFamily(d, 1, sigma0=np.diag(sig_diag))
            for end in bracket(opalg.density(np.diag(eta_diag)), K, fam):
                assert abs(end - want) <= 1e-12
        rng = np.random.default_rng(53)
        for d in range(2, 7):
            shape = SystemShape((d,))
            for K in (2.0, 4.0, 8.0):
                fam = SingletonIIDFamily(
                    d, 1, sigma0=rand.random_density(rng, shape).mat)
                p, du = bracket(rand.random_density(rng, shape), K, fam)
                assert du - p <= 1e-12
        fam = SingletonIIDFamily(2, 1, sigma0=np.diag([1.0, 0.0]))
        for end in bracket(opalg.density(np.eye(2) / 2), 4.0, fam):
            assert abs(end - 0.625) <= 1e-12
        eta_diag = rng.dirichlet(np.ones(4))
        sig = np.array([0.7, 0.3])
        want = classical_neyman_pearson(eta_diag, np.kron(sig, sig), 1.0 / 3.0)
        for end in bracket(opalg.density(np.diag(eta_diag), (2, 2)), 3.0,
                           SingletonIIDFamily(2, 2, sigma0=np.diag(sig))):
            assert abs(end - want) <= 1e-12

    @staticmethod
    def _count_probes(monkeypatch):
        """Exact probes per one-member solve: one entry per solve, which
        makes one ``pospart_eval``."""
        counts = []
        pospart = optim.pospart_eval

        def counted(*args):
            probe = pospart(*args)
            counts.append(0)

            def run(x):
                counts[-1] += 1
                return probe(x)
            return run
        monkeypatch.setattr(optim, "pospart_eval", counted)
        return counts

    def test_one_member_search_is_cheap_and_exact(self, monkeypatch):
        # g(b) = Tr[(eta - b s)_+] + b/K is convex, and piecewise linear
        # when eta and s commute: the tangents at the bracket's ends meet on
        # the kink, so a bracket takes a handful of probes, not a bisection
        # to adjacent floats (57)
        counts = self._count_probes(monkeypatch)

        def bracket(eta, K, fam):
            monkeypatch.setattr(optim, "_DUAL_MEMO", None)
            return (hypothesis_primal(eta, K, fam, FAST),
                    hypothesis_dual(eta, K, fam, FAST))

        rng = np.random.default_rng(4)  # criterion 4's commuting instances
        for _ in range(50):
            d = int(rng.integers(2, 5))
            eta_diag = rng.dirichlet(np.ones(d))
            sig_diag = rng.dirichlet(np.ones(d)) + 0.05
            sig_diag /= sig_diag.sum()
            K = float(rng.choice([2.0, 4.0, 8.0]))
            want = classical_neyman_pearson(eta_diag, sig_diag, 1.0 / K)
            fam = SingletonIIDFamily(d, 1, sigma0=np.diag(sig_diag))
            for end in bracket(opalg.density(np.diag(eta_diag)), K, fam):
                assert abs(end - want) <= 1e-12
        assert len(counts) == 50 and max(counts) <= 10
        counts.clear()
        rng = np.random.default_rng(53)
        for d in range(2, 7):
            shape = SystemShape((d,))
            for K in (2.0, 4.0, 8.0):
                fam = SingletonIIDFamily(
                    d, 1, sigma0=rand.random_density(rng, shape).mat)
                p, du = bracket(rand.random_density(rng, shape), K, fam)
                assert 0.0 <= du - p <= 1e-12
        assert len(counts) == 15 and np.median(counts) <= 20
        # (eta, s, K, value, probes): b* = 0 where eta is orthogonal to s;
        # g flat on [0, K], so its minimum is at K as well as at 0 (the
        # slope at K is never negative: eta > K s on P bounds Tr[P s] below
        # 1/K); the singular member, a kink at b = 1/2; a kink at b = 3 of
        # [0, 4], whose tangents meet at 3.0 exactly
        cases = (([1.0, 0.0], [0.0, 1.0], 4.0, 1.0, 1),
                 ([1.0, 0.0], [0.25, 0.75], 4.0, 1.0, 1),
                 ([0.5, 0.5], [1.0, 0.0], 4.0, 0.625, 3),
                 ([15 / 16, 1 / 16], [5 / 16, 11 / 16], 4.0, 0.75, 4))
        for eta_diag, sig_diag, K, want, probes in cases:
            counts.clear()
            fam = SingletonIIDFamily(2, 1, sigma0=np.diag(sig_diag))
            for end in bracket(opalg.density(np.diag(eta_diag)), K, fam):
                assert abs(end - want) <= 1e-12
            assert counts == [probes]

    def test_one_row_optimum_matches_linprog(self):
        from scipy.optimize import linprog
        rng = np.random.default_rng(59)
        for i in range(60):
            d = int(rng.integers(1, 9))
            gain = rng.normal(size=d)  # negative gains included
            row = rng.random(d) * (0.2 if i % 3 == 0 else 2.0)  # sum < 1
            row[rng.random(d) < 0.2] = 0.0  # free entries
            e = optim._one_row_optimum(gain, row)
            assert ((0.0 <= e) & (e <= 1.0)).all()
            assert row @ e <= 1.0 + 1e-12
            res = linprog(-gain, A_ub=row[None, :], b_ub=[1.0],
                          bounds=(0.0, 1.0), method="highs")
            assert abs(gain @ e + res.fun) <= 1e-9

    def test_primal_power_state_meets_type_class_dual(self):
        # the primal is a lower bound on the exact dual optimum, and the
        # test read off the dual's probe comes close to it
        for n in range(2, 8):
            eta = opalg.Power(coherence_qubit(), n)
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

    def test_relent_certifies_at_last_iterate(self, monkeypatch):
        # E_R of coherence 0.9 on three qubit copies is 3 h(0.9); the best
        # probe leaves a Frank-Wolfe gap above tol, so a second bound is
        # taken, at the stage's last iterate, and that one certifies
        bounds = []
        fw_bound = optim.fw_bound

        def spy(*args, **kwargs):
            bounds.append(fw_bound(*args, **kwargs))
            return bounds[-1]
        monkeypatch.setattr(optim, "fw_bound", spy)
        res = rel_ent_of_resource(opalg.Power(coherence_qubit(0.9), 3),
                                  DiagonalFamily(2, 3),
                                  SolverSettings(max_iters=200, tol=1e-9))
        assert len(bounds) == 2
        assert res.converged
        assert abs(res.value / 3 - binary_entropy(0.9)) < 1e-8

    @pytest.mark.parametrize("copies,F", [(1, 1.0), (2, 1.0), (1, 0.9)],
                             ids=["bell-x1", "bell-x2", "isotropic-0.9"])
    def test_relent_separable_hull(self, copies, F):
        # E_R on the separable hull is 1 per Bell pair and 1 - h(F) for the
        # isotropic qubit pair of fidelity F; each solve certifies against
        # the seesaw's answers
        bell = np.zeros(4)
        bell[0] = bell[3] = 1.0 / math.sqrt(2.0)
        phi = np.outer(bell, bell)
        iso = F * phi + (1.0 - F) * (np.eye(4) - phi) / 3.0
        rho = iso if copies == 1 else np.kron(iso, iso)
        res = rel_ent_of_resource(
            opalg.density(rho, (4,) * copies),
            SeparableHullFamily(4, copies, dim_a=2, dim_b=2),
            SolverSettings(max_iters=400, tol=1e-7, seed=0))
        assert res.converged and res.fw_gap <= 1e-7
        assert abs(res.value - copies * (1.0 - binary_entropy(F))) < 1e-6

    @pytest.mark.parametrize("n", (5, 6))
    def test_relent_on_powers(self, n):
        # the relative entropy of coherence is additive: n h(0.8) on the
        # n-th power, whose optimum mixes all 2^n diagonal vertices
        power = opalg.Power(coherence_qubit(), n)
        res = rel_ent_of_resource(power, DiagonalFamily(2, n),
                                  SolverSettings(max_iters=200))
        assert abs(res.value / n - binary_entropy(0.8)) <= 1e-8
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
        want = relative_entropy(rho, opalg.density(sigma0))
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

    @pytest.mark.parametrize("s_tol", [0.0, math.nan, math.inf])
    def test_robustness_rejects_bad_s_tol(self, s_tol):
        # at 0 the bisection never ended, at nan it returned 1 unbisected
        plus = opalg.density(0.5 * np.ones((2, 2)))
        with pytest.raises(ValueError, match="s_tol"):
            generalized_robustness(plus, DiagonalFamily(2, 1), FAST, s_tol)

    def test_robustness_ends_at_adjacent_floats(self):
        # below the float spacing near 1 the bracket cannot reach s_tol
        rho = opalg.density(np.array([[0.5, 0.3], [0.3, 0.5]]))
        got = generalized_robustness(rho, DiagonalFamily(2, 1), FAST, 1e-300)
        assert abs(got - generalized_robustness(rho, DiagonalFamily(2, 1),
                                                FAST)) <= 1e-6

    def test_robustness_random_vs_grid(self):
        rho = rand.random_density(RNG, SystemShape((2,)))
        got = generalized_robustness(rho, DiagonalFamily(2, 1), FAST)
        want = robustness_qubit_diagonal_grid(rho.mat)
        assert abs(got - want) < 5e-4

    @pytest.mark.parametrize("d", [3, 4])
    def test_robustness_maximally_coherent(self, d):
        # the robustness of coherence of a pure state is its l1 coherence
        # (Napoli et al., PRL 116, 150502, 2016), here d - 1 > 1: past the
        # first bracket [0, 1], so the bracket doubles before it bisects
        rho = opalg.density(np.ones((d, d)) / d)
        s, sigma = generalized_robustness(rho, DiagonalFamily(d, 1), FAST,
                                          return_witness=True)
        assert abs(s - (d - 1)) <= 1e-5
        assert opalg.eigh((1.0 + s) * sigma.mat - rho.mat)[0][0] >= -1e-9

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


class TestDimensionCheck:
    """A target whose dimension differs from the family's is refused before
    any work, on every entry point."""

    RHO = opalg.density(np.diag([0.6, 0.4]))
    FAM = DiagonalFamily(2, 2)

    @pytest.mark.parametrize("b", (0.0, 1.5))
    def test_min_positive_part(self, b):
        with pytest.raises(ShapeMismatch):
            min_positive_part(self.RHO, b, self.FAM, FAST)

    @pytest.mark.parametrize("solve", (rel_ent_of_resource,
                                       distance_to_family,
                                       generalized_robustness))
    def test_measures(self, solve):
        with pytest.raises(ShapeMismatch):
            solve(self.RHO, self.FAM, FAST)

    @pytest.mark.parametrize("solve", (hypothesis_primal, hypothesis_dual))
    def test_hypothesis(self, solve):
        with pytest.raises(ShapeMismatch):
            solve(self.RHO, 2.0, self.FAM, FAST)

    def test_membership(self):
        with pytest.raises(ShapeMismatch):
            self.FAM.membership(self.RHO, 1e-8)
