import math

import numpy as np
import pytest

from qstein import entropy, opalg, rand
from qstein.errors import PremiseFailed, SingularSigma
from qstein.opalg import SystemShape

RNG = np.random.default_rng(77)


def test_entropy_pure_state_zero():
    v = rand.random_pure(RNG, SystemShape((4,)))
    assert entropy.von_neumann_entropy(v.density()) < 1e-12


def test_entropy_maximally_mixed():
    mm = opalg.maximally_mixed(SystemShape((2,)))
    assert abs(entropy.von_neumann_entropy(mm) - 1.0) < 1e-14


def test_entropy_matches_binary():
    rho = opalg.density(np.diag([0.75, 0.25]))
    assert abs(entropy.von_neumann_entropy(rho)
               - entropy.binary_entropy(0.75)) < 1e-14
    assert abs(entropy.binary_entropy(0.75) - 0.81128) < 5e-6


@pytest.mark.parametrize("p,want", [(0.0, 0.0), (0.5, 1.0), (1.0, 0.0),
                                    (0.8, 0.721928)])
def test_binary_entropy_values(p, want):
    assert abs(entropy.binary_entropy(p) - want) < 1e-6


def test_binary_entropy_domain():
    with pytest.raises(ValueError):
        entropy.binary_entropy(1.2)


class TestRelativeEntropy:
    def test_self_zero(self):
        rho = rand.random_density(RNG, SystemShape((3,)))
        assert abs(entropy.relative_entropy(rho, rho)) < 1e-9

    def test_support_condition(self):
        r0 = opalg.density(np.diag([1.0, 0.0]))
        r1 = opalg.density(np.diag([0.0, 1.0]))
        assert entropy.relative_entropy(r0, r1) == math.inf

    def test_plus_vs_mixed(self):
        plus = opalg.density(0.5 * np.ones((2, 2)))
        d = entropy.relative_entropy(plus, opalg.maximally_mixed(
            SystemShape((2,))))
        assert abs(d - 1.0) < 1e-12

    def test_nonnegative(self):
        for _ in range(50):
            rho = rand.random_density(RNG, SystemShape((3,)))
            sig = rand.random_density(RNG, SystemShape((3,)))
            assert entropy.relative_entropy(rho, sig) >= -1e-9

    def test_additivity_on_products(self):
        shape = SystemShape((2,))
        r1, r2 = rand.random_density(RNG, shape), rand.random_density(RNG, shape)
        s1, s2 = rand.random_density(RNG, shape), rand.random_density(RNG, shape)
        r12, s12 = opalg.tensor(r1, r2), opalg.tensor(s1, s2)
        joint = entropy.relative_entropy(
            opalg.DensityMatrix(r12.shape, r12.mat),
            opalg.DensityMatrix(s12.shape, s12.mat))
        split = (entropy.relative_entropy(r1, s1)
                 + entropy.relative_entropy(r2, s2))
        assert abs(joint - split) < 1e-8


class TestEntropyContinuityBound:
    def test_zero_eps(self):
        assert entropy.entropy_continuity_bound(5, 0.0) == 0.0

    def test_scalar_value(self):
        # 2*(1/4)*log2(2) + h(1/2) = 0.5 + 1
        assert abs(entropy.entropy_continuity_bound(2, 0.25) - 1.5) < 1e-14

    def test_domain(self):
        with pytest.raises(ValueError):
            entropy.entropy_continuity_bound(2, 0.6)


class TestRelentContinuityBound:
    def test_zero_eps(self):
        assert entropy.relent_continuity_bound(0.5, 0.0) == 0.0

    def test_scalar_value(self):
        # 3 * 1 / (1/2) * sqrt(1/16) = 1.5
        b = entropy.relent_continuity_bound(0.5, 0.125)
        assert abs(b - 1.5) < 1e-14

    def test_domain(self):
        with pytest.raises(ValueError):
            entropy.relent_continuity_bound(1.5, 0.1)
        with pytest.raises(ValueError):
            entropy.relent_continuity_bound(0.5, -0.1)


class TestRelentUpperBound:
    def test_maximally_mixed(self):
        mm = opalg.maximally_mixed(SystemShape((4,)))
        assert abs(entropy.relent_upper_bound(mm) - 2.0) < 1e-12

    def test_scalar(self):
        sig = opalg.density(np.diag([0.9, 0.1]))
        assert abs(entropy.relent_upper_bound(sig) - math.log2(10)) < 1e-12

    def test_singular_rejected(self):
        with pytest.raises(SingularSigma):
            entropy.relent_upper_bound(opalg.density(np.diag([1.0, 0.0])))


class TestDominanceToRelent:
    def test_equal_states(self):
        rho = rand.random_density(RNG, SystemShape((3,)))
        cert = entropy.dominance_to_relent_bound(rho, rho, 1.0)
        assert cert.passed and abs(cert.margin) < 1e-8

    def test_pure_vs_mixed_tight(self):
        v = rand.random_pure(RNG, SystemShape((2,)))
        mm = opalg.maximally_mixed(SystemShape((2,)))
        cert = entropy.dominance_to_relent_bound(v.density(), mm, 2.0)
        # bound log2(2) = 1 equals D exactly
        assert cert.passed and abs(cert.margin) < 1e-9

    def test_premise_violated(self):
        r0 = opalg.density(np.diag([1.0, 0.0]))
        r1 = opalg.density(np.diag([0.0, 1.0]))
        with pytest.raises(PremiseFailed):
            entropy.dominance_to_relent_bound(r0, r1, 10.0)
