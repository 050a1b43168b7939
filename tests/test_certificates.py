import numpy as np
import pytest

from qstein.certificates import CheckResult, randomized_check


def _synthetic(name="synthetic", tolerance=0.5):
    """Trial i returns i margins: none at i = 0, then the next draws."""
    @randomized_check(name, tolerance)
    def check(rng, i, seed):
        return [float(rng.uniform(-1.0, 1.0)) - seed for _ in range(i)]
    return check


def test_margins_join_in_trial_order():
    res = _synthetic()(4, 3)
    rng = np.random.default_rng(3)
    want = [float(rng.uniform(-1.0, 1.0)) - 3 for _ in range(1 + 2 + 3)]
    assert isinstance(res, CheckResult)
    assert res.name == "synthetic" and res.tolerance == 0.5
    assert res.margins.tolist() == want


def test_trial_with_no_margins_is_skipped():
    @randomized_check("skip-odd", 0.0)
    def check(rng, i, seed):
        return [] if i % 2 else [float(i)]
    assert check(5, 0).margins.tolist() == [0.0, 2.0, 4.0]


@pytest.mark.parametrize("margins, worst, passed", [
    ([0.3, -0.1, 2.0], -0.1, True),
    ([0.3, -0.1000001], -0.1000001, False),
    ([-0.1], -0.1, True),
])
def test_worst_and_passed(margins, worst, passed):
    res = CheckResult("c", np.array(margins), 0.1)
    assert res.worst == worst
    assert res.passed is passed
