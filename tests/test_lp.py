import numpy as np
import pytest

from qstein import lp


def _highs_optimum(gain, rows):
    """max gain . e subject to rows @ e <= 1, 0 <= e <= 1, by HiGHS."""
    from scipy.optimize import linprog
    res = linprog(-gain, A_ub=rows if len(rows) else None,
                  b_ub=np.ones(len(rows)) if len(rows) else None,
                  bounds=(0.0, 1.0), method="highs")
    assert res.status == 0
    return -res.fun


def _instances():
    """Seeded packing programs: n = 1..12, and 128, the width of a primal
    on a qubit power at N = 7; m = 0..10 rows; negative gains, free
    entries, zero and duplicated rows, and entries of -1e-17 from
    rounding."""
    rng = np.random.default_rng(59)
    for i in range(240):
        n = 128 if i % 20 == 0 else int(rng.integers(1, 13))
        m = int(rng.integers(0, 11))
        gain = rng.normal(size=n)
        rows = rng.random((m, n)) * rng.choice([0.2, 2.0, 10.0])
        rows[rng.random((m, n)) < 0.2] = 0.0
        if m and i % 3 == 0:
            rows[rng.integers(m)] = 0.0
        if m > 1 and i % 4 == 1:
            rows[rng.integers(1, m)] = rows[0]
        if i % 5 == 2:  # ties in gains and in ratios
            gain, rows = np.round(gain), np.round(2.0 * rows) / 2.0
        rows[rng.random((m, n)) < 0.1] = -1e-17
        yield gain, rows


def test_matches_highs():
    for gain, rows in _instances():
        e = lp.maximize_packing(gain, rows)
        assert ((0.0 <= e) & (e <= 1.0)).all()
        assert (rows @ e <= 1.0 + 1e-12).all()
        assert abs(gain @ e - _highs_optimum(gain, rows)) <= 1e-9


@pytest.mark.parametrize("n", [12, 128])
def test_tied_instance_ends_within_pivot_cap(monkeypatch, n):
    # equal gains, ten copies of one row of equal entries: every ratio test
    # ties, which is where a pivot rule without Bland's tie-break can cycle
    pivots = []
    pivot = lp._pivot
    monkeypatch.setattr(lp, "_pivot",
                        lambda *a: pivots.append(a[1:]) or pivot(*a))
    gain = np.ones(n)
    rows = np.full((10, n), 3.0 / n)
    e = lp.maximize_packing(gain, rows)
    assert len(pivots) < lp.PIVOTS_PER_ROW * (10 + n)
    assert abs(gain @ e - n / 3.0) <= 1e-9
    assert (rows @ e <= 1.0 + 1e-12).all()

