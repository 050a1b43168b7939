"""A small dense simplex for packing programs in a box.

``maximize_packing`` solves max gain . e subject to rows @ e <= 1 and
0 <= e <= 1, where every entry of ``rows`` is at least 0 up to rounding.
These are the cutting-plane programs of ``optim.hypothesis_primal``: a
handful of variables (one per eigenvector of the test) and one row per cut.

Every right-hand side is 1, so the slack basis at e = 0 is feasible and no
phase 1 is needed.  The bounds e <= 1 are explicit rows of the tableau.
Pivots follow Bland's rule (Bland, Math. Oper. Res. 2, 1977): the entering
column is the least-index one whose reduced cost is below ``-REDUCED_COST``,
and ratio ties leave by the least basic index, so the method cannot cycle.
Each pivot keeps the basic point feasible to rounding, so the point
returned when the pivot cap is reached is feasible too.
"""

from __future__ import annotations

import numpy as np

# a column enters while its reduced cost is below -REDUCED_COST
REDUCED_COST = 1e-12
# column entries at or below PIVOT_FLOOR are rounding, never a pivot
PIVOT_FLOOR = 1e-12
# pivots per tableau row before the simplex stops at its current point
PIVOTS_PER_ROW = 16


def maximize_packing(gain: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """argmax gain . e subject to rows @ e <= 1 and 0 <= e <= 1, for an
    (m, n) array of rows >= 0 up to rounding (m may be 0): a vertex, found
    in at most ``PIVOTS_PER_ROW`` (m + n) pivots, clipped to [0, 1]."""
    n, m = gain.size, len(rows)
    k = m + n
    # [A | I | 1] over the objective row [-gain | 0 | 0], A the rows above
    # the identity of the bounds; column n + i is the slack of row i
    T = np.zeros((k + 1, n + k + 1))
    T[:m, :n] = rows
    T[:k, n:-1] = np.eye(k)
    T[m:k, :n] = T[m:k, n + m:-1]
    T[:k, -1] = 1.0
    T[k, :n] = -gain
    reduced, values = T[k, :-1], T[:k, -1]
    basis = np.arange(n, n + k)
    for _ in range(PIVOTS_PER_ROW * k):
        j = (reduced < -REDUCED_COST).argmax()
        if reduced[j] >= -REDUCED_COST:
            break
        # rounding can leave a basic value just below 0: it ties at 0
        ratios = np.divide(values.clip(0.0), T[:k, j], out=np.full(k, np.inf),
                           where=T[:k, j] > PIVOT_FLOOR)
        least = ratios.min()
        if least == np.inf:
            break
        r = np.where(ratios == least, basis, n + k).argmin()
        _pivot(T, r, j)
        basis[r] = j
    x = np.zeros(n + k)
    x[basis] = values
    return x[:n].clip(0.0, 1.0)


def _pivot(T: np.ndarray, r: int, j: int) -> None:
    """Pivot the tableau T in place on row r, column j."""
    T[r] /= T[r, j]
    col = T[:, j].copy()
    col[r] = 0.0
    T -= col[:, None] * T[r]
