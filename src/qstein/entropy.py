"""Entropic functionals and the quantitative bounds used by the certificates.

All logarithms are base 2.  The relative entropy is infinite when the first
argument leaks weight outside the support of the second; the leak is measured
numerically and compared with an explicit tolerance, since the dichotomy
"finite iff supported" needs a concrete criterion in floating point.  Every
functional returns a plain float, ``math.inf`` for an infinite relative
entropy.
"""

from __future__ import annotations

import math

import numpy as np

from . import opalg
from .certificates import Certificate
from .errors import PremiseFailed, SingularSigma
from .opalg import DensityMatrix, HermitianOperator, eigh

SUPPORT_LEAK_TOL = 1e-9
DOMINANCE_TOL = 1e-9


def binary_entropy(p: float) -> float:
    """-p log2 p - (1-p) log2 (1-p) with the 0 log 0 = 0 convention."""
    if p < 0.0 or p > 1.0:
        raise ValueError(f"binary entropy needs p in [0,1], got {p}")
    out = 0.0
    if p > 0.0:
        out -= p * math.log2(p)
    if p < 1.0:
        out -= (1.0 - p) * math.log2(1.0 - p)
    return out


def tr_x_log_x(mat: np.ndarray) -> float:
    """Tr[x log2 x] = sum lambda log2 lambda over the positive spectrum of
    the Hermitian matrix x."""
    w = eigh(mat)[0]
    w = w[w > 0.0]
    return float((w * np.log2(w)).sum())


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """-sum lambda log2 lambda over the nonzero spectrum."""
    return -tr_x_log_x(rho.mat)


def relative_entropy(rho: HermitianOperator,
                     sigma: HermitianOperator) -> float:
    """Tr[rho (log2 rho - log2 sigma)] in bits, math.inf outside sigma's
    support.

    The support test projects rho onto the null space of sigma
    (``opalg.support_split``) and compares the leaked weight against
    ``SUPPORT_LEAK_TOL``.
    """
    if rho.shape.dims != sigma.shape.dims:
        raise opalg.ShapeMismatch("relative entropy needs matching shapes")
    w, V, on = opalg.support_split(sigma.mat)
    null_cols = V[:, ~on]
    leak = float(np.einsum("ij,jk,ki->", null_cols.conj().T, rho.mat,
                           null_cols).real)
    if leak > SUPPORT_LEAK_TOL:
        return math.inf
    log_sigma = (V[:, on] * np.log2(w[on])) @ V[:, on].conj().T
    tr_rho_log_sigma = float(np.trace(rho.mat @ log_sigma).real)
    return tr_x_log_x(rho.mat) - tr_rho_log_sigma


def entropy_continuity_bound(d: int, eps: float) -> float:
    """2 eps log2(d) + h(2 eps), valid for trace distance at most eps <= 1/2."""
    if eps < 0.0 or eps > 0.5:
        raise ValueError(f"continuity bound needs eps in [0, 1/2], got {eps}")
    return 2.0 * eps * math.log2(d) + binary_entropy(2.0 * eps)


def relent_continuity_bound(m_tilde: float, eps: float) -> float:
    """Continuity of D(rho||.) over states dominating m_tilde * rho: the
    bound 3 log2^2(1/m_tilde) / (1 - m_tilde) * sqrt(eps/2)."""
    if not 0.0 < m_tilde < 1.0:
        raise ValueError(f"m_tilde must lie in (0,1), got {m_tilde}")
    if eps < 0.0:
        raise ValueError("eps must be nonnegative")
    return (3.0 * math.log2(1.0 / m_tilde) ** 2 / (1.0 - m_tilde)
            * math.sqrt(eps / 2.0))


def relent_upper_bound(sigma: DensityMatrix) -> float:
    """log2(1/lambda_min(sigma)); dominates D(rho||sigma) for every rho."""
    w, _, on = opalg.support_split(sigma.mat)
    if not on[0]:
        raise SingularSigma(f"lambda_min {w[0]:.3e} is below the support cutoff")
    return float(-np.log2(w[0]))


def dominance_to_relent_bound(rho: DensityMatrix, sigma: DensityMatrix,
                              alpha: float) -> Certificate:
    """From rho <= alpha sigma (checked) conclude D(rho||sigma) <= log2 alpha."""
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    gap = alpha * sigma - rho
    lam = gap.lambda_min()
    if lam < -DOMINANCE_TOL:
        raise PremiseFailed(f"rho <= alpha sigma fails: lambda_min = "
                            f"{lam:.3e} < -{DOMINANCE_TOL:.0e}")
    margin = math.log2(alpha) - relative_entropy(rho, sigma)
    return Certificate("dominance-to-relative-entropy", margin, DOMINANCE_TOL)
