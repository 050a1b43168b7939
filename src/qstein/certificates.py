"""Numeric certificates for verified inequalities, and the one seeded trial
loop behind every randomized check."""

from __future__ import annotations

from dataclasses import dataclass
from functools import wraps

import numpy as np


@dataclass(frozen=True)
class Certificate:
    """Record of a checked inequality.

    ``margin`` is the smallest eigenvalue of (RHS - LHS) for operator
    inequalities, or (bound - value) for scalar bounds; the check passes
    when the margin is no worse than ``-tolerance``.
    """

    name: str
    margin: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.margin >= -self.tolerance

    def __str__(self) -> str:
        tag = "pass" if self.passed else "FAIL"
        return f"[{tag}] {self.name}: margin={self.margin:.6e} tol={self.tolerance:.1e}"


@dataclass(frozen=True)
class CheckResult:
    """Margins of a randomized check, in trial order; it passes when the
    worst is no worse than ``-tolerance``."""

    name: str
    margins: np.ndarray
    tolerance: float

    @property
    def worst(self) -> float:
        return float(self.margins.min())

    @property
    def passed(self) -> bool:
        return self.worst >= -self.tolerance


def randomized_check(name: str, tolerance: float):
    """Turn ``trial(rng, i, seed) -> margins`` into ``check(trials, seed)
    -> CheckResult``: one ``np.random.default_rng(seed)`` feeds trials i =
    0, 1, ... in order, and their margins, several or none (a skipped
    instance) from each, are joined in that order."""
    def decorate(trial):
        @wraps(trial)
        def check(trials: int, seed: int) -> CheckResult:
            rng = np.random.default_rng(seed)
            margins = [m for i in range(trials) for m in trial(rng, i, seed)]
            return CheckResult(name, np.array(margins), tolerance)
        return check
    return decorate
