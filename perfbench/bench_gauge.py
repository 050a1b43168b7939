"""Speed gauge: times the workloads at a fixed reference speed.

The 2-core box this benchmark was written on runs the same work up to 40 %
slower in some spells than in others; the spells last from a second to
minutes, and the two cores go fast and slow independently of each other.
The wall time of a whole pass therefore swings by more than any bound worth
gating on (NOTES.md).  The gauge interleaves a fixed calibration kernel with
the workload: before a pass, after each stretch of about ``INTERVAL_S`` of
operations, and after the pass.  Each stretch of workload time is then
scaled by how fast the kernel ran on either side of it:

    ref_s = sum over stretches of  stretch_s * ref_unit_s / unit_s

where ``unit_s`` is the kernel's mean time per unit in the two samples
around the stretch and ``ref_unit_s`` its fixed time per unit at the
reference speed.  A change that makes the program faster shortens the
stretches and leaves the kernel alone, so it shows in full; a slow spell of
the box lengthens both and cancels.  The kernel must run on the cores the
workload runs on: a single-threaded workload is pinned to one CPU and
sampled there, a multi-threaded one is sampled on each of its CPUs in turn.
It must also do the kind of work the workload does, because slow spells
slow large matrices more than small ones: the ``small`` kernel (many 6x6
complex ``eigh``, a 3x64x64 real ``eigh``, an 8-variable SLSQP solve and
interpreter work) tracks ``duality`` and ``certify``, whose ``eigh`` calls
are mostly n <= 16, and the ``mid`` kernel (a 128x128 real and a 48x48
complex ``eigh`` and a 16-variable SLSQP solve) tracks ``sweep``, whose
calls are mostly n = 17..128.

The kernels use only numpy and scipy, never qstein, so no change to the
program can move them.  ``minimize`` is bound here at import, before a
traced run patches ``scipy.optimize``, so calibration never shows up in the
per-layer table.
"""

from __future__ import annotations

import os
import statistics
import time

import numpy as np
from scipy.optimize import minimize

# Calibration time as a share of the workload time it covers.
SHARE = 0.1
# Workload seconds between two calibration samples, where operations are
# shorter than that.
INTERVAL_S = 1.0
# Workload seconds the sample before a pass is sized for.
FIRST_SAMPLE_FOR_S = 5.0
# Units of the small kernel sampled after each set-up (about 0.2 s).
SETUP_UNITS = 50

_rng = np.random.default_rng(0)


def _hermitian(n: int, complex_: bool) -> np.ndarray:
    m = _rng.standard_normal((n, n))
    if complex_:
        m = m + 1j * _rng.standard_normal((n, n))
    return m + m.conj().T


_SMALL_MATS = [_hermitian(6, True) for _ in range(30)] + [
    _hermitian(64, False) for _ in range(3)]
_MID_MATS = [_hermitian(128, False), _hermitian(48, True)]
_CONSTRAINTS = [{"type": "ineq", "fun": lambda x: 3.0 - np.sum(x)}]


def _objective(x: np.ndarray) -> float:
    return float(np.sum((x - 1.0) ** 2) + np.sum(np.sin(x)))


def small_unit() -> None:
    for m in _SMALL_MATS:
        np.linalg.eigh(m)
    minimize(_objective, np.zeros(8), method="SLSQP",
             constraints=_CONSTRAINTS)
    acc = 0
    for i in range(3000):
        acc += i * i


def mid_unit() -> None:
    for m in _MID_MATS:
        np.linalg.eigh(m)
    minimize(_objective, np.zeros(16), method="SLSQP",
             constraints=_CONSTRAINTS)


# Each kernel's unit and its mean seconds on the box the baseline was
# measured on (NOTES.md), so reference seconds read about as that box's
# wall seconds.
KERNELS = {"small": (small_unit, 0.0035), "mid": (mid_unit, 0.0034)}


def unit_seconds(kernel: str, units: int) -> float:
    """Mean seconds per unit of ``kernel`` over ``units`` units."""
    unit = KERNELS[kernel][0]
    start = time.perf_counter()
    for _ in range(units):
        unit()
    return (time.perf_counter() - start) / units


class SpeedGauge:
    """Interleaves calibration samples with one pass of a workload.

    Call :meth:`start` before the pass, :meth:`tick` after each operation
    and :meth:`finish` after the pass; time spent sampling is not workload
    time.
    """

    def __init__(self, kernel: str, cores: list[int] | None = None):
        self.kernel = kernel
        self.ref_unit_s = KERNELS[kernel][1]
        # CPUs to sample on, one after the other, with the calling thread
        # pinned to each; None samples where the thread runs (the one CPU
        # a single-threaded workload is pinned to)
        self.cores = cores
        self.samples: list[tuple[int, float]] = []  # (units, seconds)
        self.stretches: list[float] = []  # workload seconds between samples
        self._since = 0.0

    def _sample(self, units: int) -> None:
        if self.cores is None:
            per_unit = unit_seconds(self.kernel, units)
        else:
            allowed = os.sched_getaffinity(0)
            per_core = []
            try:
                for cpu in self.cores:
                    os.sched_setaffinity(0, {cpu})
                    per_core.append(unit_seconds(
                        self.kernel, max(1, units // len(self.cores))))
            finally:
                os.sched_setaffinity(0, allowed)
            # the workload's threads share the work, so its speed is the
            # mean speed of its CPUs
            per_unit = 1.0 / statistics.mean(1.0 / u for u in per_core)
        self.samples.append((units, per_unit * units))
        self._since = time.perf_counter()

    def _units_for(self, workload_s: float) -> int:
        return max(1, round(SHARE * workload_s / self.ref_unit_s))

    def start(self) -> None:
        self._sample(self._units_for(FIRST_SAMPLE_FOR_S))

    def tick(self) -> None:
        stretch = time.perf_counter() - self._since
        if stretch >= INTERVAL_S:
            self.stretches.append(stretch)
            self._sample(self._units_for(stretch))

    def finish(self) -> None:
        self.stretches.append(time.perf_counter() - self._since)
        self._sample(self._units_for(self.stretches[-1]))

    @property
    def wall_s(self) -> float:
        """Workload wall time, calibration left out."""
        return sum(self.stretches)

    @property
    def ref_s(self) -> float:
        """Workload time at the reference speed."""
        total = 0.0
        for k, stretch in enumerate(self.stretches):
            (n0, s0), (n1, s1) = self.samples[k], self.samples[k + 1]
            total += stretch * self.ref_unit_s * (n0 + n1) / (s0 + s1)
        return total

    @property
    def calibration_s(self) -> float:
        return sum(s for _, s in self.samples)
