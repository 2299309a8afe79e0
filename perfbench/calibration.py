"""CPU-speed calibration for the timing metrics.

CPU speed on shared hosts drifts by tens of percent over seconds to
minutes, which moves every timing of a run together. The benchmark
therefore times a fixed kernel, unrelated to jointtrack, around each
measured piece of work and reports timings at a reference speed:

    time_at_reference = raw_time * REFERENCE_KERNEL_S / kernel_time

where kernel_time is the mean of the kernel's times just before and just
after the piece. The kernel mimics the tracker's instruction mix (a
sigma-point update on small numpy arrays with a Python call per point,
plus dict and float work), so both slow down alike. Raw timings are kept
beside the scaled ones in the results file.
"""

import time

import numpy as np

#: Kernel time at the reference CPU speed: the median of kernel_s() on a
#: 2-vCPU Intel Xeon VM with Python 3.11.7 and numpy 2.4.6.
REFERENCE_KERNEL_S = 0.0014

#: Kernel calls per sample; the fastest is kept, so that a preemption
#: during one call does not count as a slow CPU.
CALLS_PER_SAMPLE = 3
_ITERATIONS = 20

#: Timed work between two samples, so that the factor follows the drift.
WINDOW_S = 0.5

_P = np.array(
    [[0.25, 0.01, 0.0, 0.0], [0.01, 0.25, 0.0, 0.0], [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]]
)
_MEAN = np.array([0.3, 5.0, 0.1, -0.2])


def _project(point: np.ndarray) -> np.ndarray:
    depth = point[1]
    return np.array([500.0 * point[0] / depth + 320.0, 600.0 / depth + 240.0, 250.0 / depth])


def _kernel() -> float:
    acc = 0.0
    for step in range(_ITERATIONS):
        root = np.linalg.cholesky(2.5 * _P)
        points = np.vstack([_MEAN, _MEAN + root.T, _MEAN - root.T])
        z = np.stack([_project(p) for p in points])
        dz = z - z.mean(axis=0)
        cov = dz.T @ dz / len(points) + 16.0 * np.eye(z.shape[1])
        cross = (points - _MEAN).T @ dz / len(points)
        gain = np.linalg.solve(cov.T, cross.T).T
        record = {"step": step, "x": float(gain[0, 0]), "y": float(gain[1, 1])}
        acc += record["x"] + record["y"]
    return acc


def kernel_s() -> float:
    """Seconds the kernel takes now (fastest of CALLS_PER_SAMPLE calls)."""
    best = float("inf")
    for _ in range(CALLS_PER_SAMPLE):
        start = time.perf_counter_ns()
        _kernel()
        best = min(best, (time.perf_counter_ns() - start) / 1e9)
    return best


class Calibrator:
    """Samples the kernel between pieces of work; each sample closes one
    piece and opens the next."""

    def __init__(self):
        self.samples = [kernel_s()]

    def factor(self) -> float:
        """Sample again; return REFERENCE_KERNEL_S over the mean kernel time
        around the work done since the previous sample."""
        before = self.samples[-1]
        self.samples.append(kernel_s())
        return REFERENCE_KERNEL_S / (0.5 * (before + self.samples[-1]))


class Stopwatch:
    """Raw and reference-speed totals of work timed in pieces.

    Pieces accumulate until they reach WINDOW_S; then the calibrator
    is sampled, between two pieces and so outside the timed work, and the
    pending pieces are scaled by its factor. Without a calibrator the
    scaled total equals the raw one.
    """

    def __init__(self, calibrator=None):
        self.calibrator = calibrator
        self.raw = 0.0
        self.scaled = 0.0
        self._pending = 0.0

    @property
    def elapsed(self) -> float:
        """Raw seconds added so far, scaled or still pending."""
        return self.raw + self._pending

    def add(self, seconds: float) -> None:
        self._pending += seconds
        if self._pending >= WINDOW_S:
            self.flush()

    def flush(self) -> None:
        if not self._pending:
            return
        factor = self.calibrator.factor() if self.calibrator else 1.0
        self.raw += self._pending
        self.scaled += self._pending * factor
        self._pending = 0.0
