"""Timed passes, with the machine's momentary speed sampled alongside.

On a shared 2-core box the CPU runs in slow phases lasting from under a
second to minutes, in which wall and CPU time both stretch by up to 2x
(the kernel reports no steal time, so it is not descheduling).  Raw times
of one run then spread by 15-35% from run to run.  While a pass runs, a
SIGALRM timer therefore runs a fixed calibration snippet of about 1 ms
every SAMPLE_PERIOD_S, between bytecodes of whatever task is running.
Each task's time is its wall time minus the snippets that ran inside it,
rescaled by CAL_REF_S over the mean calibration time sampled during the
task and just before and after it.  Reported times are thus
"reference-speed" seconds: the time the task takes when the snippet takes
CAL_REF_S.  Over ten seeds this cut the quartile spread of continuation
throughput from 35% to 3%.  The raw wall times are kept next to the
rescaled ones in the results file.
"""

from __future__ import annotations

import cmath
import signal
import time
from array import array
from dataclasses import dataclass

import numpy as np
from scipy import special

# Calibration time of the fast phase on the reference machine (2-core Intel
# Xeon, Python 3.11, numpy 2.4, scipy 1.17): the 10th percentile of 3,000
# samples.
CAL_REF_S = 0.85e-3
SAMPLE_PERIOD_S = 0.025

_T = np.linspace(0.0, 12.0, 400)
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(16)


def calibrate() -> float:
    """Seconds taken by a fixed snippet shaped like the library's work.

    A hypergeometric-style term recursion, scalar special functions, a small
    Gauss-Legendre panel of complex exponentials and a sorted spectrum scan;
    it calls no library code, so a change to the library leaves it alone.
    This mix tracked the library's slow phases better (16% residual spread
    per 25 ms block) than a bare arithmetic loop (24%).
    """
    t0 = time.perf_counter()
    a, b, c, z = 1.0 + 0j, 0.3 + 0j, 1.3 + 0j, 0.6 + 0.5j
    term = total = 1.0 + 0j
    for n in range(400):
        ratio = (a + n) * (b + n) / ((c + n) * (n + 1.0))
        term = term * ratio * z
        total += term * (max(1.0, abs(ratio)) + 3.0 / (n + 1))
    for k in range(15):
        total += special.gamma(0.5 + 0.1 * k) + special.digamma(1.0 + k)
        total += cmath.exp(0.1j * k) + cmath.log(1.0 + k)
    t = 0.25 * _NODES[None, :] + _T[:, None]
    total += complex(np.sum(_WEIGHTS * np.exp(-(0.4 + 0.2j) * t) / (1.0 - 0.3 * np.exp(-t))))
    vals = sorted(n + 0.37 for n in range(-300, 300))
    total += sum(1 for v in vals if any(abs(v - u) < 1e-9 for u in vals[:3]))
    return time.perf_counter() - t0


class SpeedSampler:
    """Calibration samples taken from a timer signal while the sampler is active."""

    def __init__(self):
        self.start = array("d")
        self.took = array("d")
        self.cal = array("d")
        self._busy = False

    def sample(self, *_signal_args) -> None:
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        cal = calibrate()
        self.start.append(t0)
        self.took.append(time.perf_counter() - t0)
        self.cal.append(cal)
        self._busy = False

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        self.sample()
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def overlap(self, t0: np.ndarray, t1: np.ndarray) -> np.ndarray:
        """Sampler seconds spent inside each interval [t0, t1].

        A sample runs in the one thread, so it lies wholly inside or wholly
        outside any interval measured around a call.
        """
        start = np.frombuffer(self.start, dtype=np.float64)
        done = np.concatenate(([0.0], np.cumsum(np.frombuffer(self.took, dtype=np.float64))))
        return done[np.searchsorted(start, t1)] - done[np.searchsorted(start, t0)]

    def scale(self, t0: np.ndarray, t1: np.ndarray) -> np.ndarray:
        """CAL_REF_S over the mean calibration during each interval and next to it."""
        start = np.frombuffer(self.start, dtype=np.float64)
        cal = np.frombuffer(self.cal, dtype=np.float64)
        summed = np.concatenate(([0.0], np.cumsum(cal)))
        lo = np.maximum(np.searchsorted(start, t0) - 1, 0)
        hi = np.minimum(np.searchsorted(start, t1) + 1, len(cal))
        return CAL_REF_S * (hi - lo) / (summed[hi] - summed[lo])


@dataclass
class Pass:
    outputs: list
    raw_s: np.ndarray       # per-task wall seconds, sampler time removed
    norm_s: np.ndarray      # per-task reference-speed seconds
    sampler: SpeedSampler

    @property
    def wall_s(self) -> float:
        return float(self.raw_s.sum())

    @property
    def norm_wall_s(self) -> float:
        return float(self.norm_s.sum())


def run_pass(tasks, tracer=None) -> Pass:
    """Run every task in order, one closed loop; a task's error is its output."""
    outputs = []
    t0 = np.empty(len(tasks))
    t1 = np.empty(len(tasks))
    with SpeedSampler() as sampler:
        for i, task in enumerate(tasks):
            if tracer is not None:
                tracer.task_id = i
            t0[i] = time.perf_counter()
            try:
                out = task.call()
            except Exception as exc:  # the checker counts it
                out = exc
            t1[i] = time.perf_counter()
            outputs.append(out)
    raw = t1 - t0 - sampler.overlap(t0, t1)
    return Pass(outputs, raw, raw * sampler.scale(t0, t1), sampler)
