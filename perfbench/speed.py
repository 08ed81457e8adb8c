"""Reference-speed clock: times work in seconds of a machine of steady speed.

The machine this benchmark was built on changes speed by 15-30 % within
seconds (other tenants share its cores), so plain wall times of the same code
spread past any useful bound from run to run. The probe here interleaves a
fixed reference kernel with the measured work: a wall-clock interval timer
interrupts the main thread every ``PERIOD_S`` and the signal handler times
one call of the kernel. A slow spell slows the kernel and the work alike, so
an interval's wall time, minus the probe's own time in it, divided by the
kernel slowdown measured around each stretch of it reads the same in any
spell.

The kernel does what the pipeline does most: small dense numpy algebra (a
6x6 solve, a norm, a stack and a matrix-vector product per loop), then numpy
calls on scalars, as in the closest-pair descent. A pure-Python kernel does
not track the pipeline's slow spells. The kernel is part of the benchmark, so it is the same on every
commit that is compared.

Everything stays in this one process and thread: the handler runs between
bytecodes of the main thread, never concurrently with it. The measured work
computes the same outputs; only its wall time grows, by the probe's share,
which is subtracted.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

# median kernel time on the baseline machine (see README.md); it sets the
# scale of the reported seconds and is the same for every commit compared
NOMINAL_KERNEL_S = 1.2e-3
PERIOD_S = 0.025
ALGEBRA_LOOPS = 8
SCALAR_LOOPS = 30

_A = np.random.default_rng(0).standard_normal((6, 6)) + 6.0 * np.eye(6)
_B = np.ones(6)
_R = np.array([[0.98, -0.2], [0.2, 0.98]])


def reference_kernel() -> float:
    """Fixed work of the two kinds the pipeline does most.

    Small dense algebra, as in a control tick, then numpy calls on scalars,
    as in one closest-pair descent step on a superquadric boundary.
    """
    x = _B
    for _ in range(ALGEBRA_LOOPS):
        x = np.linalg.solve(_A, x + _B)
        x = x / np.linalg.norm(x)
        y = np.vstack([_A, _A]) @ x
        x = x + 1e-3 * np.cross(x[:3], y[:3]).sum()
    g = float(x[0])
    for _ in range(SCALAR_LOOPS):
        gam = np.asarray(g, dtype=float)
        c, s = np.cos(gam), np.sin(gam)
        p = np.stack([np.sign(c) * np.abs(c) ** 0.4,
                      np.sign(s) * np.abs(s) ** 0.4], axis=-1) @ _R.T
        g = float(g + 1e-3 * (p @ p))
    return g


class SpeedProbe:
    """Samples the reference kernel while entered; see the module doc.

    ``samples`` holds ``(start, duration)`` of every kernel call. Enter it
    around all the timed work, then ask ``seconds(a, b)`` for each interval
    ``[a, b]`` of ``time.perf_counter()`` readings taken inside.
    """

    def __init__(self, period: float = PERIOD_S, nominal: float = NOMINAL_KERNEL_S,
                 kernel=reference_kernel):
        self.period = period
        self.nominal = nominal
        self.kernel = kernel
        self.samples: list[tuple[float, float]] = []
        self._saved = None

    def _on_alarm(self, signum, frame):
        t0 = time.perf_counter()
        self.kernel()
        self.samples.append((t0, time.perf_counter() - t0))

    def __enter__(self):
        self._saved = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._saved)
        return False

    def _inside(self, a: float, b: float) -> list[float]:
        return [d for (t, d) in self.samples if a <= t < b]

    def wall(self, a: float, b: float) -> float:
        """Wall seconds of ``[a, b]`` without the probe's own time in it."""
        return (b - a) - sum(self._inside(a, b))

    def seconds(self, a: float, b: float) -> float:
        """``[a, b]`` in seconds of the nominal machine.

        The kernel calls split the interval into gaps of the measured work.
        Each gap is divided by the slowdown of the two calls around it, so a
        spell of any length is corrected by the speed measured in it.
        """
        if not self.samples:
            raise RuntimeError("the speed probe took no samples")
        starts = [t for t, _ in self.samples]
        lo = bisect.bisect_left(starts, a)
        hi = bisect.bisect_left(starts, b)
        total = 0.0
        gap_start = a
        for i in range(lo, hi + 1):
            gap_end = self.samples[i][0] if i < hi else b
            around = [self.samples[j][1] for j in (i - 1, i)
                      if 0 <= j < len(self.samples)]
            total += (gap_end - gap_start) * self.nominal * len(around) / sum(around)
            if i < hi:
                gap_start = gap_end + self.samples[i][1]
        return total

    def slowdown(self, a: float, b: float) -> float:
        """How much slower than nominal the work in ``[a, b]`` ran."""
        return self.wall(a, b) / self.seconds(a, b)

    def overhead_frac(self, a: float, b: float) -> float:
        """Share of ``[a, b]`` spent in the kernel."""
        return 1.0 - self.wall(a, b) / (b - a)
