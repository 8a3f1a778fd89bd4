"""Machine-speed calibration of the end-to-end timings.

The small VMs this benchmark runs on change speed for every process
alike: a fixed pure-Python loop flips between two speeds about 2x
apart many times a second, and slow spells last minutes.  Raw wall times
of the same code therefore move by more than any useful regression bound.
A ``Calibrator`` times a fixed kernel, which touches nothing of loopbraid,
in the same moments as the work it calibrates: from a SIGALRM handler,
at the kernel's set-up period during set-up and at its op period while
ops run.  The kernel's own time is taken out of the measured time, which
is then divided by the kernel's mean time over the same stretch (at least
the last ``WINDOW`` samples) and multiplied by the kernel's reference
time ``ref_s``.  That gives seconds at the reference speed: about what
the work takes on a 2-vCPU Xeon VM at its average speed.

Two kernels, chosen per workload by its dominant cost:

- ``python``: Fraction, big-int and dict work, as in the exact layers;
- ``numpy``: batched complex einsum and solve on 6x6 matrices, as in the
  numeric oracle of ``certify``.  Its speed follows numpy's, which slow
  spells move less than pure Python.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

WINDOW = 9  # fewest kernel samples behind one scale factor


def _python_kernel():
    acc, x = Fraction(1, 3), 12345678901234567
    for i in range(1, 50):
        acc = acc * Fraction(i + 1, i + 2) + Fraction(1, i)
        x = (x * 31 + i) % (1 << 127)
        table = {j: j * x for j in range(8)}
    return acc, table


def _numpy_kernel():
    import numpy as np

    rng = np.random.default_rng(0)
    e = rng.standard_normal((6, 6, 6)) + 1j * rng.standard_normal((6, 6, 6))
    s = rng.standard_normal((32, 6, 6)) + 1j * rng.standard_normal((32, 6, 6))
    eye = 0.1 * np.eye(6)[None]

    def kernel():
        t1 = np.einsum("kij,sjl->skil", e, s)
        t2 = np.einsum("sij,kjl,slm->skim", s, e, s)
        jac = np.transpose(t1 + t2, (0, 2, 3, 1)).reshape(-1, 36, 6)
        jh = np.conj(np.transpose(jac, (0, 2, 1)))
        return np.linalg.solve(jh @ jac + eye, jh @ jac[:, :, :1])

    return kernel


# kind -> (kernel factory; the kernel's mean time on a 2-vCPU Xeon VM,
# which sets the scale of every calibrated timing; its period during ops
# and during set-up, short enough to follow the speed flips within one
# op or one set-up, long enough to cost them 2-8% of their time)
KERNELS = {
    "python": (lambda: _python_kernel, 0.00040, 0.02, 0.01),
    "numpy": (_numpy_kernel, 0.00300, 0.1, 0.04),
}


class Calibrator:
    """Times the kernel and turns raw op times into reference-speed seconds."""

    def __init__(self, kind: str):
        factory, self.ref_s, self.period_s, self.setup_period_s = KERNELS[kind]
        self.kernel = factory()
        self.kernel()  # first call pays for imports and numpy's dispatch caches
        self.samples: list[tuple[float, float]] = []  # (end, duration)
        self._busy = False

    def sample(self) -> None:
        if self._busy:  # a timer signal inside a kernel run
            return
        self._busy = True
        t = time.perf_counter()
        self.kernel()
        end = time.perf_counter()
        self.samples.append((end, end - t))
        self._busy = False

    def start(self, setup: bool = False) -> None:
        """Sample WINDOW times now, then at the op or set-up period,
        whatever the process runs."""
        interval = self.setup_period_s if setup else self.period_s
        for _ in range(WINDOW):
            self.sample()
        signal.signal(signal.SIGALRM, lambda *_: self.sample())
        signal.setitimer(signal.ITIMER_REAL, interval, interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def spent(self, since: float) -> float:
        """Kernel seconds since `since`, to take out of an op's time."""
        total = 0.0
        for end, dur in reversed(self.samples):
            if end <= since:
                break
            total += dur
        return total

    def scale(self, since: float) -> float:
        """ref_s over the mean kernel time since `since`, or over the
        last WINDOW samples when fewer ran since then."""
        durs = []
        for end, dur in reversed(self.samples):
            if end <= since and len(durs) >= WINDOW:
                break
            durs.append(dur)
        return self.ref_s / statistics.fmean(durs)
