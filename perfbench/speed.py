"""Machine-speed probe: rescales the benchmark's wall times to a reference speed.

The benchmark runs on a few cores of a shared host, and the speed those
cores give a process drifts by up to a factor of two, in stretches of a
second to a few minutes (the process is not descheduled: its CPU time tracks
its wall time).  A median over one run cannot remove a drift that lasts the
whole run, so the end-to-end times are rescaled by the speed measured while
they ran.

The probe is a fixed pure-Python kernel: products of two small polynomials
with ``Fraction`` coefficients held in dicts, the kind of work the exact
series code does.  An interval timer (``SIGALRM``) runs it every
``INTERVAL_S`` seconds on the main thread, between the benchmark's own
bytecodes, so no thread or process is started.  For a window of the run,
its reference time is

    (wall time - probe time inside the window) * REF_PROBE_S / mean probe time

where the mean is over the probes that started in the window widened by
``PAD_S`` on each side.  ``REF_PROBE_S`` is a fixed constant, so a reference
second is a second at the speed at which one probe takes that long; on the
2-core x86-64 virtual machine the benchmark was defined on, a probe run
from the timer took 4 to 8 ms.  Both the reference and the wall figures are
reported.  The kernel uses nothing from ``bianchi9``, so a change to the
package does not move it; changing the kernel or these constants changes
what a reference second is.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

INTERVAL_S = 0.2
PAD_S = 1.0
REF_PROBE_S = 0.004
KERNEL_REPS = 15

_A = {e: Fraction(7 * e + 1, e + 3) for e in range(12)}
_B = {e: Fraction(5 - e, 2 * e + 1) for e in range(12)}


def kernel() -> int:
    """Fixed work: KERNEL_REPS truncated products of two 12-term series."""
    n = 0
    for _ in range(KERNEL_REPS):
        out: dict[int, Fraction] = {}
        for e1, c1 in _A.items():
            for e2, c2 in _B.items():
                e = e1 + e2
                if e < 12:
                    out[e] = out.get(e, 0) + c1 * c2
        n += len(out)
    return n


class SpeedProbe:
    """Runs ``kernel`` on an interval timer while the ``with`` block runs."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, duration)
        self._busy = False
        self._previous = None

    def __enter__(self) -> SpeedProbe:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, _signum, _frame) -> None:
        if self._busy:  # a tick that lands inside the probe is dropped
            return
        self._busy = True
        t0 = time.perf_counter()
        kernel()
        self.samples.append((t0, time.perf_counter() - t0))
        self._busy = False

    def settle(self, t1: float) -> None:
        """Wait until the probes of the padding after ``t1`` have run."""
        while time.perf_counter() < t1 + PAD_S:
            time.sleep(INTERVAL_S)

    def near(self, t0: float, t1: float) -> list[float]:
        return [d for s, d in self.samples if t0 - PAD_S <= s < t1 + PAD_S]

    def reference_s(self, t0: float, t1: float) -> float:
        """Reference seconds of the wall-clock window [t0, t1]."""
        inside = sum(d for s, d in self.samples if t0 <= s < t1)
        near = self.near(t0, t1)
        if not near:
            raise RuntimeError(f"no speed probe ran within {PAD_S} s of [{t0:.3f}, {t1:.3f}]")
        return (t1 - t0 - inside) * REF_PROBE_S / statistics.fmean(near)

    def summary(self) -> dict:
        ds = [d for _s, d in self.samples]
        return {
            "probes": len(ds),
            "probe_mean_ms": statistics.fmean(ds) * 1e3 if ds else None,
            "probe_min_ms": min(ds) * 1e3 if ds else None,
            "ref_probe_ms": REF_PROBE_S * 1e3,
        }


class WallClock:
    """The ``SpeedProbe`` interface without a probe: windows in wall seconds."""

    def __enter__(self) -> WallClock:
        return self

    def __exit__(self, *exc) -> None:
        pass

    def settle(self, t1: float) -> None:
        pass

    def reference_s(self, t0: float, t1: float) -> float:
        return t1 - t0

    def summary(self) -> dict:
        return {"probes": 0}
