"""Machine-speed calibration for the end-to-end times.

The benchmark runs on shared machines whose speed drifts: on the 2-core VM
the baseline was recorded on, the same bundle-n2 trade took 35 ms for a
minute and 66 ms the next, and a run of 35 s cannot average that out.  So
the benchmark times a fixed pure-Python kernel, which touches no parmm code,
just before and just after every operation, and scales the operation's time
by REF_MS over the mean of the two.  Over 12 stretches of 250 bundle-n2
trades, this cut the coefficient of variation of the stretch p50 from 13%
to 3% and of the p90 from 6% to 3%.  The raw times are printed beside the
scaled ones.
"""

from __future__ import annotations

import statistics
import time

REF_MS = 0.70  # kernel time on the reference machine, in ms


def kernel() -> float:
    """Fixed interpreter work: float arithmetic, a loop, dict stores."""
    acc = 0.0
    seen = {}
    for i in range(4000):
        x = (i % 97) * 0.013 + 1.0
        acc += x * x / (1.0 + x)
        seen[i & 255] = acc
    return acc


def kernel_ms() -> float:
    t0 = time.perf_counter()
    kernel()
    return 1e3 * (time.perf_counter() - t0)


class Speed:
    """Times the kernel between operations; `factors` holds, per finished
    operation, the factor that scales its time to the reference machine.
    The sample after one operation is the sample before the next."""

    def __init__(self):
        self.factors: list[float] = []
        self._before: float | None = None

    def between_ops(self):
        now = kernel_ms()
        if self._before is not None:
            self.factors.append(2.0 * REF_MS / (self._before + now))
        self._before = now

    def stop(self):
        """Close the last operation; the next one starts a new pair."""
        self.between_ops()
        self._before = None


def scale_now(repeats: int = 5) -> float:
    """Scale factor from `repeats` kernel runs back to back (their median)."""
    return REF_MS / statistics.median(kernel_ms() for _ in range(repeats))
