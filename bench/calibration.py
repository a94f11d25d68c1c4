"""Machine-speed calibration for the benchmark's timings.

The host this benchmark was defined on changes speed by 20% and more
over seconds to minutes, whatever runs on it: a fixed pure-Python loop,
counted in twenty 1-second windows in a row, ran from 43 to 65 times a
second, an interquartile range of 16% of the median.  Its CPU time moved
with its wall time, so the lost speed is not steal time that CPU time
would leave out.  Medians within a run cannot remove drift that is
slower than the run, so every time is scaled by the machine's speed at
the moment it was measured.

A ``Probe`` is a helper process that times a short loop every 50 ms for
the whole run, about 4% of one CPU; the measured program is pinned to
the other CPU.  ``Probe.scale(t0, t1)`` is ``REFERENCE_S`` over the
median loop time between ``t0`` and ``t1``.  A time multiplied by the scale of its
own interval is the time on a machine that runs the loop in exactly
``REFERENCE_S``: the reported seconds are reference seconds.  Raw times
are printed next to the scaled ones; ``baseline.json`` holds both for
the same runs (``raw_wall_s`` beside ``wall_s``).  ``probe_load.py``
checks that the probe does not slow down when the measured CPU is busy,
so that the program's own load does not enter its scale.

Run as a script, this file is the probe: it prints one line per loop,
``<perf_counter at start> <seconds>``.  ``perf_counter`` is the system
monotonic clock, so both processes read the same time line.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from typing import List, Tuple

# Loop time of the defining host in a quiet period; any constant works
# as long as it never changes, since it only fixes the unit.
REFERENCE_S = 0.002
PERIOD_S = 0.05
WINDOW_S = 2.0


def _loop() -> int:
    # Bitmask walks, calls and small lists, like the enumerator's inner loops.
    acc = 0
    full = (1 << 301) - 2
    for i in range(500):
        m = full ^ (i * 0x9E3779B97F4A7C15)
        parts = []
        while m and len(parts) < 12:
            low = m & -m
            parts.append(low.bit_length())
            m ^= low
        acc += sum(parts)
    return acc


def cpus() -> Tuple[int, int]:
    """The CPU for the measured program and the CPU for the probe.

    Keeping each on its own CPU stops the scheduler from moving the program
    around and from putting the probe beside it; with one CPU both share it.
    """
    allowed = sorted(os.sched_getaffinity(0))
    return allowed[0], allowed[-1]


class Probe:
    """The calibration loop, timed every ``PERIOD_S`` in a helper process."""

    def __init__(self) -> None:
        self._proc = subprocess.Popen([sys.executable, __file__], stdout=subprocess.PIPE)
        os.sched_setaffinity(self._proc.pid, {cpus()[1]})
        os.set_blocking(self._proc.stdout.fileno(), False)
        self._pending = b""
        self._samples: List[Tuple[float, float]] = []

    def _drain(self) -> None:
        while True:
            try:
                chunk = os.read(self._proc.stdout.fileno(), 1 << 16)
            except BlockingIOError:
                return
            if not chunk:
                raise RuntimeError("the calibration probe exited")
            *lines, self._pending = (self._pending + chunk).split(b"\n")
            self._samples += [tuple(map(float, line.split())) for line in lines]

    def scale(self, t0: float, t1: float) -> float:
        """Reference seconds per measured second between ``t0`` and ``t1``.

        The interval is widened to at least ``WINDOW_S`` around its middle,
        so that a short interval still has some 40 samples.  Waits until
        the probe has covered the whole window.
        """
        mid = (t0 + t1) / 2
        t0, t1 = min(t0, mid - WINDOW_S / 2), max(t1, mid + WINDOW_S / 2)
        while True:
            self._drain()
            if self._samples and self._samples[-1][0] >= t1:
                break
            time.sleep(PERIOD_S / 5)
        inside = [d for t, d in self._samples if t0 <= t <= t1]
        return REFERENCE_S / statistics.median(inside)

    def close(self) -> None:
        self._proc.kill()
        self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self) -> "Probe":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _probe_main() -> None:
    out = sys.stdout
    while True:
        time.sleep(PERIOD_S)
        t0 = time.perf_counter()
        _loop()
        out.write(f"{t0:.6f} {time.perf_counter() - t0:.7f}\n")
        out.flush()


if __name__ == "__main__":
    try:
        _probe_main()
    except (BrokenPipeError, KeyboardInterrupt):
        pass
