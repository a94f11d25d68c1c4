"""Check that the calibration probe does not feel the measured program's load.

Run from the repository root::

    python3 bench/probe_load.py

It starts a ``calibration.Probe`` and alternates windows of ``WINDOW_S``
seconds in which the CPU of the measured program is idle and in which a
CPU-bound child pinned to it keeps it busy, as a CLI child does.  For each
window it prints the probe's median loop time, then the median over the
idle and over the busy windows.  If the two CPUs shared a core or a cache
so that the program slowed the probe, the busy median would be the larger
and every scaled time would grow with the program's own load.  Exits 1 if
the busy median exceeds the idle one by more than ``TOLERANCE``.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

import calibration

WINDOW_S = 3.0
REPEATS = 8
TOLERANCE = 0.05

BUSY = (
    "import time\n"
    f"end = time.perf_counter() + {WINDOW_S}\n"
    "x = 0\n"
    "while time.perf_counter() < end:\n"
    "    x = (x * 31 + 7) % 1000003\n"
)


def main() -> int:
    loop_ms = {"idle": [], "busy": []}
    with calibration.Probe() as probe:
        for _ in range(REPEATS):
            for state in ("idle", "busy"):
                t0 = time.perf_counter()
                if state == "busy":
                    child = subprocess.Popen([sys.executable, "-c", BUSY])
                    os.sched_setaffinity(child.pid, {calibration.cpus()[0]})
                    child.wait()
                else:
                    time.sleep(WINDOW_S)
                t1 = time.perf_counter()
                # Leave out the child's start-up and exit at the window's edges.
                ms = 1e3 * calibration.REFERENCE_S / probe.scale(t0 + 0.5, t1 - 0.5)
                loop_ms[state].append(ms)
                print(f"{state}: probe loop {ms:.4f} ms", flush=True)
    idle, busy = (statistics.median(loop_ms[s]) for s in ("idle", "busy"))
    print(f"median probe loop: idle {idle:.4f} ms, busy {busy:.4f} ms, "
          f"busy/idle {busy / idle:.4f}")
    return 0 if busy <= idle * (1 + TOLERANCE) else 1


if __name__ == "__main__":
    sys.exit(main())
