"""Host-speed probe: a fixed kernel timed on the operation's CPU while it runs.

The benchmark host shares its cores with other tenants, and the speed of
a core drifts by 10-30 % within seconds to minutes, which moves the CPU
time of an unchanged operation by as much.  ``run.py`` pins itself and the
operation's process to one CPU and, while the operation runs, times this
kernel every ``INTERVAL_S``.  The mean kernel time during the timed section
over ``REFERENCE_S`` is the speed the operation ran at; its CPU time
divided by that speed is its time at the reference speed (``op_ref_s``).
The kernel never touches korteweg, so no change to the program moves it.
Its mix follows the program's: interpreter-bound small-object work, like
the per-call overhead of the 1-D runs and sympy, and complex FFTs, like
the 2-D runs.  It uses ~8 % of the CPU and under 1 MB of memory.
"""

from __future__ import annotations

import time

import numpy as np

# CPU seconds of one ``tick_cpu_s`` at the reference speed: its median over
# 200 calls on the machine described in README.md.
REFERENCE_S = 0.0174
INTERVAL_S = 0.2     # sleep between two ticks


def _python_part() -> int:
    total = 0
    for _ in range(8):
        table = {}
        for i in range(2000):
            table[(i, i % 97)] = [i, i * 0.5, str(i)]
        total += sum(len(v[2]) for v in sorted(table.values(), key=lambda v: -v[1]))
    return total


def _fft_part() -> float:
    a = np.cos(np.arange(96 * 96, dtype=float)).reshape(96, 96)
    for _ in range(19):
        a = np.fft.ifft2(np.fft.fft2(a) * 0.5).real + a * 0.5
    return float(a[0, 0])


def tick_cpu_s() -> float:
    """CPU seconds this process spends on the fixed kernel once."""
    c0 = time.process_time()
    _python_part()
    _fft_part()
    return time.process_time() - c0
