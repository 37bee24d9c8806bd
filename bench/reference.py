"""The reference loop that measures how fast the interpreter runs right now.

The machine the benchmark runs on is shared, and the interpreter's speed
drifts by up to 2x in phases of seconds to minutes.  Times rescaled by this
loop's speed, timed next to the work, cancel most of that drift.
"""

from __future__ import annotations

import time

# A fixed piece of pure-Python work of the same kind as the program's
# kernels: list appends and pops and integer compares.
REF_ITERATIONS = 2_000
# The loop's median time on the machine the bounds were fixed on, in a quiet
# phase (see README.md).  Rescaled times are seconds at this speed.
REF_NOMINAL_S = 0.00023


def reference_loop() -> float:
    """Run the loop once and return its wall time."""
    t0 = time.perf_counter()
    out: list[int] = []
    for x in range(REF_ITERATIONS):
        y = x % 7 - 3
        if out and out[-1] == -y:
            out.pop()
        else:
            out.append(y)
    return time.perf_counter() - t0


def speed(samples: int = 10) -> float:
    """REF_NOMINAL_S over the loop's time, averaged over `samples` runs."""
    return sum(REF_NOMINAL_S / reference_loop() for _ in range(samples)) / samples
