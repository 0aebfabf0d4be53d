"""Host-speed calibration for the benchmark's timings.

The machines this benchmark runs on are shared: the same call can take
1.7x longer for seconds or minutes at a time while another tenant loads
the core, with CPU time rising as much as wall time.  Medians over a run
cannot remove a slowdown that lasts the whole run.  So the benchmark times
a fixed kernel next to every call and reports each time scaled to the
speed at which the kernel takes REFERENCE_S.  The kernel does not use
qtoric, so a change to the package moves the scaled times exactly as it
moves the raw ones; the raw times are printed beside them.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

# The kernel's time at the reference speed; about what it takes on an
# uncontended core of a 2.0 GHz Xeon, so scaled times read close to raw
# milliseconds there.
REFERENCE_S = 0.001


def kernel() -> float:
    """Seconds for a fixed piece of integer and rational arithmetic.

    Fraction-free elimination on small integer matrices and Fraction sums,
    the same kinds of work as qtoric's exact kernels.
    """
    t0 = perf_counter()
    acc = Fraction(0)
    for r in range(60):
        a = [[(i * 7 + j * 3 + r) % 11 - 5 for j in range(5)] for i in range(5)]
        prev = 1
        for k in range(4):
            if a[k][k] == 0:
                a[k][k] = 1
            for i in range(k + 1, 5):
                for j in range(k + 1, 5):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            prev = a[k][k] or 1
        acc += Fraction(r + 1, 7) * Fraction(3, r + 2)
    return perf_counter() - t0


def probe() -> float:
    """The kernel's current time: the median of three runs."""
    return sorted(kernel() for _ in range(3))[1]


def scale(seconds: float, probe_before: float, probe_after: float) -> float:
    """`seconds` at the reference speed, given the probes around it."""
    return seconds * 2 * REFERENCE_S / (probe_before + probe_after)
