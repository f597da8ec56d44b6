"""Wall times corrected for the machine's speed.

The small VMs this benchmark runs on change speed by up to 2x, for seconds
to minutes at a time, whatever runs on them; a request's wall time then
says as much about the machine as about the program.  So a probe, a fixed
piece of exact rational arithmetic that does not use tropsurf, is timed
right before and right after each timed interval, and the interval is
scaled by ``REFERENCE_MS`` over the mean of the two probe times: to the
speed at which the probe takes ``REFERENCE_MS``.  A change to tropsurf
cannot change the probe, so it moves the scaled times exactly as it moves
the wall times at a steady machine speed.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from time import perf_counter

# Probe time on a 2-core x86 VM (Python 3.11) in a fast phase, in ms.
REFERENCE_MS = 1.0
PROBE_RUNS = 9  # about 10 ms per probe

# Gauss-Jordan elimination of a fixed 6 x 8 rational matrix: the kind of
# Fraction work that dominates tropsurf's profiles.
_ROWS, _COLS = 6, 8
_MATRIX = [
    [Fraction((7 * i + 3 * j * j) % 19 - 9, 1 + (i + 2 * j) % 5) for j in range(_COLS)]
    for i in range(_ROWS)
]


def _eliminate() -> None:
    m = [row[:] for row in _MATRIX]
    r = 0
    for c in range(_COLS):
        pivot = next((i for i in range(r, _ROWS) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [x * inv for x in m[r]]
        for i in range(_ROWS):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1


def probe_ms() -> float:
    """Mean time of one probe over ``PROBE_RUNS`` runs in a row, in ms, with
    the garbage collector off so that garbage left by the program does not
    weigh on it.  A longer window follows the drift better than the best of
    a few short ones."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        for _ in range(PROBE_RUNS):
            _eliminate()
        return (perf_counter() - t0) * 1e3 / PROBE_RUNS
    finally:
        if enabled:
            gc.enable()


def scaled(ms: float, before: float, after: float) -> float:
    """``ms`` of wall time between probes of ``before`` and ``after`` ms,
    at reference speed."""
    return ms * 2 * REFERENCE_MS / (before + after)
