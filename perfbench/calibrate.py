"""Machine-speed probe that the end-to-end times are normalised by.

The speed of a machine on shared cores can drift by up to 2x over
seconds to minutes, and every wall time drifts with it.  A fixed loop
of numpy small-array arithmetic and Python calls, the same mix of work
as geomint's but independent of it, is timed between the measured
calls.  A time is then reported as ``measured * REFERENCE_S / median
loop time``.  On a machine where the loop takes REFERENCE_S, that is
the wall time.  A change to geomint moves the measured time and not
the loop.  Importing this module imports only numpy.
"""

import statistics
from time import perf_counter

import numpy as np

# Near the loop's median time on the 2-vCPU machine the bounds were
# tuned on; fixed, because changing it rescales every reported time.
REFERENCE_S = 4.0e-3
ITERATIONS = 400


def loop_seconds() -> float:
    """Wall time of one pass of the fixed loop."""
    t0 = perf_counter()
    v = np.array([0.3, -0.2, 0.5])
    acc = 0.0
    for i in range(ITERATIONS):
        m = np.array([[0.0, -v[2], v[1]], [v[2], 0.0, -v[0]], [-v[1], v[0], 0.0]])
        w = m @ v + 0.5 * v
        acc += float(np.sqrt(w @ w)) + sum((i, 1, 2))
        v = np.concatenate([v[1:], v[:1]])
    return perf_counter() - t0


def factor(loop_times) -> float:
    """Scale from measured to normalised seconds."""
    return REFERENCE_S / statistics.median(loop_times)
