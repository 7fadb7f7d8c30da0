"""A fixed reference kernel that tells how fast the machine runs right now.

On a shared machine the CPU time of the same work drifts by up to 2x over
minutes, as other tenants load the cores and caches they share with this
one.  So the benchmark runs this kernel, which never touches ladderdet,
after every operation, and scales the times it reports by ``factor``:
``REFERENCE_S`` over the kernel's median time nearby.  A reported time is
thus the CPU time the work would take on a machine where one kernel run
takes ``REFERENCE_S``.
"""

from __future__ import annotations

import gc
import math
import statistics

from spans import CLOCK

REFERENCE_S = 0.00022  # median kernel time on the machine the bounds were set on (2.1 GHz x86-64, CPython 3.11), unloaded
SHARE = 0.1  # kernel time run after an operation, as a share of the operation's time; at least one run
_CELLS = tuple((i, j) for i in range(18) for j in range(18))


def kernel():
    """Set, dict, tuple and sorting work, like the library's, on fixed data."""
    seen = set(_CELLS)
    degree = {}
    for i, j in _CELLS:
        degree[i, j] = ((i + 1, j) in seen) + ((i, j + 1) in seen) + ((i - 1, j) in seen)
    order = sorted(_CELLS, key=lambda c: (c[0] * 13 + c[1] * 7) % 97)
    return sum(degree.values()) + len(order)


def sample():
    """CPU seconds of one kernel run."""
    gc.disable()  # a collection started here would scan the library's heap
    try:
        start = CLOCK()
        kernel()
        return CLOCK() - start
    finally:
        gc.enable()


def samples_after(op_seconds, share=SHARE):
    """Kernel times taken right after an operation that took ``op_seconds``."""
    return [sample() for _ in range(max(1, math.ceil(share * op_seconds / REFERENCE_S)))]


def factor(samples):
    """The scale from measured CPU seconds to seconds at the reference speed."""
    return REFERENCE_S / statistics.median(samples)
