"""A fixed reference loop that measures how fast the machine runs right now.

On a shared host the same pure-Python work can take 20-45% longer for tens
of seconds at a time, whatever the program does.  The benchmark therefore
runs this loop in the same process as the timed work, interleaved with it,
and reports times scaled to a fixed reference speed:

    scaled = measured * REFERENCE_S / median(reference chunk times)

A program that does twice the work still reports twice the time; a machine
that runs everything 30% slower for a while does not.  The loop multiplies
two fixed sparse polynomials held as dicts from exponent tuples to integer
coefficients, which uses the interpreter the way the program does (tuple
keys, dict updates, integer arithmetic).  The garbage collector is held off
while it runs, so the program's heap does not change its time.
"""

from __future__ import annotations

import gc
import statistics
import time

# The chunk's median time on the 2-vCPU VM the bounds were set on, so scaled
# times read close to raw ones there.
REFERENCE_S = 0.005
# Two fixed sparse polynomials in three variables: exponent tuple -> coefficient.
_LEFT = {(i, j, i * j % 5): i + j for i in range(12) for j in range(12)}
_RIGHT = {(i % 6, j, i): i * j + 1 for i in range(8) for j in range(16)}
# The product's table is built once, so a chunk never grows a dict or asks the
# operating system for memory: its time does not include page faults, whose
# cost on a shared host moves independently of the interpreter's speed.
_PRODUCT = {(a1 + b1, a2 + b2, a3 + b3): 0 for a1, a2, a3 in _LEFT for b1, b2, b3 in _RIGHT}


def chunk_s() -> float:
    """Time one reference chunk, with the garbage collector held off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        product = _PRODUCT
        for key in product:
            product[key] = 0
        for (a1, a2, a3), c in _LEFT.items():
            for (b1, b2, b3), d in _RIGHT.items():
                key = (a1 + b1, a2 + b2, a3 + b3)
                product[key] = product.get(key, 0) + c * d
        elapsed = time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    return elapsed


def samples(count: int) -> list[float]:
    """Time ``count`` chunks after one untimed chunk, which warms the
    caches of a fresh process."""
    chunk_s()
    return [chunk_s() for _ in range(count)]


def scale(reference: list[float]) -> float:
    """Factor that turns times measured alongside ``reference`` into seconds
    at the reference speed."""
    return REFERENCE_S / statistics.median(reference)
