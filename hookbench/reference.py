"""A fixed reference computation that gauges the machine's current speed.

On a shared machine the CPU speed changes by tens of percent over seconds
and over minutes, for every process alike.  So each timed sample is taken
between two runs of this reference, and the benchmark reports it in
reference seconds: the measured seconds times ``REF_SECONDS`` over the mean
time of the two reference runs.  The reference does the same kind of work as
hooktrees (recursive tuple trees, dicts, integer products, Fractions) but
shares no code with it, so no change to the program can move it.

``REF_SECONDS`` is the reference's usual time on the 2-core machine of
``BENCH_seed.json``, so reference seconds stay close to seconds there.
"""

from __future__ import annotations

from fractions import Fraction
from time import perf_counter

REF_SECONDS = 0.015


def _trees(n: int):
    if n == 0:
        yield ()
        return
    for k in range(n):
        for left in _trees(k):
            for right in _trees(n - 1 - k):
                yield (left, right)


def _sizes(node: tuple, out: dict) -> int:
    if not node:
        return 0
    total = 1 + _sizes(node[0], out) + _sizes(node[1], out)
    out[len(out)] = total
    return total


def _kernel() -> Fraction:
    """Sum of prod (1 + 1/h) over the 1430 binary trees with 8 internal vertices."""
    acc = Fraction(0)
    for tree in _trees(8):
        sizes: dict = {}
        _sizes(tree, sizes)
        num = den = 1
        for h in sizes.values():
            num *= h + 1
            den *= h
        acc += Fraction(num, den)
    return acc


def reference_seconds() -> float:
    start = perf_counter()
    _kernel()
    return perf_counter() - start


class SpeedGauge:
    """Turns seconds measured between two calls of ``scale`` into reference seconds."""

    def __init__(self):
        self.last = reference_seconds()
        self.samples = [self.last]

    def scale(self) -> float:
        now = reference_seconds()
        factor = 2 * REF_SECONDS / (self.last + now)
        self.last = now
        self.samples.append(now)
        return factor
