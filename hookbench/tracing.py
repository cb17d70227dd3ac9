"""Outside-in tracing: timing and counting wrappers around public names.

A ``Tracer`` replaces, while it is installed, a list of attributes (module
functions or class methods) with wrappers that record spans, and puts the
originals back when it is removed.  Nothing inside the traced program
changes.

Some calls happen once per tree, which would give hundreds of thousands of
spans per pass.  So repeated calls with the same (layer, name, detail,
spec) under the same parent are folded into one record: ``start`` and
``end`` are its first entry and last exit, ``busy`` the summed time inside
it, ``calls`` the number of calls, and ``count`` the work they reported
(trees yielded, hook values, json bytes).  The records form a
calling-context tree.  A record's self time is its busy time minus the busy
time of its children.

The wrappers live in this process only.  Pool workers forked while they are
installed would inherit them, but their spans would stay in the workers, so
every workload traced here runs serially.
"""

from __future__ import annotations

import functools
import itertools
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable

_END = object()


@dataclass(frozen=True)
class Target:
    """One attribute to wrap.

    ``iterates`` marks a function returning an iterator: each ``next`` is
    timed and each item counted, and the call arguments become the
    record's ``detail``.  ``measure`` maps a result to the work count of a
    call.  ``spec_of`` maps the call arguments to a new spec id, which the
    calls below it inherit.
    """

    owner: Any
    attr: str
    layer: str
    name: str | None = None
    iterates: bool = False
    measure: Callable[[Any], int] | None = None
    spec_of: Callable[[tuple], str] | None = None


class Record:
    __slots__ = (
        "id", "parent", "layer", "name", "detail", "spec",
        "start", "end", "busy", "calls", "count", "children",
    )

    def __init__(self, rid, parent, layer, name, detail, spec):
        self.id = rid
        self.parent = parent
        self.layer = layer
        self.name = name
        self.detail = detail
        self.spec = spec
        self.start = None
        self.end = None
        self.busy = 0.0
        self.calls = 0
        self.count = 0
        self.children: dict = {}

    def as_span(self) -> dict:
        return {key: getattr(self, key) for key in Record.__slots__[:-1]}


class Tracer:
    """Records spans around ``targets`` while installed."""

    def __init__(self, targets):
        self.targets = list(targets)
        self._saved: list[tuple[Any, str, Any]] = []
        self._ids = itertools.count()
        self.stack: list[Record] = []
        self.roots: dict = {}
        self.records: list[Record] = []

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        try:
            for target in self.targets:
                original = getattr(target.owner, target.attr)
                self._saved.append((target.owner, target.attr, original))
                setattr(target.owner, target.attr, self._wrap(target, original))
            yield self
        finally:
            while self._saved:
                owner, attr, original = self._saved.pop()
                setattr(owner, attr, original)

    @contextmanager
    def span(self, layer: str, name: str, spec: str | None = None):
        """Record the block as one call of (layer, name); yields its record."""
        rec, t0 = self._enter(layer, name, None, spec)
        try:
            yield rec
        finally:
            self._leave(rec, t0, 0)

    def take(self) -> list[dict]:
        """Hand over the finished records as span dicts and forget them."""
        if self.stack:
            raise RuntimeError("cannot take spans while a span is open")
        spans = [rec.as_span() for rec in self.records]
        self.roots = {}
        self.records = []
        return spans

    def _wrap(self, target: Target, fn):
        layer = target.layer
        name = target.name or target.attr
        if target.iterates:

            def wrapper(*args):
                return self._iterate(fn(*args), layer, name, str(args))

        else:
            measure, spec_of = target.measure, target.spec_of

            def wrapper(*args, **kwargs):
                rec, t0 = self._enter(layer, name, None, spec_of(args) if spec_of else None)
                work = 0
                try:
                    result = fn(*args, **kwargs)
                    if measure is not None:
                        work = measure(result)
                    return result
                finally:
                    self._leave(rec, t0, work)

        return functools.wraps(fn)(wrapper)

    def _iterate(self, iterator, layer, name, detail):
        while True:
            rec, t0 = self._enter(layer, name, detail, None)
            item = _END
            try:
                item = next(iterator, _END)
            finally:
                self._leave(rec, t0, 0 if item is _END else 1)
            if item is _END:
                return
            yield item

    def _enter(self, layer, name, detail, spec):
        stack = self.stack
        parent = stack[-1] if stack else None
        if spec is None and parent is not None:
            spec = parent.spec
        key = (layer, name, detail, spec)
        siblings = parent.children if parent is not None else self.roots
        rec = siblings.get(key)
        if rec is None:
            rec = Record(
                next(self._ids), parent.id if parent is not None else None, layer, name, detail, spec
            )
            siblings[key] = rec
            self.records.append(rec)
        stack.append(rec)
        t0 = perf_counter()
        if rec.start is None:
            rec.start = t0
        return rec, t0

    def _leave(self, rec, t0, work):
        t1 = perf_counter()
        rec.busy += t1 - t0
        rec.calls += 1
        rec.count += work
        rec.end = t1
        self.stack.pop()


def self_times(spans: list[dict]) -> dict[int, float]:
    """Self time of every span: its busy time minus that of its children."""
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += span["busy"]
    return {span["id"]: span["busy"] - covered[span["id"]] for span in spans}


def self_time_error(spans: list[dict], wall: float) -> float:
    """Gap between the summed self times and ``wall``, a time taken by another clock.

    The self times of well-formed spans sum to the busy time of the
    top-level spans, so this compares the tracer's timing with ``wall``
    (the pass's own ``perf_counter`` pair, just inside the top-level span).
    It also counts any negative self time, which would mean a child
    outlasted its parent, and a parent link to no span, which drops a
    child's time from the sum.
    """
    own = self_times(spans)
    ids = {span["id"] for span in spans}
    orphans = sum(span["busy"] for span in spans if span["parent"] is not None and span["parent"] not in ids)
    worst = max([0.0] + [-value for value in own.values()])
    return max(worst, orphans, abs(sum(own.values()) - wall))
