"""Span recording, self-time arithmetic and entry-point patching.

A span is (id, parent, name, start, end, n): `n` is an optional work count
attached by the wrapper (nodes handed to a kernel call). Spans are kept in
memory and written out once, when the benchmark ends. The program is
single-threaded, so spans nest strictly and one stack gives every parent.
"""
from __future__ import annotations

import csv
import functools
import time
from collections import defaultdict
from dataclasses import dataclass


@dataclass(frozen=True)
class Span:
    id: int
    parent: int       # -1 for a root span
    name: str
    start: float
    end: float
    n: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans with time.perf_counter; `wrap` traces a callable."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self._next_id = 0
        self._stack = []   # (id, name, start, n) of the open spans

    def begin(self, name, n=0):
        sid = self._next_id
        self._next_id += 1
        self._stack.append((sid, name, self.clock(), n))
        return sid

    def end(self, sid):
        end = self.clock()
        top, name, start, n = self._stack.pop()
        if top != sid:
            raise RuntimeError(f"span {name!r} closed out of order")
        parent = self._stack[-1][0] if self._stack else -1
        self.spans.append(Span(sid, parent, name, start, end, n))

    def wrap(self, fn, name, count=None):
        """Trace every call of fn as a span called `name`; `count(args)`
        gives the span's work count."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.begin(name, count(args) if count else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(sid)
        return traced

    def write_csv(self, path):
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh, lineterminator="\n")
            w.writerow(["id", "parent", "name", "start", "end", "n"])
            for s in sorted(self.spans, key=lambda s: s.id):
                w.writerow([s.id, s.parent, s.name, repr(s.start), repr(s.end), s.n])


def covered_length(intervals, lo, hi):
    """Length of the union of `intervals` clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """{span id: duration minus the part of it that its children cover}."""
    kids = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            kids[s.parent].append((s.start, s.end))
    return {s.id: s.duration - covered_length(kids[s.id], s.start, s.end)
            for s in spans}


def subtree(spans, root_id):
    """The spans under root_id, the root included."""
    kids = defaultdict(list)
    for s in spans:
        kids[s.parent].append(s)
    out, todo = [], [s for s in spans if s.id == root_id]
    while todo:
        s = todo.pop()
        out.append(s)
        todo.extend(kids[s.id])
    return out


class Patches:
    """Replace module or class attributes, or dict entries, with wrappers and
    put the originals back on restore(). A target that no longer exists
    raises LookupError: a renamed entry point must fail the benchmark, not
    report zero work."""

    def __init__(self):
        self._undo = []

    def attr(self, owner, name, make):
        if name not in vars(owner):
            label = getattr(owner, "__name__", repr(owner))
            raise LookupError(f"trace target {label}.{name} is gone")
        orig = vars(owner)[name]
        setattr(owner, name, make(orig))
        self._undo.append(lambda: setattr(owner, name, orig))

    def entry(self, mapping, key, make):
        if key not in mapping:
            raise LookupError(f"trace target entry {key!r} is gone")
        orig = mapping[key]
        mapping[key] = make(orig)
        self._undo.append(lambda: mapping.__setitem__(key, orig))

    def restore(self):
        while self._undo:
            self._undo.pop()()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False
