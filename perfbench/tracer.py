"""Spans recorded from outside the program, around calls into `sbo`'s layers.

A wrapper is installed at the place each caller looks a function up
(`sbo.cli.build_instance`, not only `sbo.problems.build_instance`, because
`cli` imports names directly). Two kinds of wrapper:

* span -- records (id, name, start, end, parent, thread) per call;
* leaf -- for the hot calls that run millions of times (gradients, prox
  maps, the step map): calls, total and self time are summed per
  (parent span, name) instead of kept per call. No span may open beneath a
  leaf call.

Self time is a span's duration minus the time covered by its children: the
union of its child spans' intervals plus the leaf calls made directly
under it.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional


@dataclass
class Span:
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: Optional[int]
    thread: int
    iters: Optional[int] = None

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


class Patches:
    """Attribute replacements undone in reverse order."""

    def __init__(self):
        self._undo = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def undo(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)


class _ThreadState:
    def __init__(self, span_id: Optional[int]):
        self.span_id = span_id  # innermost open span on this thread
        # frames: [span id or None for a leaf, ns covered by nested leaves]
        self.stack: list = []
        # (parent span id, name) -> [calls, total_ns, self_ns, top_ns]; top_ns
        # sums only the calls not nested in another leaf call
        self.leaves: dict = {}


class Tracer:
    """Spans and leaf aggregates of one traced command."""

    def __init__(self):
        self.spans: list[Span] = []
        self.root_id: Optional[int] = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            # a worker thread's first spans hang under the root span
            state = _ThreadState(self.root_id)
            with self._lock:
                self._states.append(state)
            self._local.state = state
            return state

    def span(self, name: str, fn: Callable,
             iters: Optional[Callable] = None,
             on_result: Optional[Callable] = None) -> Callable:
        """Wrap fn so that every call records a span. iters(result) gives
        the span's iteration count; on_result(result) runs inside it."""
        perf = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            state = self._state()
            if state.stack and state.stack[-1][0] is None:
                raise RuntimeError(f"span {name!r} opened beneath a leaf call")
            rec = Span(next(self._ids), name, 0, 0, state.span_id,
                       threading.get_ident())
            outer = state.span_id
            state.span_id = rec.id
            state.stack.append([rec.id, 0])
            rec.start_ns = perf()
            try:
                result = fn(*args, **kwargs)
                if iters is not None:
                    rec.iters = iters(result)
                if on_result is not None:
                    on_result(result)
                return result
            finally:
                rec.end_ns = perf()
                state.stack.pop()
                state.span_id = outer
                self.spans.append(rec)

        return wrapper

    def leaf(self, name: str, fn: Callable) -> Callable:
        """Wrap fn so that its calls are summed per parent span."""
        perf = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            state = self._state()
            stack = state.stack
            frame = [None, 0]
            stack.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf() - t0
                stack.pop()
                key = (state.span_id, name)
                agg = state.leaves.get(key)
                if agg is None:
                    agg = state.leaves[key] = [0, 0, 0, 0]
                agg[0] += 1
                agg[1] += dur
                agg[2] += dur - frame[1]
                if stack and stack[-1][0] is None:
                    stack[-1][1] += dur
                else:
                    agg[3] += dur

        return wrapper

    @contextmanager
    def root(self, name: str):
        """The span every other span of the traced command descends from."""
        state = self._state()
        rec = Span(next(self._ids), name, time.perf_counter_ns(), 0, None,
                   threading.get_ident())
        self.root_id = state.span_id = rec.id
        try:
            yield rec
        finally:
            rec.end_ns = time.perf_counter_ns()
            state.span_id = None
            self.spans.append(rec)

    def leaf_totals(self) -> dict:
        """(parent span id, name) -> [calls, total_ns, self_ns, top_ns],
        summed over threads."""
        out: dict = {}
        for state in self._states:
            for key, agg in state.leaves.items():
                acc = out.setdefault(key, [0, 0, 0, 0])
                for i, v in enumerate(agg):
                    acc[i] += v
        return out


def _union_ns(intervals) -> int:
    """Length of the union of (start, end) intervals."""
    total, reach = 0, None
    for lo, hi in sorted(intervals):
        if reach is None or lo > reach:
            total += hi - lo
            reach = hi
        elif hi > reach:
            total += hi - reach
            reach = hi
    return total


def self_times(spans, leaf_top_ns: dict) -> dict:
    """span id -> self ns: its duration minus the part covered by children,
    which is the union of its child spans' intervals, clipped to it, plus
    the leaf time directly under it (leaf calls run on the span's own
    thread, between its child spans)."""
    children: dict = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        clipped = [(max(c.start_ns, s.start_ns), min(c.end_ns, s.end_ns))
                   for c in children.get(s.id, ())]
        cover = _union_ns((lo, hi) for lo, hi in clipped if lo < hi)
        out[s.id] = max(s.duration_ns - cover - leaf_top_ns.get(s.id, 0), 0)
    return out
