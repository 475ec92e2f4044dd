"""Spans recorded from outside the program.

A :class:`Tracer` wraps public callables of the ``repro`` package where
their callers look them up (a class attribute or a module global), so
every call records a span: name, start, end, the span that was open
when it started, and the phase of the run.  Nothing under ``src/``
changes; :meth:`Tracer.patch` restores every original on exit.

Spans stay in memory until the run ends.  Shard workers forked after
the patch inherit it: their spans travel back to the parent inside the
job record (:data:`RECORD_KEY`) and are taken out again where the
parent reads results.
"""

from __future__ import annotations

import functools
import itertools
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

#: Key under which a worker's spans ride back in its job record.
RECORD_KEY = "perfbench_spans"


@dataclass
class Span:
    """One timed call. ``sid``/``parent`` are ``(pid, serial)`` pairs,
    unique across the parent and its workers; ``job`` tags the spans a
    shard worker recorded for one dispatched job."""

    sid: tuple
    parent: "tuple | None"
    name: str
    start: float
    end: float
    phase: str
    macs: int = 0
    job: "int | None" = None

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "id": list(self.sid),
            "parent": None if self.parent is None else list(self.parent),
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "phase": self.phase,
            "macs": self.macs,
            "job": self.job,
        }


def union_seconds(intervals, lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(start, lo), min(end, hi))
        for start, end in intervals
        if min(end, hi) > max(start, lo)
    )
    total = 0.0
    cursor = lo
    for start, end in clipped:
        if end <= cursor:
            continue
        total += end - max(start, cursor)
        cursor = end
    return total


def self_seconds(spans) -> dict:
    """Self time of every span: its duration minus the part of its
    interval that its child spans cover.  Keyed by span id."""
    children: dict = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(
                (span.start, span.end)
            )
    return {
        span.sid: span.seconds
        - union_seconds(
            children.get(span.sid, ()), span.start, span.end
        )
        for span in spans
    }


class Tracer:
    """In-memory span recorder with a per-thread open-span stack.

    Recording is on while :attr:`phase` is set; ``None`` turns it off
    (warm-up and correctness checks are not traced).
    """

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.phase: "str | None" = None
        self.spans: "list[Span]" = []
        self.origin_pid = os.getpid()
        self._pid = self.origin_pid
        self._local = threading.local()
        self._serial = itertools.count(1)

    def _stack(self) -> list:
        if self._pid != os.getpid():
            # A forked worker: drop the parent's spans and the stack
            # of the thread that forked (it is not open here).
            self._pid = os.getpid()
            self.spans = []
            self._local = threading.local()
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, macs=None):
        """``fn`` recording one span per call.  ``macs(args, result)``
        optionally counts the multiply-accumulates the call did."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            phase = tracer.phase
            if phase is None:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            sid = (tracer._pid, next(tracer._serial))
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = tracer.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = tracer.clock()
                stack.pop()
            span = Span(sid, parent, name, start, end, phase)
            if macs is not None:
                span.macs = macs(args, result)
            tracer.spans.append(span)
            return result

        return traced

    def spans_on(self, name: str, macs=None):
        """Replacement factory for :meth:`patch` recording ``name``."""
        return lambda fn: self.wrap(name, fn, macs)

    @contextmanager
    def patch(self, targets):
        """Replace each ``(owner, attribute, factory)`` target with
        ``factory(original)`` for the duration of the block."""
        saved = []
        try:
            for owner, attribute, factory in targets:
                original = getattr(owner, attribute)
                saved.append((owner, attribute, original))
                setattr(owner, attribute, factory(original))
            yield self
        finally:
            for owner, attribute, original in reversed(saved):
                setattr(owner, attribute, original)

    # -- shard workers -------------------------------------------------
    def ship_from_worker(self, run_job):
        """Wrap ``BatchExecutor.run_job``: in a forked worker, move the
        spans recorded during the job into its result record."""
        tracer = self

        @functools.wraps(run_job)
        def shipped(executor, images):
            tracer._stack()  # resets a freshly forked worker
            mark = len(tracer.spans)
            record = run_job(executor, images)
            if os.getpid() != tracer.origin_pid:
                record[RECORD_KEY] = tracer.spans[mark:]
                del tracer.spans[mark:]
            return record

        return shipped

    def collect_in_parent(self, next_result):
        """Wrap ``ShardSupervisor.next_result``: take worker spans out
        of each record, tag them with the job, and keep them while
        recording is on."""
        tracer = self

        @functools.wraps(next_result)
        def collected(supervisor):
            job_id, shard, record = next_result(supervisor)
            spans = record.pop(RECORD_KEY, None)
            if spans and tracer.phase is not None:
                for span in spans:
                    span.job = int(job_id)
                    span.phase = tracer.phase
                tracer.spans.extend(spans)
            return job_id, shard, record

        return collected
