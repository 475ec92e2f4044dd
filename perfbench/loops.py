"""Request drivers and the statistics the benchmark reports.

One generator thread issues every request.  In an open loop it sleeps
to each request's due time and submits; in a closed loop it holds a
fixed number of requests outstanding.  Completion is recorded by a
callback on the request's future, and latency runs from the *due*
time, so a generator that stalls charges the stall to every request
it delays.  :attr:`Outcome.late` records how late the generator ran.
"""

from __future__ import annotations

import math
import statistics
import threading
import time
from dataclasses import dataclass


def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least
    ``fraction`` of the sample at or below it.  The benchmark keeps its
    own statistics so a change to the program's cannot move its
    figures."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    rank = math.ceil(fraction * len(ordered)) - 1
    return float(ordered[min(max(rank, 0), len(ordered) - 1)])


def median(values) -> float:
    return float(statistics.median(list(values)))


@dataclass
class Outcome:
    """One request: when it was due, when the generator sent it, when
    it completed (None if it never did), and whether it succeeded."""

    due: float
    sent: float = 0.0
    done: "float | None" = None
    ok: bool = False
    result: object = None
    error: "BaseException | None" = None

    @property
    def latency(self) -> float:
        """Seconds from due time to completion."""
        if self.done is None:
            raise ValueError("request never completed")
        return self.done - self.due

    @property
    def late(self) -> float:
        """Seconds the generator sent this request after its due time."""
        return max(self.sent - self.due, 0.0)


class _Tracker:
    """Completion bookkeeping shared by the generator and callbacks."""

    def __init__(self, clock, slots: "int | None" = None) -> None:
        self.clock = clock
        self.outcomes: "list[Outcome]" = []
        self._lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._open = 0
        self._slots = (
            None if slots is None else threading.Semaphore(slots)
        )

    def acquire(self) -> None:
        if self._slots is not None:
            self._slots.acquire()

    def issue(self, submit, payload, outcome: Outcome) -> None:
        outcome.sent = self.clock()
        self.outcomes.append(outcome)
        try:
            future = submit(payload)
        except Exception as error:  # refused at admission
            self._finish(outcome, None, error)
            return
        with self._lock:
            self._open += 1
        future.add_done_callback(
            lambda done: self._resolve(outcome, done)
        )

    def _resolve(self, outcome: Outcome, future) -> None:
        error = future.exception()
        self._finish(
            outcome, None if error is not None else future.result(), error
        )
        with self._lock:
            self._open -= 1
            self._idle.notify_all()

    def _finish(self, outcome, result, error) -> None:
        outcome.done = self.clock()
        outcome.ok = error is None
        outcome.result = result
        outcome.error = error
        if self._slots is not None:
            self._slots.release()

    def wait_idle(self, timeout: float) -> None:
        with self._lock:
            if not self._idle.wait_for(
                lambda: self._open == 0, timeout
            ):
                raise TimeoutError(
                    f"{self._open} requests still open after {timeout} s"
                )


def _run_thread(target, timeout: float) -> None:
    errors: list = []

    def body():
        try:
            target()
        except BaseException as error:
            errors.append(error)

    thread = threading.Thread(target=body, name="perfbench-generator")
    thread.start()
    thread.join(timeout)
    if thread.is_alive():
        raise TimeoutError("request generator did not finish")
    if errors:
        raise errors[0]


def open_loop(
    submit,
    payloads,
    offsets,
    *,
    lead: float = 0.05,
    timeout: float = 120.0,
    clock=time.perf_counter,
) -> "list[Outcome]":
    """Send ``payloads[i]`` at ``start + offsets[i]`` (seconds) and wait
    for every request to complete.  ``submit(payload)`` returns a
    future; an exception from it counts the request as refused."""
    tracker = _Tracker(clock)
    start = clock() + lead

    def generate():
        for payload, offset in zip(payloads, offsets):
            due = start + offset
            pause = due - clock()
            if pause > 0:
                time.sleep(pause)
            tracker.issue(submit, payload, Outcome(due=due))

    _run_thread(generate, timeout)
    tracker.wait_idle(timeout)
    return tracker.outcomes


def closed_loop(
    submit,
    payload_at,
    *,
    concurrency: int,
    seconds: float,
    timeout: float = 120.0,
    clock=time.perf_counter,
) -> "tuple[list[Outcome], float]":
    """Keep ``concurrency`` requests outstanding for ``seconds``, then
    wait for the last ones.  Request ``i`` sends ``payload_at(i)`` and
    is due the moment a slot frees for it.  Returns the outcomes and
    the phase start time."""
    tracker = _Tracker(clock, slots=concurrency)
    start = clock()

    def generate():
        index = 0
        while clock() - start < seconds:
            tracker.acquire()
            due = clock()
            tracker.issue(submit, payload_at(index), Outcome(due=due))
            index += 1

    _run_thread(generate, seconds + timeout)
    tracker.wait_idle(timeout)
    return tracker.outcomes, start


def rate_within(times, start: float, seconds: float) -> float:
    """Events per second over ``[start, start + seconds)``."""
    count = sum(1 for moment in times if start <= moment < start + seconds)
    return count / seconds


def windowed_percentile(
    outcomes, fraction: float, window: float, minimum: int = 20
) -> float:
    """Median over ``window``-second windows (by due time) of each
    window's latency percentile, in ms.  Windows with fewer than
    ``minimum`` completed requests are left out unless none has more.
    A short stall on the shared host moves a few windows, not the
    median of them."""
    done = [o for o in outcomes if o.ok]
    if not done:
        raise ValueError("no completed requests")
    start = min(o.due for o in done)
    windows: dict = {}
    for outcome in done:
        slot = int((outcome.due - start) // window)
        windows.setdefault(slot, []).append(outcome.latency * 1e3)
    samples = [v for v in windows.values() if len(v) >= minimum] or list(
        windows.values()
    )
    return median(percentile(values, fraction) for values in samples)


def poisson_offsets(rng, rate: float, seconds: float) -> "list[float]":
    """Arrival offsets of a Poisson process at ``rate`` per second over
    ``seconds``."""
    offsets: "list[float]" = []
    now = float(rng.exponential(1.0 / rate))
    while now < seconds:
        offsets.append(now)
        now += float(rng.exponential(1.0 / rate))
    return offsets
