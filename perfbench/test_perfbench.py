"""Tests of the benchmark's own code (no ``repro`` import needed).

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import json
import sys
import time
from concurrent.futures import Future
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import loops  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracing import Span, Tracer, self_seconds, union_seconds  # noqa: E402


# -- nearest-rank percentile ---------------------------------------------
def test_percentile_is_nearest_rank():
    values = list(range(1, 11))  # 1..10, shuffled order must not matter
    shuffled = values[::-1]
    assert loops.percentile(shuffled, 0.50) == 5
    assert loops.percentile(shuffled, 0.90) == 9
    assert loops.percentile(shuffled, 0.91) == 10
    assert loops.percentile(shuffled, 0.99) == 10
    assert loops.percentile(shuffled, 0.0) == 1
    assert loops.percentile([7.5], 0.99) == 7.5


def test_percentile_returns_an_observed_sample():
    values = [0.3, 0.1, 0.2, 0.4]
    assert loops.percentile(values, 0.5) == 0.2  # not interpolated 0.25


def test_percentile_of_nothing_raises():
    with pytest.raises(ValueError):
        loops.percentile([], 0.5)


# -- self time -----------------------------------------------------------
def _span(serial, parent, start, end, name="x"):
    return Span(
        sid=(1, serial),
        parent=None if parent is None else (1, parent),
        name=name,
        start=start,
        end=end,
        phase="measure",
    )


def test_union_merges_overlaps_and_clips():
    assert union_seconds([(1, 3), (2, 5), (9, 12)], 0, 10) == 5
    assert union_seconds([], 0, 10) == 0
    assert union_seconds([(11, 12)], 0, 10) == 0


def test_self_time_subtracts_direct_children_only():
    spans = [
        _span(1, None, 0.0, 10.0),
        _span(2, 1, 1.0, 3.0),
        _span(3, 1, 2.0, 5.0),  # overlaps its sibling
        _span(4, 1, 9.0, 12.0),  # runs past its parent's end
        _span(5, 2, 1.5, 2.5),  # grandchild: charged to span 2
    ]
    own = self_seconds(spans)
    assert own[(1, 1)] == pytest.approx(10.0 - 5.0)
    assert own[(1, 2)] == pytest.approx(2.0 - 1.0)
    assert own[(1, 3)] == pytest.approx(3.0)
    assert own[(1, 5)] == pytest.approx(1.0)


def test_tracer_records_nesting_and_restores():
    class Layer:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    targets = [
        (Layer, "outer", tracer.spans_on("outer")),
        (Layer, "inner", tracer.spans_on("inner")),
    ]
    original = Layer.inner
    with tracer.patch(targets):
        Layer().outer()  # recording off: no spans
        assert tracer.spans == []
        tracer.phase = "measure"
        assert Layer().outer() == 2
    assert Layer.inner is original
    inner, outer = tracer.spans
    assert (inner.name, outer.name) == ("inner", "outer")
    assert inner.parent == outer.sid and outer.parent is None
    assert self_seconds(tracer.spans)[outer.sid] == pytest.approx(
        outer.seconds - inner.seconds
    )


# -- due-time latency ------------------------------------------------------
def _instant(payload):
    future = Future()
    future.set_result(payload)
    return future


def test_open_loop_charges_a_generator_stall_from_due_time():
    stall = 0.08

    def submit(payload):
        if payload == 0:
            time.sleep(stall)  # the first send blocks the generator
        return _instant(payload)

    outcomes = loops.open_loop(submit, [0, 1, 2], [0.0, 0.01, 0.02])
    assert [o.result for o in outcomes] == [0, 1, 2]
    assert all(o.ok for o in outcomes)
    # Requests 1 and 2 were due during the stall: their latency counts
    # the wait from their due time, though each completed at once.
    for outcome in outcomes[1:]:
        assert outcome.latency >= stall - 0.03
        assert outcome.late >= stall - 0.03
        assert outcome.done - outcome.sent < 0.02
    assert outcomes[0].late < 0.02


def test_open_loop_counts_refusals_as_failed():
    def submit(payload):
        if payload == 1:
            raise RuntimeError("queue full")
        return _instant(payload)

    outcomes = loops.open_loop(submit, [0, 1], [0.0, 0.0])
    assert [o.ok for o in outcomes] == [True, False]
    assert run.share_within(outcomes, 1.0) == 0.5


def test_closed_loop_holds_concurrency():
    outstanding = []
    peak = [0]

    def submit(payload):
        future = Future()
        outstanding.append(future)
        peak[0] = max(peak[0], sum(not f.done() for f in outstanding))
        if len(outstanding) % 3 == 0:  # complete in bursts
            for pending in outstanding:
                if not pending.done():
                    pending.set_result(payload)
        return future

    def finish_all():
        for pending in outstanding:
            if not pending.done():
                pending.set_result(None)

    import threading

    timer = threading.Timer(0.3, finish_all)
    timer.start()
    try:
        outcomes, _ = loops.closed_loop(
            submit, lambda index: index, concurrency=3, seconds=0.1
        )
    finally:
        timer.cancel()
        finish_all()
    assert peak[0] <= 3
    assert all(o.done is not None for o in outcomes)


def test_rate_within_counts_only_the_phase():
    times = [0.1, 0.2, 0.3, 1.5, 2.2, 2.4, 2.6, 2.8, 3.5]
    # 8 events in [0, 3); 3.5 lies past the phase and is not counted.
    assert loops.rate_within(times, 0.0, 3.0) == 8 / 3.0
    assert loops.rate_within(times, 1.0, 2.0) == 5 / 2.0


def test_poisson_offsets_follow_the_seed():
    import numpy as np

    first = loops.poisson_offsets(np.random.default_rng(4), 100.0, 2.0)
    second = loops.poisson_offsets(np.random.default_rng(4), 100.0, 2.0)
    assert first == second
    assert all(0 <= a < b < 2.0 for a, b in zip(first, first[1:]))
    assert 120 < len(first) < 280


def test_fits_stops_before_overrunning():
    assert run.fits(0.0, 8.0, 20.0, 1)  # 8 + 8 <= 20
    assert not run.fits(0.0, 16.0, 20.0, 2)  # 16 + 8 > 20


# -- child processes -------------------------------------------------------
def test_end_group_stops_what_a_child_leaves_behind():
    leaves_a_sleeper = (
        "import subprocess, sys\n"
        "subprocess.Popen([sys.executable, '-c', "
        "'import time; time.sleep(60)'])\n"
        "print('started', flush=True)\n"
    )
    process = run.child([sys.executable, "-c", leaves_a_sleeper])
    assert process.stdout.readline().strip() == "started"
    assert run.group_alive(process.pid)
    run.end_group(process)
    process.stdout.close()
    assert process.returncode is not None
    assert not run.group_alive(process.pid)


# -- the benchmark's declaration -------------------------------------------
def test_benchmark_json_matches_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(
        workloads.WORKLOADS
    )
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == (
        run.END_TO_END
    )
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == (
        run.PER_LAYER
    )
    assert set(run.RUNNERS) == set(workloads.WORKLOADS)
