"""Host-time benchmark of the Tempus Core reproduction.

Usage::

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> \
        --trace <0|1>

Workloads (see ``workloads.py`` and ``README.md``): ``offline_resnet18``,
``serve_mobilenet`` and ``decode_tiny_llm``.  Inputs and arrival times
come from ``--seed``.  Every run checks a seeded sample of its outputs
and cycles against ``NetworkRunner.run_per_image``, the per-image
reference through the cycle-level cores, outside the timed region.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` first runs
the same workload untraced in a fresh process, then traced here, and
reports the per-layer metrics, the tracing overhead between the two,
and writes every span to ``perfbench/out/``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import os
import platform
import resource
import signal
import subprocess
import sys
import time
from dataclasses import dataclass, field

import workloads as wl
from loops import Outcome, closed_loop, median, open_loop, \
    percentile, poisson_offsets, rate_within, windowed_percentile
from tracing import Tracer, self_seconds

CLOCK = time.perf_counter
SETUP_PROBES = 3
#: Open-loop latency percentiles are medians over windows of this many
#: seconds.
WINDOW_S = 2.0
OUT_DIR = wl.ROOT / "perfbench" / "out"

#: End-to-end metrics (``--trace 0``) and their units.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "images_per_s": "img/s",
    "sim_cycles_per_image": "cycles",
    "latency_p50_ms": "ms",
    "slo_attainment": "fraction",
    "closed_rps": "req/s",
    "tokens_per_s": "tokens/s",
    "token_latency_p50_ms": "ms",
    "token_latency_p90_ms": "ms",
    "sim_cycles_per_token": "cycles",
}
#: Per-layer metrics (``--trace 1``) and their units.
PER_LAYER = {
    "executor.run_batch_ms": "ms",
    "executor.self_ms": "ms",
    "executor.gmac_per_s": "GMAC/s",
    "executor.fit_ms": "ms",
    "backends.layer_cycles_ms": "ms",
    "backends.layer_cycles_calls": "count",
    "latency.burst_map_hits": "count",
    "latency.burst_map_misses": "count",
    "pdp.apply_ms": "ms",
    "weights.load_ms": "ms",
    "lowering.lower_model_ms": "ms",
    "sharded.start_ms": "ms",
    "queue.wait_ms_p50": "ms",
    "queue.wait_ms_p99": "ms",
    "queue.batch_size_mean": "req/job",
    "queue.depth_high_watermark": "count",
    "gateway.dispatch_ms_p50": "ms",
    "gateway.compute_ms_p50": "ms",
    "gateway.reassembly_ms_p50": "ms",
    "gateway.unattributed_ms_p50": "ms",
    "shm.write_ms_mean": "ms",
    "supervisor.restarts": "count",
    "supervisor.retries": "count",
    "supervisor.redispatched": "count",
    "driver.generator_late_ms_max": "ms",
    "driver.tracing_overhead_pct": "%",
}
#: The throughput the tracing overhead is taken on, per workload.
PRIMARY = {
    "offline_resnet18": "images_per_s",
    "serve_mobilenet": "closed_rps",
    "decode_tiny_llm": "tokens_per_s",
}
THREAD_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


@dataclass
class RunResult:
    """What one workload run measured and checked."""

    metrics: dict
    attempted: int
    failed: int
    checks: dict
    telemetry: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(self.checks.values())


# -- child processes -------------------------------------------------------
def child(args, **kwargs) -> subprocess.Popen:
    """Start a child in a process group of its own, stdout piped."""
    return subprocess.Popen(
        args,
        stdout=subprocess.PIPE,
        text=True,
        cwd=wl.ROOT,
        start_new_session=True,
        **kwargs,
    )


def group_alive(group: int) -> bool:
    """Whether any process of ``group`` has not yet ended (a zombie
    has ended)."""
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stat:
                fields = stat.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if fields[0] != "Z" and int(fields[2]) == group:
            return True
    return False


def end_group(process: subprocess.Popen, grace: float = 10.0) -> None:
    """Kill what is left of a child's process group, reap the child,
    and wait until every other member of the group has ended too."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    process.wait()
    deadline = CLOCK() + grace
    while group_alive(process.pid) and CLOCK() < deadline:
        time.sleep(0.01)


# -- measurement helpers -------------------------------------------------
def setup_seconds(workload: str) -> float:
    """Median over fresh processes of launch to ready (load + lower, and
    the shard pool start on the served workload)."""
    env = dict(os.environ)
    env.pop("REPRO_BURST_CACHE_DIR", None)
    samples = []
    for _ in range(SETUP_PROBES):
        started = CLOCK()
        probe = child(
            [sys.executable, str(wl.ROOT / "perfbench" / "setup_probe.py"),
             workload],
            env=env,
        )
        try:
            line = probe.stdout.readline()
            ready = CLOCK()
            probe.communicate(timeout=60)
        finally:
            end_group(probe)
        if line.strip() != "ready" or probe.returncode != 0:
            raise RuntimeError(f"set-up probe for {workload} failed")
        samples.append(ready - started)
    return median(samples)


def peak_rss_mb() -> float:
    """Peak resident set of this process (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def worker_peak_rss_mb(processes) -> float:
    """Sum of the shard workers' peak resident sets (VmHWM)."""
    total = 0.0
    for process in processes:
        try:
            with open(f"/proc/{process.pid}/status") as status:
                for line in status:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1]) / 1024.0
        except OSError:
            continue
    return total


class MacCounter:
    """Multiply-accumulates of one ``BatchExecutor.run_batch`` call,
    from the conv stage records it returns."""

    def __init__(self) -> None:
        self._per_pixel: dict = {}

    def __call__(self, args, result) -> int:
        executor = args[0]
        convs = [record for record in result[1] if record.kind == "conv"]
        total = 0
        for stage, record in zip(executor.net.stages, convs):
            per_pixel = self._per_pixel.get(id(stage))
            if per_pixel is None:
                per_pixel = sum(int(w.size) for w in stage.weights)
                self._per_pixel[id(stage)] = per_pixel
            batch, _, height, width = record.output_shape
            total += batch * height * width * per_pixel
        return total


def trace_targets(tracer: Tracer) -> list:
    """Public callables wrapped where their callers look them up."""
    from repro.nvdla.pdp import Pdp
    from repro.runtime import executor, runner
    from repro.runtime.backends import ComputeBackend
    from repro.runtime.executor import BatchExecutor
    from repro.serve.sharded import ShardedRunner
    from repro.serve.supervisor import ShardSupervisor

    on = tracer.spans_on
    return [
        (BatchExecutor, "run_batch",
         on("executor.run_batch", MacCounter())),
        (executor, "fit_channels", on("executor.fit_channels")),
        (executor, "fit_spatial", on("executor.fit_spatial")),
        (Pdp, "apply_many", on("pdp.apply_many")),
        (ComputeBackend, "layer_cycles", on("backends.layer_cycles")),
        (runner, "load_quantized_model",
         on("weights.load_quantized_model")),
        (runner, "lower_model", on("lowering.lower_model")),
        (ShardedRunner, "start", on("sharded.start")),
        # Worker spans ride back in each job record.
        (BatchExecutor, "run_job", tracer.ship_from_worker),
        (ShardSupervisor, "next_result", tracer.collect_in_parent),
    ]


def cache_counts() -> tuple:
    from repro.core.latency import burst_map_cache_stats

    stats = burst_map_cache_stats()
    return stats["hits"], stats["misses"]


def counts_since(before: tuple) -> tuple:
    after = cache_counts()
    return after[0] - before[0], after[1] - before[1]


def fits(started: float, now: float, seconds: float, units: int) -> bool:
    """Whether one more unit of work, as long as the mean so far, ends
    within ``seconds`` of ``started``."""
    spent = now - started
    return spent + spent / units <= seconds


def share_within(outcomes, limit: float) -> float:
    """Share of sent requests done within ``limit``; a failed or
    refused request counts as a miss."""
    met = sum(1 for o in outcomes if o.ok and o.latency <= limit)
    return met / len(outcomes)


def latencies_ms(outcomes) -> list:
    return [o.latency * 1e3 for o in outcomes if o.ok]


def stage_cycles(result) -> list:
    return [record.conv_cycles for record in result.stages]


# -- workloads -------------------------------------------------------------
def run_offline(seed: int, seconds: float, tracer: Tracer) -> RunResult:
    """Closed batches of 8 through ``NetworkRunner.run``.  Every image of
    a batch is due when the batch is issued."""
    import numpy as np

    spec = wl.OFFLINE
    model, batch = spec["model"], spec["batch"]
    setup = setup_seconds("offline_resnet18")
    cache_before = cache_counts()
    tracer.phase = "setup"
    runner = wl.set_up("offline_resnet18")
    tracer.phase = None
    cache = counts_since(cache_before)
    net = runner.compile(model)
    shape = tuple(net.input_shape)
    rng = np.random.default_rng(seed)
    # Warm-up: one image builds the lazy per-stage fused plans.
    runner.run(model, net.precision.random_array(rng, (1,) + shape))

    batches, outcomes = [], []
    cache_before = cache_counts()
    tracer.phase = "measure"
    started = CLOCK()
    done = started
    while not batches or fits(started, done, seconds, len(batches)):
        images = net.precision.random_array(rng, (batch,) + shape)
        due = CLOCK()
        sent = CLOCK()
        result = runner.run(model, images)
        done = CLOCK()
        batches.append((images, result))
        for _ in range(batch):
            outcomes.append(Outcome(due, sent, done, ok=True))
    elapsed = CLOCK() - started
    tracer.phase = None
    cache = _add(cache, counts_since(cache_before))
    rss = peak_rss_mb()

    # Oracle: one seeded image of one batch through the real cores.
    images, result = batches[int(rng.integers(len(batches)))]
    row = int(rng.integers(batch))
    reference = runner.run_per_image(model, images[row : row + 1])
    cycles = {r.conv_cycles for _, r in batches}
    checks = {
        "oracle_output": bool(
            np.array_equal(result.output[row], reference.output[0])
        ),
        "oracle_cycles": result.conv_cycles
        == batch * reference.conv_cycles,
        "oracle_stage_cycles": stage_cycles(result)
        == [batch * c for c in stage_cycles(reference)],
        "cycles_repeat": len(cycles) == 1,
    }
    images_done = batch * len(batches)
    per_image = reference.conv_cycles
    lat = latencies_ms(outcomes)
    throughput = images_done / elapsed
    metrics = {
        "setup_s": setup,
        "peak_rss_mb": rss,
        "images_per_s": throughput,
        "sim_cycles_per_image": per_image,
        "latency_p50_ms": percentile(lat, 0.50),
        "slo_attainment": share_within(
            outcomes, wl.LATENCY_LIMIT_S["offline_resnet18"]
        ),
        "closed_rps": throughput,
        "tokens_per_s": throughput,
        "token_latency_p50_ms": percentile(lat, 0.50) / batch,
        "token_latency_p90_ms": percentile(lat, 0.90) / batch,
        "sim_cycles_per_token": per_image,
    }
    return RunResult(
        metrics,
        attempted=images_done,
        failed=sum(not ok for ok in checks.values()),
        checks=checks,
        telemetry={"cache": cache, "outcomes": outcomes},
    )


def run_decode(seed: int, seconds: float, tracer: Tracer) -> RunResult:
    """Whole decodes of ``tokens`` steps; step t runs the t-token prefix
    through ``NetworkRunner.run`` and is due when issued."""
    import numpy as np

    spec = wl.DECODE
    model, tokens = spec["model"], spec["tokens"]
    setup = setup_seconds("decode_tiny_llm")
    cache_before = cache_counts()
    tracer.phase = "setup"
    runner = wl.set_up("decode_tiny_llm")
    tracer.phase = None
    cache = counts_since(cache_before)
    net = runner.compile(model)
    channels, width = net.input_shape[0], net.input_shape[2]
    rng = np.random.default_rng(seed)

    def stream():
        return net.precision.random_array(rng, (1, channels, tokens, width))

    runner.run(model, stream()[:, :, :1, :])  # builds the fused plans

    decodes, outcomes = [], []
    cache_before = cache_counts()
    tracer.phase = "measure"
    started = CLOCK()
    while not decodes or fits(started, CLOCK(), seconds, len(decodes)):
        sequence = stream()
        begun = CLOCK()
        for step in range(1, tokens + 1):
            due = CLOCK()
            sent = CLOCK()
            result = runner.run(model, sequence[:, :, :step, :])
            outcomes.append(Outcome(due, sent, CLOCK(), ok=True))
        decodes.append((sequence, result, CLOCK() - begun))
    tracer.phase = None
    cache = _add(cache, counts_since(cache_before))
    rss = peak_rss_mb()

    # Oracle: the final (full-length) step of one seeded decode.
    sequence, result, _ = decodes[int(rng.integers(len(decodes)))]
    reference = runner.run_per_image(model, sequence)
    cycles = {r.conv_cycles for _, r, _ in decodes}
    checks = {
        "oracle_output": bool(
            np.array_equal(result.output, reference.output)
        ),
        "oracle_cycles": result.conv_cycles == reference.conv_cycles,
        "oracle_stage_cycles": stage_cycles(result)
        == stage_cycles(reference),
        "cycles_repeat": len(cycles) == 1,
    }
    steps = tokens * len(decodes)
    lat = latencies_ms(outcomes)
    # Over the whole decodes: the host's speed drifts smoothly, and a
    # mean over a few decodes spreads less than their median.
    throughput = steps / sum(taken for _, _, taken in decodes)
    full_step = reference.conv_cycles
    metrics = {
        "setup_s": setup,
        "peak_rss_mb": rss,
        "images_per_s": throughput,
        "sim_cycles_per_image": full_step,
        "latency_p50_ms": percentile(lat, 0.50),
        "slo_attainment": share_within(
            outcomes, wl.LATENCY_LIMIT_S["decode_tiny_llm"]
        ),
        "closed_rps": throughput,
        "tokens_per_s": throughput,
        "token_latency_p50_ms": percentile(lat, 0.50),
        "token_latency_p90_ms": percentile(lat, 0.90),
        "sim_cycles_per_token": full_step / tokens,
    }
    return RunResult(
        metrics,
        attempted=steps,
        failed=sum(not ok for ok in checks.values()),
        checks=checks,
        telemetry={"cache": cache, "outcomes": outcomes},
    )


def run_serve(seed: int, seconds: float, tracer: Tracer) -> RunResult:
    """mobilenet_v2 through ``ServingGateway``: an open loop of Poisson
    arrivals, then a closed loop, on one warm shard pool."""
    import numpy as np
    from repro.serve import ServingGateway

    spec = wl.SERVE
    model = spec["model"]
    setup = setup_seconds("serve_mobilenet")
    cache_before = cache_counts()
    tracer.phase = "setup"
    runner = wl.set_up("serve_mobilenet")
    tracer.phase = None
    try:
        cache = counts_since(cache_before)
        net = runner.compile(model)
        rng = np.random.default_rng(seed)
        pool = net.precision.random_array(
            rng, (spec["pool"],) + tuple(net.input_shape)
        )
        # Warm-up: one request at a time, so the round-robin pool hands
        # every worker jobs and each builds its fused plans.
        warm = ServingGateway(runner, model)
        for index in range(2 * spec["workers"]):
            warm.submit(pool[index]).result(timeout=60)
        warm.finish()
        # Then both loads, unmeasured: the first seconds of load on a
        # fresh pool run several times slower than the rest.
        warm = ServingGateway(runner, model)
        offsets = poisson_offsets(rng, spec["rate"], spec["warm_open_s"])
        open_loop(
            warm.submit,
            [pool[i] for i in rng.integers(spec["pool"], size=len(offsets))],
            offsets,
        )
        warm.finish()
        warm = ServingGateway(runner, model)
        closed_loop(
            warm.submit,
            lambda index: pool[index % spec["pool"]],
            concurrency=spec["concurrency"],
            seconds=spec["warm_closed_s"],
        )
        warm.finish()

        open_seconds = seconds * spec["open_share"]
        offsets = poisson_offsets(rng, spec["rate"], open_seconds)
        open_picks = rng.integers(spec["pool"], size=len(offsets))
        closed_picks = rng.integers(spec["pool"], size=100_000)
        closed_seconds = seconds - open_seconds
        tracer.phase = "measure"
        gateway = ServingGateway(runner, model)
        open_outcomes = open_loop(
            gateway.submit, [pool[i] for i in open_picks], offsets
        )
        open_result = gateway.finish()
        gateway = ServingGateway(runner, model)
        closed_outcomes, closed_start = closed_loop(
            gateway.submit,
            lambda index: pool[closed_picks[index]],
            concurrency=spec["concurrency"],
            seconds=closed_seconds,
        )
        closed_result = gateway.finish()
        tracer.phase = None
        if len(closed_outcomes) >= len(closed_picks):
            raise RuntimeError("closed loop ran out of payloads")
        rss = peak_rss_mb() + worker_peak_rss_mb(
            runner.supervisor.processes
        )
    finally:
        runner.stop()

    # Whole served stream against single-process NetworkRunner.run over
    # the distinct inputs; a seeded sample against the per-image oracle.
    reference_runner = wl.network_runner(spec)
    reference = reference_runner.run(model, pool)
    per_image = reference.conv_cycles // spec["pool"]
    per_stage = [c // spec["pool"] for c in stage_cycles(reference)]
    failed = 0
    served = list(zip(open_outcomes, open_picks)) + list(
        zip(closed_outcomes, closed_picks)
    )
    for outcome, pick in served:
        if not outcome.ok or not np.array_equal(
            outcome.result.output, reference.output[pick]
        ):
            failed += 1
    completed = [(o, p) for o, p in served if o.ok]
    sample = rng.choice(len(completed), size=3, replace=False)
    oracle_ok = True
    for index in sample:
        outcome, pick = completed[int(index)]
        single = reference_runner.run_per_image(model, pool[pick])
        if not (
            np.array_equal(outcome.result.output, single.output[0])
            and single.conv_cycles == per_image
            and stage_cycles(single) == per_stage
        ):
            oracle_ok = False
            failed += 1
    streams = (open_result, closed_result)
    checks = {
        "reference_cycles": reference.conv_cycles
        == per_image * spec["pool"],
        "stream_cycles": all(
            r.conv_cycles == per_image * r.requests for r in streams
        ),
        "stream_stage_cycles": all(
            list(r.stage_cycles) == [c * r.requests for c in per_stage]
            for r in streams
        ),
        "oracle_sample": oracle_ok,
    }

    # The closed loop's rate is the mean over the whole phase: per
    # window it flips between two modes (see README.md), and a median
    # would pick whichever held the run.  Its latency is concurrency /
    # rate, so the latency metrics come from the open loop.
    done = [o.done for o in closed_outcomes if o.ok]
    closed_rps = rate_within(done, closed_start, closed_seconds)
    open_p50 = windowed_percentile(open_outcomes, 0.50, WINDOW_S)
    metrics = {
        "setup_s": setup,
        "peak_rss_mb": rss,
        "images_per_s": closed_rps,
        "sim_cycles_per_image": per_image,
        "latency_p50_ms": open_p50,
        "slo_attainment": share_within(open_outcomes, spec["slo_s"]),
        "closed_rps": closed_rps,
        "tokens_per_s": closed_rps,
        "token_latency_p50_ms": open_p50,
        "token_latency_p90_ms": windowed_percentile(
            open_outcomes, 0.90, WINDOW_S
        ),
        "sim_cycles_per_token": per_image,
    }
    worker_cache = [r.cache for r in streams]
    return RunResult(
        metrics,
        attempted=len(served),
        failed=failed,
        checks=checks,
        telemetry={
            "cache": (
                cache[0] + sum(c["hits"] for c in worker_cache),
                cache[1] + sum(c["misses"] for c in worker_cache),
            ),
            "outcomes": open_outcomes + closed_outcomes,
            "streams": streams,
        },
    )


def _add(left: tuple, right: tuple) -> tuple:
    return left[0] + right[0], left[1] + right[1]


RUNNERS = {
    "offline_resnet18": run_offline,
    "serve_mobilenet": run_serve,
    "decode_tiny_llm": run_decode,
}


# -- per-layer metrics -----------------------------------------------------
def per_layer(tracer: Tracer, run: RunResult, overhead_pct: float) -> dict:
    """Per-layer metrics from the spans and the gateway's telemetry.
    Layers a workload leaves idle read 0."""
    spans = tracer.spans
    own = self_seconds(spans)

    def named(name, phase="measure"):
        return [s for s in spans if s.name == name and s.phase == phase]

    def total_ms(*names, phase="measure"):
        return 1e3 * sum(
            s.seconds for name in names for s in named(name, phase)
        )

    batches = named("executor.run_batch")
    self_s = sum(own[s.sid] for s in batches)
    metrics = {
        "executor.run_batch_ms": total_ms("executor.run_batch"),
        "executor.self_ms": 1e3 * self_s,
        "executor.gmac_per_s": (
            sum(s.macs for s in batches) / self_s / 1e9 if self_s else 0.0
        ),
        "executor.fit_ms": total_ms(
            "executor.fit_channels", "executor.fit_spatial"
        ),
        "backends.layer_cycles_ms": total_ms("backends.layer_cycles"),
        "backends.layer_cycles_calls": len(named("backends.layer_cycles")),
        "latency.burst_map_hits": run.telemetry["cache"][0],
        "latency.burst_map_misses": run.telemetry["cache"][1],
        "pdp.apply_ms": total_ms("pdp.apply_many"),
        "weights.load_ms": total_ms(
            "weights.load_quantized_model", phase="setup"
        ),
        "lowering.lower_model_ms": total_ms(
            "lowering.lower_model", phase="setup"
        ),
        "sharded.start_ms": total_ms("sharded.start", phase="setup"),
        "driver.generator_late_ms_max": 1e3
        * max(o.late for o in run.telemetry["outcomes"]),
        "driver.tracing_overhead_pct": overhead_pct,
    }
    metrics.update(serve_layers(run.telemetry.get("streams", ())))
    return metrics


def serve_layers(streams) -> dict:
    """Queue, gateway, shm and supervisor figures from the public
    telemetry of the drained gateway streams."""
    if not streams:
        return {
            name: 0
            for name in PER_LAYER
            if name.split(".")[0]
            in ("queue", "gateway", "shm", "supervisor")
        }
    latencies = [r.latency for s in streams for r in s.responses]
    rows = [row for s in streams for row in s.profile]

    def p50_ms(values):
        return 1e3 * percentile(values, 0.50)

    return {
        "queue.wait_ms_p50": p50_ms([l.queue_wait for l in latencies]),
        "queue.wait_ms_p99": 1e3
        * percentile([l.queue_wait for l in latencies], 0.99),
        "queue.batch_size_mean": sum(s.requests for s in streams)
        / sum(s.jobs for s in streams),
        "queue.depth_high_watermark": max(
            s.health["queue"]["depth_high_watermark"] for s in streams
        ),
        "gateway.dispatch_ms_p50": p50_ms([l.dispatch for l in latencies]),
        "gateway.compute_ms_p50": p50_ms([l.compute for l in latencies]),
        "gateway.reassembly_ms_p50": p50_ms(
            [l.reassembly for l in latencies]
        ),
        "gateway.unattributed_ms_p50": p50_ms(
            [
                l.total - l.queue_wait - l.dispatch - l.compute
                - l.reassembly
                for l in latencies
            ]
        ),
        "shm.write_ms_mean": 1e3
        * sum(row["shm_write"] for row in rows)
        / len(rows),
        "supervisor.restarts": sum(s.health["restarts"] for s in streams),
        "supervisor.retries": sum(s.health["retries"] for s in streams),
        "supervisor.redispatched": sum(
            s.health["redispatched"] for s in streams
        ),
    }


# -- provenance and output -------------------------------------------------
def provenance(workload: str, found_env: dict) -> dict:
    import numpy as np

    commit = None
    if (wl.ROOT / ".git").exists():
        probe = subprocess.run(
            ["git", "-C", str(wl.ROOT), "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=30,
        )
        commit = probe.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(wl.SRC.rglob("*.py")):
        digest.update(str(path.relative_to(wl.SRC)).encode())
        digest.update(path.read_bytes())
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    workers = wl.WORKLOADS[workload].get("workers", 0)
    cpus = os.cpu_count()
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "cpu_count": cpus,
        "workers": workers,
        "oversubscribed": bool(workers and cpus and workers >= cpus),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {name: found_env.get(name) for name in THREAD_ENV},
        "repro_burst_cache_dir_found": found_env.get(
            "REPRO_BURST_CACHE_DIR"
        ),
        "python": platform.python_version(),
    }


def report(metrics: dict, units: dict) -> dict:
    return {
        name: {"value": metrics[name], "unit": units[name]}
        for name in units
    }


def untraced_in_fresh_process(args) -> dict:
    """The same run with tracing off, in its own process."""
    untraced = child(
        [sys.executable, os.path.abspath(__file__),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", "0"],
    )
    try:
        stdout, _ = untraced.communicate(timeout=170)
    finally:
        end_group(untraced)
    if untraced.returncode != 0:
        raise RuntimeError("untraced run failed")
    return json.loads(stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    try:
        return measure(argv)
    finally:
        wl.stop_helper_processes()


def measure(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=RUNNERS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    found_env = dict(os.environ)
    wl.import_repro()
    info = provenance(args.workload, found_env)
    tracer = Tracer(CLOCK)
    if not args.trace:
        run = RUNNERS[args.workload](args.seed, args.seconds, tracer)
        metrics = report(run.metrics, END_TO_END)
        attempted, failed, correct = run.attempted, run.failed, run.correct
    else:
        baseline = untraced_in_fresh_process(args)
        with tracer.patch(trace_targets(tracer)):
            run = RUNNERS[args.workload](args.seed, args.seconds, tracer)
        primary = PRIMARY[args.workload]
        untraced = baseline["metrics"][primary]["value"]
        overhead = 100.0 * (untraced / run.metrics[primary] - 1.0)
        metrics = report(per_layer(tracer, run, overhead), PER_LAYER)
        attempted = run.attempted + baseline["attempted"]
        failed = run.failed + baseline["failed"]
        correct = run.correct and baseline["correct"]
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        trace_path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        trace_path.write_text(
            json.dumps(
                {
                    "workload": args.workload,
                    "seed": args.seed,
                    "provenance": info,
                    "per_layer": metrics,
                    "spans": [span.as_dict() for span in tracer.spans],
                }
            )
        )
        print(f"spans: {trace_path.relative_to(wl.ROOT)} "
              f"({len(tracer.spans)} spans)")

    for name, entry in metrics.items():
        print(f"{name:32s} {entry['value']:>16.6g} {entry['unit']}")
    for name, ok in run.checks.items():
        print(f"check {name:26s} {'ok' if ok else 'FAILED'}")
    print(json.dumps({"provenance": info}))
    print(
        json.dumps(
            {
                "correct": bool(correct),
                "attempted": int(attempted),
                "failed": int(failed),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
