"""The benchmark's workloads: fixed configurations and their set-up.

Set-up is shared by the benchmark run (``run.py``) and the fresh-process
set-up probe (``setup_probe.py``), so ``setup_s`` times exactly the
set-up the run itself performs.
"""

from __future__ import annotations

import inspect
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Closed batch inference, resnet18 at full width, native 3x224x224.
OFFLINE = {"model": "resnet18", "batch": 8, "precision": "int8"}
#: mobilenet_v2 served by the gateway over two shm shard workers: an
#: open loop at a fixed Poisson rate against a fixed latency limit,
#: then a closed loop holding ``concurrency`` requests outstanding.
#: Both loads first run unmeasured for ``warm_open_s`` and
#: ``warm_closed_s`` seconds.
SERVE = {
    "model": "mobilenet_v2",
    "scale": 0.25,
    "input_size": 64,
    "precision": "int8",
    "workers": 2,
    "rate": 100.0,
    "slo_s": 0.050,
    "concurrency": 4,
    "open_share": 0.5,
    "pool": 64,
    "warm_open_s": 3.0,
    "warm_closed_s": 1.0,
}
#: Token-by-token decode of tiny_llm at INT4: step t runs the t-token
#: prefix through NetworkRunner.run.
DECODE = {"model": "tiny_llm", "precision": "int4", "tokens": 64}

WORKLOADS = {
    "offline_resnet18": OFFLINE,
    "serve_mobilenet": SERVE,
    "decode_tiny_llm": DECODE,
}

#: Latency limit per request on the workloads that are not served
#: (``slo_attainment`` is reported on every workload).  Offline: every
#: image of a batch is due when the batch starts; decode: one request is
#: one decode step.
LATENCY_LIMIT_S = {"offline_resnet18": 60.0, "decode_tiny_llm": 0.5}


def import_repro() -> None:
    """Make ``src/`` importable, with the persistent burst-map cache
    off so set-up is a cold compile and nothing carries between runs.
    Exits with status 2 when the checkout has no sources."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: no repro sources under {SRC}", file=sys.stderr
        )
        raise SystemExit(2)
    os.environ.pop("REPRO_BURST_CACHE_DIR", None)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def fast_path(factory, **kwargs):
    """Construct with ``fused=True`` while the constructor still takes
    the flag; once the flag is gone the fused path is the only one."""
    if "fused" in inspect.signature(factory).parameters:
        kwargs["fused"] = True
    return factory(**kwargs)


def network_runner(spec: dict):
    """A single-process runner with a workload's configuration."""
    from repro.runtime.runner import NetworkRunner

    return fast_path(
        NetworkRunner,
        scale=spec.get("scale", 1.0),
        input_size=spec.get("input_size"),
        precision=spec["precision"],
    )


def make_runner(workload: str):
    """The unstarted runner a workload serves through."""
    spec = WORKLOADS[workload]
    if workload != "serve_mobilenet":
        return network_runner(spec)
    from repro.serve import ShardedRunner

    return fast_path(
        ShardedRunner,
        workers=spec["workers"],
        scale=spec["scale"],
        input_size=spec["input_size"],
        precision=spec["precision"],
        transport="shm",
    )


def stop_helper_processes() -> None:
    """Stop the resource-tracker process that ``multiprocessing``
    starts for shared memory, and wait for it to exit.  Left alone it
    outlives this process by a moment; it is a no-op when none runs."""
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()


def set_up(workload: str):
    """Fresh process to ready: load and lower the model, and start the
    shard pool on the served workload."""
    runner = make_runner(workload)
    model = WORKLOADS[workload]["model"]
    runner.compile(model)
    if workload == "serve_mobilenet":
        runner.start(model)
    return runner
