"""Sharded multi-worker serving on top of :mod:`repro.runtime`.

- :class:`~repro.serve.queue.RequestQueue` — dynamic-batching
  front-end (max-batch / max-wait coalescing, submission-order seqs,
  bounded depth with block/reject/shed admission control, eager
  dispatch for idle pools).
- :class:`~repro.serve.sharded.ShardedRunner` — compile once, fork N
  shard workers; ``run()`` serves a whole request stream through the
  gateway and returns a bit-identical batch result.
- :class:`~repro.serve.supervisor.ShardSupervisor` — worker
  supervision: dead/hung-shard detection (on its own probe thread),
  capped-backoff respawn, retry/redispatch with deadlines and
  duplicate discard, graceful degradation to in-process execution.
- :class:`~repro.serve.gateway.ServingGateway` — the one dispatch
  loop: a dispatch thread and a collect thread pipeline batches over
  the supervised pool, with a per-response latency decomposition
  (queue wait / dispatch / compute / reassembly); ``submit()`` works
  from any thread and ``submit_async()`` adapts it for asyncio.
- :mod:`~repro.serve.loadgen` — seeded Poisson/burst/uniform open-loop
  load generation, closed-loop concurrency sweeps, p50/p90/p99 stats
  and the max-rate-at-p99-SLO binary search.
- :class:`~repro.serve.faults.FaultPlan` — seeded, deterministic
  fault injection (crash / hang / slow / transient error) so chaos
  runs replay exactly.
"""

from repro.serve.faults import FAULT_KINDS, FaultPlan, FaultSpec
from repro.serve.gateway import (
    LATENCY_PHASES,
    GatewayResponse,
    GatewayResult,
    LatencyBreakdown,
    ServingGateway,
)
from repro.serve.loadgen import (
    ARRIVAL_KINDS,
    ArrivalSchedule,
    LoadRun,
    arrival_schedule,
    burst_schedule,
    find_sustained_rate,
    latency_stats,
    poisson_schedule,
    run_batch_synchronous,
    run_closed_loop,
    run_open_loop,
    uniform_schedule,
)
from repro.serve.queue import ADMISSION_POLICIES, Request, RequestQueue
from repro.serve.sharded import ShardedResult, ShardedRunner
from repro.serve.supervisor import ShardSupervisor

__all__ = [
    "ADMISSION_POLICIES",
    "ARRIVAL_KINDS",
    "ArrivalSchedule",
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "GatewayResponse",
    "GatewayResult",
    "LATENCY_PHASES",
    "LatencyBreakdown",
    "LoadRun",
    "Request",
    "RequestQueue",
    "ServingGateway",
    "ShardedResult",
    "ShardedRunner",
    "ShardSupervisor",
    "arrival_schedule",
    "burst_schedule",
    "find_sustained_rate",
    "latency_stats",
    "poisson_schedule",
    "run_batch_synchronous",
    "run_closed_loop",
    "run_open_loop",
    "uniform_schedule",
]
