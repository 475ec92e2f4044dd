"""Randomized differential tests: batched executor == per-image cores.

The batched executor (single grouped-einsum conv + in-place SDP with
per-stage scratch reuse) is the one fast path; its independent oracle
is :meth:`NetworkRunner.run_per_image`, which loops every image
through the stage backend's real core.  The two must be
**bit-identical** in outputs AND cycle accounting (total and per
stage), for every backend, every precision profile, every batch size,
with and without scheduling.

All randomness flows from the ``fuzz_rng`` fixture, which derives from
the ``PYTEST_SEED`` environment variable; a failure report prints the
seed, so any counterexample replays exactly.
"""

import numpy as np
import pytest

from repro.nvdla.config import CoreConfig
from repro.runtime import BatchExecutor, NetworkRunner
from repro.utils.intrange import INT8

#: Structurally dissimilar nets (depthwise-heavy, dense-residual,
#: grouped/shuffled, branchy) — kept tiny via scale/input_size.
FUZZ_MODELS = (
    "mobilenet_v2",
    "resnet18",
    "shufflenet_v2",
    "googlenet",
)
FUZZ_PRECISIONS = ("int8", "int4", "int2", "mixed")
FUZZ_BACKENDS = (
    "tempus",
    "binary",
    "tugemm",
    "tubgemm",
    "binary/tubgemm/binary",
)
TINY = dict(scale=0.06, input_size=16)


def _assert_identical(job, reference, context):
    """One executor job record against a ``run_per_image`` result."""
    assert np.array_equal(
        job["output"], reference.output
    ), f"output mismatch: {context}"
    assert (
        job["conv_cycles"] == reference.conv_cycles
    ), f"total cycles mismatch: {context}"
    assert job["stage_cycles"] == tuple(
        record.conv_cycles for record in reference.stages
    ), f"per-stage cycles mismatch: {context}"
    assert [meta[:2] for meta in job["stage_meta"]] == [
        (record.name, record.kind) for record in reference.stages
    ], f"stage metadata mismatch: {context}"


def _run_pair(runner, model, images):
    job = BatchExecutor(runner.compile(model)).run_job(images)
    return job, runner.run_per_image(model, images)


def test_fused_differential_random_scenarios(fuzz_rng):
    """Seeded random sweep over net x backend x precision x batch x
    array geometry: the executor may not diverge anywhere."""
    for _ in range(6):
        scenario = {
            "model": FUZZ_MODELS[
                int(fuzz_rng.integers(len(FUZZ_MODELS)))
            ],
            "engine": FUZZ_BACKENDS[
                int(fuzz_rng.integers(len(FUZZ_BACKENDS)))
            ],
            "precision": FUZZ_PRECISIONS[
                int(fuzz_rng.integers(len(FUZZ_PRECISIONS)))
            ],
            "batch": int(fuzz_rng.integers(1, 6)),
            "k": int(2 ** fuzz_rng.integers(1, 3)),
            "scheduling": bool(fuzz_rng.integers(2)),
        }
        runner = NetworkRunner(
            CoreConfig(k=scenario["k"], n=4),
            engine=scenario["engine"],
            scheduling=scenario["scheduling"],
            precision=scenario["precision"],
            **TINY,
        )
        net = runner.compile(scenario["model"])
        images = net.precision.random_array(
            fuzz_rng, (scenario["batch"],) + tuple(net.input_shape)
        )
        job, reference = _run_pair(runner, scenario["model"], images)
        _assert_identical(job, reference, f"scenario={scenario}")


@pytest.mark.parametrize("engine", FUZZ_BACKENDS[:4])
@pytest.mark.parametrize("precision", FUZZ_PRECISIONS)
def test_fused_bit_identity_full_matrix(fuzz_rng, engine, precision):
    """The acceptance matrix swept explicitly: all 4 backends x all
    precision profiles, one random net/batch each."""
    runner = NetworkRunner(
        CoreConfig(k=4, n=4),
        engine=engine,
        precision=precision,
        **TINY,
    )
    model = FUZZ_MODELS[int(fuzz_rng.integers(len(FUZZ_MODELS)))]
    net = runner.compile(model)
    batch = int(fuzz_rng.integers(1, 5))
    images = net.precision.random_array(
        fuzz_rng, (batch,) + tuple(net.input_shape)
    )
    job, reference = _run_pair(runner, model, images)
    _assert_identical(
        job, reference, f"model={model} engine={engine} "
        f"precision={precision} batch={batch}"
    )


def test_fused_executor_reuses_scratch_across_batches(fuzz_rng):
    """Repeated jobs through one executor stay correct while the
    scratch buffers are recycled (the pad borders must read zero on
    every pass, not just the first)."""
    runner = NetworkRunner(CoreConfig(k=4, n=4), **TINY)
    net = runner.compile("resnet18")
    executor = BatchExecutor(net)
    for round_index in range(3):
        batch = int(fuzz_rng.integers(1, 5))
        images = net.precision.random_array(
            fuzz_rng, (batch,) + tuple(net.input_shape)
        )
        _assert_identical(
            executor.run_job(images),
            runner.run_per_image("resnet18", images),
            f"round={round_index} batch={batch}",
        )
    # Reuse happened: kernels and scratch persisted across jobs.
    assert executor._kernels
    assert executor._scratch


def test_fused_output_not_aliased_to_scratch(fuzz_rng):
    """Returned outputs are private copies — a later batch through the
    same executor must not mutate an earlier batch's result."""
    runner = NetworkRunner(CoreConfig(k=4, n=4), **TINY)
    net = runner.compile("mobilenet_v2")
    executor = BatchExecutor(net)
    images = net.precision.random_array(
        fuzz_rng, (2,) + tuple(net.input_shape)
    )
    first = executor.run_job(images)["output"]
    snapshot = first.copy()
    executor.run_job(
        net.precision.random_array(
            fuzz_rng, (2,) + tuple(net.input_shape)
        )
    )
    assert np.array_equal(first, snapshot)


def test_fused_matches_int8_spec_bounds(fuzz_rng):
    """The executor's in-place SDP requant clips into the stage output
    spec (spot check on the paper's INT8 profile)."""
    runner = NetworkRunner(CoreConfig(k=4, n=4), **TINY)
    net = runner.compile("googlenet")
    images = net.precision.random_array(
        fuzz_rng, (3,) + tuple(net.input_shape)
    )
    output = BatchExecutor(net).run_job(images)["output"]
    assert output.min() >= INT8.min_value
    assert output.max() <= INT8.max_value
