"""Shared batched execution engine for compiled networks.

:class:`BatchExecutor` is the single implementation of the vectorized
forward pass over a :class:`~repro.runtime.lowering.CompiledNetwork`:
seam adapters, PDP pools, per-group convolution, SDP requantization and
the analytic cycle accounting — per stage, on the stage's registered
compute backend (:mod:`repro.runtime.backends`).  Both the in-process
:class:`~repro.runtime.runner.NetworkRunner` and the worker processes of
:class:`~repro.serve.ShardedRunner` execute batches through this one
class, which is what makes the sharded serving path bit-identical (in
outputs *and* cycles) to single-process inference: there is exactly one
code path to agree with.

The executor is deliberately stateless beyond its compiled program, so
it can be constructed in a parent process and shipped to workers (the
compiled network pickles; with ``fork`` it is inherited copy-on-write
and the burst-map cache entries warmed during lowering come along for
free — see the cache notes in :mod:`repro.core.latency`).
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.core.latency import burst_map_cache_delta, \
    burst_map_cache_stats
from repro.errors import DataflowError
from repro.nvdla.pdp import Pdp
from repro.nvdla.pipeline import StageResult
from repro.nvdla.sdp import _rounded_shift
from repro.runtime.backends import DEFAULT_BACKEND, ComputeBackend, \
    backend_profile, get_backend, resolve_stage_backends
from repro.runtime.lowering import CompiledNetwork, StagePlan

#: Bound on the executor's cycle memo (entries are (stage index,
#: output-pixel count) pairs).  Large enough that a whole CNN program
#: plus a long decode's worth of distinct sequence lengths stay warm;
#: small enough that token-by-token serving can never grow executor
#: state linearly with stream length.
CYCLE_MEMO_SIZE = 256


class _StageKernel:
    """Precomputed execution plan for one stage.

    Built lazily on the stage's first batch: the per-group weight tensors
    are stacked into one (G, Kg, Cg, R, S) block so a single grouped
    einsum per kernel-window position covers every group at once
    (depthwise layers collapse from C python-loop iterations to R*S),
    and the per-group schedule permutations are flattened into one
    gather index over the full channel/kernel axes.  Cycle accounting
    lives in a separate shape-aware memo on the executor
    (:meth:`BatchExecutor._stage_cycles`): per-image cycles depend on
    the *actual* output-pixel count, which grows per step under
    autoregressive decode, so baking one number per stage here would
    serve stale totals for dynamic shapes.
    """

    __slots__ = ("weights", "channel_gather", "kernel_restore")

    def __init__(self, stage: StagePlan) -> None:
        self.weights = np.stack(
            [np.asarray(tensor) for tensor in stage.weights]
        )
        groups, kernels_per_group, channels_per_group = \
            self.weights.shape[:3]
        self.channel_gather = _flat_permutation(
            (
                None if schedule is None else schedule.channel_order
                for schedule in stage.schedules
            ),
            groups,
            channels_per_group,
        )
        self.kernel_restore = _flat_permutation(
            stage.kernel_restores, groups, kernels_per_group
        )


def _flat_permutation(per_group, groups: int, width: int):
    """Fuse per-group index permutations into one gather over the flat
    (group-major) axis; ``None`` when every group is the identity."""
    orders = list(per_group)
    if all(order is None for order in orders):
        return None
    flat = np.empty(groups * width, dtype=np.intp)
    for group, order in enumerate(orders):
        base = group * width
        if order is None:
            flat[base : base + width] = np.arange(base, base + width)
        else:
            flat[base : base + width] = base + np.asarray(order)
    return flat


def fit_channels(
    tensor: np.ndarray, target: int, axis: int
) -> np.ndarray:
    """Tile or slice the channel axis to the declared input width
    (branch-seam adapter: concats/splits executed sequentially)."""
    have = tensor.shape[axis]
    if have == target:
        return tensor
    index = [slice(None)] * tensor.ndim
    if have > target:
        index[axis] = slice(0, target)
        return tensor[tuple(index)]
    repeats = -(-target // have)
    tiled = np.concatenate([tensor] * repeats, axis=axis)
    index[axis] = slice(0, target)
    return tiled[tuple(index)]


def fit_spatial(
    tensor: np.ndarray, target_hw: tuple, first_axis: int
) -> np.ndarray:
    """Corner-crop or zero-pad H/W to the declared input size."""
    for offset, target in enumerate(target_hw):
        axis = first_axis + offset
        have = tensor.shape[axis]
        if have > target:
            index = [slice(None)] * tensor.ndim
            index[axis] = slice(0, target)
            tensor = tensor[tuple(index)]
        elif have < target:
            pad = [(0, 0)] * tensor.ndim
            pad[axis] = (0, target - have)
            tensor = np.pad(tensor, pad, mode="constant")
    return tensor


class BatchExecutor:
    """Execute (B, C, H, W) batches through one compiled network.

    Args:
        net: the compiled program.
        engine: which compute backend(s) to account cycles on — None
            uses the per-stage backends recorded at lowering, a
            registered name (``"binary"``, ``"tempus"``, ``"tugemm"``,
            ``"tubgemm"``) runs every stage on that backend, and a
            :class:`~repro.runtime.backends.BackendProfile` (or
            ``"first/interior/last"`` spec) mixes backends per stage.
            Outputs are backend-independent (every backend computes the
            exact integer convolution); only cycle accounting differs.

    Each stage runs as one vectorized pass — window extraction,
    grouped quantized matmul and SDP requantization — with reused
    scratch buffers and memoized cycle accounting.  Outputs and cycles
    (total and per stage) are bit-identical to the per-image reference
    :meth:`~repro.runtime.runner.NetworkRunner.run_per_image` through
    the cycle-level cores on every backend and precision; the
    randomized differential suite in ``tests/runtime/test_fused.py``
    pins that.
    """

    def __init__(
        self,
        net: CompiledNetwork,
        engine: "str | None" = None,
    ) -> None:
        self.net = net
        self.stage_backends: "tuple[ComputeBackend, ...]" = \
            resolve_stage_backends(net, engine)
        if engine is None:
            names = {backend.name for backend in self.stage_backends}
            self.engine = names.pop() if len(names) == 1 else "mixed"
        else:
            self.engine = backend_profile(engine).describe()
        # Per-stage kernels (stacked weights, flat permutations) and
        # reusable scratch buffers, keyed by stage index + role; both
        # built lazily on first use.  Cycle totals live in their own
        # bounded LRU keyed (stage index, actual output pixels):
        # autoregressive decode presents a different token count —
        # hence a different output-pixel count — every step, and an
        # unbounded per-shape memo would grow linearly with decoded
        # tokens.
        self._kernels: "dict[int, _StageKernel]" = {}
        self._cycle_memo: "OrderedDict[tuple, int]" = OrderedDict()
        self._scratch: "dict[tuple, np.ndarray]" = {}

    # ------------------------------------------------------------------
    def run_batch(
        self, images: np.ndarray
    ) -> tuple[np.ndarray, tuple, int]:
        """One vectorized forward pass.

        Args:
            images: validated (B, C, H, W) int64 batch.

        Returns:
            (output, stage_records, conv_cycles) — the stage records
            carry batch-total cycles, matching the
            :class:`~repro.runtime.runner.NetworkResult` contract.
        """
        records: list[StageResult] = []
        current = images
        total_cycles = 0
        # Folded-residual state: stage outputs a later stage adds to
        # its own requantized output (key -1 = the model input after
        # the first stage's seam adapters).  Stage outputs are fresh
        # arrays, so keeping references is safe across scratch reuse.
        saved: dict[int, np.ndarray] = {}
        save_input = self.net.needs_input_saved
        for index, (stage, backend) in enumerate(
            zip(self.net.stages, self.stage_backends)
        ):
            current = self._fit_batch(stage, current, records)
            if index == 0 and save_input:
                saved[-1] = np.asarray(current, dtype=np.int64)
            residual = (
                saved[stage.residual_from]
                if stage.residual_from is not None
                else None
            )
            current, cycles = self._conv(
                index, stage, current, backend, residual
            )
            if stage.save_output:
                saved[index] = current
            cycles *= images.shape[0]
            total_cycles += cycles
            records.append(
                StageResult(
                    name=stage.name,
                    kind="conv",
                    output_shape=tuple(current.shape),
                    conv_cycles=cycles,
                )
            )
        return current, tuple(records), total_cycles

    def run_job(self, images: np.ndarray) -> dict:
        """Worker entry point: run a batch and report a self-contained
        record (output, cycles, per-stage cycles, cache delta) that can
        cross a process boundary."""
        before = burst_map_cache_stats()
        output, records, cycles = self.run_batch(images)
        return {
            "output": output,
            "conv_cycles": cycles,
            "stage_cycles": tuple(
                record.conv_cycles for record in records
            ),
            "stage_meta": tuple(
                (record.name, record.kind, record.output_shape)
                for record in records
            ),
            "cache": burst_map_cache_delta(before),
        }

    # --- seam adapters (batched) --------------------------------------
    def _fit_batch(
        self,
        stage: StagePlan,
        batch: np.ndarray,
        records: list,
    ) -> np.ndarray:
        batch = fit_channels(batch, stage.fit_channels, axis=1)
        if stage.pool is not None:
            batch = Pdp(stage.pool).apply_many(batch)
            records.append(
                StageResult(
                    name=f"{stage.name}.pool",
                    kind="pool",
                    output_shape=tuple(batch.shape),
                )
            )
        if stage.dynamic_hw:
            # Dynamic stages (linear ops) accept whatever token count
            # the stream presents; pinning to the nominal compile-time
            # length would truncate or zero-pad the sequence.
            return batch
        return fit_spatial(batch, stage.fit_hw, first_axis=2)

    # --- conv execution -----------------------------------------------
    def _scratch_buf(self, key: tuple, shape: tuple) -> np.ndarray:
        """Reusable int64 scratch, reallocated only on shape change
        (e.g. a different batch size).  Fresh buffers are zeroed, so
        padded-input borders stay zero across reuses as long as only
        the interior is rewritten."""
        buffer = self._scratch.get(key)
        if buffer is None or buffer.shape != shape:
            buffer = np.zeros(shape, dtype=np.int64)
            self._scratch[key] = buffer
        return buffer

    def _kernel(self, index: int, stage: StagePlan) -> _StageKernel:
        plan = self._kernels.get(index)
        if plan is None:
            plan = _StageKernel(stage)
            self._kernels[index] = plan
        return plan

    def _stage_cycles(
        self,
        index: int,
        stage: StagePlan,
        backend: ComputeBackend,
        out_pixels: "int | None",
    ) -> int:
        """Memoized per-image cycles of one whole stage at one actual
        output-pixel count.  Bounded LRU (see
        :data:`CYCLE_MEMO_SIZE`): growing-sequence decode streams
        present a new shape every token, and the memo must not grow
        with stream length."""
        key = (index, out_pixels)
        cached = self._cycle_memo.get(key)
        if cached is not None:
            self._cycle_memo.move_to_end(key)
            return cached
        cycles = sum(
            self.group_cycles(
                stage, weights, backend, out_pixels=out_pixels
            )
            for weights in stage.weights
        )
        self._cycle_memo[key] = cycles
        while len(self._cycle_memo) > CYCLE_MEMO_SIZE:
            self._cycle_memo.popitem(last=False)
        return cycles

    def _add_residual(
        self,
        stage: StagePlan,
        outputs: np.ndarray,
        residual: "np.ndarray | None",
    ) -> np.ndarray:
        """Folded residual applied on the stage's requantized output —
        the SDP's elementwise-add unit, downstream of the scaling core.
        Both operands live in the activation format (a residual added
        to raw psums would be crushed by the requant scale), and the
        sum saturates back into the stage's output precision.  Exact
        integer arithmetic, so every execution path agrees bit-for-bit,
        and zero cycles — it rides the SDP pass like the bias add."""
        if residual is None:
            return outputs
        if residual.shape != outputs.shape:
            raise DataflowError(
                f"{stage.name}: folded residual shape "
                f"{residual.shape} does not match stage output "
                f"{outputs.shape}"
            )
        spec = stage.sdp.out_precision
        return np.clip(
            outputs + residual, spec.min_value, spec.max_value
        )

    def _conv(
        self,
        index: int,
        stage: StagePlan,
        batch: np.ndarray,
        backend: ComputeBackend,
        residual: "np.ndarray | None" = None,
    ) -> tuple[np.ndarray, int]:
        """One conv stage over the whole batch, SDP included; returns
        per-image cycles (the caller scales by batch size).  One
        grouped einsum per kernel-window position covers *all* groups
        at once, accumulating into a reused scratch tensor, and the
        SDP requantization runs in place on the accumulator.  Every
        operation is exact int64 arithmetic (integer addition is
        order-independent), so outputs match the per-image cores bit
        for bit.  A folded residual is added to the requantized output
        after the SDP (see :meth:`_add_residual`)."""
        plan = self._kernel(index, stage)
        layer = stage.layer
        stride = layer.stride
        pad_h, pad_w = layer.padding_h, layer.padding_w
        groups, kernels_per_group, channels_per_group, kernel_h, \
            kernel_w = plan.weights.shape
        batch_size, channels, height, width = batch.shape
        if pad_h or pad_w:
            padded = self._scratch_buf(
                ("pad", index),
                (batch_size, channels,
                 height + 2 * pad_h, width + 2 * pad_w),
            )
            padded[:, :, pad_h : pad_h + height,
                   pad_w : pad_w + width] = batch
        else:
            padded = np.asarray(batch, dtype=np.int64)
        if plan.channel_gather is not None:
            gathered = self._scratch_buf(
                ("gather", index), padded.shape
            )
            np.take(padded, plan.channel_gather, axis=1, out=gathered)
            padded = gathered
        grouped = padded.reshape(
            batch_size, groups, channels_per_group, *padded.shape[2:]
        )
        out_height = (padded.shape[2] - kernel_h) // stride + 1
        out_width = (padded.shape[3] - kernel_w) // stride + 1
        psums = self._scratch_buf(
            ("psum", index),
            (batch_size, groups, kernels_per_group,
             out_height, out_width),
        )
        partial = (
            self._scratch_buf(("partial", index), psums.shape)
            if kernel_h * kernel_w > 1
            else psums
        )
        position = 0
        for tap_y in range(kernel_h):
            for tap_x in range(kernel_w):
                window = grouped[
                    :,
                    :,
                    :,
                    tap_y : tap_y + stride * out_height : stride,
                    tap_x : tap_x + stride * out_width : stride,
                ]
                np.einsum(
                    "gkc,bgcyx->bgkyx",
                    plan.weights[:, :, :, tap_y, tap_x],
                    window,
                    out=psums if position == 0 else partial,
                )
                if position:
                    psums += partial
                position += 1
        values = psums.reshape(
            batch_size, groups * kernels_per_group,
            out_height, out_width,
        )
        if plan.kernel_restore is not None:
            values = np.take(values, plan.kernel_restore, axis=1)
        cycles = self._stage_cycles(
            index,
            stage,
            backend,
            out_height * out_width if stage.dynamic_hw else None,
        )
        out = self._sdp(stage, values)
        return self._add_residual(stage, out, residual), cycles

    def _sdp(
        self, stage: StagePlan, values: np.ndarray
    ) -> np.ndarray:
        """In-place SDP requantization on the (possibly scratch-backed)
        accumulator — op-for-op the integer arithmetic of
        :meth:`repro.nvdla.sdp.Sdp.apply_many`.  The returned array is
        always a fresh copy, so callers never alias scratch buffers
        that the next batch will overwrite."""
        config = stage.sdp
        if config.bias is not None:
            values += np.asarray(config.bias, dtype=np.int64)[
                None, :, None, None
            ]
        if config.activation == "relu":
            np.maximum(values, 0, out=values)
        elif config.activation == "prelu":
            negative = _rounded_shift(
                values * config.prelu_multiplier, config.prelu_shift
            )
            values = np.where(values >= 0, values, negative)
        values *= config.multiplier
        if config.shift:
            offset = 1 << (config.shift - 1)
            signs = np.sign(values)
            np.abs(values, out=values)
            values += offset
            values >>= config.shift
            values *= signs
        spec = config.out_precision
        return np.clip(values, spec.min_value, spec.max_value).astype(
            np.int64
        )

    def group_cycles(
        self,
        stage: StagePlan,
        weights: np.ndarray,
        backend: "ComputeBackend | None" = None,
        out_pixels: "int | None" = None,
    ) -> int:
        """Analytic per-image cycles of one layer group on the stage's
        backend — identical to the formula the backend's reference core
        uses (pinned by the equivalence tests).  Value-aware for
        temporal backends: cycles derive from the actual quantized
        weight magnitudes via the burst-map machinery, at the *stage*
        configuration, so each stage is accounted at its own precision
        (and backend) under mixed profiles."""
        if backend is None:
            # Identity lookup first, so an executor constructed with an
            # engine override accounts its own stages on that override.
            # (StagePlan equality compares tuples of ndarrays, so
            # index()/== would be unsafe here.)  Stage copies that are
            # not part of this program resolve like
            # resolve_stage_backends: the stage's recorded backend.
            backend = next(
                (
                    candidate
                    for plan, candidate in zip(
                        self.net.stages, self.stage_backends
                    )
                    if plan is stage
                ),
                None,
            )
            if backend is None:
                backend = get_backend(stage.backend or DEFAULT_BACKEND)
        return backend.layer_cycles(
            stage, weights, self.net.code, out_pixels=out_pixels
        )
