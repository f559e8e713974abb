"""The CNN inference accelerator simulator.

:class:`AcceleratorSim` executes a :class:`~repro.nn.stages.StagedNetwork`
stage by stage in forward order, exactly as the paper's Figure 1
accelerator does: per stage it fetches IFM tiles and filter tiles from
DRAM into on-chip buffers, runs the PE array, and writes the activated
(and pooled) OFM back to DRAM.  The loop order — and therefore when
tiles fetch which operand and when OFM slices retire — is the
configured :mod:`~repro.accel.dataflow` strategy; the default
``output-stationary`` schedule writes the whole OFM once at the end of
the stage.  The numerical result comes from the underlying
:class:`~repro.nn.graph.Network`; the simulator's job is to produce
the two externally visible artefacts:

* the off-chip **memory trace** — block address, read/write, cycle — and
* the **execution timing** per stage (compute-bound per the paper).

On a dense-write device both are a function of geometry, dataflow and
the run's jitter stream alone — activation values never reach the bus —
so a dense run does no forward pass; the output and per-stage non-zero
counts are computed only when a ground-truth reader asks for them.
With dynamic zero pruning enabled, OFM writes are compressed per
:mod:`repro.accel.pruning`, producing the Section 4 leak; there the
values drive the writes and every run starts with a forward pass.

Nothing here exposes data values to the adversary; attacker-facing
access goes through :class:`repro.device.DeviceSession`, which enforces
the threat model.

``run`` accepts an optional :class:`~repro.accel.trace.TraceSink`:
spans are pushed downstream as stages execute and no monolithic trace
is retained, so peak trace memory is the sink's choice (see
:mod:`repro.accel.sinks`).  Without a sink the result carries the
materialised :class:`~repro.accel.trace.MemoryTrace`, exactly as
before.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.errors import SimulationError
from repro.accel.dataflow import (
    Dataflow,
    assign_write_blocks,
    resolve_dataflow,
    split_pruned_bursts,
)
from repro.accel.memory import DramAllocator, MemoryConfig, MemoryRegion
from repro.accel.pruning import (
    PrunedLayout,
    PruningConfig,
    encode_pruned_writes,
    pruned_region_elements,
)
from repro.accel.tiling import BufferConfig, ConvTile, FCTile
from repro.accel.timing import TimingModel
from repro.accel.sinks import MaterializeSink
from repro.accel.trace import READ, WRITE, MemoryTrace, TraceBuilder, TraceSink
from repro.channel.rng import stream_rng
from repro.nn.graph import INPUT
from repro.nn.spec import FCGeometry, LayerGeometry
from repro.nn.stages import Stage, StagedNetwork

__all__ = ["AcceleratorConfig", "StageWindow", "SimulationResult", "AcceleratorSim"]


@dataclass(frozen=True)
class AcceleratorConfig:
    """Full accelerator configuration (memory, buffers, timing, pruning).

    ``dataflow`` names the loop-order strategy (see
    :mod:`repro.accel.dataflow`): ``"output-stationary"`` (the
    default), ``"weight-stationary"`` or ``"row-stationary"``.  A
    :class:`~repro.accel.dataflow.Dataflow` instance is accepted and
    normalised to its name, keeping the config hashable and printable
    — the repr always names the strategy explicitly.
    """

    memory: MemoryConfig = field(default_factory=MemoryConfig)
    buffers: BufferConfig = field(default_factory=BufferConfig)
    timing: TimingModel = field(default_factory=TimingModel)
    pruning: PruningConfig = field(default_factory=PruningConfig)
    dataflow: str = "output-stationary"

    def __post_init__(self) -> None:
        # Accept a strategy instance; store its registry name so the
        # frozen config stays hashable.  Unknown names raise here.
        object.__setattr__(
            self, "dataflow", resolve_dataflow(self.dataflow).name
        )


@dataclass(frozen=True)
class StageWindow:
    """Ground-truth bookkeeping of one executed stage (not attacker-visible)."""

    name: str
    kind: str
    start_cycle: int
    end_cycle: int
    macs: int
    num_reads: int
    num_writes: int

    @property
    def duration(self) -> int:
        return self.end_cycle - self.start_cycle


def _plane_nnz(values: np.ndarray) -> np.ndarray:
    """Non-zero pixel count per output channel (or per whole vector)."""
    if values.ndim == 3:
        return np.count_nonzero(values.reshape(values.shape[0], -1), axis=1)
    return np.array([np.count_nonzero(values)])


class _GroundTruth:
    """The network's output and per-stage non-zero counts for one input.

    Computed by one forward pass over a private copy of the input, the
    first time :meth:`values` is called: a pruned run calls it before
    synthesis (its writes follow the values), a dense run leaves it to
    whoever reads the result's ``output`` or ``nnz``.  The victim's
    forward pass is deterministic, so a late read sees what an eager
    one would have.
    """

    def __init__(self, staged: StagedNetwork, x: np.ndarray) -> None:
        self._staged = staged
        self._x = x
        self._values: tuple[np.ndarray, dict[str, np.ndarray]] | None = None

    def values(self) -> tuple[np.ndarray, dict[str, np.ndarray]]:
        if self._values is None:
            network = self._staged.network
            output = network.forward(self._x)
            acts = network.activations
            self._values = output, {
                stage.name: _plane_nnz(acts[stage.output_node][0])
                for stage in self._staged.stages
            }
        return self._values


@dataclass
class SimulationResult:
    """Everything one inference produced.

    ``trace`` plus the wall-clock ``total_cycles`` are what the threat
    model exposes; ``windows``, ``nnz`` and ``output`` are ground truth
    used by tests, oracles and the host (the host legitimately sees the
    classification output).  ``trace`` is ``None`` when the run streamed
    its spans to an external (non-materialising) sink.  ``output`` and
    ``nnz`` of a dense run cost a forward pass on first read.
    """

    trace: MemoryTrace | None
    windows: list[StageWindow]
    total_cycles: int
    _truth: _GroundTruth = field(repr=False, compare=False)

    @property
    def output(self) -> np.ndarray:
        """The network's output for this run's input."""
        return self._truth.values()[0]

    @property
    def nnz(self) -> dict[str, np.ndarray]:
        """Per-stage non-zero OFM pixel counts (per channel)."""
        return self._truth.values()[1]

    def window(self, name: str) -> StageWindow:
        for w in self.windows:
            if w.name == name:
                return w
        raise SimulationError(f"no stage window named {name!r}")


@dataclass
class _StageReadPlan:
    """Run-invariant read schedule of one stage.

    Tile geometry, block addresses and unjittered durations depend only
    on the network geometry and the accelerator config — both frozen at
    construction — so they are computed once per stage and reused every
    run.  ``rel_cycles`` additionally pre-computes the whole cycle ramp
    relative to the stage's read start when jitter is disabled (the
    ramp is then run-invariant too); with jitter enabled it is ``None``
    and the schedule derives per run from ``base_durs`` and the run's
    jitter stream.  Emitted spans alias ``addrs`` — spans are
    immutable by contract, so sharing is safe.
    """

    addrs: np.ndarray
    counts: np.ndarray
    macs: np.ndarray
    base_durs: np.ndarray
    mask: np.ndarray | None
    cmax: int
    rel_cycles: np.ndarray | None
    advance: int


def _ranged_blocks(
    region: MemoryRegion, e0: np.ndarray, e1: np.ndarray
) -> np.ndarray:
    """Block addresses covering element ranges ``[e0, e1)`` of a region.

    One 2-D broadcast over (range, block-within-range) —
    ragged-extracted when block alignment makes per-range counts vary —
    instead of a python loop of small ``arange`` calls per range.
    """
    mem = region.config
    eb, bb = mem.element_bytes, mem.block_bytes
    b0 = region.base + (e0 * eb // bb) * bb
    b1 = region.base + -(-(e1 * eb) // bb) * bb
    cnt = np.maximum((b1 - b0) // bb, 0)
    cmax = int(cnt.max()) if len(cnt) else 0
    if cmax == 0:
        return np.empty(0, dtype=np.int64)
    k = np.arange(cmax, dtype=np.int64)
    grid = b0[:, None] + k[None, :] * bb
    if int(cnt.min()) == cmax:
        return grid.ravel()
    return grid[k[None, :] < cnt[:, None]]


class AcceleratorSim:
    """Trace-emitting simulator of the Figure 1 accelerator.

    Args:
        staged: the victim network with its stage decomposition.
        config: accelerator configuration.

    DRAM layout is fixed at construction: the input feature map first,
    then per stage (in execution order) its filter weights (if any)
    followed by its OFM — the natural layout of a runtime loading a model
    once and reusing buffers across inferences.
    """

    def __init__(self, staged: StagedNetwork, config: AcceleratorConfig | None = None):
        self.staged = staged
        # The accelerator only ever runs forward; training a clone later
        # re-enables caching through Trainer.
        staged.network.requires_grad_(False)
        self.config = config or AcceleratorConfig()
        self.dataflow: Dataflow = resolve_dataflow(self.config.dataflow)
        self.allocator = DramAllocator(self.config.memory)
        self._allocate_regions()
        self._run_counter = 0
        self._read_plans: dict[tuple[str, int], _StageReadPlan | None] = {}
        self._tiles: dict[str, list[ConvTile] | list[FCTile]] = {}
        self._segments: dict[str, list[tuple[int, int]]] = {}
        # OFM write bursts per stage: built once for a dense device,
        # rebuilt from the activations on every run of a pruned one.
        self._write_plans: dict[
            str, tuple[list[np.ndarray], PrunedLayout | None]
        ] = {}
        self._last_truth: _GroundTruth | None = None

    # -- DRAM layout -------------------------------------------------------
    def _fmap_elements(self, shape: tuple[int, ...]) -> int:
        dense = int(np.prod(shape))
        if self.config.pruning.enabled:
            return max(
                dense,
                pruned_region_elements(shape, self.config.pruning, self.config.memory),
            )
        return dense

    def _allocate_regions(self) -> None:
        in_elems = int(np.prod(self.staged.network.input_shape))
        self.allocator.allocate("input", "fmap", in_elems)
        for stage in self.staged.stages:
            geom = stage.geometry
            if isinstance(geom, (LayerGeometry, FCGeometry)):
                self.allocator.allocate(
                    f"{stage.name}.weights", "weights", geom.size_fltr
                )
            out_shape = self.staged.shapes[stage.output_node]
            self.allocator.allocate(
                f"{stage.name}.ofm", "fmap", self._fmap_elements(out_shape)
            )

    def region(self, name: str) -> MemoryRegion:
        return self.allocator.regions[name]

    def ofm_region(self, stage_name: str) -> MemoryRegion:
        if stage_name == INPUT:
            return self.region("input")
        return self.region(f"{stage_name}.ofm")

    # -- execution -----------------------------------------------------------
    def run(
        self, x: np.ndarray, sink: TraceSink | None = None
    ) -> SimulationResult:
        """Execute one inference and emit its memory trace.

        ``x`` is a single sample ``(C, H, W)`` or batch-of-one
        ``(1, C, H, W)`` — the accelerator processes one image at a time.
        ``sink`` receives the trace as vectorised spans while stages
        execute; without one, a private
        :class:`~repro.accel.sinks.MaterializeSink` collects the spans
        and the result carries the full :class:`MemoryTrace`.

        A dense-write run synthesizes its trace from geometry and the
        run's jitter stream alone; the forward pass runs (on a private
        copy of ``x``) only when the result's ``output`` or ``nnz`` is
        read.  A pruned run does its forward pass up front, because the
        activation values decide which OFM blocks are written.
        """
        if x.ndim == 3:
            x = x[None]
        if x.shape[0] != 1 or tuple(x.shape[1:]) != self.staged.network.input_shape:
            raise SimulationError(
                f"expected input (1, {self.staged.network.input_shape}), "
                f"got {x.shape}"
            )
        self._run_counter += 1
        truth = _GroundTruth(self.staged, np.array(x))
        if self.config.pruning.enabled:
            truth.values()
            acts = self.staged.network.activations
            self._write_plans = {
                stage.name: self._plan_ofm_write(
                    stage, acts[stage.output_node][0]
                )
                for stage in self.staged.stages
            }
        self._last_truth = truth
        return self._synthesize(truth, sink, self._run_counter)

    def replay(
        self, sink: TraceSink | None = None, run_index: int | None = None
    ) -> SimulationResult:
        """Re-synthesize the trace of the last :meth:`run` without a forward pass.

        The OFM writes of the last run are kept (a pruned run's follow
        its activations) and the trace depends only on geometry,
        layouts and the jitter stream, so re-emission is pure trace
        synthesis — the simulator hot path in isolation, which the perf
        harness uses to measure ``events/second``.  ``run_index``
        defaults to the last run's, reproducing its jitter stream
        bit-for-bit; pass a different index to draw a fresh one (this
        does not advance the counter used by :meth:`run`).
        """
        if self._last_truth is None:
            raise SimulationError("replay() before any run()")
        if run_index is None:
            run_index = self._run_counter
        return self._synthesize(self._last_truth, sink, run_index)

    def _synthesize(
        self, truth: _GroundTruth, sink: TraceSink | None, run_index: int
    ) -> SimulationResult:
        # Timing noise shares the channel subsystem's seeding story: a
        # named stream keyed by (noise_seed, run) — fresh jitter every
        # run, never colliding with the "trace"/"counter" noise streams
        # even when all root seeds are equal.
        self._jitter_rng = stream_rng(
            self.config.timing.noise_seed, "timing", run_index
        )
        if not self._write_plans:  # dense: the region alone fixes the writes
            self._write_plans = {
                stage.name: self._plan_ofm_write(stage, None)
                for stage in self.staged.stages
            }

        if sink is None:
            sink = MaterializeSink()
        builder = TraceBuilder(sink)
        windows: list[StageWindow] = []
        layouts: dict[str, PrunedLayout | None] = {INPUT: None}
        cycle = 0

        for stage in self.staged.stages:
            sink.begin_stage(stage.name, stage.kind)
            cycle += self.config.timing.stage_overhead
            start_cycle = cycle
            events_before = builder.num_events
            bursts, layouts[stage.name] = self._write_plans[stage.name]
            if stage.kind in ("conv", "fc"):
                # Write bursts interleave with the tile schedule per the
                # configured dataflow (one burst per segment).
                cycle = self._run_compute_stage(
                    stage, builder, cycle, layouts, bursts
                )
            else:  # eltwise / concat: pure DRAM-to-DRAM merge
                cycle = self._run_merge_stage(stage, builder, cycle, layouts)
                for burst in bursts:
                    cycle = builder.add_span(
                        cycle, burst, WRITE, self.config.timing.cycles_per_block
                    )
            num_writes = sum(len(b) for b in bursts)
            num_reads = builder.num_events - events_before - num_writes

            windows.append(
                StageWindow(
                    name=stage.name,
                    kind=stage.kind,
                    start_cycle=start_cycle,
                    end_cycle=cycle,
                    macs=self._stage_macs(stage),
                    num_reads=num_reads,
                    num_writes=num_writes,
                )
            )

        sink.close()
        return SimulationResult(
            trace=sink.trace() if isinstance(sink, MaterializeSink) else None,
            windows=windows,
            total_cycles=cycle,
            _truth=truth,
        )

    # -- per-kind stage execution ------------------------------------------
    def _input_read_blocks(
        self, source: str, layouts: dict[str, PrunedLayout | None]
    ) -> np.ndarray:
        """Blocks needed to fetch a whole input tensor (dense or pruned)."""
        region = self.ofm_region(source)
        layout = layouts.get(source)
        if layout is not None:
            return layout.read_block_addresses(region)
        return region.block_addresses()

    def _stage_tiles(
        self, stage: Stage
    ) -> tuple[list, list[tuple[int, int]]]:
        """Tile schedule and write-back segmentation of one compute stage.

        Both depend only on geometry, buffers and the dataflow — all
        frozen at construction — so they are computed once per stage.
        """
        if stage.name not in self._tiles:
            buffers = self.config.buffers
            geom = stage.geometry
            if stage.kind == "conv":
                assert isinstance(geom, LayerGeometry)
                self._tiles[stage.name] = self.dataflow.conv_tiles(
                    geom, buffers
                )
                self._segments[stage.name] = self.dataflow.conv_segments(
                    geom, buffers
                )
            else:
                assert isinstance(geom, FCGeometry)
                self._tiles[stage.name] = self.dataflow.fc_tiles(geom, buffers)
                self._segments[stage.name] = self.dataflow.fc_segments(
                    geom, buffers
                )
        return self._tiles[stage.name], self._segments[stage.name]

    def _run_compute_stage(
        self,
        stage: Stage,
        builder: TraceBuilder,
        cycle: int,
        layouts: dict[str, PrunedLayout | None],
        bursts: list[np.ndarray],
    ) -> int:
        """One conv/FC stage: read segments interleaved with write bursts.

        The dataflow partitions the tile schedule into segments, each
        retiring one OFM write burst (output-stationary degenerates to
        a single segment and the stage-end burst).  A *pruned* input is
        prefetched whole at stage start — RLE streams are not
        row-addressable — for conv under every dataflow and for FC when
        the dataflow asks for it; the output-stationary FC instead
        folds the compressed fetch into its first tile (the legacy
        encoding, kept bit-identical).
        """
        timing = self.config.timing
        source = stage.input_stages[0]
        pruned_input = layouts.get(source) is not None
        prefetch = pruned_input and (
            stage.kind == "conv" or self.dataflow.fc_prefetch_pruned_ifm
        )

        if prefetch:
            # The compressed layout — hence this span — changes with
            # every input, so it stays per-run.
            addrs = self._input_read_blocks(source, layouts)
            cycle = builder.add_span(
                cycle, addrs, READ, timing.cycles_per_block
            )

        tiles, segments = self._stage_tiles(stage)
        emit = (
            self._emit_conv_segment
            if stage.kind == "conv"
            else self._emit_fc_segment
        )
        for si, (t0, t1) in enumerate(segments):
            cycle = emit(
                stage, si, t0, t1, tiles, builder, cycle, layouts,
                pruned_input, prefetch,
            )
            if len(bursts[si]):
                cycle = builder.add_span(
                    cycle, bursts[si], WRITE, timing.cycles_per_block
                )
        return cycle

    def _ordered_tile_addrs(
        self, weights: np.ndarray | None, ifm: np.ndarray | None
    ) -> np.ndarray:
        """One tile's read burst in the dataflow's operand order."""
        ordered = (
            [weights, ifm] if self.dataflow.weights_first else [ifm, weights]
        )
        spans = [s for s in ordered if s is not None]
        if not spans:
            return np.empty(0, dtype=np.int64)
        return spans[0] if len(spans) == 1 else np.concatenate(spans)

    def _emit_conv_segment(
        self, stage: Stage, si: int, t0: int, t1: int, tiles: list[ConvTile],
        builder: TraceBuilder, cycle: int, layouts, pruned_input, prefetch,
    ) -> int:
        """One conv segment (tiles ``t0:t1``) from its cached plan."""
        key = (stage.name, si)
        if key not in self._read_plans:
            self._read_plans[key] = self._build_conv_read_plan(
                stage, tiles[t0:t1], prefetch
            )
        return self._emit_plan(self._read_plans[key], builder, cycle)

    def _build_conv_read_plan(
        self, stage: Stage, tiles: list[ConvTile], skip_ifm: bool
    ) -> _StageReadPlan:
        """One conv segment's per-tile read addresses, assembled once.

        Each band's IFM fetch (``d_ifm`` block ranges, the profiled hot
        spot on deep nets) assembles via :func:`_ranged_blocks`; each
        weight fetch is a single ``arange``.  With a pruned input the
        tiles carry weights only (the IFM arrives via the per-run
        prefetch span instead).  Whether the input arrives pruned is
        itself static per stage (it follows from the pruning config and
        the graph), so keying plans by (stage, segment) is sound.
        """
        geom = stage.geometry
        assert isinstance(geom, LayerGeometry)
        in_region = self.ofm_region(stage.input_stages[0])
        w_region = self.region(f"{stage.name}.weights")
        mem = self.config.memory
        eb, bb = mem.element_bytes, mem.block_bytes

        h = geom.w_ifm
        plane = h * h
        per_filter = geom.f_conv * geom.f_conv * geom.d_ifm
        chan = np.arange(geom.d_ifm, dtype=np.int64) * plane
        tile_addrs: list[np.ndarray] = []
        tile_macs: list[int] = []
        for tile in tiles:
            weights = None
            if tile.fetch_weights:
                wb0 = w_region.base + (tile.oc_start * per_filter * eb // bb) * bb
                wb1 = w_region.base + -(-(tile.oc_end * per_filter * eb) // bb) * bb
                weights = np.arange(wb0, wb1, bb, dtype=np.int64)
            ifm = None
            if tile.fetch_ifm and not skip_ifm:
                ifm = _ranged_blocks(
                    in_region,
                    chan + tile.ifm_row_start * h,
                    chan + tile.ifm_row_end * h,
                )
            tile_addrs.append(self._ordered_tile_addrs(weights, ifm))
            tile_macs.append(tile.macs)
        return self._build_read_plan(tile_addrs, tile_macs)

    @staticmethod
    def _tile_schedule(
        cycle: int, durs: np.ndarray, counts: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, int]:
        """Back-to-back tile start cycles and event spacings.

        Scalar recurrence being vectorised (per tile):
        ``spacing = max(1, dur // max(1, n))`` then
        ``cycle = max(cycle + dur, cycle + n * spacing)`` — the next
        tile starts after whichever runs longer, the tile's duration or
        its stretched-out memory burst.  A prefix sum over the per-tile
        step gives every start at once.
        """
        if len(durs) == 0:
            return durs, durs, cycle
        spacings = np.maximum(1, durs // np.maximum(1, counts))
        steps = np.maximum(durs, counts * spacings)
        ends = cycle + np.cumsum(steps)
        starts = ends - steps
        return starts, spacings, int(ends[-1])

    def _jittered(self, cycles: int) -> int:
        """Apply the configured per-tile timing noise.

        Noise is one-sided (half-normal): contention, refresh and
        arbitration only ever *delay* a tile past its deterministic
        minimum — which is also why an adversary filters noise with the
        minimum over runs rather than the mean.
        """
        jitter = self.config.timing.jitter
        if jitter == 0.0:
            return cycles
        factor = 1.0 + jitter * abs(float(self._jitter_rng.standard_normal()))
        return max(1, int(round(cycles * factor)))

    def _jittered_array(self, cycles: np.ndarray) -> np.ndarray:
        """:meth:`_jittered` over a whole stage's tile durations at once.

        ``standard_normal(n)`` consumes the generator stream exactly as
        n successive scalar draws do (verified in tests), and numpy's
        round-half-even matches python's ``round`` — so this produces
        the same jittered durations, in the same draw order, as
        per-tile calls.
        """
        jitter = self.config.timing.jitter
        if jitter == 0.0:
            return cycles
        draws = self._jitter_rng.standard_normal(len(cycles))
        factors = 1.0 + jitter * np.abs(draws)
        return np.maximum(1, np.round(cycles * factors)).astype(np.int64)

    def _emit_fc_segment(
        self,
        stage: Stage,
        si: int,
        t0: int,
        t1: int,
        tiles: list[FCTile],
        builder: TraceBuilder,
        cycle: int,
        layouts: dict[str, PrunedLayout | None],
        pruned_input: bool,
        prefetch: bool,
    ) -> int:
        """One FC segment from its cached :class:`_StageReadPlan`.

        With a dense input every tile — including any that prepend the
        whole-IFM fetch — is run-invariant and the segment replays from
        the plan.  A pruned input either arrived via the stage-start
        prefetch (the plan then carries weight-only tiles) or, in the
        output-stationary fold, the first tile's IFM scatter depends on
        the run's layout, so it is emitted per run here (one scalar
        jitter draw, preserving draw order) and the plan covers the
        remaining weight-only tiles.
        """
        geom = stage.geometry
        assert isinstance(geom, FCGeometry)
        source = stage.input_stages[0]
        timing = self.config.timing
        fold_first = pruned_input and not prefetch and t0 == 0

        if fold_first:
            mem = self.config.memory
            eb, bb = mem.element_bytes, mem.block_bytes
            w_region = self.region(f"{stage.name}.weights")
            group = max(
                1,
                self.config.buffers.weight_buffer_elements
                // max(1, geom.in_features),
            )
            out0 = min(group, geom.out_features)
            wb1 = w_region.base + -(-(out0 * geom.in_features * eb) // bb) * bb
            weights = np.arange(w_region.base, wb1, bb, dtype=np.int64)
            addrs = self._ordered_tile_addrs(
                weights, self._input_read_blocks(source, layouts)
            )
            tile_dur = self._jittered(
                timing.tile_cycles(out0 * geom.in_features, len(addrs))
            )
            spacing = max(1, tile_dur // max(1, len(addrs)))
            end = builder.add_span(cycle, addrs, READ, spacing)
            cycle = max(cycle + tile_dur, end)

        key = (stage.name, si)
        if key not in self._read_plans:
            self._read_plans[key] = self._build_fc_read_plan(
                stage, tiles[t0:t1], skip_ifm=prefetch, drop_first=fold_first
            )
        plan = self._read_plans[key]
        if plan is None:  # single-tile segment, fully emitted above
            return cycle
        return self._emit_plan(plan, builder, cycle)

    def _build_fc_read_plan(
        self,
        stage: Stage,
        tiles: list[FCTile],
        skip_ifm: bool,
        drop_first: bool,
    ) -> _StageReadPlan | None:
        """One FC segment's per-tile read addresses, assembled once.

        The output-feature groups are a plain strided partition, so
        big FC layers (AlexNet's FC1 alone is hundreds of tiles) replay
        with no per-tile python beyond this one-time assembly.  A dense
        IFM fetch is run-invariant (``block_addresses`` of the source
        region) and joins the plan; ``drop_first`` excludes the
        layout-dependent first tile that the caller emits per run.
        """
        geom = stage.geometry
        assert isinstance(geom, FCGeometry)
        in_region = self.ofm_region(stage.input_stages[0])
        w_region = self.region(f"{stage.name}.weights")
        mem = self.config.memory
        eb, bb = mem.element_bytes, mem.block_bytes

        if drop_first:
            tiles = tiles[1:]
            if not tiles:
                return None
        tile_addrs: list[np.ndarray] = []
        tile_macs: list[int] = []
        for tile in tiles:
            wb0 = w_region.base + (tile.out_start * geom.in_features * eb // bb) * bb
            wb1 = w_region.base + -(-(tile.out_end * geom.in_features * eb) // bb) * bb
            weights = np.arange(wb0, wb1, bb, dtype=np.int64)
            ifm = None
            if tile.fetch_ifm and not skip_ifm:
                ifm = in_region.block_addresses()
            tile_addrs.append(self._ordered_tile_addrs(weights, ifm))
            tile_macs.append(tile.macs)
        return self._build_read_plan(tile_addrs, tile_macs)

    # -- read-plan machinery ----------------------------------------------
    def _build_read_plan(
        self, tile_addrs: list[np.ndarray], tile_macs: list[int]
    ) -> _StageReadPlan:
        """Freeze one stage's tile reads into a :class:`_StageReadPlan`."""
        counts = np.array([len(a) for a in tile_addrs], dtype=np.int64)
        macs = np.array(tile_macs, dtype=np.int64)
        addrs = (
            tile_addrs[0]
            if len(tile_addrs) == 1
            else np.concatenate(tile_addrs)
        )
        base_durs = self.config.timing.tile_cycles_array(macs, counts)
        cmax = int(counts.max())
        k = np.arange(cmax, dtype=np.int64)
        mask = None
        if int(counts.min()) != cmax:
            mask = k[None, :] < counts[:, None]
        rel_cycles = None
        advance = 0
        if self.config.timing.jitter == 0.0:
            starts, spacings, advance = self._tile_schedule(
                0, base_durs, counts
            )
            grid = starts[:, None] + k[None, :] * spacings[:, None]
            rel_cycles = grid.ravel() if mask is None else grid[mask]
        return _StageReadPlan(
            addrs, counts, macs, base_durs, mask, cmax, rel_cycles, advance
        )

    def _emit_plan(
        self, plan: _StageReadPlan, builder: TraceBuilder, cycle: int
    ) -> int:
        """Emit one stage's reads from its plan as a single burst.

        Jitter disabled: the whole relative cycle ramp is cached, so
        emission is one vector add.  Jitter enabled: durations re-draw
        from the run's jitter stream — in tile order, stream-equivalent
        to per-tile scalar draws — and the ramp builds
        as a ``(tiles, max_blocks)`` broadcast grid, ragged-extracted
        when block alignment makes per-tile counts vary.
        """
        if plan.rel_cycles is not None:
            builder.add_events(cycle + plan.rel_cycles, plan.addrs, READ)
            return cycle + plan.advance
        durs = self._jittered_array(plan.base_durs)
        starts, spacings, end = self._tile_schedule(cycle, durs, plan.counts)
        k = np.arange(plan.cmax, dtype=np.int64)
        grid = starts[:, None] + k[None, :] * spacings[:, None]
        cycles = grid.ravel() if plan.mask is None else grid[plan.mask]
        builder.add_events(cycles, plan.addrs, READ)
        return end

    def _run_merge_stage(
        self,
        stage: Stage,
        builder: TraceBuilder,
        cycle: int,
        layouts: dict[str, PrunedLayout | None],
    ) -> int:
        timing = self.config.timing
        for source in stage.input_stages:
            addrs = self._input_read_blocks(source, layouts)
            cycle = builder.add_span(cycle, addrs, READ, timing.cycles_per_block)
        return cycle

    # -- OFM write ------------------------------------------------------------
    def _plan_ofm_write(
        self, stage: Stage, values: np.ndarray | None
    ) -> tuple[list[np.ndarray], PrunedLayout | None]:
        """Write bursts (one per segment) and pruned layout of one OFM store.

        ``values`` (the stage's activations) matter only with pruning
        on; a dense store writes the whole region, so pass ``None``.

        Merge stages and single-segment dataflows keep the historical
        single end-of-stage burst — for the pruned case that burst *is*
        the :func:`encode_pruned_writes` stream, bit for bit.  Multi-
        segment dataflows split the same addresses across their
        segments' bursts; totals (and the per-substream nnz leak) are
        identical by construction.
        """
        region = self.region(f"{stage.name}.ofm")
        geom = stage.geometry
        buffers = self.config.buffers
        if stage.kind == "conv":
            assert isinstance(geom, LayerGeometry)
            ranges = self.dataflow.conv_burst_ranges(geom, buffers)
        elif stage.kind == "fc":
            assert isinstance(geom, FCGeometry)
            ranges = self.dataflow.fc_burst_ranges(geom, buffers)
        else:
            ranges = None  # merge: single end-of-stage burst
        if values is not None:
            addresses, layout = encode_pruned_writes(
                region, values, self.config.pruning, self.config.memory
            )
            if ranges is None or len(ranges) == 1:
                return [addresses], layout
            return (
                split_pruned_bursts(
                    region, values, ranges,
                    self.config.pruning, self.config.memory,
                ),
                layout,
            )
        if ranges is None or len(ranges) == 1:
            return [region.block_addresses()], None
        return assign_write_blocks(region, ranges), None

    # -- helpers -----------------------------------------------------------------
    def _stage_macs(self, stage: Stage) -> int:
        geom = stage.geometry
        if isinstance(geom, (LayerGeometry, FCGeometry)):
            return geom.macs
        return 0
