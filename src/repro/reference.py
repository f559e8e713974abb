"""Reference oracles of the vectorised synthesis, decode, power,
count and weight-recovery paths.

The simulator replays cached read plans, the decoders fold whole chunks
through sort-based kernels, the power proxy is a SWAR popcount, the
count oracle recomputes only the cells a sparse probe touches and the
weight attack runs its searches in lockstep; each is admissible only
because it matches the straightforward per-tile, per-event,
whole-trace, dense-layer or one-weight-at-a-time implementation kept
here.  All but one match bit for bit.  The count oracle is the measured
exception: it adds a two-pixel cell's terms in another order than the
dense layers, so a probe exactly on a bisection crossing can count
differently (82 of the 77,089 runs of ``repro weights --size 31
--filters 4``; the recovered ratios differ by at most 1.1e-15).  The
identity tests, the golden digests and the ``benchmarks.perf``
reference arms compare against these functions.  They are never
optimised, and nothing in production imports this module (a guard test
freezes that direction).
"""

from __future__ import annotations

import numpy as np

from repro.accel.dataflow import resolve_dataflow
from repro.accel.memory import MemoryRegion
from repro.accel.oracle import StageOracle, _stage_components
from repro.accel.simulator import AcceleratorSim, SimulationResult
from repro.accel.timing import TimingModel
from repro.accel.trace import READ, TraceBuilder, TraceSink
from repro.attacks.structure.trace_analysis import (
    INPUT_SOURCE,
    LayerObservation,
    SizeRange,
    TraceAnalysis,
    _BlockIntervalSet,
)
from repro.attacks.weights.recovery import (
    Search,
    WeightAttack,
    WeightAttackResult,
    _Bisection,
    _RecoveryState,
)
from repro.device import DeviceSession, StructureObservation
from repro.errors import ConfigError, TraceError
from repro.nn.layers.activations import ThresholdReLU
from repro.nn.stages import StagedNetwork
from repro.power.model import PowerModel, PowerTrace

__all__ = [
    "synthesize_reference",
    "layer_boundaries_reference",
    "decode_reference",
    "raw_boundaries_reference",
    "robust_boundaries_reference",
    "power_reference",
    "DenseStageOracle",
    "dense_session",
    "weight_attack_reference",
]


# -- trace synthesis ----------------------------------------------------------

def _blocks(region: MemoryRegion, e0: int, e1: int) -> np.ndarray:
    """Block addresses covering elements ``[e0, e1)`` of a region."""
    mem = region.config
    if e1 <= e0:
        return np.empty(0, dtype=np.int64)
    b0 = region.base + (e0 * mem.element_bytes // mem.block_bytes) * mem.block_bytes
    b1 = region.base + -(-(e1 * mem.element_bytes) // mem.block_bytes) * mem.block_bytes
    return np.arange(b0, b1, mem.block_bytes, dtype=np.int64)


class _PerTileSim(AcceleratorSim):
    """A view of a simulator that emits its reads one span per tile.

    Shares the wrapped simulator's DRAM layout, tile schedules and
    per-run ground truth (OFM write bursts, pruned layouts); only read
    emission differs — each tile's addresses are assembled from scratch
    and its duration drawn as one scalar jitter sample, where the
    production path replays a cached whole-segment plan.
    """

    def __init__(self, sim: AcceleratorSim) -> None:
        self.__dict__.update(sim.__dict__)

    def _tile_reads(self, stage, tile, layouts, skip_ifm: bool) -> np.ndarray:
        geom = stage.geometry
        w_region = self.region(f"{stage.name}.weights")
        source = stage.input_stages[0]
        weights = ifm = None
        if stage.kind == "fc":
            n = geom.in_features
            weights = _blocks(w_region, tile.out_start * n, tile.out_end * n)
            if tile.fetch_ifm and not skip_ifm:
                ifm = self._input_read_blocks(source, layouts)
            return self._ordered_tile_addrs(weights, ifm)
        per_filter = geom.f_conv * geom.f_conv * geom.d_ifm
        if tile.fetch_weights:
            weights = _blocks(
                w_region, tile.oc_start * per_filter, tile.oc_end * per_filter
            )
        if tile.fetch_ifm and not skip_ifm:
            h = geom.w_ifm
            ifm = np.concatenate([
                _blocks(
                    self.ofm_region(source),
                    c * h * h + tile.ifm_row_start * h,
                    c * h * h + tile.ifm_row_end * h,
                )
                for c in range(geom.d_ifm)
            ])
        return self._ordered_tile_addrs(weights, ifm)

    def _emit_tiles(
        self, stage, si, t0, t1, tiles, builder: TraceBuilder, cycle: int,
        layouts, pruned_input: bool, prefetch: bool,
    ) -> int:
        timing = self.config.timing
        for tile in tiles[t0:t1]:
            addrs = self._tile_reads(stage, tile, layouts, prefetch)
            tile_dur = self._jittered(timing.tile_cycles(tile.macs, len(addrs)))
            spacing = max(1, tile_dur // max(1, len(addrs)))
            end = builder.add_span(cycle, addrs, READ, spacing)
            cycle = max(cycle + tile_dur, end)
        return cycle

    _emit_conv_segment = _emit_fc_segment = _emit_tiles


def synthesize_reference(
    sim: AcceleratorSim, sink: TraceSink | None = None
) -> SimulationResult:
    """Per-tile re-synthesis of ``sim``'s last run.

    The oracle of :meth:`AcceleratorSim.run` and ``replay``: the same
    result, bit for bit — cycles, addresses, flags, stage windows — but
    emitted tile by tile.  ``sink`` receives the spans as in ``replay``.
    """
    return _PerTileSim(sim).replay(sink)


# -- structure decode ---------------------------------------------------------

def _protocol_boundaries(is_write: np.ndarray) -> list[int]:
    """Write-at-end rule: a read following a write in the window."""
    boundaries = [0]
    window_wrote = False
    for i, write in enumerate(is_write.tolist()):
        if write:
            window_wrote = True
        elif window_wrote:
            boundaries.append(i)
            window_wrote = False
    return boundaries


def _range_walk_boundaries(
    addresses: np.ndarray, is_write: np.ndarray, block: int
) -> list[int]:
    """Write-burst-tolerant rule, one contiguous read range at a time.

    A range cuts the window when it reads the window's own writes (a
    RAW edge, at the first such block) or, once the window has
    written, when it starts outside every region the window read.
    """
    boundaries = [0]
    writes = _BlockIntervalSet(block)
    reads = _BlockIntervalSet(block)
    has_written = False
    change = np.flatnonzero(np.diff(is_write)) + 1
    for s, e in zip(
        np.concatenate(([0], change)), np.concatenate((change, [len(is_write)]))
    ):
        run = addresses[s:e]
        if is_write[s]:
            writes.add(np.unique(run))
            has_written = True
            continue
        breaks = np.flatnonzero(np.diff(run) != block) + 1
        for r0, r1 in zip(
            np.concatenate(([0], breaks)), np.concatenate((breaks, [len(run)]))
        ):
            rng = run[r0:r1]
            cut = -1
            if has_written and not reads.touches(int(rng[0])):
                cut = 0
            else:
                raw = writes.contains(rng)
                if raw.any():
                    cut = int(np.argmax(raw))
            if cut < 0:
                reads.add(rng)
                continue
            boundaries.append(int(s + r0 + cut))
            writes = _BlockIntervalSet(block)
            reads = _BlockIntervalSet(block)
            has_written = False
            reads.add(rng[cut:])
    return boundaries


def layer_boundaries_reference(
    addresses: np.ndarray,
    is_write: np.ndarray,
    block_bytes: int,
    dataflow: str = "output-stationary",
) -> list[int]:
    """Event indices at which a layer begins, over the whole trace.

    The output-stationary schedule writes each OFM once at stage end,
    so the write-at-end protocol rule is exact there; the other
    dataflows interleave write bursts with the tile schedule and take
    the range-walk rule.
    """
    if len(addresses) == 0:
        raise TraceError("empty trace")
    if resolve_dataflow(dataflow).name == "output-stationary":
        return _protocol_boundaries(is_write)
    return _range_walk_boundaries(addresses, is_write, block_bytes)


def _contiguous_extent(addresses: np.ndarray, block_bytes: int) -> tuple[int, int]:
    """(lo, hi_exclusive) byte extent; raises unless one contiguous region."""
    unique = np.unique(addresses)
    lo, hi = int(unique[0]), int(unique[-1]) + block_bytes
    if (hi - lo) // block_bytes != len(unique):
        raise TraceError("address set is not contiguous")
    return lo, hi


def decode_reference(
    obs: StructureObservation, dataflow: str = "output-stationary"
) -> tuple[list[int], TraceAnalysis]:
    """Boundaries and analysis of a materialised trace, layer by layer.

    The oracle of :class:`~repro.attacks.structure.StreamingTraceAnalyzer`:
    hash-``np.unique`` extents and one mask per earlier layer's OFM.
    """
    trace = obs.trace
    addresses, is_write, cycles = trace.addresses, trace.is_write, trace.cycles
    boundaries = layer_boundaries_reference(
        addresses, is_write, obs.block_bytes, dataflow
    )
    n_events = len(addresses)
    edges = boundaries + [n_events]

    c, h, w = obs.input_shape
    input_elements = c * h * w

    layers: list[LayerObservation] = []
    write_ranges: list[tuple[int, int]] = []  # per-layer OFM byte extents
    for li in range(len(boundaries)):
        lo_e, hi_e = edges[li], edges[li + 1]
        addr = addresses[lo_e:hi_e]
        wmask = is_write[lo_e:hi_e]
        read_addrs = addr[~wmask]
        write_addrs = addr[wmask]
        if len(write_addrs) == 0:
            raise TraceError(f"layer {li} wrote no OFM")
        ofm_lo, ofm_hi = _contiguous_extent(write_addrs, obs.block_bytes)
        size_ofm = SizeRange.from_byte_extent(
            ofm_hi - ofm_lo, obs.element_bytes, obs.block_bytes
        )

        # Attribute reads to earlier layers' OFMs (or the input).
        sources: list[int] = []
        ifm_sizes: list[SizeRange] = []
        unattributed = np.ones(len(read_addrs), dtype=bool)
        for src_idx, (w_lo, w_hi) in enumerate(write_ranges):
            mask = (read_addrs >= w_lo) & (read_addrs < w_hi)
            if mask.any():
                sources.append(src_idx)
                ifm_sizes.append(
                    SizeRange.from_byte_extent(
                        w_hi - w_lo, obs.element_bytes, obs.block_bytes
                    )
                )
                unattributed &= ~mask
        remaining = read_addrs[unattributed]
        if li == 0 and len(remaining):
            # The input image (of known size) sits at the low end of
            # the first layer's unattributed reads; the rest are filters.
            input_bytes = (
                -(-input_elements * obs.element_bytes // obs.block_bytes)
                * obs.block_bytes
            )
            is_input = remaining < int(remaining.min()) + input_bytes
            remaining = remaining[~is_input]
            if is_input.any():
                sources.insert(0, INPUT_SOURCE)
                ifm_sizes.insert(
                    0, SizeRange(lo=input_elements, hi=input_elements)
                )

        if len(remaining):
            f_lo, f_hi = _contiguous_extent(remaining, obs.block_bytes)
            size_fltr: SizeRange | None = SizeRange.from_byte_extent(
                f_hi - f_lo, obs.element_bytes, obs.block_bytes
            )
            kind = "compute"
        else:
            size_fltr = None
            kind = "merge"

        start_cycle = int(cycles[lo_e])
        if edges[li + 1] < n_events:
            end_cycle = int(cycles[edges[li + 1]])
        else:
            # Final layer: no next boundary — use the wall clock, which
            # covers the OFM write-back drain the adversary observes.
            end_cycle = obs.total_cycles

        layers.append(
            LayerObservation(
                index=li,
                kind=kind,
                sources=tuple(sources),
                size_ifm_per_source=tuple(ifm_sizes),
                size_ofm=size_ofm,
                size_fltr=size_fltr,
                duration=max(1, end_cycle - start_cycle),
                read_transactions=int(len(read_addrs)),
                write_transactions=int(len(write_addrs)),
            )
        )
        write_ranges.append((ofm_lo, ofm_hi))

    return boundaries, TraceAnalysis(
        layers=tuple(layers),
        input_shape=obs.input_shape,
        num_classes=obs.num_classes,
        element_bytes=obs.element_bytes,
        block_bytes=obs.block_bytes,
    )


def raw_boundaries_reference(
    addresses: np.ndarray, is_write: np.ndarray
) -> list[int]:
    """The paper's Section 3.1 RAW rule, one event at a time.

    A boundary is a read of an address written since the previous
    boundary; the last-writer map is a plain dict.
    """
    if len(addresses) == 0:
        raise TraceError("empty trace")
    boundaries = [0]
    start = 0
    last_write: dict[int, int] = {}
    for i, (addr, write) in enumerate(
        zip(np.asarray(addresses).tolist(), np.asarray(is_write).tolist())
    ):
        if write:
            last_write[addr] = i
        elif last_write.get(addr, -1) >= start:
            start = i
            boundaries.append(i)
    return boundaries


def robust_boundaries_reference(
    cycles: np.ndarray,
    addresses: np.ndarray,
    is_write: np.ndarray,
    *,
    min_support: int = 3,
    expiry: int = 4096,
    refractory: int = 0,
    producer_refractory: int | None = None,
) -> tuple[list[int], list[int]]:
    """Per-event hysteresis RAW detection: ``(boundaries, cycles)``.

    The oracle of :class:`~repro.attacks.robust.RobustRawBoundaryTracker`
    (same parameters): each RAW read either opens a candidate boundary
    or adds its address to the open candidate's support, and the
    candidate commits once ``min_support`` distinct addresses back it.
    """
    if producer_refractory is None:
        producer_refractory = refractory
    boundaries = [0]
    if len(addresses) == 0:
        return boundaries, []
    cycles = np.asarray(cycles, dtype=np.int64).tolist()
    boundary_cycles = [cycles[0]]
    start = 0
    last_commit_cycle = cycles[0]
    last_write: dict[int, tuple[int, int]] = {}
    cand_index: int | None = None
    cand_cycle = 0
    support: set[int] = set()
    for i, (cycle, addr, write) in enumerate(
        zip(cycles, np.asarray(addresses).tolist(), np.asarray(is_write).tolist())
    ):
        if write:
            last_write[addr] = (i, cycle)
            continue
        if addr not in last_write:
            continue
        prev, prev_cycle = last_write[addr]
        if cand_index is not None and i - cand_index > expiry:
            # Support never arrived: a channel artefact, not a layer.
            cand_index = None
            support = set()
        if prev < start:
            continue  # not a RAW read under the current window
        if prev_cycle < last_commit_cycle + producer_refractory:
            # The producing write was delivered inside the previous
            # boundary's echo window — a late or duplicated copy of
            # the finished layer's output, not new-layer evidence.
            continue
        if cand_index is None:
            if cycle - last_commit_cycle < refractory:
                continue  # echo of the previous transition
            cand_index = i
            cand_cycle = cycle
            support = {addr}
        else:
            support.add(addr)
        if len(support) >= min_support:
            start = cand_index
            last_commit_cycle = cand_cycle
            boundaries.append(cand_index)
            boundary_cycles.append(cand_cycle)
            cand_index = None
            support = set()
    return boundaries, boundary_cycles


# -- power proxy ----------------------------------------------------------------

def power_reference(
    cycles: np.ndarray,
    addresses: np.ndarray,
    is_write: np.ndarray,
    timing: TimingModel,
    model: PowerModel | None = None,
) -> PowerTrace:
    """The clean power-proxy trace of an event stream, event by event.

    The oracle of :class:`~repro.power.PowerSink` without channel
    noise: per-event bus energy (base cost plus one unit per toggled
    address line against the previous event, 0 before the first), MAC
    energy on reads, summed into ``model.quantum``-cycle bins.
    """
    model = model if model is not None else PowerModel()
    mac_read = model.read_energy + model.mac_energy * model.mac_units_per_read(
        timing
    )
    cycles = np.asarray(cycles, dtype=np.int64).tolist()
    samples = [0] * (max(cycles) // model.quantum + 1 if cycles else 0)
    prev = 0
    for cycle, addr, write in zip(
        cycles, np.asarray(addresses).tolist(), np.asarray(is_write).tolist()
    ):
        toggled = bin((addr ^ prev) & 0xFFFFFFFFFFFFFFFF).count("1")
        base = model.write_energy if write else mac_read
        samples[cycle // model.quantum] += base + model.switch_energy * toggled
        prev = addr
    return PowerTrace(
        samples=np.array(samples, dtype=np.int64), quantum=model.quantum
    )


# -- channel counts --------------------------------------------------------------

class DenseStageOracle(StageOracle):
    """The oracle of :class:`~repro.accel.oracle.SparseStageOracle`.

    Runs the stage's real layers on a dense input, one run at a time,
    and counts the non-zeros of each output plane.
    """

    def __init__(self, staged: StagedNetwork, stage_name: str):
        self._stage, self._conv, self._act, self._pool = _stage_components(
            staged, stage_name
        )
        self._conv.requires_grad_(False)  # count queries never backprop
        geom = self._stage.geometry
        self.d_ofm = geom.d_ofm
        self.input_shape = (geom.d_ifm, geom.w_ifm, geom.w_ifm)

    def set_threshold(self, threshold: float) -> None:
        if not isinstance(self._act, ThresholdReLU):
            raise ConfigError("stage activation has no tunable threshold")
        self._act.set_threshold(threshold)

    def nnz_batch(self, patterns: list[tuple], rows) -> np.ndarray:
        counts = np.zeros((len(rows), self.d_ofm), dtype=np.int64)
        for b, (pattern, row) in enumerate(zip(patterns, rows)):
            self._check_pixels(list(pattern))
            x = np.zeros((1, *self.input_shape))
            for (c, i, j), v in zip(pattern, row):
                x[0, c, i, j] = v
            out = self._act.forward(self._conv.forward(x))
            if self._pool is not None:
                out = self._pool.forward(out)
            counts[b] = np.count_nonzero(out.reshape(self.d_ofm, -1), axis=1)
        return counts


class _DenseSession(DeviceSession):
    _oracle_type = DenseStageOracle


def dense_session(device, stage_name: str | None = None, **kwargs) -> DeviceSession:
    """A :class:`DeviceSession` whose channel runs :class:`DenseStageOracle`.

    Takes the session's arguments; metering, caching and forks behave
    as on any session.
    """
    return _DenseSession(device, stage_name, **kwargs)


# -- weight recovery -------------------------------------------------------------

def _bisect_alone(
    attack: WeightAttack, state: _RecoveryState, bisection: _Bisection
):
    """Algorithm 2's binary search of one crossing, one probe per call."""
    lo, hi = bisection.lo.copy(), bisection.hi.copy()
    moved = bisection.moved
    for _ in range(attack.search_steps):
        mid = np.where(moved, 0.5 * (lo + hi), 0.0)
        if bisection.anchor is None:
            measured = attack.channel.query_per_filter(
                [bisection.pixels], [mid[None, :]]
            )[0]
            modeled = attack._model_counts(
                mid, bisection.known_rho, state.bias_pos, state.base,
                bisection.members,
            )
            flipped = (measured - modeled) != 0
        else:
            measured = attack.channel.query_per_filter(
                [bisection.pixels], [np.stack([bisection.anchor, mid])]
            )[0]
            flipped = measured != bisection.g0
        hi = np.where(moved & flipped, mid, hi)
        lo = np.where(moved & ~flipped, mid, lo)
    return lo, hi


def _drive_alone(
    attack: WeightAttack, state: _RecoveryState, search: Search
) -> bool:
    """Run one weight's search to completion, one probe per device call."""
    try:
        request = next(search)
        while True:
            if isinstance(request, _Bisection):
                reply = _bisect_alone(attack, state, request)
            else:
                pixels, values = request
                reply = attack.channel.query_per_filter([pixels], [values])[0]
            request = search.send(reply)
    except StopIteration as stop:
        return bool(stop.value)


def weight_attack_reference(attack: WeightAttack) -> WeightAttackResult:
    """Algorithm 2 in the serial order: one weight at a time.

    The oracle of :meth:`WeightAttack._run_shard_local` (the attack's
    own filter range, in this process): the same per-weight searches,
    driven in lexicographic order within each round, each probe its own
    one-probe ``query_per_filter`` call, and each bisection request a
    plain loop of such calls (the lockstep driver steps all running
    bisections in one table instead).  Ratios, statuses and the
    session ledger must match the lockstep schedule exactly.
    """
    state = attack._start()
    for round_no in range(1 + attack.max_resolution_rounds):
        progress = False
        for pos, todo in attack._active(state):
            search = attack._resolve_weight(state, pos, todo, round_no > 0)
            progress |= _drive_alone(attack, state, search)
        if not progress:
            break
    return attack._finish(state)
