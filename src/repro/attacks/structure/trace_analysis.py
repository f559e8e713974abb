"""Memory-trace analysis: layers, connections, sizes, timing.

Implements steps 1-2 of the paper's Algorithm 1 from nothing but the
attacker-visible trace:

1. **Layer boundaries** via read-after-write dependencies: "the beginning
   of a new convolutional/fully connected layer is revealed by the first
   read access on a memory address that was previously written".
   Concretely, a boundary is a read of an address written *since the last
   boundary* — within a layer the accelerator reads only IFMs written by
   earlier layers and read-only weights, and writes its OFM exactly once.
2. **Region classification** per layer: reads landing in an earlier
   layer's write range are IFM fetches (and identify the producing layer
   — the connection graph, including bypass paths); remaining reads are
   filter fetches; writes delimit the OFM.  Sizes follow from the extents
   of each contiguous range, exact to one memory block.
3. **Timing**: per-layer cycle counts between boundaries, plus the
   per-layer transaction count (used to model memory-bound layers).

Merge layers (element-wise bypass additions and depth concatenations)
read previously written data but no filters; they are classified by
comparing their OFM size against their operand sizes.

Every step is a streaming class (:class:`BoundaryTracker`,
:class:`DataflowBoundaryTracker`, :class:`StreamingTraceAnalyzer`) that folds vectorised event chunks as
they arrive — the adversary's tap records a *stream*, so the analysis
runs in O(chunk) memory no matter how large the victim, and plugs
directly into :meth:`repro.device.DeviceSession.observe_structure` as a
trace sink.  The batch helpers (:func:`find_layer_boundaries`,
:func:`find_layer_boundaries_dataflow`, :func:`analyse_trace`) feed a
materialised trace through them as one chunk.  Results are the same
for any chunking and bit-identical to the whole-trace oracles in
:mod:`repro.reference` (asserted in tests).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import TraceError
from repro.device import StructureObservation
from repro.attacks.structure.decode import sorted_unique

__all__ = [
    "SizeRange",
    "LayerObservation",
    "TraceAnalysis",
    "find_layer_boundaries",
    "find_layer_boundaries_dataflow",
    "BoundaryTracker",
    "DataflowBoundaryTracker",
    "StreamingTraceAnalyzer",
    "analyse_trace",
    "average_analyses",
    "analysis_to_dict",
    "analysis_from_dict",
]

INPUT_SOURCE = -1  # pseudo-index for the network input feature map


@dataclass(frozen=True)
class SizeRange:
    """Inclusive element-count interval for a tensor observed at
    block granularity: the true size lies in [lo, hi]."""

    lo: int
    hi: int

    @staticmethod
    def from_byte_extent(byte_extent: int, element_bytes: int, block_bytes: int) -> "SizeRange":
        if byte_extent <= 0 or byte_extent % block_bytes != 0:
            raise TraceError(
                f"region extent {byte_extent} not a positive block multiple"
            )
        hi = byte_extent // element_bytes
        epb = block_bytes // element_bytes
        return SizeRange(lo=hi - epb + 1, hi=hi)

    def contains(self, n: int) -> bool:
        return self.lo <= n <= self.hi

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


@dataclass(frozen=True)
class LayerObservation:
    """Attacker-extracted facts about one accelerator layer.

    Attributes:
        index: layer position in execution order (0-based).
        kind: ``compute`` (conv or FC — reads filters) or ``merge``
            (reads only prior OFMs).
        sources: producing layer indices of the feature maps read
            (:data:`INPUT_SOURCE` for the network input).
        size_ifm_per_source: observed IFM size per source, same order.
        size_ofm: observed OFM size.
        size_fltr: observed filter size (None for merge layers).
        duration: cycles from this layer's first transaction to the next
            layer's first (or trace end).
        read_transactions: memory read transactions in the layer window.
        write_transactions: memory write transactions in the layer window.
    """

    index: int
    kind: str
    sources: tuple[int, ...]
    size_ifm_per_source: tuple[SizeRange, ...]
    size_ofm: SizeRange
    size_fltr: SizeRange | None
    duration: int
    read_transactions: int
    write_transactions: int

    @property
    def transactions(self) -> int:
        return self.read_transactions + self.write_transactions


@dataclass(frozen=True)
class TraceAnalysis:
    """The full structure-attack view of one inference trace."""

    layers: tuple[LayerObservation, ...]
    input_shape: tuple[int, int, int]
    num_classes: int
    element_bytes: int
    block_bytes: int

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    def consumers(self, index: int) -> list[int]:
        return [l.index for l in self.layers if index in l.sources]


class BoundaryTracker:
    """Layer boundaries by the write-at-end protocol rule.

    The Figure 1 accelerator reads a layer's IFM tiles and filters, then
    writes the whole OFM back at the end of the layer ("after computing
    over all tiles ... writes an output feature map back to DRAM").  A
    read following any write in the current window therefore belongs to
    the *next* layer.  For this write-at-end protocol the rule strictly
    subsumes the RAW rule (every fresh RAW read follows the producing
    write) and additionally segments branch fan-out, where a second
    consumer re-reads an OFM the first consumer already read.

    The window has written exactly when the previous event was a write,
    so the boundaries are the reads that directly follow a write.  Feed
    event chunks in trace order; the rule needs only the R/W flags and
    two scalars of state (events seen, whether the last event was a
    write), so memory is O(1) regardless of trace length.  The boundary
    sequence is the same for any chunking.
    """

    def __init__(self) -> None:
        self._n = 0
        self._boundaries: list[int] = [0]
        self._last_was_write = False

    @property
    def num_events(self) -> int:
        return self._n

    @property
    def boundaries(self) -> list[int]:
        """Event indices at which a layer begins, found so far."""
        if self._n == 0:
            raise TraceError("empty trace")
        return list(self._boundaries)

    def feed(self, is_write: np.ndarray) -> list[int]:
        """Fold one chunk of R/W flags; returns boundaries found in it."""
        is_write = np.asarray(is_write, dtype=bool)
        if len(is_write) == 0:
            return []
        after_write = np.empty(len(is_write), dtype=bool)
        after_write[0] = self._last_was_write
        after_write[1:] = is_write[:-1]
        new = (self._n + np.flatnonzero(after_write & ~is_write)).tolist()
        self._last_was_write = bool(is_write[-1])
        self._n += len(is_write)
        self._boundaries.extend(new)
        return new


class DataflowBoundaryTracker:
    """Boundary detection that survives mid-stage OFM write bursts.

    The protocol rule (:class:`BoundaryTracker`) assumes write-at-end:
    any read after a write opens a new layer.  Weight- and
    row-stationary dataflows break that assumption — they retire OFM
    slices *between* tile groups, so reads of the same layer legally
    follow writes.  This tracker instead decides per contiguous read
    range, using two dataflow-invariant facts:

    * a layer never reads its own OFM, so a read hitting the current
      window's written blocks (a RAW edge) starts a new layer;
    * within a layer, every read range either revisits or
      block-contiguously extends a region the window already read
      (the next band/group of the same IFM or filter array), so — once
      the window has written — a read range starting *outside* every
      previously read region is the next layer's first fetch.

    Assumes conv stride ≤ filter size (successive bands overlap or
    touch), which holds for every standard CNN; a strided gap would
    split one layer in two.  Works for the output-stationary schedule
    too, but the O(1) protocol tracker is preferred there.

    Feed ``(addresses, is_write)`` chunks in trace order; boundary
    output is invariant to chunking (a range split across chunks folds
    its first part into the window, making the continuation
    block-contiguous by construction).  Whole read runs are decided at
    once: every range start is checked against the read window in one
    batched ``touches`` query and the RAW test runs over the full run,
    so the scan only slows down around an actual (or suspected) cut —
    once per layer, not once per tile row.
    """

    def __init__(self, block_bytes: int) -> None:
        self._block = block_bytes
        self._n = 0
        self._boundaries: list[int] = [0]
        self._window_writes = _BlockIntervalSet(block_bytes)
        self._window_reads = _BlockIntervalSet(block_bytes)
        self._has_written = False

    @property
    def num_events(self) -> int:
        return self._n

    @property
    def boundaries(self) -> list[int]:
        """Event indices at which a layer begins, found so far."""
        if self._n == 0:
            raise TraceError("empty trace")
        return list(self._boundaries)

    def _reset_window(self) -> None:
        self._window_writes = _BlockIntervalSet(self._block)
        self._window_reads = _BlockIntervalSet(self._block)
        self._has_written = False

    def _scan_read_run(self, addresses: np.ndarray) -> list[int]:
        """Boundary offsets within one run of consecutive reads.

        Both checks are evaluated for every range, batched.  A range
        start that fails the batched (pre-run) touch test is only a
        *suspected* cut: range by range, the run's earlier ranges would
        have folded into the window first, and one of those may be what
        this range touches.  The suspect is therefore re-tested after
        the fold, and scanning resumes if it survives.
        """
        offs: list[int] = []
        off0 = 0
        rest = addresses
        while len(rest):
            if not self._has_written and not self._window_writes:
                # No write since the window opened: neither check can
                # fire, the whole remaining run folds in.
                self._window_reads.add(sorted_unique(rest))
                break
            breaks = np.flatnonzero(np.diff(rest) != self._block) + 1
            starts = np.concatenate(([0], breaks))
            contained = np.flatnonzero(self._window_writes.contains(rest))
            first_b = int(contained[0]) if len(contained) else None
            first_a = None
            if self._has_written:
                fresh = starts[~self._window_reads.touches_batch(rest[starts])]
                if len(fresh):
                    first_a = int(fresh[0])
            if first_a is None and first_b is None:
                self._window_reads.add(sorted_unique(rest))
                break
            if first_a is not None and (first_b is None or first_a <= first_b):
                # Fresh-region rule fires first (it is checked before the
                # RAW test, and a range's start precedes any RAW hit
                # inside it).
                if first_a > 0:
                    self._window_reads.add(sorted_unique(rest[:first_a]))
                if self._window_reads.touches(int(rest[first_a])):
                    # It touched an earlier range of this same run, so it
                    # is no cut.  Rescan from this range with the window
                    # now up to date.
                    rest = rest[first_a:]
                    off0 += first_a
                    continue
                cut = first_a
            else:
                cut = first_b
                if cut > 0:
                    self._window_reads.add(sorted_unique(rest[:cut]))
            offs.append(off0 + cut)
            self._reset_window()
            rest = rest[cut:]
            off0 += cut
        return offs

    def feed(self, addresses: np.ndarray, is_write: np.ndarray) -> list[int]:
        """Fold one event chunk; returns boundaries found in it."""
        addresses = np.asarray(addresses, dtype=np.int64)
        is_write = np.asarray(is_write, dtype=bool)
        n = len(addresses)
        if n == 0:
            return []
        base = self._n
        new: list[int] = []
        change = np.flatnonzero(np.diff(is_write)) + 1
        starts = np.concatenate(([0], change))
        ends = np.concatenate((change, [n]))
        for s, e in zip(starts, ends):
            if is_write[s]:
                self._window_writes.add(sorted_unique(addresses[s:e]))
                self._has_written = True
            else:
                new.extend(
                    base + int(s) + off
                    for off in self._scan_read_run(addresses[s:e])
                )
        self._n += n
        self._boundaries.extend(new)
        return new


def find_layer_boundaries(
    addresses: np.ndarray, is_write: np.ndarray
) -> list[int]:
    """:class:`BoundaryTracker` over a materialised trace."""
    tracker = BoundaryTracker()
    tracker.feed(is_write)
    return tracker.boundaries


def find_layer_boundaries_dataflow(
    addresses: np.ndarray, is_write: np.ndarray, block_bytes: int
) -> list[int]:
    """:class:`DataflowBoundaryTracker` over a materialised trace."""
    tracker = DataflowBoundaryTracker(block_bytes)
    tracker.feed(addresses, is_write)
    return tracker.boundaries


class _BlockIntervalSet:
    """Sorted disjoint ``[lo, hi)`` byte intervals at block granularity.

    The streaming replacement for holding a layer's unique block
    addresses: memory is O(intervals) — regions are contiguous arrays
    per the paper, so this is a handful of entries — while still
    answering the exact unique-block count and extent a whole-trace
    ``np.unique`` would give.

    Internals are flat ``lo``/``hi`` arrays, so folding a chunk in is
    one sort + running-maximum merge and every query (``contains``,
    ``touches_batch``) is a ``searchsorted``.
    """

    __slots__ = ("_block", "_lo", "_hi")

    def __init__(self, block_bytes: int) -> None:
        self._block = block_bytes
        self._lo = np.empty(0, dtype=np.int64)
        self._hi = np.empty(0, dtype=np.int64)

    def __bool__(self) -> bool:
        return len(self._lo) > 0

    def add(self, unique_addresses: np.ndarray) -> None:
        """Fold a sorted array of unique block addresses in."""
        if len(unique_addresses) == 0:
            return
        a = np.asarray(unique_addresses, dtype=np.int64)
        breaks = np.flatnonzero(np.diff(a) != self._block)
        nlo = a[np.concatenate(([0], breaks + 1))]
        nhi = a[np.concatenate((breaks, [len(a) - 1]))] + self._block
        if not len(self._lo):
            self._lo, self._hi = nlo, nhi
            return
        lo = np.concatenate([self._lo, nlo])
        hi = np.concatenate([self._hi, nhi])
        order = np.argsort(lo, kind="stable")
        lo = lo[order]
        hi = hi[order]
        run_hi = np.maximum.accumulate(hi)
        # A strictly-greater lo opens a new interval; lo == previous hi
        # is block-contiguous and merges.
        first = np.empty(len(lo), dtype=bool)
        first[0] = True
        np.greater(lo[1:], run_hi[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        self._lo = lo[starts]
        self._hi = run_hi[np.concatenate((starts[1:] - 1, [len(lo) - 1]))]

    def contains(self, addresses: np.ndarray) -> np.ndarray:
        """Vectorised membership test of block addresses against the set."""
        addresses = np.asarray(addresses, dtype=np.int64)
        if not len(self._lo):
            return np.zeros(len(addresses), dtype=bool)
        bounds = np.empty(2 * len(self._lo), dtype=np.int64)
        bounds[0::2] = self._lo
        bounds[1::2] = self._hi
        # Odd insertion position = strictly inside some [lo, hi).
        return np.searchsorted(bounds, addresses, side="right") % 2 == 1

    def touches(self, address: int) -> bool:
        """True if ``address`` lies inside or immediately after an interval.

        ``address == hi`` counts: a block-contiguous continuation of an
        interval (the next tile picking up exactly where the previous
        fetch stopped) is "the same region still being read".
        """
        pos = int(np.searchsorted(self._lo, address, side="right")) - 1
        return pos >= 0 and address <= self._hi[pos]

    def touches_batch(self, addresses: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`touches` over an address array."""
        addresses = np.asarray(addresses, dtype=np.int64)
        if not len(self._lo):
            return np.zeros(len(addresses), dtype=bool)
        pos = np.searchsorted(self._lo, addresses, side="right") - 1
        out = pos >= 0
        out[out] = addresses[out] <= self._hi[pos[out]]
        return out

    @property
    def blocks(self) -> int:
        """Exact count of distinct blocks folded in."""
        return int((self._hi - self._lo).sum()) // self._block

    @property
    def extent(self) -> tuple[int, int]:
        return int(self._lo[0]), int(self._hi[-1])

    def contiguous_extent(self) -> tuple[int, int]:
        """``(lo, hi)`` byte extent; raises unless one contiguous region."""
        lo, hi = self.extent
        if len(self._lo) != 1:
            raise TraceError(
                f"address set is not contiguous: {self.blocks} blocks "
                f"across {(hi - lo) // self._block} block slots"
            )
        return lo, hi

    def split(self, cut: int) -> tuple["_BlockIntervalSet", "_BlockIntervalSet"]:
        """Partition into (< cut, >= cut) at a block-aligned boundary."""
        below = _BlockIntervalSet(self._block)
        above = _BlockIntervalSet(self._block)
        bm = self._lo < cut
        below._lo = self._lo[bm]
        below._hi = np.minimum(self._hi[bm], cut)
        am = self._hi > cut
        above._lo = np.maximum(self._lo[am], cut)
        above._hi = self._hi[am]
        return below, above


class StreamingTraceAnalyzer:
    """Folds trace spans into a :class:`TraceAnalysis` in O(chunk) memory.

    Implements the trace-sink protocol, so it can be handed straight to
    :meth:`repro.device.DeviceSession.observe_structure` as ``sink`` —
    the analysis then runs *while the device executes* and no trace is
    ever materialised.  Constructor arguments are exactly what the
    adversary knows before the run (they feed the inputs and read the
    device datasheet); wall-clock duration and the class count arrive
    with the observation at :meth:`finish`.

    The result is the same for any chunking and bit-identical to
    :func:`repro.reference.decode_reference` on the materialised trace
    (asserted in tests): per-layer state is the OFM / unattributed-read
    interval sets, per-source hit flags against finalized write ranges,
    and two transaction counters — all independent of trace length.
    Chunks are deduplicated with the sort-based kernel and reads are
    attributed to producing layers through one ``searchsorted`` over
    the finalized write ranges.
    """

    def __init__(
        self,
        input_shape: tuple[int, int, int],
        element_bytes: int,
        block_bytes: int,
        dataflow: str = "output-stationary",
    ) -> None:
        from repro.accel.dataflow import resolve_dataflow

        self.input_shape = tuple(input_shape)
        self.element_bytes = element_bytes
        self.block_bytes = block_bytes
        self.dataflow = resolve_dataflow(dataflow).name
        # The write-at-end protocol rule is exact (and O(1)) for the
        # output-stationary schedule; dataflows that interleave write
        # bursts need the address-aware tracker.
        self._tracker: BoundaryTracker | DataflowBoundaryTracker
        if self.dataflow == "output-stationary":
            self._tracker = BoundaryTracker()
        else:
            self._tracker = DataflowBoundaryTracker(block_bytes)
        self._write_ranges: list[tuple[int, int]] = []
        # Sorted view of the finalized write ranges for one-searchsorted
        # read attribution; None while ranges overlap (never on real
        # traces), which falls back to the per-source loop.
        self._src_index: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
        self._layers: list[LayerObservation] = []
        self._finished = False
        self._layer_start_cycle = 0
        self._reset_layer()

    def _reset_layer(self) -> None:
        self._ofm = _BlockIntervalSet(self.block_bytes)
        self._unattributed = _BlockIntervalSet(self.block_bytes)
        self._source_hit = [False] * len(self._write_ranges)
        self._reads = 0
        self._writes = 0

    # -- sink protocol ----------------------------------------------------
    def emit(self, span) -> None:
        self.feed(span.cycles, span.addresses, span.is_write)

    def close(self) -> None:
        pass

    # -- streaming --------------------------------------------------------
    @property
    def num_events(self) -> int:
        return self._tracker.num_events

    @property
    def boundaries(self) -> list[int]:
        """Layer boundaries detected so far (protocol rule)."""
        return self._tracker.boundaries

    def feed(
        self,
        cycles: np.ndarray,
        addresses: np.ndarray,
        is_write: np.ndarray,
    ) -> None:
        """Fold one event chunk (a span, or a whole trace) in."""
        if self._finished:
            raise TraceError("analyzer already finished")
        cycles = np.asarray(cycles, dtype=np.int64)
        addresses = np.asarray(addresses, dtype=np.int64)
        is_write = np.asarray(is_write, dtype=bool)
        n = len(addresses)
        if len(cycles) != n or len(is_write) != n:
            raise TraceError("chunk arrays have mismatched lengths")
        if n == 0:
            return
        if self._tracker.num_events == 0:
            self._layer_start_cycle = int(cycles[0])
        base = self._tracker.num_events
        prev = 0
        if isinstance(self._tracker, BoundaryTracker):
            found = self._tracker.feed(is_write)
        else:
            found = self._tracker.feed(addresses, is_write)
        for b in found:
            local = b - base
            self._consume(addresses[prev:local], is_write[prev:local])
            self._finalize_layer(end_cycle=int(cycles[local]))
            self._layer_start_cycle = int(cycles[local])
            prev = local
        self._consume(addresses[prev:], is_write[prev:])

    def _consume(self, addresses: np.ndarray, is_write: np.ndarray) -> None:
        """Accumulate events that all belong to the current layer."""
        if len(addresses) == 0:
            return
        write_addrs = addresses[is_write]
        read_addrs = addresses[~is_write]
        self._writes += len(write_addrs)
        self._reads += len(read_addrs)
        if len(write_addrs):
            self._ofm.add(sorted_unique(write_addrs))
        if not len(read_addrs):
            return
        if self._src_index is None and self._write_ranges:
            # Overlapping write ranges: a read may belong to several
            # sources at once, which only the mask loop expresses.
            unattributed = np.ones(len(read_addrs), dtype=bool)
            for src, (w_lo, w_hi) in enumerate(self._write_ranges):
                mask = (read_addrs >= w_lo) & (read_addrs < w_hi)
                if mask.any():
                    self._source_hit[src] = True
                    unattributed &= ~mask
            rest = read_addrs[unattributed]
        elif self._write_ranges:
            lo, hi, src_ids = self._src_index
            pos = np.searchsorted(lo, read_addrs, side="right") - 1
            hit = pos >= 0
            hit[hit] = read_addrs[hit] < hi[pos[hit]]
            if hit.any():
                for src in sorted_unique(src_ids[pos[hit]]).tolist():
                    self._source_hit[src] = True
            rest = read_addrs[~hit]
        else:
            rest = read_addrs
        if len(rest):
            self._unattributed.add(sorted_unique(rest))

    def _finalize_layer(self, end_cycle: int) -> None:
        li = len(self._layers)
        if not self._ofm:
            raise TraceError(f"layer {li} wrote no OFM")
        ofm_lo, ofm_hi = self._ofm.contiguous_extent()
        size_ofm = SizeRange.from_byte_extent(
            ofm_hi - ofm_lo, self.element_bytes, self.block_bytes
        )

        sources = [
            src
            for src in range(len(self._write_ranges))
            if self._source_hit[src]
        ]
        ifm_sizes = [
            SizeRange.from_byte_extent(
                self._write_ranges[src][1] - self._write_ranges[src][0],
                self.element_bytes,
                self.block_bytes,
            )
            for src in sources
        ]
        remaining = self._unattributed
        if li == 0 and remaining:
            c, h, w = self.input_shape
            input_elements = c * h * w
            input_bytes = (
                -(-input_elements * self.element_bytes // self.block_bytes)
                * self.block_bytes
            )
            base = remaining.extent[0]
            ifm_part, remaining = remaining.split(base + input_bytes)
            if ifm_part:
                sources.insert(0, INPUT_SOURCE)
                ifm_sizes.insert(
                    0, SizeRange(lo=input_elements, hi=input_elements)
                )

        if remaining:
            f_lo, f_hi = remaining.contiguous_extent()
            size_fltr: SizeRange | None = SizeRange.from_byte_extent(
                f_hi - f_lo, self.element_bytes, self.block_bytes
            )
            kind = "compute"
        else:
            size_fltr = None
            kind = "merge"

        self._layers.append(
            LayerObservation(
                index=li,
                kind=kind,
                sources=tuple(sources),
                size_ifm_per_source=tuple(ifm_sizes),
                size_ofm=size_ofm,
                size_fltr=size_fltr,
                duration=max(1, end_cycle - self._layer_start_cycle),
                read_transactions=self._reads,
                write_transactions=self._writes,
            )
        )
        self._write_ranges.append((ofm_lo, ofm_hi))
        self._rebuild_src_index()
        self._reset_layer()

    def _rebuild_src_index(self) -> None:
        lo = np.array([r[0] for r in self._write_ranges], dtype=np.int64)
        hi = np.array([r[1] for r in self._write_ranges], dtype=np.int64)
        src = np.arange(len(lo), dtype=np.int64)
        order = np.argsort(lo, kind="stable")
        lo, hi, src = lo[order], hi[order], src[order]
        self._src_index = (
            None if bool(np.any(lo[1:] < hi[:-1])) else (lo, hi, src)
        )

    def finish(self, obs: StructureObservation) -> TraceAnalysis:
        """Finalise the last layer and assemble the analysis.

        ``obs`` supplies what only the completed run knows: the
        wall-clock duration (which closes the final layer's window — it
        covers the OFM write-back drain the adversary observes) and the
        class count read off the host API.
        """
        if self._finished:
            raise TraceError("analyzer already finished")
        if self._tracker.num_events == 0:
            raise TraceError("empty trace")
        if (
            tuple(obs.input_shape) != self.input_shape
            or obs.element_bytes != self.element_bytes
            or obs.block_bytes != self.block_bytes
        ):
            raise TraceError(
                "observation geometry disagrees with the analyzer's "
                "construction parameters"
            )
        self._finalize_layer(end_cycle=obs.total_cycles)
        self._finished = True
        return TraceAnalysis(
            layers=tuple(self._layers),
            input_shape=self.input_shape,  # type: ignore[arg-type]
            num_classes=obs.num_classes,
            element_bytes=self.element_bytes,
            block_bytes=self.block_bytes,
        )


def analyse_trace(
    obs: StructureObservation, dataflow: str = "output-stationary"
) -> TraceAnalysis:
    """:class:`StreamingTraceAnalyzer` over a materialised observation."""
    if obs.trace is None:
        raise TraceError(
            "observation carries no materialised trace; stream it into a "
            "StreamingTraceAnalyzer instead"
        )
    analyzer = StreamingTraceAnalyzer(
        obs.input_shape, obs.element_bytes, obs.block_bytes, dataflow
    )
    analyzer.feed(obs.trace.cycles, obs.trace.addresses, obs.trace.is_write)
    return analyzer.finish(obs)


def average_analyses(analyses: list[TraceAnalysis]) -> TraceAnalysis:
    """Combine repeated observations of the same device.

    Addresses and sizes are deterministic across runs, but real devices
    show run-to-run timing noise.  Contention noise is one-sided (it
    only delays), so the adversary's standard filter is the *minimum*
    per-layer duration over several inferences — it converges to the
    deterministic execution time.  All runs must agree on the structural
    facts — a mismatch means the traces came from different devices.
    """
    if not analyses:
        raise TraceError("no analyses to average")
    first = analyses[0]
    for other in analyses[1:]:
        if other.num_layers != first.num_layers:
            raise TraceError("runs disagree on the number of layers")
        for a, b in zip(first.layers, other.layers):
            if (a.sources, a.size_ofm, a.size_fltr) != (
                b.sources, b.size_ofm, b.size_fltr,
            ):
                raise TraceError(
                    f"runs disagree on layer {a.index}'s structural facts"
                )
    layers = []
    for idx in range(first.num_layers):
        obs = [a.layers[idx] for a in analyses]
        base = obs[0]
        layers.append(
            LayerObservation(
                index=base.index,
                kind=base.kind,
                sources=base.sources,
                size_ifm_per_source=base.size_ifm_per_source,
                size_ofm=base.size_ofm,
                size_fltr=base.size_fltr,
                duration=int(min(o.duration for o in obs)),
                read_transactions=base.read_transactions,
                write_transactions=base.write_transactions,
            )
        )
    return TraceAnalysis(
        layers=tuple(layers),
        input_shape=first.input_shape,
        num_classes=first.num_classes,
        element_bytes=first.element_bytes,
        block_bytes=first.block_bytes,
    )


# -- checkpoint serialisation ------------------------------------------------
# TraceAnalysis is the structure attack's per-run checkpoint unit: every
# field is a plain int/str/tuple, so one analysis round-trips through
# JSON exactly.  The campaign layer persists one dict per observation
# run and a resumed attack averages the restored analyses bit for bit.


def analysis_to_dict(analysis: TraceAnalysis) -> dict:
    """One analysis as a JSON-serialisable dict (exact round trip)."""
    return {
        "layers": [
            {
                "index": layer.index,
                "kind": layer.kind,
                "sources": list(layer.sources),
                "size_ifm_per_source": [
                    [r.lo, r.hi] for r in layer.size_ifm_per_source
                ],
                "size_ofm": [layer.size_ofm.lo, layer.size_ofm.hi],
                "size_fltr": (
                    None
                    if layer.size_fltr is None
                    else [layer.size_fltr.lo, layer.size_fltr.hi]
                ),
                "duration": layer.duration,
                "read_transactions": layer.read_transactions,
                "write_transactions": layer.write_transactions,
            }
            for layer in analysis.layers
        ],
        "input_shape": list(analysis.input_shape),
        "num_classes": analysis.num_classes,
        "element_bytes": analysis.element_bytes,
        "block_bytes": analysis.block_bytes,
    }


def analysis_from_dict(data: dict) -> TraceAnalysis:
    """Inverse of :func:`analysis_to_dict`."""
    layers = tuple(
        LayerObservation(
            index=int(layer["index"]),
            kind=str(layer["kind"]),
            sources=tuple(int(s) for s in layer["sources"]),
            size_ifm_per_source=tuple(
                SizeRange(int(lo), int(hi))
                for lo, hi in layer["size_ifm_per_source"]
            ),
            size_ofm=SizeRange(*[int(v) for v in layer["size_ofm"]]),
            size_fltr=(
                None
                if layer["size_fltr"] is None
                else SizeRange(*[int(v) for v in layer["size_fltr"]])
            ),
            duration=int(layer["duration"]),
            read_transactions=int(layer["read_transactions"]),
            write_transactions=int(layer["write_transactions"]),
        )
        for layer in data["layers"]
    )
    return TraceAnalysis(
        layers=layers,
        input_shape=tuple(int(v) for v in data["input_shape"]),
        num_classes=int(data["num_classes"]),
        element_bytes=int(data["element_bytes"]),
        block_bytes=int(data["block_bytes"]),
    )
