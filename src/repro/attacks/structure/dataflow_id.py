"""Dataflow identification from the memory-access signature.

Weerasena & Mishra (arXiv 2311.00579) observe that the off-chip access
pattern of a DNN accelerator is a fingerprint of its *dataflow* — the
loop order that decides what stays on chip.  Before decoding a trace the
attacker therefore classifies which schedule produced it, using two
statistics that need no knowledge of the network:

1. **What follows a write burst.**  An output-stationary accelerator
   writes each OFM once at stage end, so the first read after a write
   burst is the *next layer's IFM* — an address the trace has already
   written.  Weight- and row-stationary schedules interleave OFM bursts
   with the stage's remaining work and fetch weights first, so the read
   after a burst lands in a never-written region above the input image
   (``post_write_weight_frac`` high).
2. **Weight re-fetch rate.**  A row-stationary schedule keeps one row's
   partial sums on chip and re-streams every filter group per row, so
   filter blocks are re-read many times over (``weight_reread_frac``
   large).  A weight-stationary schedule pins each group and streams the
   IFM past it — filters are fetched essentially once.

Reads are split into *weight* (never written, above the input-image
region — the input's base is the running minimum read address, its size
is known to the adversary who feeds the device) and *feature-map*
(previously written) accesses; the input image itself counts as
neither.  The classification is deterministic on clean traces and
invariant to how the stream is chunked, so the identifier doubles as a
streaming trace sink for
:meth:`repro.device.DeviceSession.observe_structure`.

Decision rule (see DESIGN.md §12 for the signature table):

====================  ========================  =====================
dataflow              post_write_weight_frac    weight_reread_frac
====================  ========================  =====================
output-stationary     ~0 (reads prior OFM)      (not consulted)
weight-stationary     high (weights-first)      ~0 (groups pinned)
row-stationary        high (weights-first)      high (per-row refetch)
====================  ========================  =====================
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.accel.trace import MemoryTrace, TraceSpan
from repro.attacks.structure.decode import sorted_unique, sorted_unique_counts
from repro.attacks.structure.trace_analysis import _BlockIntervalSet
from repro.errors import TraceError

__all__ = ["DataflowSignature", "DataflowIdentifier", "identify_dataflow"]

# A post-write weight fraction at or below this is output-stationary
# (exactly 0.0 on clean traces; the margin tolerates channel noise).
_OS_FRAC_THRESHOLD = 0.5
# Weight-stationary re-reads only group-boundary blocks shared between
# adjacent filter groups — a few per mille; row-stationary re-reads
# whole filter regions once per output row.
_REREAD_THRESHOLD = 0.05


@dataclass(frozen=True)
class DataflowSignature:
    """The classification and the statistics it was decided on.

    Attributes:
        dataflow: identified dataflow name (a key of
            :data:`repro.accel.dataflow.DATAFLOWS`).
        post_write_weight_frac: fraction of write-burst → read
            transitions whose first read is a weight fetch.
        weight_reread_frac: repeated weight-block reads over total
            weight reads.
        write_runs: number of maximal write bursts in the trace.
        weight_reads: total reads classified as filter fetches.
        fmap_reads: total reads classified as feature-map fetches.
    """

    dataflow: str
    post_write_weight_frac: float
    weight_reread_frac: float
    write_runs: int
    weight_reads: int
    fmap_reads: int


class DataflowIdentifier:
    """Streaming classifier of the victim accelerator's dataflow.

    Feed attacker-observed event chunks (or use it directly as a trace
    sink — ``emit``/``close``), then call
    :meth:`finish` for the verdict.  State is O(address intervals).

    Args:
        input_shape: the ``(C, H, W)`` image geometry the adversary
            feeds the device (Table 1: input control is not needed,
            but the input's *size* is trivially known).
        element_bytes: public device parameter (data word size).
        block_bytes: public device parameter (DRAM transaction size).
    """

    def __init__(
        self,
        input_shape: tuple[int, int, int],
        element_bytes: int,
        block_bytes: int,
    ) -> None:
        if block_bytes <= 0 or element_bytes <= 0:
            raise TraceError("element/block sizes must be positive")
        c, h, w = input_shape
        self._input_bytes = -(-(c * h * w * element_bytes) // block_bytes) * block_bytes
        self._block = block_bytes
        self._written = _BlockIntervalSet(block_bytes)
        self._read_blocks = _BlockIntervalSet(block_bytes)
        self._min_addr: int | None = None
        self._post_write_first: list[int] = []
        self._last_flag: bool | None = None
        self.write_runs = 0
        self.weight_reads = 0
        self.weight_rereads = 0
        self.fmap_reads = 0

    # -- trace-sink protocol ----------------------------------------------
    def emit(self, span: TraceSpan) -> None:
        self.feed(span.addresses, span.is_write)

    def close(self) -> None:
        pass

    # -- streaming interface ----------------------------------------------
    def feed(self, addresses: np.ndarray, is_write: np.ndarray) -> None:
        """Fold one chunk of trace events into the running statistics.

        The verdict is chunking invariant: run transitions are carried
        in ``_last_flag``, re-reads are detected against the cumulative
        read set, and the deciding ``post_write_weight_frac`` is
        computed at :meth:`finish` against final state.  The raw
        weight/fmap counters can differ marginally across chunkings —
        the input-region bound is a running minimum, so reads issued
        before the first input fetch may classify conservatively — but
        never near the decision thresholds.
        """
        addresses = np.asarray(addresses, dtype=np.int64)
        is_write = np.asarray(is_write, dtype=bool)
        if len(addresses) == 0:
            return
        breaks = np.flatnonzero(np.diff(is_write)) + 1
        starts = np.concatenate(([0], breaks))
        ends = np.concatenate((breaks, [len(addresses)]))
        for s, e in zip(starts, ends):
            flag = bool(is_write[s])
            run = addresses[s:e]
            if flag:
                if self._last_flag is not True:
                    self.write_runs += 1
                self._written.add(sorted_unique(run))
            else:
                if self._last_flag is True:
                    self._post_write_first.append(int(run[0]))
                self._scan_read_run(run)
            self._last_flag = flag

    def _scan_read_run(self, run: np.ndarray) -> None:
        lo = int(run.min())
        self._min_addr = lo if self._min_addr is None else min(self._min_addr, lo)
        input_hi = self._min_addr + self._input_bytes
        uniq, counts = sorted_unique_counts(run)
        seen = self._read_blocks.contains(uniq)
        written = self._written.contains(uniq)
        weightish = ~written & (uniq >= input_hi)
        self.weight_reads += int(counts[weightish].sum())
        self.weight_rereads += int((counts[weightish] - 1 + seen[weightish]).sum())
        self.fmap_reads += int(counts[written].sum())
        self._read_blocks.add(uniq)

    # -- verdict ----------------------------------------------------------
    def signature(self) -> DataflowSignature:
        """Classify from everything fed so far."""
        if self._post_write_first:
            # Classify against the *final* write set and input extent —
            # weights are never written, so deferral loses nothing and
            # the input-region bound is at its most accurate.
            a = np.asarray(self._post_write_first, dtype=np.int64)
            written = self._written.contains(a)
            input_hi = (self._min_addr or 0) + self._input_bytes
            frac = float((~written & (a >= input_hi)).mean())
        else:
            frac = 0.0
        reread_frac = self.weight_rereads / max(1, self.weight_reads)
        if frac <= _OS_FRAC_THRESHOLD:
            name = "output-stationary"
        elif reread_frac > _REREAD_THRESHOLD:
            name = "row-stationary"
        else:
            name = "weight-stationary"
        return DataflowSignature(
            dataflow=name,
            post_write_weight_frac=frac,
            weight_reread_frac=reread_frac,
            write_runs=self.write_runs,
            weight_reads=self.weight_reads,
            fmap_reads=self.fmap_reads,
        )

    # Kept as the documented terminal call; ``signature`` is idempotent.
    finish = signature


def identify_dataflow(
    trace: MemoryTrace,
    input_shape: tuple[int, int, int],
    element_bytes: int,
    block_bytes: int,
) -> DataflowSignature:
    """:class:`DataflowIdentifier` over a fully materialised trace."""
    if len(trace) == 0:
        raise TraceError("cannot identify a dataflow from an empty trace")
    ident = DataflowIdentifier(input_shape, element_bytes, block_bytes)
    ident.feed(trace.addresses, trace.is_write)
    return ident.finish()
