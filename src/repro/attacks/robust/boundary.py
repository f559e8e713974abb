"""Consensus boundary detection for noisy trace streams.

The paper's Section 3.1 rule — a layer starts at the first read of an
address written since the previous boundary — is exact on a perfect
tap but brittle on a real one.  Under a lossy, latency-reordering,
granularity-truncated channel two artefacts appear:

* a *delayed OFM write* delivered amid the next layer's reads forges a
  RAW edge mid-layer (the naive rule commits a false boundary on a
  single event);
* *address truncation* aliases neighbouring regions, adding spurious
  last-write entries.

Both artefacts are thin: they contribute RAW reads on a handful of
distinct addresses.  A genuine layer start is thick — the new layer
immediately streams its whole IFM, hundreds of distinct freshly
written blocks.  :class:`RobustRawBoundaryTracker` therefore commits a
boundary only after a *candidate* RAW read is corroborated by
``min_support`` distinct RAW addresses within an ``expiry`` window
(hysteresis), and :func:`consensus_boundaries` stacks several
observation runs — each with independent channel noise — keeping only
boundaries seen by a quorum of runs.  :func:`boundary_f1` scores a
recovered boundary list against ground truth in cycle space (event
indices shift under drops and duplication; cycle stamps survive).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.attacks.structure.decode import (
    LastWriterIndex,
    previous_write_index,
)
from repro.errors import ConfigError

__all__ = [
    "RobustRawBoundaryTracker",
    "consensus_boundaries",
    "boundary_f1",
    "BoundaryScore",
]


class RobustRawBoundaryTracker:
    """Streaming RAW boundary detector with support-based hysteresis.

    Implements the trace-sink protocol, so it can be handed straight to
    :meth:`repro.device.DeviceSession.observe_structure` as ``sink``.

    Args:
        min_support: distinct RAW-read addresses required before a
            candidate boundary commits.  1, with the default zero
            refractories, is the naive rule (see below).
        expiry: events a candidate may wait for support before being
            discarded as a channel artefact.
        refractory: *cycles* after a committed boundary during which
            new candidates are ignored.  Channel latency makes a
            boundary echo — late (or duplicated) events of the finished
            layer delivered just after the transition — so a candidate
            arriving within the window cannot be trusted as a fresh
            layer start.  The natural setting is the channel's
            :attr:`~repro.channel.ChannelModel.latency_window`.  A
            layer shorter than the window is unresolvable by any
            estimator on that channel; the refractory makes that limit
            explicit instead of emitting echo boundaries.
        producer_refractory: *cycles* after a committed boundary within
            which writes do not qualify as RAW producers (default: same
            as ``refractory``).  This guards against the echo's second
            face: a late write of the finished layer's OFM whose
            address the new layer re-reads much later (tiled conv
            re-fetches IFM rows), forging RAW edges arbitrarily far
            downstream.  It presumes writes delivered near a committed
            boundary belong to the *old* layer — true for an
            output-stationary victim, which drains its OFM in one
            stage-end burst far from its own stage start, but false
            for weight- and row-stationary schedules, which stream
            OFM bursts from the very start of each stage: there the
            producing writes of the *next* genuine boundary can land
            within the window of the current one, and this filter
            would eat them.  Pass ``0`` for such dataflows and let
            ``min_support`` plus cross-run consensus reject forged
            edges instead.

    ``RobustRawBoundaryTracker(min_support=1)`` is the paper's naive
    rule exactly: a boundary is a read of an address written since the
    previous boundary.  A one-address candidate commits on the spot, so
    ``expiry`` never acts, and both refractory tests compare a cycle
    against the last commit's cycle: a read after the boundary, or a
    write at or after it, is never stamped earlier because delivered
    cycles never decrease (:class:`~repro.accel.trace.MemoryTrace`
    validates this; :class:`~repro.channel.ChannelSink` guarantees it
    for noisy streams).

    Candidate RAW reads are processed in segments — one batched pass
    per candidacy window instead of one Python iteration per event —
    and the last-write map is carried as a
    :class:`~repro.attacks.structure.decode.LastWriterIndex`.
    Committed boundaries and their cycles are identical for any
    chunking, and to :func:`repro.reference.robust_boundaries_reference`.
    """

    def __init__(
        self,
        min_support: int = 3,
        expiry: int = 4096,
        refractory: int = 0,
        producer_refractory: int | None = None,
    ) -> None:
        if min_support < 1:
            raise ConfigError(f"min_support must be >= 1, got {min_support}")
        if expiry < min_support:
            raise ConfigError(
                f"expiry ({expiry}) must allow min_support ({min_support}) "
                f"events to accrue"
            )
        if refractory < 0:
            raise ConfigError(f"refractory must be >= 0, got {refractory}")
        if producer_refractory is None:
            producer_refractory = refractory
        if producer_refractory < 0:
            raise ConfigError(
                f"producer_refractory must be >= 0, got {producer_refractory}"
            )
        self.min_support = min_support
        self.expiry = expiry
        self.refractory = refractory
        self.producer_refractory = producer_refractory
        self._n = 0
        self._start = 0
        self._last_commit_cycle = 0
        self._boundaries: list[int] = [0]
        self._boundary_cycles: list[int] = []
        # address -> (global index, delivered cycle) of its last write
        self._index = LastWriterIndex()
        self._cand_index: int | None = None
        self._cand_cycle = 0
        self._cand_support: set[int] = set()

    # -- results -----------------------------------------------------------
    @property
    def num_events(self) -> int:
        return self._n

    @property
    def boundaries(self) -> list[int]:
        """Committed boundary event indices (0 is always a boundary)."""
        return list(self._boundaries)

    @property
    def boundary_cycles(self) -> list[int]:
        """Cycle stamps of the committed boundaries, same order."""
        return list(self._boundary_cycles)

    # -- sink protocol -----------------------------------------------------
    def emit(self, span) -> None:
        self.feed(span.cycles, span.addresses, span.is_write)

    def close(self) -> None:
        pass

    # -- streaming ---------------------------------------------------------
    def feed(
        self,
        cycles: np.ndarray,
        addresses: np.ndarray,
        is_write: np.ndarray,
    ) -> list[int]:
        """Fold one event chunk; returns boundaries committed in it."""
        addresses = np.asarray(addresses, dtype=np.int64)
        is_write = np.asarray(is_write, dtype=bool)
        cycles = np.asarray(cycles, dtype=np.int64)
        n = len(addresses)
        if n == 0:
            return []
        base = self._n
        if base == 0:
            self._boundary_cycles.append(int(cycles[0]))
            self._last_commit_cycle = int(cycles[0])
        # Previous-write indices and cycles: local edges vectorised,
        # cross-chunk edges via the carried address→last-write map.
        local_prev = previous_write_index(addresses, is_write)
        prev = np.where(local_prev >= 0, base + local_prev, np.int64(-1))
        prev_cyc = np.where(
            local_prev >= 0, cycles[local_prev], np.int64(-1)
        )
        carried_needed = local_prev < 0
        if carried_needed.any():
            g, cy = self._index.lookup(addresses[carried_needed])
            prev[carried_needed] = g
            prev_cyc[carried_needed] = cy

        cand_local = np.flatnonzero((~is_write) & (prev >= 0))
        new = self._scan_candidates(
            cand_local, base, cycles, addresses, prev, prev_cyc
        )

        w = np.flatnonzero(is_write)
        if len(w):
            self._index.update(addresses[w], base + w, cycles[w])

        self._n += n
        return new

    def _scan_candidates(
        self, cand_local, base, cycles, addresses, prev, prev_cyc
    ) -> list[int]:
        """Segmented vectorised hysteresis.

        A per-event loop's state only changes character at *commits*
        (which move the RAW window and the refractory origin) and at
        candidacy expiries; between those points every decision is a
        pure function of per-event arrays.  So: qualify all candidates
        for the current (start, last-commit) state at once, locate the
        candidacy window with a ``searchsorted`` on the expiry horizon,
        and find the committing event — the first at which the running
        count of *distinct* supporting addresses reaches
        ``min_support`` — with one cumulative sum.  The outer Python
        loop advances once per commit or expiry, not once per event.
        """
        new: list[int] = []
        if not len(cand_local):
            return new
        g = base + cand_local
        pv = prev[cand_local]
        pc = prev_cyc[cand_local]
        cy = cycles[cand_local]
        ad = addresses[cand_local]
        ncand = len(cand_local)
        pos = 0
        qual = openable = None
        qpos = 0
        while pos < ncand:
            if qual is None:
                qual = (pv[pos:] >= self._start) & (
                    pc[pos:]
                    >= self._last_commit_cycle + self.producer_refractory
                )
                openable = qual & (
                    cy[pos:] >= self._last_commit_cycle + self.refractory
                )
                qpos = pos
            if self._cand_index is None:
                rel = np.flatnonzero(openable[pos - qpos :])
                if not len(rel):
                    break
                j = pos + int(rel[0])
                self._cand_index = int(g[j])
                self._cand_cycle = int(cy[j])
                self._cand_support = {int(ad[j])}
                pos = j + 1
                if len(self._cand_support) >= self.min_support:
                    new.append(self._commit())
                    qual = None
                    continue
            # Candidacy window: candidate events up to the expiry horizon.
            wend = pos + int(
                np.searchsorted(
                    g[pos:], self._cand_index + self.expiry, side="right"
                )
            )
            qw = np.flatnonzero(qual[pos - qpos : wend - qpos]) + pos
            if len(qw):
                adq = ad[qw]
                known = np.zeros(len(adq), dtype=bool)
                for s in self._cand_support:
                    known |= adq == s
                order = np.argsort(adq, kind="stable")
                first_sorted = np.empty(len(adq), dtype=bool)
                first_sorted[0] = True
                srt = adq[order]
                np.not_equal(srt[1:], srt[:-1], out=first_sorted[1:])
                first_occ = np.zeros(len(adq), dtype=bool)
                first_occ[order] = first_sorted
                fresh = first_occ & ~known
                support = len(self._cand_support) + np.cumsum(fresh)
                hits = np.flatnonzero(support >= self.min_support)
                if len(hits):
                    new.append(self._commit())
                    qual = None
                    pos = int(qw[hits[0]]) + 1
                    continue
                self._cand_support.update(int(a) for a in adq[fresh])
            if wend < ncand:
                # Support never arrived inside the window: expire, and
                # reconsider the expiring event itself as a fresh start.
                self._cand_index = None
                self._cand_support = set()
                pos = wend
            else:
                pos = ncand  # window extends past this chunk: carry on
        return new

    def _commit(self) -> int:
        committed = self._cand_index
        self._start = committed
        self._last_commit_cycle = self._cand_cycle
        self._boundaries.append(committed)
        self._boundary_cycles.append(self._cand_cycle)
        self._cand_index = None
        self._cand_support = set()
        return committed


def consensus_boundaries(
    runs: list[list[int]], quorum: int, tol: int
) -> list[int]:
    """Cross-run boundary consensus in cycle space.

    ``runs[r]`` is run ``r``'s boundary cycle list.  Boundaries within
    ``tol`` cycles of each other are clustered; a cluster supported by
    at least ``quorum`` distinct runs contributes its median cycle.
    Single-run artefacts (a forged RAW edge is a product of one run's
    noise draw) fail the quorum and vanish.

    One sort-and-sweep pass: boundaries are stamped with their run,
    sorted once by cycle, split into clusters where the sorted gap
    exceeds ``tol``, and every cluster's distinct-run count and median
    fall out of segment reductions — no per-cluster rescans.
    """
    if quorum < 1:
        raise ConfigError(f"quorum must be >= 1, got {quorum}")
    if tol < 0:
        raise ConfigError(f"tol must be >= 0, got {tol}")
    cycles = np.array(
        [c for run in runs for c in run], dtype=np.int64
    )
    if not len(cycles):
        return []
    run_ids = np.repeat(
        np.arange(len(runs), dtype=np.int64),
        [len(run) for run in runs],
    )
    order = np.argsort(cycles, kind="stable")
    cycles = cycles[order]
    run_ids = run_ids[order]
    cluster_id = np.zeros(len(cycles), dtype=np.int64)
    np.cumsum(np.diff(cycles) > tol, out=cluster_id[1:])
    starts = np.concatenate(
        ([0], np.flatnonzero(np.diff(cluster_id)) + 1)
    )
    ends = np.append(starts[1:], len(cycles))
    # Distinct runs per cluster: first occurrence of each (cluster, run)
    # pair under a secondary sort by run.
    pair_order = np.lexsort((run_ids, cluster_id))
    pc, pr = cluster_id[pair_order], run_ids[pair_order]
    first = np.empty(len(pc), dtype=bool)
    first[0] = True
    first[1:] = (pc[1:] != pc[:-1]) | (pr[1:] != pr[:-1])
    support = np.bincount(pc[first], minlength=len(starts))
    # Median per cluster from the already-sorted cycles; even-sized
    # clusters truncate the midpoint average like ``int(np.median(...))``.
    size = ends - starts
    mid_hi = cycles[starts + size // 2]
    mid_lo = cycles[starts + (size - 1) // 2]
    medians = (mid_lo + mid_hi) // 2
    return [int(m) for m in medians[support >= quorum]]


@dataclass(frozen=True)
class BoundaryScore:
    """Precision/recall of recovered boundaries against ground truth."""

    matched: int
    predicted: int
    truth: int

    @property
    def precision(self) -> float:
        return self.matched / self.predicted if self.predicted else 0.0

    @property
    def recall(self) -> float:
        return self.matched / self.truth if self.truth else 0.0

    @property
    def f1(self) -> float:
        p, r = self.precision, self.recall
        return 2.0 * p * r / (p + r) if p + r else 0.0


def boundary_f1(
    predicted: list[int], truth: list[int], tol: int
) -> BoundaryScore:
    """Greedy one-to-one matching of boundary cycles within ``tol``."""
    pred = sorted(predicted)
    true = sorted(truth)
    matched = 0
    j = 0
    for p in pred:
        while j < len(true) and true[j] < p - tol:
            j += 1
        if j < len(true) and abs(true[j] - p) <= tol:
            matched += 1
            j += 1
    return BoundaryScore(
        matched=matched, predicted=len(pred), truth=len(true)
    )
