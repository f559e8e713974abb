"""Off-chip memory trace: what the adversary records.

Each trace event is ``(cycle, address, is_write)`` — exactly the
information the paper's threat model exposes (Figure 2: the adversary
observes "the address and the type (read or write) for each off-chip
memory access", plus wall-clock timing).  Values are encrypted and never
appear here.

Traces can run to millions of events (AlexNet's FC weights alone are
~2M block reads), so events travel as vectorised :class:`TraceSpan`
chunks.  Producers push spans into a :class:`TraceSink` as they execute;
:class:`MemoryTrace` is what a fully materialised trace looks like once
a :class:`~repro.accel.sinks.MaterializeSink` (or a builder without a
sink) has collected every span.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from repro.errors import TraceError

__all__ = [
    "MemoryTrace",
    "TraceSpan",
    "TraceSink",
    "TraceBuilder",
    "READ",
    "WRITE",
    "TRACE_EVENT_BYTES",
]

READ = False
WRITE = True

# Wire size of one trace event as the adversary records it: an int64
# cycle stamp, an int64 block address and a one-byte R/W flag.
TRACE_EVENT_BYTES = 17

# Stamped into saved ``.npz`` traces; bumped on layout changes so stale
# files fail loudly instead of deserialising garbage.
TRACE_FORMAT_VERSION = 1


@dataclass(frozen=True)
class TraceSpan:
    """One vectorised chunk of consecutive trace events.

    The streaming unit of the trace pipeline: producers emit spans into
    a :class:`TraceSink` instead of materialising whole traces.  The
    arrays are parallel, exactly like :class:`MemoryTrace` (of which a
    span is simply a contiguous piece).
    """

    cycles: np.ndarray
    addresses: np.ndarray
    is_write: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.cycles)
        if len(self.addresses) != n or len(self.is_write) != n:
            raise TraceError("span arrays have mismatched lengths")

    def __len__(self) -> int:
        return len(self.cycles)

    @property
    def nbytes(self) -> int:
        """Adversary-side wire size of this span."""
        return len(self) * TRACE_EVENT_BYTES


@runtime_checkable
class TraceSink(Protocol):
    """Streaming consumer of trace spans.

    ``emit`` receives each span in trace order; ``close`` marks the end
    of the stream.
    """

    def emit(self, span: TraceSpan) -> None: ...

    def close(self) -> None: ...


@dataclass(frozen=True)
class MemoryTrace:
    """An immutable sequence of off-chip memory transactions.

    Attributes:
        cycles: monotonically non-decreasing issue cycles, int64.
        addresses: block-aligned byte addresses, int64.
        is_write: True for writes, False for reads.
    """

    cycles: np.ndarray
    addresses: np.ndarray
    is_write: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.cycles)
        if len(self.addresses) != n or len(self.is_write) != n:
            raise TraceError("trace arrays have mismatched lengths")
        if n and np.any(np.diff(self.cycles) < 0):
            raise TraceError("trace cycles must be non-decreasing")

    def __len__(self) -> int:
        return len(self.cycles)

    # -- queries ---------------------------------------------------------
    def reads(self) -> "MemoryTrace":
        return self.filter(~self.is_write)

    def writes(self) -> "MemoryTrace":
        return self.filter(self.is_write)

    def filter(self, mask: np.ndarray) -> "MemoryTrace":
        return MemoryTrace(
            self.cycles[mask], self.addresses[mask], self.is_write[mask]
        )

    def slice(self, start: int, stop: int) -> "MemoryTrace":
        """Events with index in [start, stop)."""
        return MemoryTrace(
            self.cycles[start:stop],
            self.addresses[start:stop],
            self.is_write[start:stop],
        )

    def in_address_range(self, lo: int, hi: int) -> "MemoryTrace":
        """Events touching [lo, hi)."""
        mask = (self.addresses >= lo) & (self.addresses < hi)
        return self.filter(mask)

    @property
    def duration(self) -> int:
        """Cycles spanned by the trace."""
        if len(self) == 0:
            return 0
        return int(self.cycles[-1] - self.cycles[0])

    def unique_addresses(self, writes_only: bool | None = None) -> np.ndarray:
        if writes_only is None:
            addrs = self.addresses
        else:
            addrs = self.addresses[self.is_write == writes_only]
        return np.unique(addrs)

    # -- persistence -------------------------------------------------------
    def save(self, path: str) -> None:
        np.savez_compressed(
            path,
            cycles=self.cycles,
            addresses=self.addresses,
            is_write=self.is_write,
            format_version=np.int64(TRACE_FORMAT_VERSION),
        )

    @staticmethod
    def load(path: str) -> "MemoryTrace":
        try:
            data = np.load(path)
        except (OSError, ValueError) as exc:
            raise TraceError(f"cannot read trace file {path!r}: {exc}") from exc
        with data:
            missing = {"cycles", "addresses", "is_write", "format_version"}
            missing -= set(data.files)
            if missing:
                raise TraceError(
                    f"{path!r} is not a memory-trace file: missing "
                    f"{sorted(missing)}"
                )
            version = int(data["format_version"])
            if version != TRACE_FORMAT_VERSION:
                raise TraceError(
                    f"{path!r} has trace format version {version}; this "
                    f"build reads version {TRACE_FORMAT_VERSION}"
                )
            return MemoryTrace(
                data["cycles"].astype(np.int64),
                data["addresses"].astype(np.int64),
                data["is_write"].astype(bool),
            )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"MemoryTrace({len(self)} events, {self.duration} cycles)"


class TraceBuilder:
    """Turns per-access address bursts into timed spans.

    Without a sink the builder accumulates spans internally and
    :meth:`build` freezes them into a :class:`MemoryTrace` — the
    materialize-in-place path.  With a sink, every :meth:`add_span`
    emits a :class:`TraceSpan` downstream and nothing is retained here;
    :meth:`build` is then a :class:`~repro.errors.TraceError` (the sink
    owns the events).
    """

    def __init__(self, sink: TraceSink | None = None) -> None:
        self._sink = sink
        self._cycles: list[np.ndarray] = []
        self._addresses: list[np.ndarray] = []
        self._is_write: list[np.ndarray] = []
        self._last_cycle = 0
        self._num_events = 0

    def add_span(
        self, start_cycle: int, addresses: np.ndarray, is_write: bool,
        cycles_per_access: int = 1,
    ) -> int:
        """Append one transaction per address starting at ``start_cycle``.

        Returns the cycle after the last appended transaction.
        """
        addresses = np.asarray(addresses, dtype=np.int64)
        n = len(addresses)
        if n == 0:
            return start_cycle
        if start_cycle < self._last_cycle:
            raise TraceError(
                f"span at cycle {start_cycle} precedes trace end "
                f"{self._last_cycle}"
            )
        cyc = start_cycle + np.arange(n, dtype=np.int64) * cycles_per_access
        flags = np.full(n, is_write, dtype=bool)
        if self._sink is not None:
            self._sink.emit(TraceSpan(cyc, addresses, flags))
        else:
            self._cycles.append(cyc)
            self._addresses.append(addresses)
            self._is_write.append(flags)
        self._num_events += n
        self._last_cycle = int(cyc[-1])
        return self._last_cycle + cycles_per_access

    def add_events(
        self, cycles: np.ndarray, addresses: np.ndarray, is_write: bool
    ) -> int:
        """Append a pre-timed burst of transactions (vectorised fast path).

        ``cycles`` must be non-decreasing and start no earlier than the
        trace end — the vectorised simulator builds whole-stage bursts
        whose per-tile cycle ramps satisfy this by construction, so only
        the boundary is checked here (the burst interior is producer
        contract, re-verified wherever a :class:`MemoryTrace` is
        materialised).  Returns the cycle of the last appended event.
        """
        cycles = np.asarray(cycles, dtype=np.int64)
        addresses = np.asarray(addresses, dtype=np.int64)
        n = len(cycles)
        if n == 0:
            return self._last_cycle
        if len(addresses) != n:
            raise TraceError("event burst arrays have mismatched lengths")
        if int(cycles[0]) < self._last_cycle:
            raise TraceError(
                f"burst at cycle {int(cycles[0])} precedes trace end "
                f"{self._last_cycle}"
            )
        flags = np.full(n, is_write, dtype=bool)
        if self._sink is not None:
            self._sink.emit(TraceSpan(cycles, addresses, flags))
        else:
            self._cycles.append(cycles)
            self._addresses.append(addresses)
            self._is_write.append(flags)
        self._num_events += n
        self._last_cycle = int(cycles[-1])
        return self._last_cycle

    @property
    def num_events(self) -> int:
        """Events appended so far (O(1); the simulator reads it per stage)."""
        return self._num_events

    def build(self) -> MemoryTrace:
        if self._sink is not None:
            raise TraceError(
                "builder is streaming to a sink; the sink owns the events"
            )
        if not self._cycles:
            return MemoryTrace(
                np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0, bool)
            )
        return MemoryTrace(
            np.concatenate(self._cycles),
            np.concatenate(self._addresses),
            np.concatenate(self._is_write),
        )
