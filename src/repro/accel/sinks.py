"""Trace sinks: streaming consumers of simulator event spans.

The simulator pushes :class:`~repro.accel.trace.TraceSpan` chunks into a
:class:`~repro.accel.trace.TraceSink` as stages execute, so trace memory
is bounded by what the chosen sink retains rather than by trace length:

* :class:`MaterializeSink` keeps every span and concatenates them into a
  :class:`~repro.accel.trace.MemoryTrace` — bit-identical to the
  pre-streaming materialised trace, for consumers that genuinely need
  random access (ORAM defence transforms, trace export).
* :class:`SpoolSink` holds at most ``budget_bytes`` of spans in memory
  and spills the rest to chunked ``.npz`` files, readable back as a span
  iterator — full-fidelity traces of arbitrarily large victims without
  the O(trace) resident footprint.
* :class:`StatsSink` keeps O(1) running tallies (event / read / write /
  byte counts plus address and cycle extents) and retains no events —
  enough for ledger trace-byte accounting and for sizing a second-pass
  renderer.
* :class:`TeeSink` fans one span stream out to several sinks.
* :class:`CoalescingSink` re-batches a fragmented span stream into
  decode-sized chunks for the attack-side vectorised decoders.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from pathlib import Path
from typing import Iterator

import numpy as np

from repro.errors import TraceError
from repro.accel.trace import TRACE_EVENT_BYTES, MemoryTrace, TraceSpan

__all__ = [
    "CoalescingSink",
    "MaterializeSink",
    "SpoolSink",
    "StatsSink",
    "TeeSink",
    "reclaim_spool_dirs",
]


def _pid_alive(pid: int) -> bool:
    """Whether ``pid`` names a live process on this machine."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True  # alive, owned by someone else
    return True


def _owner_pid(name: str, prefix: str) -> int | None:
    """Parse the pid out of a ``<prefix><pid>-<suffix>`` resource name."""
    rest = name[len(prefix):]
    pid_part = rest.split("-", 1)[0]
    return int(pid_part) if pid_part.isdigit() else None


def reclaim_spool_dirs(base: str | None = None) -> list[str]:
    """Remove spool directories whose owning process died.

    Private :class:`SpoolSink` directories are created as
    ``repro-spool-<pid>-<random>`` under the system temp dir; an
    abnormal exit (SIGKILL takes no finally blocks) strands them with
    their ``.npz`` chunks.  Only directories whose embedded pid is no
    longer alive are swept.  Returns the paths removed.
    """
    root = Path(base or tempfile.gettempdir())
    removed: list[str] = []
    for path in sorted(root.glob("repro-spool-*")):
        if not path.is_dir():
            continue
        pid = _owner_pid(path.name, "repro-spool-")
        if pid is None or _pid_alive(pid):
            continue
        shutil.rmtree(path, ignore_errors=True)
        if not path.exists():
            removed.append(str(path))
    return removed


class MaterializeSink:
    """Retains every span; :meth:`trace` freezes them into a trace."""

    def __init__(self) -> None:
        self.spans: list[TraceSpan] = []
        self._num_events = 0

    def emit(self, span: TraceSpan) -> None:
        self.spans.append(span)
        self._num_events += len(span)

    def close(self) -> None:
        pass

    @property
    def num_events(self) -> int:
        return self._num_events

    def trace(self) -> MemoryTrace:
        """The materialised trace (always a private copy, safe to keep)."""
        spans = self.spans
        if not spans:
            return MemoryTrace(
                np.empty(0, np.int64), np.empty(0, np.int64), np.empty(0, bool)
            )
        # np.concatenate copies even a single chunk.
        return MemoryTrace(
            np.concatenate([s.cycles for s in spans]),
            np.concatenate([s.addresses for s in spans]),
            np.concatenate([s.is_write for s in spans]),
        )


class SpoolSink:
    """Spills spans to disk past a configurable in-memory budget.

    Spans accumulate in an in-memory buffer; once the buffered wire
    size exceeds ``budget_bytes`` they are flushed as one ``.npz``
    chunk file.  :meth:`spans` replays the whole stream (disk chunks
    first, then the still-buffered tail) in trace order, one chunk in
    memory at a time, and may be called repeatedly.

    Args:
        budget_bytes: buffered wire bytes that trigger a flush.
        directory: where chunk files go; a private temporary directory
            (removed by :meth:`cleanup`) by default.
    """

    def __init__(
        self,
        budget_bytes: int = 1 << 20,
        directory: str | None = None,
    ) -> None:
        if budget_bytes <= 0:
            raise TraceError(
                f"spool budget must be positive, got {budget_bytes}"
            )
        self.budget_bytes = budget_bytes
        self._own_dir = directory is None
        # Pid-stamped prefix: a crashed process leaves a directory that
        # names its dead owner, so reclaim_spool_dirs() can attribute
        # and sweep it without guessing.
        self._dir = Path(
            directory
            or tempfile.mkdtemp(prefix=f"repro-spool-{os.getpid()}-")
        )
        self._pending: list[TraceSpan] = []
        self._pending_bytes = 0
        self._chunks: list[Path] = []
        self._num_events = 0

    # -- sink protocol ----------------------------------------------------
    def emit(self, span: TraceSpan) -> None:
        self._pending.append(span)
        self._pending_bytes += span.nbytes
        self._num_events += len(span)
        if self._pending_bytes > self.budget_bytes:
            self._flush()

    def close(self) -> None:
        pass

    # -- spilling ---------------------------------------------------------
    def _flush(self) -> None:
        if not self._pending:
            return
        path = self._dir / f"chunk_{len(self._chunks):06d}.npz"
        np.savez(
            path,
            cycles=np.concatenate([s.cycles for s in self._pending]),
            addresses=np.concatenate([s.addresses for s in self._pending]),
            is_write=np.concatenate([s.is_write for s in self._pending]),
        )
        self._pending = []
        self._chunks.append(path)
        self._pending_bytes = 0

    # -- replay -----------------------------------------------------------
    def spans(self) -> Iterator[TraceSpan]:
        """Replay the stream in trace order, one chunk resident at a time."""
        for path in self._chunks:
            with np.load(path) as data:
                yield TraceSpan(
                    data["cycles"], data["addresses"], data["is_write"]
                )
        yield from self._pending

    def trace(self) -> MemoryTrace:
        """Materialise the whole spool (export paths only — O(trace))."""
        sink = MaterializeSink()
        for span in self.spans():
            sink.emit(span)
        return sink.trace()

    # -- bookkeeping ------------------------------------------------------
    @property
    def num_events(self) -> int:
        return self._num_events

    @property
    def num_chunks(self) -> int:
        """Chunk files spilled so far."""
        return len(self._chunks)

    @property
    def buffered_bytes(self) -> int:
        """Wire bytes currently held in memory."""
        return self._pending_bytes

    @property
    def spilled_bytes(self) -> int:
        """Wire bytes pushed out to disk so far."""
        return self._num_events * TRACE_EVENT_BYTES - self._pending_bytes

    def cleanup(self) -> None:
        """Delete spilled chunks (and the spool directory if private)."""
        for path in self._chunks:
            path.unlink(missing_ok=True)
        self._chunks = []
        self._pending = []
        self._pending_bytes = 0
        self._num_events = 0
        if self._own_dir:
            shutil.rmtree(self._dir, ignore_errors=True)

    def __enter__(self) -> "SpoolSink":
        return self

    def __exit__(self, *exc) -> None:
        self.cleanup()


class StatsSink:
    """O(1)-memory tallies over the span stream; retains no events.

    Feeds :class:`~repro.device.QueryLedger` trace-byte accounting and
    records the address/cycle extents a second-pass renderer needs.
    """

    def __init__(self) -> None:
        self.events = 0
        self.reads = 0
        self.writes = 0
        self._min_address: int | None = None
        self._max_address: int | None = None
        self._min_cycle: int | None = None
        self._max_cycle: int | None = None

    def emit(self, span: TraceSpan) -> None:
        n = len(span)
        if n == 0:
            return
        writes = int(np.count_nonzero(span.is_write))
        self.events += n
        self.writes += writes
        self.reads += n - writes
        lo_a = int(span.addresses.min())
        hi_a = int(span.addresses.max())
        self._min_address = (
            lo_a if self._min_address is None else min(self._min_address, lo_a)
        )
        self._max_address = (
            hi_a if self._max_address is None else max(self._max_address, hi_a)
        )
        # Spans arrive in trace order with non-decreasing cycles.
        if self._min_cycle is None:
            self._min_cycle = int(span.cycles[0])
        self._max_cycle = int(span.cycles[-1])

    def close(self) -> None:
        pass

    @property
    def bytes(self) -> int:
        """Total adversary-side wire bytes observed."""
        return self.events * TRACE_EVENT_BYTES

    def _extent(self, value: int | None) -> int:
        if value is None:
            raise TraceError("no events observed; extents are undefined")
        return value

    @property
    def min_address(self) -> int:
        return self._extent(self._min_address)

    @property
    def max_address(self) -> int:
        return self._extent(self._max_address)

    @property
    def min_cycle(self) -> int:
        return self._extent(self._min_cycle)

    @property
    def max_cycle(self) -> int:
        return self._extent(self._max_cycle)


class TeeSink:
    """Forwards every span (and the close signal) to several sinks."""

    def __init__(self, *sinks) -> None:
        if not sinks:
            raise TraceError("tee needs at least one downstream sink")
        self.sinks = sinks

    def emit(self, span: TraceSpan) -> None:
        for sink in self.sinks:
            sink.emit(span)

    def close(self) -> None:
        for sink in self.sinks:
            sink.close()


class CoalescingSink:
    """Re-batches a fragmented span stream into decode-sized chunks.

    The vectorised decode engine's throughput is a function of chunk
    size: a noisy channel's reorder buffer (and small victims' short
    stages) can deliver thousands of tiny spans whose per-chunk
    dispatch overhead dwarfs the kernels themselves.  This sink buffers
    incoming spans and forwards one concatenated span whenever at least
    ``target_events`` have accumulated; spans already at or above the
    target pass straight through.  Every downstream decoder is
    chunking-invariant (asserted in tests), so re-batching never
    changes a result — only how fast it arrives.

    Buffered events are flushed on ``close``.
    """

    def __init__(self, inner, target_events: int = 1 << 16) -> None:
        if target_events < 1:
            raise TraceError(
                f"target_events must be >= 1, got {target_events}"
            )
        self.inner = inner
        self.target_events = target_events
        self._spans: list[TraceSpan] = []
        self._buffered = 0

    @property
    def buffered_events(self) -> int:
        """Events currently held back, awaiting a full chunk."""
        return self._buffered

    def emit(self, span: TraceSpan) -> None:
        if len(span) == 0:
            return
        if not self._buffered and len(span) >= self.target_events:
            self.inner.emit(span)
            return
        self._spans.append(span)
        self._buffered += len(span)
        if self._buffered >= self.target_events:
            self.flush()

    def flush(self) -> None:
        """Forward everything held back, as one span."""
        if not self._buffered:
            return
        spans = self._spans
        if len(spans) == 1:
            out = spans[0]
        else:
            out = TraceSpan(
                np.concatenate([s.cycles for s in spans]),
                np.concatenate([s.addresses for s in spans]),
                np.concatenate([s.is_write for s in spans]),
            )
        self._spans = []
        self._buffered = 0
        self.inner.emit(out)

    def close(self) -> None:
        self.flush()
        self.inner.close()
