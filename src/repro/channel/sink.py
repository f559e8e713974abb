"""Trace-side channel distortion, as a composable span sink.

:class:`ChannelSink` sits between the device's span producer and any
downstream :class:`~repro.accel.trace.TraceSink` — an attacker's
streaming analyzer, a :class:`~repro.accel.sinks.SpoolSink`, a
:class:`~repro.accel.sinks.MaterializeSink` — and applies the trace
half of a :class:`~repro.channel.model.ChannelModel`:

* **event drop / duplication**: each event is independently lost with
  ``drop_rate`` and doubled with ``dup_rate`` (a snooper missing or
  re-latching bus beats);
* **address truncation**: addresses round down to the probe
  granularity, so neighbouring blocks alias when the probe is coarser
  than the DRAM block size;
* **delivery latency**: each event's timestamp gains a half-normal
  latency of scale ``cycle_sigma``, and events are *delivered in
  jittered-timestamp order* — latency does not merely blur cycles, it
  reorders nearby events, which is exactly what breaks naive
  read-after-write boundary detection (a late OFM write landing amid
  the next layer's reads forges a RAW edge).

Delivery uses a bounded reorder buffer: an event is released once the
producer's clock has advanced past its jittered stamp plus the latency
clip, so delivered cycles are provably non-decreasing and buffered
memory is O(events within the latency window), preserving the
streaming architecture's O(chunk) guarantee.

Noise is applied exactly once, on the way *in*: a ``SpoolSink`` placed
downstream records the distorted stream, and replaying it does not
re-sample noise (asserted in tests) — matching a real probe, where the
recording is noisy but the recording itself is stable.
"""

from __future__ import annotations

import numpy as np

from repro.accel.trace import TraceSink, TraceSpan
from repro.channel.model import ChannelModel

__all__ = ["ChannelSink"]


class ChannelSink:
    """Applies one :class:`ChannelModel`'s trace noise to a span stream.

    Args:
        inner: downstream sink receiving the distorted spans.
        model: the channel configuration; all randomness derives from
            its seed/spawn key (see :mod:`repro.channel.rng`).
        run_index: which observation run this is — each run gets its
            own noise stream, so repeated observations see independent
            noise (the consensus estimators depend on that).
    """

    def __init__(
        self, inner: TraceSink, model: ChannelModel, run_index: int = 0
    ) -> None:
        self.inner = inner
        self.model = model
        self._rng = model.run_rng("trace", run_index)
        self._lag = model.latency_window
        self._pending_c = np.empty(0, np.int64)
        self._pending_a = np.empty(0, np.int64)
        self._pending_w = np.empty(0, bool)
        self.events_in = 0
        self.events_out = 0
        self.dropped = 0
        self.duplicated = 0
        self._closed = False

    # -- sink protocol -----------------------------------------------------
    def emit(self, span: TraceSpan) -> None:
        n = len(span)
        if n == 0:
            return
        self.events_in += n
        m = self.model
        cyc = span.cycles.astype(np.int64, copy=False)
        addr = span.addresses
        isw = span.is_write
        if m.drop_rate > 0.0:
            keep = self._rng.random(n) >= m.drop_rate
            self.dropped += int(n - keep.sum())
            cyc, addr, isw = cyc[keep], addr[keep], isw[keep]
        if m.dup_rate > 0.0 and len(cyc):
            extra = self._rng.random(len(cyc)) < m.dup_rate
            self.duplicated += int(extra.sum())
            if extra.any():
                reps = 1 + extra.astype(np.int64)
                cyc = np.repeat(cyc, reps)
                addr = np.repeat(addr, reps)
                isw = np.repeat(isw, reps)
        if m.probe_granularity is not None:
            g = m.probe_granularity
            addr = (addr // g) * g
        if m.cycle_sigma > 0.0 and len(cyc):
            latency = np.abs(
                self._rng.normal(0.0, m.cycle_sigma, size=len(cyc))
            )
            latency = np.minimum(
                np.rint(latency).astype(np.int64), np.int64(self._lag)
            )
            cyc = cyc + latency
        if len(cyc):
            self._pending_c = np.concatenate([self._pending_c, cyc])
            self._pending_a = np.concatenate([self._pending_a, addr])
            self._pending_w = np.concatenate([self._pending_w, isw])
        # Everything whose jittered stamp the producer clock has safely
        # passed can be released: any future event carries an original
        # cycle >= this span's last, hence a jittered stamp above the
        # horizon — delivered cycles stay non-decreasing.
        self._deliver(int(span.cycles[-1]) - self._lag)

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        self._deliver(None)
        self.inner.close()

    # -- reorder buffer ----------------------------------------------------
    def _deliver(self, horizon: int | None) -> None:
        if len(self._pending_c) == 0:
            return
        if horizon is None:
            due = np.ones(len(self._pending_c), dtype=bool)
        else:
            due = self._pending_c <= horizon
        if not due.any():
            return
        order = np.argsort(self._pending_c[due], kind="stable")
        out = TraceSpan(
            self._pending_c[due][order],
            self._pending_a[due][order],
            self._pending_w[due][order],
        )
        held = ~due
        self._pending_c = self._pending_c[held]
        self._pending_a = self._pending_a[held]
        self._pending_w = self._pending_w[held]
        self.events_out += len(out)
        self.inner.emit(out)

    # -- bookkeeping -------------------------------------------------------
    @property
    def buffered_events(self) -> int:
        """Events currently held in the reorder buffer."""
        return len(self._pending_c)
