"""PowerSink: the power probe as a composable streaming trace sink.

A :class:`PowerSink` is a :class:`~repro.accel.trace.TraceSink` that
accumulates the :class:`~repro.power.model.PowerModel` proxy while the
span stream flows through it, optionally forwarding every span (and
stage/close signal) to an ``inner`` sink — so it drops into any
existing streaming chain: directly on the simulator, inside a
``TeeSink``, downstream of a ``CoalescingSink``, or over a
``SpoolSink`` replay.

Determinism contract: the accumulated samples are a pure int64
function of the flattened event stream, so any re-chunking of the same
events produces a bit-identical :class:`~repro.power.model.PowerTrace`.
Measurement noise (``power_sigma`` / ``power_quantum`` on the session's
:class:`~repro.channel.ChannelModel`) is applied *once over the
finished per-bin array* at :meth:`close`, drawn from the channel's
dedicated ``"power"`` stream keyed by the run index — never per event
in arrival order, which would break chunking invariance — so replaying
a spooled stream through a fresh sink with the same channel and run
index observes the identical noisy trace (noise-once semantics).
"""

from __future__ import annotations

import numpy as np

from repro.accel.timing import TimingModel
from repro.accel.trace import TraceSink, TraceSpan
from repro.channel import ChannelModel
from repro.errors import TraceError
from repro.power.model import PowerModel, PowerTrace

__all__ = ["PowerSink"]


class PowerSink:
    """Streams spans into a per-cycle-bin power-proxy trace.

    Args:
        timing: the device's public timing model (MAC-activity cost).
        model: power-proxy coefficients (defaults apply).
        channel: measurement channel whose power-side noise distorts
            the finished trace; ``None`` (or an ideal channel) reads
            out the clean proxy.
        run_index: which noise stream this observation run draws.
        inner: optional downstream sink every span is forwarded to.
    """

    def __init__(
        self,
        timing: TimingModel,
        model: PowerModel | None = None,
        *,
        channel: ChannelModel | None = None,
        run_index: int = 0,
        inner: TraceSink | None = None,
    ) -> None:
        self.timing = timing
        self.model = model if model is not None else PowerModel()
        self.channel = channel
        self.run_index = int(run_index)
        self.inner = inner
        self.events = 0
        self._acc = np.zeros(0, dtype=np.int64)
        self._last_bin = -1
        self._last_addr = 0
        self._trace: PowerTrace | None = None

    # -- sink protocol -----------------------------------------------------
    def emit(self, span: TraceSpan) -> None:
        if self._trace is not None:
            raise TraceError("power sink already closed")
        if len(span):
            self._accumulate(span)
        if self.inner is not None:
            self.inner.emit(span)

    def close(self) -> None:
        if self._trace is None:
            samples = self._acc[: self._last_bin + 1]
            if self.channel is not None and self.channel.power_noisy:
                samples = self.channel.observe_power(samples, self.run_index)
            self._trace = PowerTrace(
                samples=np.ascontiguousarray(samples, dtype=np.int64),
                quantum=self.model.quantum,
            )
        if self.inner is not None:
            self.inner.close()

    # -- accumulation ------------------------------------------------------
    def _accumulate(self, span: TraceSpan) -> None:
        energy = self.model.event_energy(
            span.addresses, span.is_write, self._last_addr, self.timing
        )
        bins = np.asarray(span.cycles, dtype=np.int64) // self.model.quantum
        lo = int(bins[0])
        hi = int(bins[-1])
        self._ensure(hi + 1)
        # Cycles are non-decreasing within a span, so the bin range is
        # [lo, hi]; bincount over the offset bins is exact for int
        # weights of this magnitude (float64 sums are integral far
        # below 2**53).
        local = np.bincount(
            bins - lo, weights=energy.astype(np.float64), minlength=hi - lo + 1
        )
        self._acc[lo : hi + 1] += np.rint(local).astype(np.int64)
        self._last_bin = max(self._last_bin, hi)
        self._last_addr = int(span.addresses[-1])
        self.events += len(span)

    def _ensure(self, n: int) -> None:
        if n <= len(self._acc):
            return
        grown = np.zeros(max(n, 2 * len(self._acc)), dtype=np.int64)
        grown[: len(self._acc)] = self._acc
        self._acc = grown

    # -- result ------------------------------------------------------------
    def trace(self) -> PowerTrace:
        """The finished (noise-applied) power trace; requires close()."""
        if self._trace is None:
            raise TraceError("power sink not closed yet")
        return self._trace
