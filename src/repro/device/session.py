"""Device sessions: the one sanctioned attacker/device boundary.

A :class:`DeviceSession` wraps a victim device (anything satisfying the
:class:`VictimDevice` protocol — in practice an
:class:`~repro.accel.simulator.AcceleratorSim`) and is the only handle
attacks are allowed to hold.  Table 1 of the paper still governs what
crosses the boundary; on top of that the session adds what the old
scattered per-attack handles never had:

* **query accounting** — every inference, channel query and trace byte
  is metered in a :class:`~repro.device.ledger.QueryLedger`, with hard
  budgets raising :class:`~repro.errors.QueryBudgetExceeded`;
* **memoisation** — an LRU keyed on ``(threshold, pixels, values)``
  serves repeated probes without re-running the device, with hit/miss
  counters surfaced in the ledger;
* **batched channels** — :meth:`DeviceSession.query_batch` pushes many
  sparse-input probes through the device's count oracle
  (:class:`~repro.accel.oracle.SparseStageOracle`) in one vectorised
  call.

Because the device is deterministic and the cache is keyed on the full
run description, the session path returns bit-identical counts to the
direct-oracle path — caching and batching change attack *cost*, never
attack *observations*.
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

import numpy as np

from repro.accel.oracle import Pixel, SparseStageOracle, StageOracle
from repro.accel.simulator import AcceleratorConfig, SimulationResult
from repro.accel.sinks import MaterializeSink, TeeSink
from repro.accel.timing import TimingModel
from repro.accel.trace import MemoryTrace, TraceSink, TraceSpan
from repro.channel import ChannelModel, ChannelSink
from repro.device.cache import QueryCache
from repro.device.ledger import QueryLedger
from repro.device.observation import StructureObservation
from repro.device.shared_cache import (
    SharedQueryCache,
    array_digest,
    content_key,
    device_fingerprint,
)
from repro.errors import ConfigError, ThreatModelViolation
from repro.nn.stages import StagedNetwork
from repro.power import PowerModel, PowerSink, PowerTrace

__all__ = ["VictimDevice", "DeviceSession"]


@runtime_checkable
class VictimDevice(Protocol):
    """What a session needs from a victim device.

    :class:`~repro.accel.simulator.AcceleratorSim` is the in-repo
    implementation; a remote device harness would satisfy the same
    protocol.
    """

    staged: StagedNetwork
    config: AcceleratorConfig

    def run(
        self, x: np.ndarray, sink: TraceSink | None = None
    ) -> SimulationResult: ...


def _pattern(pixels) -> tuple:
    """One probe's pixels as a tuple of ``(c, i, j)`` triples."""
    pattern = tuple(pixels)
    try:
        triples = all(len(px) == 3 for px in pattern)
    except TypeError:
        triples = False
    if not triples:
        raise ConfigError(
            "query_per_filter takes a list of probes: pixels[p] is one "
            f"probe's sequence of (c, i, j) pixels, got {pixels!r}"
        )
    return pattern


class _MeteredBoundary:
    """The session's wrapper around an attacker-supplied trace sink.

    Spans cross the boundary untouched (the access pattern is exactly
    what the threat model leaks) and are counted for ledger accounting.
    """

    def __init__(self, inner: TraceSink) -> None:
        self._inner = inner
        self.events = 0

    def emit(self, span: TraceSpan) -> None:
        self.events += len(span)
        self._inner.emit(span)

    def close(self) -> None:
        self._inner.close()


class DeviceSession:
    """An attacker's metered handle on one victim device.

    Args:
        device: the victim accelerator.
        stage_name: the conv stage the zero-pruning channel observes;
            defaults to the device's first stage (the paper attacks
            layer by layer from the input).
        max_queries: channel-query budget, ``None`` for unlimited.
        max_inferences: inference budget, ``None`` for unlimited.
        cache_size: LRU capacity for channel memoisation; ``None`` or
            ``0`` disables the cache.
        ledger: share an existing ledger (e.g. one account across the
            structure and weight phases of a clone); budgets on the
            shared ledger win over ``max_queries``/``max_inferences``.
        channel: the measurement channel every observation passes
            through; :meth:`ChannelModel.ideal` (the default) is the
            paper's perfect tap and leaves all paths bit-identical to
            a channel-less session.  With a noisy model, trace spans
            stream through a :class:`~repro.channel.ChannelSink` and
            counter replies are perturbed by
            :meth:`~repro.channel.ChannelModel.observe_counts`.
        shared_cache: fleet-wide reply store (see
            :mod:`repro.device.shared_cache`).
        fingerprint: ``device_fingerprint(device)`` when the caller
            already holds it (a fork, a campaign's victim memo);
            otherwise computed on first shared-cache use.
    """

    # The count oracle, built on the first channel query in each process
    # (see fork); the dense reference session in repro.reference swaps it.
    _oracle_type: type[StageOracle] = SparseStageOracle
    # The device's input domain; queries outside it are rejected with
    # ThreatModelViolation.
    input_range: tuple[float, float] = (-256.0, 256.0)

    def __init__(
        self,
        device: VictimDevice,
        stage_name: str | None = None,
        *,
        max_queries: int | None = None,
        max_inferences: int | None = None,
        max_trace_bytes: int | None = None,
        cache_size: int | None = 100_000,
        ledger: QueryLedger | None = None,
        channel: ChannelModel | None = None,
        shared_cache: SharedQueryCache | None = None,
        fingerprint: str | None = None,
    ):
        self.device = device
        self.stage_name = stage_name or device.staged.stages[0].name
        self.channel = channel if channel is not None else ChannelModel.ideal()
        self.ledger = (
            ledger
            if ledger is not None
            else QueryLedger(
                max_queries=max_queries,
                max_inferences=max_inferences,
                max_trace_bytes=max_trace_bytes,
            )
        )
        self._cache = QueryCache(cache_size) if cache_size else None
        self._cache_size = cache_size
        self._oracle: StageOracle | None = None
        self._threshold = 0.0
        self._obs_runs = 0
        self._forks = 0
        self._shared = shared_cache
        self._fingerprint = fingerprint

    def fork(self, index: int | None = None) -> "DeviceSession":
        """A fresh session on the same device, for one parallel worker.

        The fork shares the victim device (device state is the victim's,
        not the attacker's) but gets its own ledger, its own memo cache
        and — crucially — its own count oracle, built lazily in the
        worker process, so no oracle object ever crosses a process
        boundary.  Budgets carry over per fork; a tuned pruning
        threshold is re-applied so forked queries hit the same device
        configuration.  The parent later folds worker
        accounts back with :meth:`QueryLedger.merge`.

        The fork observes through a *spawned* child channel — a fresh
        ``SeedSequence`` spawn key, never cloned RNG state — so noisy
        trace runs in different workers draw from disjoint streams
        (``index`` pins the spawn key; with several forks per parent,
        pass a stable shard identifier so worker layouts can change
        without changing the noise).  Content-keyed counter noise is
        spawn-independent by construction, which is what makes weight
        recovery bit-identical at any worker count even under noise.
        """
        if index is None:
            index = self._forks
        self._forks += 1
        forked = type(self)(
            self.device,
            self.stage_name,
            max_queries=self.ledger.max_queries,
            max_inferences=self.ledger.max_inferences,
            max_trace_bytes=self.ledger.max_trace_bytes,
            cache_size=self._cache_size,
            channel=self.channel.spawn(index),
            shared_cache=self._shared,
            fingerprint=self._fingerprint,
        )
        if self._threshold != 0.0:
            forked.set_threshold(self._threshold)
        return forked

    # -- device facts -----------------------------------------------------
    @property
    def pruning_enabled(self) -> bool:
        return self.device.config.pruning.enabled

    @property
    def per_plane(self) -> bool:
        """Whether counts are per output plane (vs one aggregate total)."""
        return self.device.config.pruning.granularity == "plane"

    @property
    def public_timing(self) -> TimingModel:
        """The device's public timing parameters (datasheet knowledge)."""
        return self.device.config.timing

    @property
    def d_ofm(self) -> int:
        return self._channel_oracle().d_ofm

    @property
    def input_shape(self) -> tuple[int, int, int]:
        return self._channel_oracle().input_shape

    @property
    def image_shape(self) -> tuple[int, int, int]:
        """The device's input geometry ``(C, H, W)``.

        Attacker-known before any trace is observed (the adversary feeds
        the inputs) — unlike :attr:`input_shape` it does not touch the
        zero-pruning channel, so it is available on dense devices too.
        """
        return self.device.staged.network.input_shape  # type: ignore[return-value]

    @property
    def _num_classes(self) -> int:
        """Width of the device's output, from the static shape probe —
        what an observation reports without reading the run's output."""
        staged = self.device.staged
        return int(staged.shapes[staged.network.output_name][-1])

    @property
    def element_bytes(self) -> int:
        """Public device parameter: data word size in bytes."""
        return self.device.config.memory.element_bytes

    @property
    def block_bytes(self) -> int:
        """Public device parameter: DRAM transaction size in bytes."""
        return self.device.config.memory.block_bytes

    @property
    def queries(self) -> int:
        """Channel queries charged so far (attack cost metric)."""
        return self.ledger.channel_queries

    @property
    def threshold(self) -> float:
        """The pruning threshold this session last tuned (0.0 = stock)."""
        return self._threshold

    # -- shared-cache key derivation ---------------------------------------
    @property
    def fingerprint(self) -> str:
        """Content address of the victim device (see
        :func:`~repro.device.shared_cache.device_fingerprint`)."""
        if self._fingerprint is None:
            self._fingerprint = device_fingerprint(self.device)
        return self._fingerprint

    def _probe_key(self, key: tuple) -> str:
        """Fleet-wide content address of one probe reply.

        Extends the session-local LRU key (threshold, pixels, values,
        rep) with the victim fingerprint, the observed stage, the
        attacker's count projection and the counter-noise parameters —
        everything that determines the reply's bytes.  Counter noise is
        content-keyed and spawn-independent, so forked sessions share
        probe entries.
        """
        thr, pixel_key, row_bytes, rep = key
        ch = self.channel
        return content_key(
            b"probe",
            self.fingerprint,
            self.stage_name,
            self.per_plane,
            thr,
            repr(pixel_key),
            row_bytes,
            rep,
            ch.counter_sigma,
            ch.counter_quantum,
            ch.seed,
        )

    def _observation_key(self, x: np.ndarray, run_index: int) -> str:
        """Fleet-wide content address of one structure observation.

        Trace noise is drawn per (seed, spawn_key, run_index), so all
        three join the input digest and the trace-noise parameters in
        the key; a clean channel ignores run_index by construction but
        keying on it is still correct (all runs produce the same
        stream and the first one charged populates the entry for the
        rest — run_index is folded to 0 when the channel is clean so
        repeat runs hit).
        """
        ch = self.channel
        run = run_index if ch.trace_noisy else 0
        return content_key(
            b"observe",
            self.fingerprint,
            array_digest(x),
            run,
            ch.drop_rate,
            ch.dup_rate,
            ch.probe_granularity,
            ch.cycle_sigma,
            ch.seed,
            repr(ch.spawn_key),
        )

    def _classify_key(self, x: np.ndarray) -> str:
        return content_key(b"classify", self.fingerprint, array_digest(x))

    # -- structure side (paper Section 3) ---------------------------------
    def observe_structure(
        self,
        x: np.ndarray | None = None,
        seed: int = 0,
        sink: TraceSink | None = None,
        run: int | None = None,
    ) -> StructureObservation:
        """One metered inference yielding the structure attacker's view.

        The structure attack does not need to *choose* inputs (Table 1:
        control = N), so by default a generic random image is used.

        With ``sink``, trace spans stream into the attacker's sink as
        the device executes and the returned observation carries
        ``trace=None`` — nothing is materialised, so trace memory is
        whatever the sink retains.  Either way the full event count is
        recorded on the ledger.

        Under a noisy channel the stream first passes through a
        :class:`~repro.channel.ChannelSink`, so what the attacker's
        sink (and the ledger) sees is the post-channel event stream;
        each call is a new observation run with its own noise stream,
        letting consensus estimators average over runs.

        ``run`` pins the observation run index explicitly (the noise
        stream for noisy channels).  Checkpointable attack steps use it
        so a resumed attack re-observes run ``k`` under run ``k``'s
        noise stream, bit-identical to the uninterrupted run; left at
        ``None`` the session numbers runs in call order as before.

        With a shared cache attached, the post-channel event stream of
        each (input, run) is stored content-addressed; a later session
        observing the same configuration replays the stream span by
        span — the ledger then records a *cached* inference and the
        device never runs.
        """
        if self.pruning_enabled:
            raise ThreatModelViolation(
                "the Section 3 structure attack is defined on a dense-write "
                "accelerator; use the pruning ablation benches for the "
                "pruned-trace variant"
            )
        x, run_index = self._next_run(x, seed, run)
        obs_key = payload = None
        if self._shared is not None:
            obs_key = self._observation_key(x, run_index)
            payload = self._shared.get_observation(obs_key)
        if payload is not None:
            trace = self._replay_observation(payload, sink)
            num_classes = payload["num_classes"]
            total_cycles = payload["total_cycles"]
        else:
            # The post-channel stream is materialised when the caller
            # wants the trace back or the shared cache stores it, once
            # for both.
            mat, memory = None, sink
            if sink is None or obs_key is not None:
                mat = MaterializeSink()
                memory = mat if sink is None else TeeSink(mat, sink)
            total_cycles = self._run(x, run_index, memory).total_cycles
            num_classes = self._num_classes
            trace = mat.trace() if mat is not None else None
            if obs_key is not None:
                self._shared.put_observation(
                    obs_key,
                    trace.cycles,
                    trace.addresses,
                    trace.is_write,
                    num_classes,
                    total_cycles,
                )
        return StructureObservation(
            trace=trace if sink is None else None,
            input_shape=self.image_shape,
            num_classes=num_classes,
            element_bytes=self.element_bytes,
            block_bytes=self.block_bytes,
            total_cycles=total_cycles,
        )

    def _replay_observation(
        self, payload: dict, sink: TraceSink | None
    ) -> MemoryTrace | None:
        """Serve one observation's stream from the shared cache, device
        idle.

        The stored stream is already post-channel; it is replayed into
        the attacker's sink in bounded chunks (or materialised when no
        sink was given), and the ledger records a cached inference plus
        the trace bytes — the attacker's view and trace account match a
        live run bit for bit, only the charged-inference count differs.
        """
        cycles = payload["cycles"]
        addresses = payload["addresses"]
        is_write = payload["is_write"]
        self.ledger.record_cached_inference()
        self.ledger.record_trace(len(cycles))
        if sink is None:
            return MemoryTrace(cycles, addresses, is_write)
        chunk = 1 << 18
        for lo in range(0, len(cycles), chunk):
            hi = lo + chunk
            sink.emit(
                TraceSpan(cycles[lo:hi], addresses[lo:hi], is_write[lo:hi])
            )
        # A live run closes the attacker's sink when the device finishes;
        # buffering sinks flush on close, so replay must observe the same
        # protocol.
        sink.close()
        return None

    # -- power side (second leak surface) ---------------------------------
    def observe_power(
        self,
        x: np.ndarray | None = None,
        seed: int = 0,
        sink: TraceSink | None = None,
        run: int | None = None,
        power: PowerModel | None = None,
    ) -> PowerTrace:
        """One metered inference observed through the power probe.

        The probe listens while the device runs: a
        :class:`~repro.power.PowerSink` taps the physical span stream
        *before* the memory-bus channel (a power probe does not suffer
        bus drop/dup — it has its own noise, ``power_sigma`` /
        ``power_quantum`` on this session's channel, drawn from the
        dedicated ``"power"`` stream keyed by the run index).

        With ``sink``, the same single inference simultaneously feeds
        the attacker's memory-trace sink through the usual
        channel/metering path — the fusion estimators' cost model: one
        device run, two leak surfaces, one charged inference.  ``run``
        pins the observation run index exactly as in
        :meth:`observe_structure`, so a resumed fusion attack
        re-observes run ``k`` under run ``k``'s noise on *both*
        channels, bit-identical to the uninterrupted run.

        Power observations always run the device (the power tap is a
        physical measurement; it is never served from the shared
        observation cache), and every sample is accounted on the
        ledger's ``power_samples`` counter.
        """
        if sink is not None and self.pruning_enabled:
            raise ThreatModelViolation(
                "the Section 3 structure attack is defined on a dense-write "
                "accelerator; a pruned device leaks power only"
            )
        x, run_index = self._next_run(x, seed, run)
        probe = PowerSink(
            self.device.config.timing,
            power,
            channel=self.channel,
            run_index=run_index,
        )
        self._run(x, run_index, sink, tap=probe)
        trace = probe.trace()
        self.ledger.record_power(trace.num_samples)
        return trace

    # -- the one observation run path ---------------------------------------
    def _next_run(
        self, x: np.ndarray | None, seed: int, run: int | None
    ) -> tuple[np.ndarray, int]:
        """The observed input (a random image from ``seed`` by default)
        and the run index that keys its noise streams."""
        if x is None:
            x = np.random.default_rng(seed).normal(size=(1, *self.image_shape))
        run_index = self._obs_runs if run is None else int(run)
        self._obs_runs = max(self._obs_runs, run_index) + 1
        return x, run_index

    def _run(
        self,
        x: np.ndarray,
        run_index: int,
        memory: TraceSink | None,
        tap: TraceSink | None = None,
    ) -> SimulationResult:
        """Charge one inference and run the device once.

        ``memory`` receives the memory-bus stream across the metered
        boundary, through the channel when it is noisy; its events are
        recorded on the ledger.  ``tap`` listens to the physical stream
        before the bus channel (the power probe).
        """
        self.ledger.charge_inference()
        boundary = run_sink = None
        if memory is not None:
            boundary = run_sink = _MeteredBoundary(memory)
            if self.channel.trace_noisy:
                run_sink = ChannelSink(boundary, self.channel, run_index)
        if tap is not None:
            run_sink = tap if run_sink is None else TeeSink(tap, run_sink)
        result = self.device.run(x, sink=run_sink)
        if boundary is not None:
            self.ledger.record_trace(boundary.events)
        return result

    def classify(self, x: np.ndarray) -> np.ndarray:
        """Submit one input sample and read its classification scores.

        This is the normal-user API of Figure 2 — the host always sees
        the model's output — used by the cloning attack to label its
        training set.  ``x`` has shape ``(1, *image_shape)``; any other
        shape raises :class:`~repro.errors.ConfigError` before anything
        is charged or cached.  Charged one inference per call; with a
        shared cache attached, a sample labelled anywhere in the fleet
        is replayed as a cached inference.
        """
        x = np.asarray(x)
        expected = (1, *self.image_shape)
        if x.shape != expected:
            raise ConfigError(
                f"classify takes one sample of shape {expected}, "
                f"got {x.shape}"
            )
        key: str | None = None
        if self._shared is not None:
            key = self._classify_key(x)
            cached = self._shared.get_output(key)
            if cached is not None:
                self.ledger.record_cached_inference()
                return cached
        self.ledger.charge_inference()
        output = self.device.run(x).output
        if key is not None:
            self._shared.put_output(key, output)
        return output

    # -- weight side (paper Section 4) ------------------------------------
    def _channel_oracle(self) -> StageOracle:
        if self._oracle is None:
            if not self.pruning_enabled:
                raise ThreatModelViolation(
                    "zero-pruning channel requires a device with dynamic "
                    "zero pruning enabled — a dense-write device leaks no "
                    "counts"
                )
            self._oracle = self._oracle_type(
                self.device.staged, self.stage_name
            )
        return self._oracle

    def _check_values(self, values: np.ndarray) -> None:
        lo, hi = self.input_range
        if values.size and (values.min() < lo or values.max() > hi):
            raise ThreatModelViolation(
                f"input value outside device range [{lo}, {hi}]"
            )

    def _observed(self, counts: np.ndarray) -> np.ndarray:
        """Project device-side per-plane counts (one row per run) to the
        attacker's view."""
        if self.per_plane:
            return np.asarray(counts, dtype=np.int64)
        return counts.sum(axis=1, keepdims=True, dtype=np.int64)

    def _replies(
        self, patterns: list[tuple], rows: list[np.ndarray], rep: int = 0
    ) -> list[np.ndarray]:
        """Cached replies for a batch of device runs.

        Run ``b`` drives ``patterns[b]`` with the pixel values
        ``rows[b]``.  Cache misses are deduplicated and evaluated through
        the count oracle in a single ``nnz_batch`` call; only distinct
        uncached runs are charged, all-or-nothing, before the device
        runs.

        ``rep`` indexes independent physical measurements of the same
        configuration: under a noisy counter channel each repetition
        observes fresh noise (and is charged a fresh device run), while
        asking the same (configuration, rep) twice replays the recorded
        measurement from cache.  Noise is keyed by the measured content
        itself, never by call order, so replies agree bit for bit
        between serial and sharded execution.
        """
        oracle = self._channel_oracle()
        width = oracle.d_ofm if self.per_plane else 1
        cache, shared, thr = self._cache, self._shared, self._threshold
        replies: list[np.ndarray | None] = [None] * len(rows)
        pending: dict[tuple, list[int]] = {}
        hits = 0
        shared_hits = 0
        for b, (pattern, row) in enumerate(zip(patterns, rows)):
            key = (thr, pattern, row.tobytes(), rep)
            cached = cache.get(key) if cache is not None else None
            if cached is not None:
                replies[b] = cached
                hits += 1
            elif key in pending:
                # Identical run already queued in this batch: one device
                # run answers both.
                pending[key].append(b)
                hits += 1
            else:
                if shared is not None:
                    reply = shared.get_reply(self._probe_key(key), width)
                    if reply is not None:
                        # Served fleet-wide: some other session already
                        # paid for this probe.  Counted as a cache hit
                        # (the lookup total stays deterministic) and
                        # promoted into the local LRU.
                        replies[b] = reply
                        hits += 1
                        shared_hits += 1
                        if cache is not None:
                            cache.put(key, reply)
                        continue
                pending[key] = [b]
        if pending:
            # Budget check happens before the device runs.
            self.ledger.charge_channel(len(pending))
            first = [runs[0] for runs in pending.values()]
            observed = self._observed(
                oracle.nnz_batch(
                    [patterns[b] for b in first], [rows[b] for b in first]
                )
            )
            observed.setflags(write=False)
            noisy = self.channel.counter_noisy
            for key, reply in zip(pending, observed):
                if noisy:
                    thr, pkey, row_bytes, _ = key
                    content = (
                        repr((thr, pkey)).encode("utf-8") + row_bytes
                    )
                    reply = self.channel.observe_counts(reply, content, rep)
                    reply.setflags(write=False)
                if cache is not None:
                    cache.put(key, reply)
                if shared is not None:
                    shared.put_reply(self._probe_key(key), reply)
                for b in pending[key]:
                    replies[b] = reply
        self.ledger.record_cache(hits=hits, misses=len(pending))
        if shared_hits:
            self.ledger.record_shared_hits(shared_hits)
        return replies  # type: ignore[return-value]

    def query(self, pixels: list[Pixel], values, rep: int = 0) -> np.ndarray:
        """Non-zero write counts for one crafted sparse input.

        Always returns an array: per-plane counts, or a length-1 array
        holding the total in aggregate mode.  ``rep`` selects an
        independent re-measurement of the same input under a noisy
        counter channel (see :meth:`query_repeat`).
        """
        values = np.atleast_1d(np.asarray(values, dtype=float))
        if values.shape != (len(pixels),):
            raise ConfigError(
                f"need one value per pixel, got {values.shape} for "
                f"{len(pixels)} pixels"
            )
        self._check_values(values)
        return self._replies([tuple(pixels)], [values], rep)[0]

    def query_repeat(
        self, pixels: list[Pixel], values, repeats: int
    ) -> np.ndarray:
        """``repeats`` independent measurements of one input, stacked.

        Returns shape ``(repeats, width)``.  Every repetition is a real
        device run (charged to the ledger); the extra ``repeats - 1``
        runs are additionally recorded as noise repeats so attack-cost
        reports separate voting overhead from intrinsic query count.
        On an ideal channel all rows are identical.
        """
        if repeats < 1:
            raise ConfigError(f"repeats must be >= 1, got {repeats}")
        rows = [self.query(pixels, values, rep=r) for r in range(repeats)]
        self.ledger.record_repeats(repeats - 1)
        return np.stack(rows)

    def query_batch(
        self, pixels: list[Pixel], values, rep: int = 0
    ) -> np.ndarray:
        """Counts for ``B`` runs sharing one pixel pattern, in one call.

        ``values`` has shape ``(B, len(pixels))``; row ``b`` of the
        result equals ``query(pixels, values[b])`` bit for bit.  Distinct
        uncached rows cost one charged query each and are evaluated in a
        single vectorised oracle pass.
        """
        values = np.asarray(values, dtype=float)
        if values.ndim != 2 or values.shape[1] != len(pixels):
            raise ConfigError(
                f"values must be (batch, n_pixels) = (*, {len(pixels)}), "
                f"got {values.shape}"
            )
        self._check_values(values)
        if len(values) == 0:
            width = self.d_ofm if self.per_plane else 1
            return np.zeros((0, width), dtype=np.int64)
        pattern = tuple(pixels)
        return np.stack(self._replies([pattern] * len(values), list(values), rep))

    def query_per_filter(self, pixels, values, rep: int = 0) -> np.ndarray:
        """Counts of ``P`` probes, each a batch of ``d_ofm`` runs.

        ``pixels`` lists the ``P`` probes' patterns and ``values`` their
        value arrays, ``values[p]`` of shape ``(len(pixels[p]), d_ofm)``:
        run ``f`` of probe ``p`` drives column ``f`` and is read via
        plane ``f``.  Physically these are ``P * d_ofm`` separate device
        runs, sent in one batch (charged all-or-nothing); runs repeated
        across filters or probes (idle filters probing 0.0, shared
        bracket endpoints) hit the cache and are charged once.  Returns
        shape ``(P, d_ofm)``.
        """
        if not self.per_plane:
            raise ThreatModelViolation(
                "per-filter queries need per-plane substreams; this device "
                "writes one aggregate stream"
            )
        patterns = [_pattern(p) for p in pixels]
        if len(values) != len(patterns):
            raise ConfigError(
                f"need one value array per pattern, got {len(values)} "
                f"for {len(patterns)} patterns"
            )
        d_ofm = self.d_ofm
        probes = [np.asarray(v, dtype=float) for v in values]
        for pattern, probe_values in zip(patterns, probes):
            if probe_values.shape != (len(pattern), d_ofm):
                raise ConfigError(
                    f"values must be (n_pixels, d_ofm) = "
                    f"({len(pattern)}, {d_ofm}), got {probe_values.shape}"
                )
        if not probes:
            return np.zeros((0, d_ofm), dtype=np.int64)
        # Column block p of ``runs`` holds probe p's pixel values, one
        # row per filter: run p * d_ofm + f drives it with row f.
        runs = np.concatenate(probes).T.copy()
        self._check_values(runs)
        run_patterns: list[tuple] = []
        rows: list[np.ndarray] = []
        start = 0
        for pattern in patterns:
            stop = start + len(pattern)
            run_patterns += [pattern] * d_ofm
            rows += list(runs[:, start:stop])
            start = stop
        replies = self._replies(run_patterns, rows, rep)
        # Run p * d_ofm + f is read through plane f: the diagonal of
        # probe p's (d_ofm, d_ofm) reply block.
        counts = np.concatenate(replies).reshape(len(probes), d_ofm * d_ofm)
        return counts[:, :: d_ofm + 1].astype(np.int64)

    def set_threshold(self, threshold: float) -> None:
        """Tune the device's pruning threshold (Minerva-style extension).

        Cached replies are keyed by threshold, so returning to an
        earlier setting reuses its memoised counts.
        """
        oracle = self._channel_oracle()
        try:
            oracle.set_threshold(threshold)
        except (ConfigError, NotImplementedError) as exc:
            raise ThreatModelViolation(
                "this device has no tunable activation threshold"
            ) from exc
        self._threshold = float(threshold)
