"""Trace sinks: materialise / spool / stats / tee, and builder streaming."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import TraceError
from repro.accel import AcceleratorConfig, AcceleratorSim, available_dataflows
from repro.accel.sinks import (
    CoalescingSink,
    MaterializeSink,
    SpoolSink,
    StatsSink,
    TeeSink,
)
from repro.accel.trace import (
    READ,
    TRACE_EVENT_BYTES,
    WRITE,
    MemoryTrace,
    TraceBuilder,
    TraceSink,
    TraceSpan,
)
from repro.nn.zoo import build_lenet, build_squeezenet


def span(cycles, addresses, is_write) -> TraceSpan:
    return TraceSpan(
        np.asarray(cycles, np.int64),
        np.asarray(addresses, np.int64),
        np.asarray(is_write, bool),
    )


def feed(sink, *spans) -> None:
    for s in spans:
        sink.emit(s)
    sink.close()


SPANS = (
    span([0, 1, 2], [0, 64, 128], [False, False, False]),
    span([3], [256], [True]),
    span([7, 8], [0, 64], [False, True]),
)


# -- span invariants -------------------------------------------------------

def test_span_length_and_wire_size():
    s = SPANS[0]
    assert len(s) == 3
    assert s.nbytes == 3 * TRACE_EVENT_BYTES


def test_span_rejects_mismatched_arrays():
    with pytest.raises(TraceError, match="mismatched lengths"):
        span([0, 1], [0], [False])


def test_all_sinks_satisfy_the_protocol():
    for sink in (MaterializeSink(), StatsSink(), TeeSink(StatsSink())):
        assert isinstance(sink, TraceSink)
    with SpoolSink() as spool:
        assert isinstance(spool, TraceSink)


# -- MaterializeSink -------------------------------------------------------

def test_materialize_concatenates_in_order():
    sink = MaterializeSink()
    feed(sink, *SPANS)
    t = sink.trace()
    assert sink.num_events == len(t) == 6
    np.testing.assert_array_equal(t.cycles, [0, 1, 2, 3, 7, 8])
    np.testing.assert_array_equal(t.addresses, [0, 64, 128, 256, 0, 64])
    np.testing.assert_array_equal(
        t.is_write, [False, False, False, True, False, True]
    )


def test_materialize_empty_stream_is_empty_trace():
    sink = MaterializeSink()
    sink.close()
    t = sink.trace()
    assert isinstance(t, MemoryTrace)
    assert len(t) == 0


# -- SpoolSink -------------------------------------------------------------

def test_spool_without_spill_replays_buffered_spans():
    with SpoolSink(budget_bytes=1 << 20) as spool:
        feed(spool, *SPANS)
        assert spool.num_chunks == 0
        assert spool.buffered_bytes == 6 * TRACE_EVENT_BYTES
        assert spool.spilled_bytes == 0
        replayed = list(spool.spans())
        assert [len(s) for s in replayed] == [3, 1, 2]


def test_spool_spills_past_budget_and_replays_in_order():
    # A tiny budget forces a flush after every span.
    with SpoolSink(budget_bytes=1) as spool:
        feed(spool, *SPANS)
        assert spool.num_chunks == 3
        assert spool.buffered_bytes == 0
        assert spool.spilled_bytes == 6 * TRACE_EVENT_BYTES
        t = spool.trace()
        np.testing.assert_array_equal(t.cycles, [0, 1, 2, 3, 7, 8])
        np.testing.assert_array_equal(t.addresses, [0, 64, 128, 256, 0, 64])


def test_spool_replay_is_repeatable():
    with SpoolSink(budget_bytes=40) as spool:
        feed(spool, *SPANS)
        first = [s.cycles for s in spool.spans()]
        second = [s.cycles for s in spool.spans()]
        assert len(first) == len(second)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a, b)


def test_spool_trace_bit_identical_to_materialize():
    mat = MaterializeSink()
    feed(mat, *SPANS)
    with SpoolSink(budget_bytes=1) as spool:
        feed(spool, *SPANS)
        spooled = spool.trace()
    direct = mat.trace()
    np.testing.assert_array_equal(spooled.cycles, direct.cycles)
    np.testing.assert_array_equal(spooled.addresses, direct.addresses)
    np.testing.assert_array_equal(spooled.is_write, direct.is_write)


def test_spool_cleanup_removes_chunks(tmp_path):
    spool = SpoolSink(budget_bytes=1, directory=str(tmp_path))
    feed(spool, *SPANS)
    assert len(list(tmp_path.iterdir())) == 3
    spool.cleanup()
    assert list(tmp_path.iterdir()) == []
    assert spool.num_events == 0


def test_spool_rejects_nonpositive_budget():
    with pytest.raises(TraceError, match="budget must be positive"):
        SpoolSink(budget_bytes=0)


# -- StatsSink -------------------------------------------------------------

def test_stats_tallies_and_extents():
    sink = StatsSink()
    feed(sink, *SPANS)
    assert sink.events == 6
    assert sink.reads == 4
    assert sink.writes == 2
    assert sink.bytes == 6 * TRACE_EVENT_BYTES
    assert sink.min_address == 0
    assert sink.max_address == 256
    assert sink.min_cycle == 0
    assert sink.max_cycle == 8


def test_stats_extents_undefined_when_empty():
    sink = StatsSink()
    sink.close()
    with pytest.raises(TraceError, match="extents are undefined"):
        sink.min_address


# -- TeeSink ---------------------------------------------------------------

def test_tee_fans_out_to_all_sinks():
    mat = MaterializeSink()
    stats = StatsSink()
    tee = TeeSink(mat, stats)
    feed(tee, *SPANS)
    assert mat.num_events == stats.events == 6


def test_tee_requires_a_downstream():
    with pytest.raises(TraceError, match="at least one downstream"):
        TeeSink()


# -- CoalescingSink --------------------------------------------------------

def test_coalescing_buffers_below_target():
    mat = MaterializeSink()
    sink = CoalescingSink(mat, target_events=8)
    sink.emit(SPANS[0])
    sink.emit(SPANS[1])
    assert sink.buffered_events == 4
    assert mat.num_events == 0  # nothing forwarded yet
    sink.emit(SPANS[2])  # 6 events buffered, still < 8
    assert sink.buffered_events == 6
    sink.close()
    assert sink.buffered_events == 0
    assert mat.num_events == 6


def test_coalescing_forwards_one_span_at_target():
    class CountingSink(MaterializeSink):
        def __init__(self):
            super().__init__()
            self.span_sizes = []

        def emit(self, span):
            self.span_sizes.append(len(span))
            super().emit(span)

    inner = CountingSink()
    sink = CoalescingSink(inner, target_events=4)
    feed(sink, *SPANS)  # 3 + 1 hits the target, then 2 flushed on close
    assert inner.span_sizes == [4, 2]


def test_coalescing_passthrough_for_large_spans():
    class CountingSink(MaterializeSink):
        def __init__(self):
            super().__init__()
            self.span_sizes = []

        def emit(self, span):
            self.span_sizes.append(len(span))
            super().emit(span)

    inner = CountingSink()
    sink = CoalescingSink(inner, target_events=2)
    sink.emit(SPANS[0])  # >= target with empty buffer: straight through
    assert inner.span_sizes == [3]
    assert sink.buffered_events == 0


def test_coalescing_is_bit_identical_to_direct():
    direct = MaterializeSink()
    feed(direct, *SPANS)
    coalesced = MaterializeSink()
    feed(CoalescingSink(coalesced, target_events=4), *SPANS)
    a, b = direct.trace(), coalesced.trace()
    np.testing.assert_array_equal(a.cycles, b.cycles)
    np.testing.assert_array_equal(a.addresses, b.addresses)
    np.testing.assert_array_equal(a.is_write, b.is_write)


def test_coalescing_ignores_empty_spans():
    mat = MaterializeSink()
    sink = CoalescingSink(mat, target_events=4)
    sink.emit(span([], [], []))
    assert sink.buffered_events == 0
    sink.close()
    assert mat.num_events == 0


def test_coalescing_rejects_nonpositive_target():
    with pytest.raises(TraceError, match="target_events must be >= 1"):
        CoalescingSink(MaterializeSink(), target_events=0)


# -- TraceBuilder streaming ------------------------------------------------

def test_builder_with_sink_emits_and_refuses_build():
    sink = MaterializeSink()
    b = TraceBuilder(sink)
    nxt = b.add_span(0, np.array([0, 64]), READ)
    b.add_span(nxt, np.array([128]), WRITE)
    assert sink.num_events == 3
    with pytest.raises(TraceError, match="sink owns the events"):
        b.build()


def test_builder_with_sink_matches_builder_without():
    plain = TraceBuilder()
    sink = MaterializeSink()
    streaming = TraceBuilder(sink)
    for builder in (plain, streaming):
        nxt = builder.add_span(
            5, np.array([0, 64, 128]), READ, cycles_per_access=2
        )
        builder.add_span(nxt, np.array([256]), WRITE)
    direct = plain.build()
    streamed = sink.trace()
    np.testing.assert_array_equal(streamed.cycles, direct.cycles)
    np.testing.assert_array_equal(streamed.addresses, direct.addresses)
    np.testing.assert_array_equal(streamed.is_write, direct.is_write)


# -- simulator integration -------------------------------------------------

def test_simulator_default_and_explicit_materialize_agree():
    x = np.random.default_rng(0).normal(size=(1, 1, 28, 28))
    default = AcceleratorSim(build_lenet()).run(x)
    sink = MaterializeSink()
    explicit = AcceleratorSim(build_lenet()).run(x, sink=sink)
    assert explicit.trace is not None  # MaterializeSink keeps the trace
    np.testing.assert_array_equal(
        default.trace.cycles, explicit.trace.cycles
    )
    np.testing.assert_array_equal(
        default.trace.addresses, explicit.trace.addresses
    )
    np.testing.assert_array_equal(
        default.trace.is_write, explicit.trace.is_write
    )


def test_simulator_with_external_sink_materialises_nothing():
    victims = {
        "lenet": (build_lenet, (1, 1, 28, 28)),
        "squeezenet": (
            lambda: build_squeezenet(num_classes=10, width_scale=0.25),
            (1, 3, 227, 227),
        ),
    }
    for name, (build, shape) in victims.items():
        x = np.random.default_rng(0).normal(size=shape)
        for dataflow in available_dataflows():
            staged = build()
            stats = StatsSink()
            result = AcceleratorSim(
                staged, AcceleratorConfig(dataflow=dataflow)
            ).run(x, sink=stats)
            case = (name, dataflow)
            assert result.trace is None, case
            assert stats.events > 0, case
            # Per-stage facts are the simulator's windows: one per stage
            # in execution order, together accounting for every event
            # the sink saw.
            assert [w.name for w in result.windows] == [
                st.name for st in staged.stages
            ], case
            assert sum(w.num_reads for w in result.windows) == stats.reads, case
            assert sum(w.num_writes for w in result.windows) == stats.writes, case


def test_simulator_spooled_trace_bit_identical_to_default():
    x = np.random.default_rng(0).normal(size=(1, 1, 28, 28))
    default = AcceleratorSim(build_lenet()).run(x)
    with SpoolSink(budget_bytes=4096) as spool:
        result = AcceleratorSim(build_lenet()).run(x, sink=spool)
        assert result.trace is None
        assert spool.num_chunks > 0  # genuinely spilled to disk
        spooled = spool.trace()
    np.testing.assert_array_equal(default.trace.cycles, spooled.cycles)
    np.testing.assert_array_equal(default.trace.addresses, spooled.addresses)
    np.testing.assert_array_equal(default.trace.is_write, spooled.is_write)
