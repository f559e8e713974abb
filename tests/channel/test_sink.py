"""ChannelSink: drop/dup/truncate/reorder semantics and replay stability."""

from __future__ import annotations

import numpy as np

from repro.accel import AcceleratorSim, MaterializeSink, SpoolSink
from repro.channel import ChannelModel, ChannelSink
from repro.device import DeviceSession
from repro.nn.zoo import build_lenet

from tests.conftest import build_conv_stage


def _span(cycles, addresses, is_write):
    from repro.accel.trace import TraceSpan

    return TraceSpan(
        np.asarray(cycles, np.int64),
        np.asarray(addresses, np.int64),
        np.asarray(is_write, bool),
    )


def _distort(model, spans):
    mat = MaterializeSink()
    sink = ChannelSink(mat, model)
    for sp in spans:
        sink.emit(sp)
    sink.close()
    return sink, mat.trace()


def _long_stream(n=4000, seed=3):
    rng = np.random.default_rng(seed)
    cycles = np.cumsum(rng.integers(1, 4, size=n))
    addresses = rng.integers(0, 64, size=n) * 64
    is_write = rng.random(n) < 0.3
    step = 256
    return [
        _span(cycles[i : i + step], addresses[i : i + step],
              is_write[i : i + step])
        for i in range(0, n, step)
    ]


def test_ideal_channel_passes_spans_through_bitwise():
    spans = _long_stream()
    sink, trace = _distort(ChannelModel.ideal(), spans)
    assert sink.events_in == sink.events_out == len(trace)
    assert np.array_equal(
        trace.cycles, np.concatenate([s.cycles for s in spans])
    )
    assert np.array_equal(
        trace.addresses, np.concatenate([s.addresses for s in spans])
    )


def test_drop_loses_events_and_accounts_them():
    spans = _long_stream()
    n = sum(len(s) for s in spans)
    sink, trace = _distort(ChannelModel(drop_rate=0.1, seed=1), spans)
    assert sink.events_in == n
    assert sink.dropped > 0
    assert sink.events_out == n - sink.dropped == len(trace)
    # Dropping only removes: surviving (cycle, address) pairs all exist
    # in the original stream with at least the observed multiplicity.
    assert 0.05 < sink.dropped / n < 0.15


def test_dup_doubles_events_and_accounts_them():
    spans = _long_stream()
    n = sum(len(s) for s in spans)
    sink, trace = _distort(ChannelModel(dup_rate=0.1, seed=1), spans)
    assert sink.duplicated > 0
    assert sink.events_out == n + sink.duplicated == len(trace)


def test_granularity_truncates_addresses():
    spans = _long_stream()
    _, trace = _distort(ChannelModel(probe_granularity=256, seed=1), spans)
    assert np.array_equal(trace.addresses % 256, np.zeros(len(trace)))


def test_latency_jitters_within_window_and_keeps_delivery_sorted():
    spans = _long_stream()
    model = ChannelModel(cycle_sigma=8.0, seed=2)
    delivered = []
    delivered_addr = []

    class Probe:
        def emit(self, span):
            delivered.append(span.cycles.copy())
            delivered_addr.append(span.addresses.copy())

        def close(self):
            pass

    sink = ChannelSink(Probe(), model)
    for sp in spans:
        sink.emit(sp)
    sink.close()
    assert sink.buffered_events == 0
    cycles = np.concatenate(delivered)
    assert len(cycles) == sum(len(s) for s in spans)
    # Delivery order is the jittered timestamp order: non-decreasing
    # across span boundaries, not just within one flush.
    assert (np.diff(cycles) >= 0).all()
    original = np.sort(np.concatenate([s.cycles for s in spans]))
    shift = np.sort(cycles) - original
    assert shift.min() >= 0
    assert shift.max() <= model.latency_window
    # With sigma 8 over thousands of events, some must actually reorder:
    # the delivered address sequence differs from the produced one.
    assert not np.array_equal(
        np.concatenate(delivered_addr),
        np.concatenate([s.addresses for s in spans]),
    )


def test_latency_holds_events_until_horizon_passes():
    model = ChannelModel(cycle_sigma=5.0, seed=0)
    mat = MaterializeSink()
    sink = ChannelSink(mat, model)
    sink.emit(_span([10, 11, 12], [0, 64, 128], [True, True, True]))
    # Nothing can be released yet: the producer clock (12) has not
    # passed any jittered stamp plus the clip window (30).
    assert sink.buffered_events == 3
    sink.emit(_span([100], [192], [False]))
    assert sink.buffered_events == 1
    sink.close()
    assert sink.buffered_events == 0
    assert len(mat.trace()) == 4


def test_runs_draw_independent_noise_but_are_reproducible():
    spans = _long_stream()
    model = ChannelModel(drop_rate=0.05, cycle_sigma=4.0, seed=7)

    def run(run_index):
        mat = MaterializeSink()
        sink = ChannelSink(mat, model, run_index=run_index)
        for sp in spans:
            sink.emit(sp)
        sink.close()
        return mat.trace()

    r0, r0_again, r1 = run(0), run(0), run(1)
    assert np.array_equal(r0.cycles, r0_again.cycles)
    assert np.array_equal(r0.addresses, r0_again.addresses)
    assert (len(r0) != len(r1)) or not np.array_equal(r0.cycles, r1.cycles)


# -- end-to-end: spooling a noisy observation ------------------------------

def test_spool_replay_does_not_resample_noise():
    """Noise is applied on the way in; a spooled recording is stable."""
    channel = ChannelModel(
        drop_rate=0.03, dup_rate=0.01, cycle_sigma=6.0, seed=13
    )
    staged, _, _, _ = build_conv_stage(seed=5)
    session = DeviceSession(AcceleratorSim(staged), channel=channel)
    with SpoolSink(budget_bytes=1 << 14) as spool:
        session.observe_structure(seed=3, sink=spool)
        first = [
            (s.cycles.copy(), s.addresses.copy(), s.is_write.copy())
            for s in spool.spans()
        ]
        second = [
            (s.cycles.copy(), s.addresses.copy(), s.is_write.copy())
            for s in spool.spans()
        ]
    assert len(first) > 0
    for (c1, a1, w1), (c2, a2, w2) in zip(first, second):
        assert np.array_equal(c1, c2)
        assert np.array_equal(a1, a2)
        assert np.array_equal(w1, w2)


def test_spooled_stream_equals_materialized_run_bitwise():
    """Run 0 through a spool and run 0 materialised see the same noise."""
    channel = ChannelModel(drop_rate=0.02, cycle_sigma=5.0, seed=4)
    mat_trace = DeviceSession(
        AcceleratorSim(build_lenet()), channel=channel
    ).observe_structure(seed=3).trace
    spool_session = DeviceSession(
        AcceleratorSim(build_lenet()), channel=channel
    )
    with SpoolSink(budget_bytes=1 << 16) as spool:
        spool_session.observe_structure(seed=3, sink=spool)
        cycles = np.concatenate([s.cycles for s in spool.spans()])
        addresses = np.concatenate([s.addresses for s in spool.spans()])
    assert np.array_equal(cycles, mat_trace.cycles)
    assert np.array_equal(addresses, mat_trace.addresses)
