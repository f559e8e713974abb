"""PowerSink: chunking invariance, noise-once semantics, golden digest."""

from __future__ import annotations

import subprocess
import sys

import numpy as np

from benchmarks.perf.golden import GOLDEN_LENET_POWER_SHA256, lenet_power_digest
from repro.accel import AcceleratorSim, SpoolSink
from repro.channel import ChannelModel
from repro.device import CoalescingSink, DeviceSession
from repro.power import PowerSink
from repro.reference import power_reference

from tests.conftest import build_conv_stage


def _spans(staged, seed=0):
    """Materialise one clean span stream via a spool."""
    session = DeviceSession(AcceleratorSim(staged))
    with SpoolSink(budget_bytes=1 << 14) as spool:
        session.observe_structure(seed=seed, sink=spool)
        return [
            (s.cycles.copy(), s.addresses.copy(), s.is_write.copy())
            for s in spool.spans()
        ]


def _feed(sink, spans):
    from repro.accel.trace import TraceSpan

    for cycles, addresses, is_write in spans:
        sink.emit(TraceSpan(cycles, addresses, is_write))
    sink.close()
    return sink.trace()


def _rechunk(spans, step):
    """Flatten and re-split the same event stream at a different pitch."""
    cycles = np.concatenate([c for c, _, _ in spans])
    addresses = np.concatenate([a for _, a, _ in spans])
    is_write = np.concatenate([w for _, _, w in spans])
    return [
        (cycles[i:i + step], addresses[i:i + step], is_write[i:i + step])
        for i in range(0, len(cycles), step)
    ]


def test_trace_invariant_under_rechunking():
    staged, *_ = build_conv_stage(seed=5)
    spans = _spans(staged)
    timing = AcceleratorSim(staged).config.timing
    baseline = _feed(PowerSink(timing), spans)
    for step in (17, 256, 10**9):
        again = _feed(PowerSink(timing), _rechunk(spans, step))
        assert again.quantum == baseline.quantum
        assert np.array_equal(again.samples, baseline.samples)
        assert again.digest() == baseline.digest()


def test_trace_invariant_under_coalescing():
    """A CoalescingSink upstream must not change the accumulated trace."""
    staged, *_ = build_conv_stage(seed=5)
    spans = _spans(staged)
    timing = AcceleratorSim(staged).config.timing
    direct = _feed(PowerSink(timing), spans)
    coalesced_sink = PowerSink(timing)
    coalescing = CoalescingSink(coalesced_sink, target_events=64)
    from repro.accel.trace import TraceSpan

    for cycles, addresses, is_write in _rechunk(spans, 13):
        coalescing.emit(TraceSpan(cycles, addresses, is_write))
    coalescing.close()
    assert np.array_equal(coalesced_sink.trace().samples, direct.samples)


def test_engines_identical_on_real_stream():
    staged, *_ = build_conv_stage(seed=5)
    spans = _spans(staged)
    timing = AcceleratorSim(staged).config.timing
    vec = _feed(PowerSink(timing), spans)
    ref = power_reference(*(np.concatenate(col) for col in zip(*spans)), timing)
    assert np.array_equal(vec.samples, ref.samples)
    assert vec.digest() == ref.digest()


def test_lenet_clean_trace_matches_golden_digest():
    assert lenet_power_digest() == GOLDEN_LENET_POWER_SHA256
    assert lenet_power_digest(reference=True) == GOLDEN_LENET_POWER_SHA256


def test_digest_identical_across_processes():
    """Same spec in a fresh interpreter reproduces the trace bit for bit."""
    code = (
        "import numpy as np\n"
        "from repro.accel import AcceleratorSim\n"
        "from repro.nn.zoo import build_lenet\n"
        "from repro.power import PowerSink\n"
        "sim = AcceleratorSim(build_lenet())\n"
        "x = np.zeros((1, *sim.staged.network.input_shape))\n"
        "sink = PowerSink(sim.config.timing)\n"
        "sim.run(x, sink)\n"
        "print(sink.trace().digest())\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True,
    )
    assert proc.stdout.strip() == GOLDEN_LENET_POWER_SHA256


def test_noise_applied_once_and_reproducible_per_run():
    """Same channel + run index => identical noisy trace; runs differ."""
    staged, *_ = build_conv_stage(seed=5)
    spans = _spans(staged)
    timing = AcceleratorSim(staged).config.timing
    channel = ChannelModel(power_sigma=4.0, power_quantum=2, seed=7)

    def run(run_index, step):
        return _feed(
            PowerSink(timing, channel=channel, run_index=run_index),
            _rechunk(spans, step),
        )

    r0 = run(0, 64)
    r0_again = run(0, 31)  # different chunking, same noise stream
    r1 = run(1, 64)
    assert np.array_equal(r0.samples, r0_again.samples)
    assert not np.array_equal(r0.samples, r1.samples)
    # Quantisation and clipping hold on the noisy read-out.
    assert (r0.samples % 2 == 0).all()
    assert (r0.samples >= 0).all()


def test_noisy_trace_differs_from_clean_but_same_shape():
    staged, *_ = build_conv_stage(seed=5)
    spans = _spans(staged)
    timing = AcceleratorSim(staged).config.timing
    clean = _feed(PowerSink(timing), spans)
    noisy = _feed(
        PowerSink(timing, channel=ChannelModel(power_sigma=6.0, seed=3)),
        spans,
    )
    assert len(noisy) == len(clean)
    assert not np.array_equal(noisy.samples, clean.samples)


def test_spool_replay_observes_identical_noisy_trace():
    """Replaying a spooled stream with the same channel/run re-observes
    the identical noisy trace (noise-once across replay).

    The channel here carries power noise only, so the spool records
    the clean physical span stream — exactly what the power tap saw.
    """
    staged, *_ = build_conv_stage(seed=5)
    channel = ChannelModel(power_sigma=5.0, seed=9)
    session = DeviceSession(AcceleratorSim(staged), channel=channel)
    timing = session.device.config.timing
    with SpoolSink(budget_bytes=1 << 14) as spool:
        live = session.observe_power(seed=2, sink=spool, run=0)
        from repro.accel.trace import TraceSpan

        replayed_sink = PowerSink(timing, channel=channel, run_index=0)
        for sp in spool.spans():
            replayed_sink.emit(
                TraceSpan(sp.cycles, sp.addresses, sp.is_write)
            )
        replayed_sink.close()
    replayed = replayed_sink.trace()
    assert np.array_equal(replayed.samples, live.samples)
    assert replayed.digest() == live.digest()
    # And a second pinned observation of the same run from a fresh
    # session is bit-identical too (resume semantics).
    again = DeviceSession(
        AcceleratorSim(staged), channel=channel
    ).observe_power(seed=2, run=0)
    assert np.array_equal(again.samples, live.samples)
