"""Decode identity matrix: zoo models × dataflows × chunkings.

The acceptance bar for the vectorised decoders: for every zoo model,
every accelerator dataflow and arbitrary chunk delivery — clean or
through a noisy channel — they produce the same boundaries, the same
:class:`TraceAnalysis` and the same consensus as the whole-trace
oracles in :mod:`repro.reference`.  Small models are covered densely;
the large ones (alexnet, squeezenet) at one chunking to bound runtime
(the perf bench re-asserts identity on the full alexnet trace every
run).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.accel import AcceleratorConfig, AcceleratorSim
from repro.channel import ChannelModel
from repro.device import DeviceSession
from repro.nn.zoo import build_model
from repro.attacks.robust.boundary import (
    RobustRawBoundaryTracker,
    consensus_boundaries,
)
from repro.attacks.robust.structure import BoundaryRecovery
from repro.attacks.structure.dataflow_id import identify_dataflow
from repro.attacks.structure.trace_analysis import (
    StreamingTraceAnalyzer,
    analyse_trace,
    find_layer_boundaries_dataflow,
)
from repro.reference import (
    decode_reference,
    layer_boundaries_reference,
    raw_boundaries_reference,
    robust_boundaries_reference,
)

DATAFLOWS = ("output-stationary", "weight-stationary", "row-stationary")


def observe(model: str, dataflow: str, channel: ChannelModel | None = None):
    sim = AcceleratorSim(
        build_model(model), AcceleratorConfig(dataflow=dataflow)
    )
    session = (
        DeviceSession(sim) if channel is None else DeviceSession(sim, channel=channel)
    )
    return session.observe_structure(seed=0)


def stream_analysis(obs, dataflow, chunk):
    t = obs.trace
    analyzer = StreamingTraceAnalyzer(
        obs.input_shape, obs.element_bytes, obs.block_bytes,
        dataflow=dataflow,
    )
    for s in range(0, len(t), chunk):
        analyzer.feed(
            t.cycles[s:s + chunk],
            t.addresses[s:s + chunk],
            t.is_write[s:s + chunk],
        )
    return analyzer.boundaries, analyzer.finish(obs)


@pytest.mark.parametrize("model", ["lenet", "convnet"])
@pytest.mark.parametrize("dataflow", DATAFLOWS)
def test_small_models_identical_across_engines_and_chunkings(model, dataflow):
    obs = observe(model, dataflow)
    t = obs.trace
    ref = decode_reference(obs, dataflow)
    assert analyse_trace(obs, dataflow=dataflow) == ref[1]
    # The write-burst-tolerant rule also decodes write-at-end traces.
    assert find_layer_boundaries_dataflow(
        t.addresses, t.is_write, obs.block_bytes
    ) == layer_boundaries_reference(
        t.addresses, t.is_write, obs.block_bytes, "weight-stationary"
    )
    assert identify_dataflow(
        t, obs.input_shape, obs.element_bytes, obs.block_bytes
    ).dataflow == dataflow
    for chunk in (len(t), 257, 32, 1):
        assert stream_analysis(obs, dataflow, chunk) == ref, (
            model, dataflow, chunk,
        )


@pytest.mark.parametrize("model", ["alexnet", "squeezenet"])
def test_large_models_identical_across_engines(model):
    obs = observe(model, "output-stationary")
    ref = decode_reference(obs, "output-stationary")
    assert analyse_trace(obs, dataflow="output-stationary") == ref[1]
    assert stream_analysis(obs, "output-stationary", 1 << 16) == ref
    sig = identify_dataflow(
        obs.trace, obs.input_shape, obs.element_bytes, obs.block_bytes
    )
    assert sig.dataflow == "output-stationary"


NOISY = ChannelModel(drop_rate=0.03, dup_rate=0.02, cycle_sigma=30.0, seed=7)


@pytest.mark.parametrize("dataflow", DATAFLOWS)
def test_noisy_channel_robust_tracker_identical(dataflow):
    obs = observe("lenet", dataflow, channel=NOISY)
    t = obs.trace
    window = NOISY.latency_window
    params = dict(
        min_support=3, expiry=4096, refractory=window,
        producer_refractory=window if dataflow == "output-stationary" else 0,
    )
    ref = robust_boundaries_reference(
        t.cycles, t.addresses, t.is_write, **params
    )
    assert len(ref[0]) > 1
    for chunk in (len(t), 311, 5):
        tracker = RobustRawBoundaryTracker(**params)
        for s in range(0, len(t), chunk):
            tracker.feed(
                t.cycles[s:s + chunk],
                t.addresses[s:s + chunk],
                t.is_write[s:s + chunk],
            )
        assert (tracker.boundaries, tracker.boundary_cycles) == ref, chunk


def _consensus_recovery_matches_reference(dataflow):
    def session():
        sim = AcceleratorSim(
            build_model("lenet"), AcceleratorConfig(dataflow=dataflow)
        )
        return DeviceSession(sim, channel=NOISY)

    result = BoundaryRecovery(
        session(), runs=3, compare_naive=True, dataflow=dataflow
    ).run()
    window = NOISY.latency_window
    robust, naive = [], []
    for k in range(3):
        t = session().observe_structure(seed=0, run=k).trace
        robust.append(robust_boundaries_reference(
            t.cycles, t.addresses, t.is_write,
            min_support=3, expiry=4096, refractory=window,
            producer_refractory=(
                window if dataflow == "output-stationary" else 0
            ),
        )[1])
        naive.append([
            int(t.cycles[i])
            for i in raw_boundaries_reference(t.addresses, t.is_write)
        ])
    assert result.runs == robust, dataflow
    assert result.naive_runs == naive, dataflow
    assert result.boundaries == consensus_boundaries(
        robust, quorum=2, tol=max(1, window // 4)
    ), dataflow


def test_noisy_consensus_recovery_identical():
    # The naive comparator is RobustRawBoundaryTracker(min_support=1);
    # it must equal the per-event RAW oracle on every dataflow's stream.
    for dataflow in DATAFLOWS:
        _consensus_recovery_matches_reference(dataflow)


def test_jittered_channel_fragmented_spans_still_identical():
    """Latency jitter fragments delivery; decoding must not care.

    Drop and jitter noise are the robust tracker's problem (they break
    the contiguous-region / ordering assumptions the analysis checks),
    so this channel only duplicates — order-preserving, but enough to
    fragment the delivered spans.
    """
    jitter = ChannelModel(dup_rate=0.05, seed=7)
    obs = observe("lenet", "output-stationary", channel=jitter)
    t = obs.trace
    rng = np.random.default_rng(5)
    cuts = np.sort(rng.integers(0, len(t), size=40))
    edges = [0] + [int(c) for c in cuts] + [len(t)]
    _, ref = decode_reference(obs, "output-stationary")
    analyzer = StreamingTraceAnalyzer(
        obs.input_shape, obs.element_bytes, obs.block_bytes,
        dataflow="output-stationary",
    )
    for s, e in zip(edges[:-1], edges[1:]):
        analyzer.feed(t.cycles[s:e], t.addresses[s:e], t.is_write[s:e])
    assert analyzer.finish(obs) == ref
