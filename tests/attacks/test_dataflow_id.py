"""Dataflow identification and dataflow-aware structure recovery.

The attacker first classifies which loop order produced the trace
(:class:`DataflowIdentifier`), then decodes boundaries with the
matching rule (:class:`DataflowBoundaryTracker`): weight- and
row-stationary schedules interleave OFM write bursts with the stage's
remaining reads, so the output-stationary read-after-write rule alone
would shatter each layer into many.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.accel import AcceleratorConfig, AcceleratorSim, available_dataflows
from repro.attacks.structure import (
    DataflowIdentifier,
    StreamingTraceAnalyzer,
    analyse_trace,
    find_layer_boundaries_dataflow,
    identify_dataflow,
    run_structure_attack,
)
from repro.attacks.structure.trace_analysis import analysis_to_dict
from repro.channel import ChannelModel
from repro.device import DeviceSession
from repro.errors import TraceError
from repro.nn.zoo import build_lenet, build_squeezenet

DATAFLOWS = available_dataflows()


def _observe(staged, dataflow, seed=0):
    session = DeviceSession(
        AcceleratorSim(staged, AcceleratorConfig(dataflow=dataflow))
    )
    return session.observe_structure(seed=seed)


@pytest.mark.parametrize("dataflow", DATAFLOWS)
def test_identifies_lenet_dataflow(dataflow):
    obs = _observe(build_lenet(), dataflow)
    sig = identify_dataflow(
        obs.trace, obs.input_shape, obs.element_bytes, obs.block_bytes
    )
    assert sig.dataflow == dataflow


@pytest.mark.parametrize("dataflow", DATAFLOWS)
def test_identifies_squeezenet_dataflow_despite_merge_stages(dataflow):
    # Merge (concat/bypass) stages read only prior OFMs — they dilute
    # the post-write weight fraction but must not flip the verdict.
    staged = build_squeezenet(num_classes=10, width_scale=0.25)
    obs = _observe(staged, dataflow)
    sig = identify_dataflow(
        obs.trace, obs.input_shape, obs.element_bytes, obs.block_bytes
    )
    assert sig.dataflow == dataflow


def test_identifier_verdict_is_chunking_invariant():
    obs = _observe(build_lenet(), "row-stationary")
    batch = identify_dataflow(
        obs.trace, obs.input_shape, obs.element_bytes, obs.block_bytes
    )
    for chunk in (1, 7, 191):
        ident = DataflowIdentifier(
            obs.input_shape, obs.element_bytes, obs.block_bytes
        )
        for i in range(0, len(obs.trace), chunk):
            ident.feed(
                obs.trace.addresses[i:i + chunk],
                obs.trace.is_write[i:i + chunk],
            )
        assert ident.finish().dataflow == batch.dataflow == "row-stationary"


def test_identifier_works_as_streaming_sink():
    staged = build_lenet()
    session = DeviceSession(
        AcceleratorSim(staged, AcceleratorConfig(dataflow="weight-stationary"))
    )
    ident = DataflowIdentifier(
        session.image_shape, session.element_bytes, session.block_bytes
    )
    obs = session.observe_structure(seed=0, sink=ident)
    assert obs.trace is None  # nothing materialised
    assert ident.finish().dataflow == "weight-stationary"


def test_identify_rejects_empty_trace():
    from repro.accel.trace import MemoryTrace

    empty = MemoryTrace(
        cycles=np.empty(0, dtype=np.int64),
        addresses=np.empty(0, dtype=np.int64),
        is_write=np.empty(0, dtype=bool),
    )
    with pytest.raises(TraceError):
        identify_dataflow(empty, (1, 28, 28), 2, 64)


@pytest.mark.parametrize("dataflow", ["weight-stationary", "row-stationary"])
def test_dataflow_boundaries_recover_every_stage(dataflow):
    staged = build_lenet()
    obs = _observe(staged, dataflow)
    bounds = find_layer_boundaries_dataflow(
        obs.trace.addresses, obs.trace.is_write, obs.block_bytes
    )
    assert len(bounds) == len(staged.stages)
    assert bounds[0] == 0


@pytest.mark.parametrize("dataflow", DATAFLOWS)
def test_streaming_analysis_matches_batch(dataflow):
    staged = build_squeezenet(num_classes=10, width_scale=0.25)
    obs = _observe(staged, dataflow)
    batch = analyse_trace(obs, dataflow=dataflow)
    assert batch.num_layers == len(staged.stages)
    analyzer = StreamingTraceAnalyzer(
        obs.input_shape, obs.element_bytes, obs.block_bytes, dataflow=dataflow
    )
    streamed_session = DeviceSession(
        AcceleratorSim(staged, AcceleratorConfig(dataflow=dataflow))
    )
    streamed_obs = streamed_session.observe_structure(seed=0, sink=analyzer)
    assert analyzer.finish(streamed_obs) == batch


@pytest.mark.parametrize("dataflow", DATAFLOWS)
def test_structure_attack_auto_identifies_and_recovers(dataflow):
    staged = build_lenet()
    sim = AcceleratorSim(staged, AcceleratorConfig(dataflow=dataflow))
    result = run_structure_attack(sim, tolerance=0.25, dataflow="auto")
    assert result.dataflow == dataflow
    assert result.num_layers == len(staged.stages)
    truth = [g for g in staged.geometries() if hasattr(g, "canonical")]
    hit = any(
        all(
            layer.geometry.canonical() == true.canonical()
            for layer, true in zip(layers, truth)
        )
        for cand in result.candidates
        if len(layers := [
            la for la in cand.layers if hasattr(la.geometry, "canonical")
        ]) == len(truth)
    )
    assert hit


@pytest.mark.parametrize(
    "channel, runs",
    [(None, 1), (ChannelModel(dup_rate=0.01, seed=5), 2)],
    ids=["clean", "noisy"],
)
@pytest.mark.parametrize("dataflow", DATAFLOWS)
def test_auto_costs_what_a_known_dataflow_costs(dataflow, channel, runs):
    """``dataflow="auto"`` identifies from the trace it decodes: it charges
    ``runs`` inferences and yields exactly the told-dataflow result."""
    staged = build_lenet()

    def attack(mode):
        session = DeviceSession(
            AcceleratorSim(staged, AcceleratorConfig(dataflow=dataflow)),
            channel=channel,
        )
        return run_structure_attack(session, runs=runs, dataflow=mode)

    auto, told = attack("auto"), attack(dataflow)
    assert auto.ledger.inferences == told.ledger.inferences == runs
    assert auto.ledger.trace_bytes == told.ledger.trace_bytes
    assert auto.dataflow == told.dataflow == dataflow
    assert analysis_to_dict(auto.analysis) == analysis_to_dict(told.analysis)
    assert auto.boundaries == told.boundaries
    assert auto.count == told.count
    assert [c.layers for c in auto.candidates] == [
        c.layers for c in told.candidates
    ]
