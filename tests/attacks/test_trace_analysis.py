"""Trace analysis: boundaries, classification, sizes, connections."""

from __future__ import annotations

import numpy as np
import pytest

from repro.accel import AcceleratorSim

from tests.conftest import observe_structure
from repro.attacks.robust import RobustRawBoundaryTracker
from repro.attacks.structure import (
    INPUT_SOURCE,
    SizeRange,
    analyse_trace,
    find_layer_boundaries,
)
from repro.errors import TraceError
from repro.nn.zoo import build_convnet, build_lenet, build_squeezenet


def _raw_rule(trace):
    tracker = RobustRawBoundaryTracker(min_support=1)
    tracker.feed(trace.cycles, trace.addresses, trace.is_write)
    return tracker.boundaries


@pytest.fixture(scope="module")
def lenet_analysis():
    sim = AcceleratorSim(build_lenet())
    obs = observe_structure(sim, seed=1)
    return sim, obs, analyse_trace(obs)


def test_boundary_count_matches_stages(lenet_analysis):
    sim, obs, ana = lenet_analysis
    assert ana.num_layers == len(sim.staged.stages)


def test_raw_and_protocol_rules_agree_on_sequential(lenet_analysis):
    _, obs, _ = lenet_analysis
    raw = _raw_rule(obs.trace)
    proto = find_layer_boundaries(obs.trace.addresses, obs.trace.is_write)
    assert raw == proto


def test_observed_sizes_contain_truth(lenet_analysis):
    sim, _, ana = lenet_analysis
    truths = sim.staged.geometries()
    for layer, geom in zip(ana.layers, truths):
        assert layer.size_ofm.contains(geom.size_ofm)
        assert layer.size_fltr is not None
        assert layer.size_fltr.contains(geom.size_fltr)
    # FC layers too.
    fc3 = sim.staged.stage("fc3").geometry
    assert ana.layers[2].size_fltr.contains(fc3.size_fltr)


def test_sequential_connections(lenet_analysis):
    _, _, ana = lenet_analysis
    assert ana.layers[0].sources == (INPUT_SOURCE,)
    for k in range(1, ana.num_layers):
        assert ana.layers[k].sources == (k - 1,)
    assert ana.consumers(0) == [1]


def test_first_layer_input_size_is_known(lenet_analysis):
    _, _, ana = lenet_analysis
    ifm = ana.layers[0].size_ifm_per_source[0]
    assert ifm.lo == ifm.hi == 28 * 28


def test_durations_and_transactions_positive(lenet_analysis):
    _, _, ana = lenet_analysis
    for layer in ana.layers:
        assert layer.duration > 0
        assert layer.read_transactions > 0
        assert layer.write_transactions > 0
        assert layer.transactions == layer.read_transactions + layer.write_transactions


def test_squeezenet_dag_recovered():
    sn = build_squeezenet(num_classes=10, width_scale=0.25)
    sim = AcceleratorSim(sn)
    obs = observe_structure(sim, seed=2)
    ana = analyse_trace(obs)
    assert ana.num_layers == len(sn.stages)
    kinds = [l.kind for l in ana.layers]
    # 26 compute stages, 11 merge stages (8 concat + 3 eltwise).
    assert kinds.count("compute") == 26
    assert kinds.count("merge") == 11
    # The raw RAW rule under-segments branch fan-out.
    raw = _raw_rule(obs.trace)
    assert len(raw) < ana.num_layers
    # Bypass structure: some merge layer reads two non-adjacent layers.
    merge_sources = [l.sources for l in ana.layers if l.kind == "merge"]
    assert any(max(s) - min(s) > 1 for s in merge_sources)


def test_squeezenet_fire_fanout_sources():
    sn = build_squeezenet(num_classes=10, width_scale=0.25)
    sim = AcceleratorSim(sn)
    ana = analyse_trace(observe_structure(sim, seed=2))
    # Layer 1 (fire2 squeeze) feeds layers 2 and 3 (the two expands).
    assert ana.consumers(1) == [2, 3]


def test_convnet_analysis_matches_geometry():
    sn = build_convnet()
    sim = AcceleratorSim(sn)
    ana = analyse_trace(observe_structure(sim, seed=3))
    truths = sn.geometries()
    for layer, geom in zip(ana.layers, truths):
        assert layer.size_ofm.contains(geom.size_ofm)


def test_size_range_arithmetic():
    r = SizeRange.from_byte_extent(128, element_bytes=2, block_bytes=64)
    assert r.hi == 64
    assert r.lo == 33
    assert r.contains(50)
    assert not r.contains(32)
    with pytest.raises(TraceError):
        SizeRange.from_byte_extent(100, 2, 64)  # not block aligned


def test_empty_trace_rejected():
    with pytest.raises(TraceError):
        find_layer_boundaries(np.empty(0, np.int64), np.empty(0, bool))
