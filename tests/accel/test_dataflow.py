"""Trace invariants and golden digests for every dataflow strategy.

Whatever the loop order, a trace must stay physically plausible:
delivered cycles never run backwards, each OFM block is written exactly
once (dense writes), and filter regions are read-only.  The vectorised
synthesiser must stay bit-identical to the per-tile oracle under every
dataflow, and each (model, dataflow) pair must reproduce its pinned
golden digest — with the output-stationary default bit-identical to the
pre-dataflow simulator.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.perf.golden import (
    GOLDEN_DATAFLOW_SHA256,
    GOLDEN_LENET_SHA256,
    model_span_digest,
)
from repro.accel import (
    AcceleratorConfig,
    AcceleratorSim,
    OutputStationary,
    PruningConfig,
    RowStationary,
    TimingModel,
    WeightStationary,
    available_dataflows,
    plan_conv_tiles,
    resolve_dataflow,
)
from repro.errors import ConfigError
from repro.nn.spec import LayerGeometry
from repro.nn.zoo import build_lenet, build_squeezenet
from repro.reference import synthesize_reference

DATAFLOWS = available_dataflows()

CONFIGS = {
    "dense": {},
    "pruned": {"pruning": PruningConfig(enabled=True)},
    "jitter": {"timing": TimingModel(jitter=0.08)},
    "pruned-jitter": {
        "pruning": PruningConfig(enabled=True),
        "timing": TimingModel(jitter=0.08),
    },
}


def _assert_streams_equal(a, b):
    assert a.total_cycles == b.total_cycles
    np.testing.assert_array_equal(a.trace.cycles, b.trace.cycles)
    np.testing.assert_array_equal(a.trace.addresses, b.trace.addresses)
    np.testing.assert_array_equal(a.trace.is_write, b.trace.is_write)


@pytest.mark.parametrize("dataflow", DATAFLOWS)
@pytest.mark.parametrize("cfg", CONFIGS.values(), ids=CONFIGS.keys())
def test_reference_vs_vectorised_bit_identical(dataflow, cfg):
    sim = AcceleratorSim(
        build_lenet(), AcceleratorConfig(dataflow=dataflow, **cfg)
    )
    x = np.random.default_rng(0).normal(size=(1, 1, 28, 28))
    # Second run: cached per-segment plans must be reused without going
    # stale, and jitter must advance identically on both paths.
    for _ in range(2):
        _assert_streams_equal(sim.run(x), synthesize_reference(sim))


@pytest.mark.parametrize("dataflow", DATAFLOWS)
def test_trace_physical_invariants(dataflow):
    staged = build_lenet()
    sim = AcceleratorSim(staged, AcceleratorConfig(dataflow=dataflow))
    x = np.random.default_rng(1).normal(size=(1, 1, 28, 28))
    trace = sim.run(x).trace

    # Delivered cycles never run backwards.
    assert np.all(np.diff(trace.cycles) >= 0)

    writes = trace.addresses[trace.is_write]
    # Write-once OFM: dense writes hit each block exactly once, no
    # matter how the dataflow splits the stage into bursts.
    assert len(np.unique(writes)) == len(writes)

    # Writes cover each OFM region exactly; filter regions are
    # read-only and fully fetched.
    ofm_blocks, weight_blocks = [], []
    for name, region in sim.allocator.regions.items():
        if name == "input":
            continue
        if region.purpose == "weights":
            weight_blocks.append(region.block_addresses())
        else:
            ofm_blocks.append(region.block_addresses())
    np.testing.assert_array_equal(
        np.sort(writes), np.sort(np.concatenate(ofm_blocks))
    )
    reads = set(trace.addresses[~trace.is_write].tolist())
    for blocks in weight_blocks:
        assert set(blocks.tolist()) <= reads
        assert not set(blocks.tolist()) & set(writes.tolist())


@pytest.mark.parametrize("dataflow", DATAFLOWS)
def test_squeezenet_merge_stages_bit_identical(dataflow):
    staged = build_squeezenet(num_classes=10, width_scale=0.25)
    sim = AcceleratorSim(staged, AcceleratorConfig(dataflow=dataflow))
    x = np.random.default_rng(2).normal(size=(1, 3, 227, 227))
    _assert_streams_equal(sim.run(x), synthesize_reference(sim))


@pytest.mark.parametrize(
    "model,dataflow", sorted(GOLDEN_DATAFLOW_SHA256),
    ids=[f"{m}-{d}" for m, d in sorted(GOLDEN_DATAFLOW_SHA256)],
)
def test_golden_dataflow_digest(model, dataflow):
    assert model_span_digest(model, dataflow) == (
        GOLDEN_DATAFLOW_SHA256[(model, dataflow)]
    )


def test_default_dataflow_is_output_stationary_and_unchanged():
    config = AcceleratorConfig()
    assert config.dataflow == "output-stationary"
    assert GOLDEN_DATAFLOW_SHA256[("lenet", "output-stationary")] == (
        GOLDEN_LENET_SHA256
    )


def test_unknown_dataflow_rejected():
    with pytest.raises(ConfigError, match="output-stationary"):
        AcceleratorConfig(dataflow="systolic")
    with pytest.raises(ConfigError):
        resolve_dataflow("nope")


def test_resolve_dataflow_accepts_instances_and_none():
    assert isinstance(resolve_dataflow(None), OutputStationary)
    ws = WeightStationary()
    assert resolve_dataflow(ws) is ws
    assert AcceleratorConfig(dataflow=RowStationary()).dataflow == (
        "row-stationary"
    )


@pytest.mark.parametrize("dataflow", DATAFLOWS)
def test_conv_tile_plans_cover_the_stage(dataflow):
    from repro.accel import BufferConfig

    geom = LayerGeometry.from_conv(28, 6, 16, 5, 1, 0)
    buffers = BufferConfig(
        ifm_buffer_elements=2048, weight_buffer_elements=1024
    )
    tiles = plan_conv_tiles(geom, buffers, dataflow=dataflow)
    covered = np.zeros((geom.w_conv, geom.d_ofm), dtype=int)
    for t in tiles:
        covered[t.out_row_start:t.out_row_end, t.oc_start:t.oc_end] += 1
    assert (covered == 1).all()
    df = resolve_dataflow(dataflow)
    if isinstance(df, OutputStationary):
        # IFM bands fetched once, weights re-fetched per band.
        assert all(t.fetch_weights for t in tiles)
        assert sum(t.fetch_ifm for t in tiles) == len(
            {t.out_row_start for t in tiles}
        )
    elif isinstance(df, WeightStationary):
        # Weights pinned per group, the IFM re-streamed past them.
        assert all(t.fetch_ifm for t in tiles)
        assert sum(t.fetch_weights for t in tiles) == len(
            {t.oc_start for t in tiles}
        )
    else:
        # Row-stationary: single-row bands, weights re-fetched per row.
        assert all(t.fetch_weights for t in tiles)
        assert all(t.out_row_end - t.out_row_start == 1 for t in tiles)
