"""Dense-write runs without a forward pass.

A dense-write trace is a function of geometry, dataflow and the run's
jitter stream, so :meth:`AcceleratorSim.run` synthesizes it without
running the network; the output and per-stage non-zero counts are
computed on first read.  A pruned run still starts with its forward
pass, since the values decide which blocks are written.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.accel import (
    AcceleratorConfig,
    AcceleratorSim,
    PruningConfig,
    TimingModel,
)
from repro.nn.zoo import build_lenet
from repro.power import PowerSink

PRUNED = AcceleratorConfig(pruning=PruningConfig(enabled=True))


def _image(seed: int) -> np.ndarray:
    return np.random.default_rng(seed).normal(size=(1, 1, 28, 28))


def _plane_nnz(values: np.ndarray) -> np.ndarray:
    if values.ndim == 3:
        return np.count_nonzero(values.reshape(len(values), -1), axis=1)
    return np.array([np.count_nonzero(values)])


def test_one_shape_probe_per_victim(forwards):
    staged = build_lenet()
    AcceleratorSim(staged)
    AcceleratorSim(staged, AcceleratorConfig(dataflow="row-stationary"))
    assert forwards == [staged.network]


def test_dense_run_does_no_forward_pass(forwards):
    sim = AcceleratorSim(build_lenet())
    forwards.clear()
    for seed in range(3):
        sim.run(_image(seed))
    sim.replay()
    assert forwards == []


def test_pruned_run_does_one_forward_pass(forwards):
    sim = AcceleratorSim(build_lenet(), PRUNED)
    forwards.clear()
    result = sim.run(_image(0))
    assert len(forwards) == 1
    assert result.output.shape == (1, 10) and "conv1" in result.nnz
    sim.replay()
    assert len(forwards) == 1


@pytest.mark.parametrize("config", [None, PRUNED], ids=["dense", "pruned"])
def test_ground_truth_survives_later_runs(forwards, config):
    staged = build_lenet()
    sim = AcceleratorSim(staged, config)
    x = _image(0)
    expected = staged.network.forward(x.copy())
    acts = staged.network.activations
    expected_nnz = {
        stage.name: _plane_nnz(acts[stage.output_node][0])
        for stage in staged.stages
    }
    first = sim.run(x)
    x[...] = 0.0  # the caller reuses its buffer
    later = sim.run(_image(1))
    sim.run(_image(2))
    forwards.clear()
    np.testing.assert_array_equal(first.output, expected)
    for name, counts in expected_nnz.items():
        np.testing.assert_array_equal(first.nnz[name], counts)
    assert later.output.shape == (1, 10)
    # A dense result runs its forward pass once, on first read.
    assert first.output is first.output
    assert len(forwards) == (2 if config is None else 0)
    np.testing.assert_array_equal(
        later.output, staged.network.forward(_image(1))
    )


# sha256 of two runs per dataflow of LeNet under timing jitter 0.1
# (noise_seed 5): each run's power-proxy digest, then the next run's
# trace columns, stage windows and total_cycles.  Recorded with the
# forward pass ahead of synthesis on every run; the trace must not
# notice that it is gone.  (The golden digests pin jitter 0 only.)
JITTERED_SHA256 = {
    "output-stationary":
        "815e6a720d4eb9fd842b3c237fc7fc08b65b690cd5dc8234e2338fabbe06bd43",
    "weight-stationary":
        "a1e8064ff7728d5286c37f03dac5000e9f13b3e6669004d3581b9e45840dae35",
    "row-stationary":
        "7a8c35697d006ac0170b0d883a04add87813dcf4e3d994fb72966229b0d18baf",
}


@pytest.mark.parametrize("dataflow", sorted(JITTERED_SHA256))
def test_jittered_streams_match_forward_first_order(dataflow):
    sim = AcceleratorSim(build_lenet(), AcceleratorConfig(
        dataflow=dataflow, timing=TimingModel(jitter=0.1, noise_seed=5)
    ))
    h = hashlib.sha256()
    for seed in (0, 1):
        x = _image(seed)
        power = PowerSink(sim.config.timing)
        sim.run(x, power)
        h.update(power.trace().digest().encode())
        result = sim.run(x)
        for column in (
            result.trace.cycles, result.trace.addresses, result.trace.is_write
        ):
            h.update(np.ascontiguousarray(column).tobytes())
        h.update(repr([
            (w.name, w.start_cycle, w.end_cycle, w.num_reads, w.num_writes)
            for w in result.windows
        ]).encode())
        h.update(repr(result.total_cycles).encode())
    assert h.hexdigest() == JITTERED_SHA256[dataflow]
