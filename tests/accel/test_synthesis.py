"""Vectorised trace synthesis must be bit-identical to the per-tile oracle.

The attacks treat the trace as ground truth, so the cached-plan
vectorised synthesiser is only admissible if its flattened event stream
matches the straightforward per-tile emitter
(:func:`repro.reference.synthesize_reference`) event for event — under
pruning, under timing jitter, across runs and replays.
"""

from __future__ import annotations

import numpy as np
import pytest

from benchmarks.perf.golden import GOLDEN_LENET_SHA256, lenet_span_digest
from repro.accel import (
    AcceleratorConfig,
    AcceleratorSim,
    PruningConfig,
    TimingModel,
)
from repro.nn.zoo import build_lenet, build_squeezenet
from repro.reference import synthesize_reference


def _assert_streams_equal(a, b):
    assert a.total_cycles == b.total_cycles
    np.testing.assert_array_equal(a.trace.cycles, b.trace.cycles)
    np.testing.assert_array_equal(a.trace.addresses, b.trace.addresses)
    np.testing.assert_array_equal(a.trace.is_write, b.trace.is_write)
    assert [(w.name, w.start_cycle, w.end_cycle) for w in a.windows] == [
        (w.name, w.start_cycle, w.end_cycle) for w in b.windows
    ]


def _assert_matches_oracle(sim, x):
    """Run ``sim`` on ``x``; the per-tile oracle must emit the same run."""
    result = sim.run(x)
    _assert_streams_equal(synthesize_reference(sim), result)
    return result


CONFIGS = {
    "dense": {},
    "pruned": {"pruning": PruningConfig(enabled=True)},
    "jitter": {"timing": TimingModel(jitter=0.08)},
    "pruned-jitter": {
        "pruning": PruningConfig(enabled=True),
        "timing": TimingModel(jitter=0.08),
    },
}


@pytest.mark.parametrize("cfg", CONFIGS.values(), ids=CONFIGS.keys())
def test_lenet_bit_identical_across_engines(cfg):
    sim = AcceleratorSim(build_lenet(), AcceleratorConfig(**cfg))
    x = np.random.default_rng(0).normal(size=(1, 1, 28, 28))
    _assert_matches_oracle(sim, x)
    # Second run: jitter advances to the next stream, cached read plans
    # must be reused without going stale.
    _assert_matches_oracle(sim, x)


def test_squeezenet_merge_stages_bit_identical():
    staged = build_squeezenet(num_classes=10, width_scale=0.25)
    x = np.random.default_rng(1).normal(size=(1, 3, 227, 227))
    _assert_matches_oracle(AcceleratorSim(staged), x)


def test_pruned_plans_invalidate_on_new_input():
    # Pruned traces depend on the activations; a fresh input must not
    # reuse the previous run's ground truth.
    sim = AcceleratorSim(
        build_lenet(), AcceleratorConfig(pruning=PruningConfig(enabled=True))
    )
    rng = np.random.default_rng(2)
    a = rng.normal(size=(1, 1, 28, 28))
    b = rng.normal(size=(1, 1, 28, 28))
    _assert_matches_oracle(sim, a)
    vb = _assert_matches_oracle(sim, b)
    assert not np.array_equal(
        vb.trace.addresses, sim.run(a).trace.addresses
    )


def test_replay_reproduces_run_bit_for_bit():
    sim = AcceleratorSim(
        build_lenet(), AcceleratorConfig(timing=TimingModel(jitter=0.08))
    )
    x = np.random.default_rng(3).normal(size=(1, 1, 28, 28))
    run = sim.run(x)
    replay = sim.replay()
    _assert_streams_equal(run, replay)
    # A different run index draws a different jitter stream.
    other = sim.replay(run_index=999)
    assert other.total_cycles != run.total_cycles


def test_lenet_golden_digest_pinned():
    assert lenet_span_digest() == GOLDEN_LENET_SHA256
    assert lenet_span_digest(reference=True) == GOLDEN_LENET_SHA256
