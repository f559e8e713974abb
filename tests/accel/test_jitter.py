"""Timing jitter and multi-run duration filtering."""

from __future__ import annotations

import numpy as np
import pytest

from repro.accel import AcceleratorConfig, AcceleratorSim, TimingModel

from tests.conftest import observe_structure
from repro.attacks.structure import analyse_trace, average_analyses
from repro.errors import ConfigError, TraceError
from repro.nn.zoo import build_lenet


def test_jitter_validation():
    with pytest.raises(ConfigError):
        TimingModel(jitter=-0.1)
    with pytest.raises(ConfigError):
        TimingModel(jitter=1.0)


def test_jitter_only_delays():
    """One-sided noise: jittered durations never beat the clean ones."""
    victim = build_lenet()
    clean = analyse_trace(
        observe_structure(AcceleratorSim(victim), seed=0)
    )
    noisy_sim = AcceleratorSim(
        victim, AcceleratorConfig(timing=TimingModel(jitter=0.3))
    )
    for seed in range(3):
        noisy = analyse_trace(observe_structure(noisy_sim, seed=seed))
        for a, b in zip(noisy.layers, clean.layers):
            assert a.duration >= b.duration - 1  # rounding slack


def test_jitter_varies_across_runs():
    victim = build_lenet()
    sim = AcceleratorSim(
        victim, AcceleratorConfig(timing=TimingModel(jitter=0.2))
    )
    d1 = [l.duration for l in analyse_trace(observe_structure(sim, seed=0)).layers]
    d2 = [l.duration for l in analyse_trace(observe_structure(sim, seed=0)).layers]
    assert d1 != d2  # fresh jitter every run, even for the same input


def test_structural_facts_unaffected_by_jitter():
    victim = build_lenet()
    clean = analyse_trace(observe_structure(AcceleratorSim(victim), seed=0))
    noisy = analyse_trace(
        observe_structure(
            AcceleratorSim(
                victim, AcceleratorConfig(timing=TimingModel(jitter=0.3))
            ),
            seed=0,
        )
    )
    for a, b in zip(noisy.layers, clean.layers):
        assert a.sources == b.sources
        assert a.size_ofm == b.size_ofm
        assert a.size_fltr == b.size_fltr


def test_min_filter_approaches_clean_durations():
    victim = build_lenet()
    clean = analyse_trace(observe_structure(AcceleratorSim(victim), seed=0))
    sim = AcceleratorSim(
        victim, AcceleratorConfig(timing=TimingModel(jitter=0.2))
    )
    analyses = [
        analyse_trace(observe_structure(sim, seed=k)) for k in range(15)
    ]
    filtered = average_analyses(analyses)
    for a, b in zip(filtered.layers, clean.layers):
        assert a.duration <= 1.3 * b.duration
    for k, lo in enumerate(filtered.layers):
        assert lo.duration == min(a.layers[k].duration for a in analyses)


def test_average_analyses_validation():
    victim = build_lenet()
    ana = analyse_trace(observe_structure(AcceleratorSim(victim), seed=0))
    with pytest.raises(TraceError):
        average_analyses([])
    # Disagreeing structures are rejected.
    from repro.nn.zoo import build_convnet

    other = analyse_trace(observe_structure(AcceleratorSim(build_convnet()), seed=0))
    with pytest.raises(TraceError):
        average_analyses([ana, other])
