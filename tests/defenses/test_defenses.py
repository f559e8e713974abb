"""Defences: ORAM obfuscation kills the structure attack; padding kills
the zero-pruning channel.  Both at measurable cost."""

from __future__ import annotations

import numpy as np
import pytest

from repro.accel import AcceleratorSim
from repro.attacks.structure import find_layer_boundaries
from repro.attacks.weights import AttackTarget, WeightAttack
from repro.defenses import (
    OramConfig,
    PaddedChannel,
    apply_path_oram,
    measure_padding_overhead,
)
from repro.errors import ConfigError
from repro.nn.zoo import build_lenet

from tests.conftest import build_conv_stage, observe_structure, pruned_session


@pytest.fixture(scope="module")
def lenet_obs():
    sim = AcceleratorSim(build_lenet())
    return sim, observe_structure(sim, seed=0)


def test_oram_overhead_is_significant(lenet_obs):
    _, obs = lenet_obs
    result = apply_path_oram(obs.trace)
    assert result.overhead_factor >= 2 * result.tree_levels
    assert result.physical_accesses == len(result.trace)
    assert result.logical_accesses == len(obs.trace)


def test_oram_destroys_layer_boundaries(lenet_obs):
    _, obs = lenet_obs
    result = apply_path_oram(obs.trace)
    true_layers = len(
        find_layer_boundaries(obs.trace.addresses, obs.trace.is_write)
    )
    oram_layers = len(
        find_layer_boundaries(result.trace.addresses, result.trace.is_write)
    )
    # The obfuscated trace segments into noise, not the true 4 layers.
    assert oram_layers != true_layers
    assert oram_layers > 10 * true_layers


def test_oram_addresses_independent_of_logical(lenet_obs):
    _, obs = lenet_obs
    a = apply_path_oram(obs.trace, OramConfig(seed=0))
    b = apply_path_oram(obs.trace, OramConfig(seed=1))
    # Different leaf randomness, same logical trace: different addresses.
    assert not np.array_equal(a.trace.addresses, b.trace.addresses)


def test_oram_config_validation():
    with pytest.raises(ConfigError):
        OramConfig(bucket_size=0)


def test_padded_channel_is_constant():
    staged, geom, _, _ = build_conv_stage(seed=8)
    channel = PaddedChannel(pruned_session(staged))
    a = channel.query([(0, 0, 0)], [5.0])
    b = channel.query([(0, 3, 3)], [-7.0])
    np.testing.assert_array_equal(a, b)
    c = channel.query_per_filter([[(0, 0, 0)]], [np.ones((1, channel.d_ofm))])[0]
    np.testing.assert_array_equal(np.asarray(a), np.asarray(c))


def test_weight_attack_fails_against_padding():
    staged, geom, _, _ = build_conv_stage(seed=8, w=8, c=1, d=3)
    channel = PaddedChannel(pruned_session(staged))
    result = WeightAttack(channel, AttackTarget.from_geometry(geom)).run()
    # Constant counts look like "every weight is zero": nothing real is
    # recovered (no weight gets a non-zero ratio).
    assert (result.ratio_tensor() == 0.0).all()


def test_padding_overhead_accounting():
    staged, _, _, _ = build_conv_stage(seed=8)
    sim_result = None
    sim = AcceleratorSim(staged)
    sim_result = sim.run(np.random.default_rng(0).normal(size=(1, *staged.network.input_shape)))
    overhead = measure_padding_overhead(sim, sim_result)
    assert overhead.padded_writes == overhead.dense_writes
    assert overhead.pruned_writes <= overhead.dense_writes
    assert 0.0 <= overhead.savings_lost <= 1.0
    if overhead.pruned_writes < overhead.dense_writes:
        assert overhead.savings_lost == 1.0  # padding gives everything back
        assert overhead.padding_vs_pruned > 1.0
