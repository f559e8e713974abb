"""Weight ratio recovery: the Section 4 attack end to end.

The Figure 7 bar: recovered w/b ratios within 2^-10 of truth, zero
weights identified.  Our binary searches reach float64 resolution, so
assertions use a much tighter bound.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from perfbench.workloads import _demo_weight_victim
from repro.accel import AcceleratorConfig, AcceleratorSim, PruningConfig
from repro.attacks.weights import AttackTarget, WeightAttack, WeightStatus
from repro.device import DeviceSession
from repro.errors import AttackError
from repro.nn.shapes import PoolSpec
from repro.reference import dense_session

from tests.conftest import build_conv_stage, pruned_session

PAPER_BOUND = 2.0**-10


def run_attack(**kwargs):
    staged, geom, weights, biases = build_conv_stage(**kwargs)
    channel = pruned_session(staged)
    result = WeightAttack(channel, AttackTarget.from_geometry(geom)).run()
    return result, weights, biases


def test_no_pool_full_recovery_mixed_bias_signs():
    result, weights, biases = run_attack(pool=None, seed=7)
    assert result.recovery_fraction() == 1.0
    assert result.max_ratio_error(weights, biases) < PAPER_BOUND / 1e6


def test_no_pool_strided():
    result, weights, biases = run_attack(pool=None, f=4, s=2, seed=3)
    assert result.recovery_fraction() == 1.0
    assert result.max_ratio_error(weights, biases) < PAPER_BOUND / 1e6


def test_zero_weights_identified():
    result, weights, _ = run_attack(pool=None, seed=7, zero_fraction=0.4)
    status = result.status_tensor()
    true_zero = weights == 0.0
    assert (status[true_zero] == WeightStatus.ZERO).all()
    assert (status[~true_zero] == WeightStatus.RECOVERED).all()


@pytest.mark.parametrize("kind", ["max", "avg"])
def test_pooled_recovery(kind):
    result, weights, biases = run_attack(
        pool=PoolSpec(2, 2, 0), pool_kind=kind, bias_sign=-1.0, seed=7
    )
    assert result.recovery_fraction() == 1.0
    assert result.max_ratio_error(weights, biases) < PAPER_BOUND / 1e6


def test_overlapping_pool_recovery():
    result, weights, biases = run_attack(
        pool=PoolSpec(3, 2, 0), bias_sign=-1.0, seed=11
    )
    assert result.recovery_fraction() == 1.0
    assert result.max_ratio_error(weights, biases) < PAPER_BOUND / 1e6


def test_positive_bias_pooled_is_saturated():
    result, _, _ = run_attack(pool=PoolSpec(2, 2, 0), bias_sign=1.0, seed=7)
    status = result.status_tensor()
    assert (status == WeightStatus.SATURATED).all()
    assert result.recovery_fraction() == 0.0


def test_bias_sign_detected():
    result, _, biases = run_attack(pool=None, seed=7)
    for f, rec in enumerate(result.filters):
        assert rec.bias_positive == (biases[f] > 0)


def test_alexnet_conv1_geometry_full_recovery():
    """Scaled-down Figure 7 scenario: 11x11 stride-4 conv + 3x2 max pool."""
    result, weights, biases = run_attack(
        w=59, c=2, d=4, f=11, s=4, pool=PoolSpec(3, 2, 0),
        bias_sign=-1.0, seed=3,
    )
    assert result.recovery_fraction() == 1.0
    assert result.max_ratio_error(weights, biases) < PAPER_BOUND / 1e6


def test_query_accounting_positive():
    result, _, _ = run_attack(pool=None, seed=7, w=8, d=2)
    assert result.queries > 0


def test_requires_per_plane_channel():
    staged, geom, _, _ = build_conv_stage()
    channel = pruned_session(staged, granularity="aggregate")
    with pytest.raises(AttackError):
        WeightAttack(channel, AttackTarget.from_geometry(geom))


def test_geometry_mismatch_rejected():
    staged, geom, _, _ = build_conv_stage()
    channel = pruned_session(staged)
    wrong = AttackTarget(
        w_ifm=geom.w_ifm + 2, d_ifm=geom.d_ifm, d_ofm=geom.d_ofm,
        f_conv=geom.f_conv, s_conv=geom.s_conv,
    )
    with pytest.raises(AttackError):
        WeightAttack(channel, wrong)


def test_attack_through_dense_oracle_matches_sparse():
    """The attack works identically through the slow reference oracle."""
    staged, geom, weights, biases = build_conv_stage(w=8, c=1, d=3, seed=2)
    fast = WeightAttack(
        pruned_session(staged), AttackTarget.from_geometry(geom)
    ).run()
    slow = WeightAttack(
        dense_session(pruned_session(staged).device),
        AttackTarget.from_geometry(geom),
    ).run()
    np.testing.assert_allclose(fast.ratio_tensor(), slow.ratio_tensor())


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 500))
def test_recovery_property_no_pool(seed):
    staged, geom, weights, biases = build_conv_stage(
        w=8, c=1, d=3, f=3, seed=seed
    )
    channel = pruned_session(staged)
    result = WeightAttack(channel, AttackTarget.from_geometry(geom)).run()
    assert result.recovery_fraction() == 1.0
    assert result.max_ratio_error(weights, biases) < 1e-9


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 500))
def test_recovery_property_pooled(seed):
    staged, geom, weights, biases = build_conv_stage(
        w=10, c=1, d=3, f=3, pool=PoolSpec(2, 2, 0), bias_sign=-1.0, seed=seed
    )
    channel = pruned_session(staged)
    result = WeightAttack(channel, AttackTarget.from_geometry(geom)).run()
    resolved = result.resolved_mask()
    assert resolved.mean() > 0.95
    assert result.max_ratio_error(weights, biases) < 1e-9


def test_demo_victim_full_depth_ticks_and_ledger(monkeypatch):
    """The `repro weights` demo victim at the default 64 bisection steps:
    the lockstep schedule's device calls and the whole ledger, pinned."""
    calls = []
    query_per_filter = DeviceSession.query_per_filter

    def counting(self, pixels, values, rep=0):
        calls.append(len(pixels))
        return query_per_filter(self, pixels, values, rep)

    monkeypatch.setattr(DeviceSession, "query_per_filter", counting)
    staged, geom, _, _ = _demo_weight_victim(43, 2, 0)
    sim = AcceleratorSim(
        staged, AcceleratorConfig(pruning=PruningConfig(enabled=True))
    )
    session = DeviceSession(sim, "conv1")
    result = WeightAttack(session, AttackTarget.from_geometry(geom)).run()
    assert result.recovery_fraction() == 1.0
    assert len(calls) == 4_749
    ledger = session.ledger
    assert ledger.channel_queries == 38_825
    assert ledger.cache_hits == 37_970
    assert ledger.cache_misses == 38_825
