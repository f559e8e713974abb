"""Lockstep weight recovery equals the serial one-weight-at-a-time order.

:class:`~repro.attacks.weights.WeightAttack` advances many weights'
searches together and sends each step's probes in one multi-pattern
device call.  :func:`repro.reference.weight_attack_reference` drives the
same searches one weight at a time, one probe per call.  The ratio
tensor, the status tensor and the whole session ledger must agree on
every victim shape, channel and execution mode below; a schedule race
(a weight reading a cell another weight has not finished, or has
already changed) would show up as a differing ratio or cache count.
"""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np
import pytest

from perfbench.workloads import _demo_weight_victim
from repro.accel import AcceleratorConfig, AcceleratorSim, PruningConfig
from repro.accel.oracle import SparseStageOracle
from repro.attacks.robust import VotingChannel, calibrate_channel
from repro.attacks.weights import (
    AttackTarget,
    SteppedWeightAttack,
    ThresholdWeightAttack,
    WeightAttack,
)
from repro.channel import ChannelModel
from repro.device import DeviceSession, QueryLedger
from repro.errors import QueryBudgetExceeded
from repro.nn.shapes import PoolSpec
from repro.parallel import shard_ranges
from repro.reference import weight_attack_reference

from tests.conftest import build_conv_stage, pruned_session

VICTIMS = {
    "unpooled": dict(pool=None, seed=7),
    "strided": dict(pool=None, f=4, s=2, seed=3),
    "max-pooled": dict(pool=PoolSpec(2, 2, 0), bias_sign=-1.0, seed=7),
    "avg-pooled": dict(
        pool=PoolSpec(2, 2, 0), pool_kind="avg", bias_sign=-1.0, seed=7
    ),
    "overlapping-pool": dict(pool=PoolSpec(3, 2, 0), bias_sign=-1.0, seed=11),
    "strided-pooled": dict(
        pool=PoolSpec(3, 2, 0), f=5, s=2, w=15, bias_sign=-1.0, seed=11
    ),
    "saturated": dict(pool=PoolSpec(2, 2, 0), bias_sign=1.0, seed=7),
}


def _assert_same(lockstep, serial, lockstep_ledger, serial_ledger):
    np.testing.assert_array_equal(lockstep.ratio_tensor(), serial.ratio_tensor())
    assert (lockstep.status_tensor() == serial.status_tensor()).all()
    assert lockstep_ledger.snapshot() == serial_ledger.snapshot()


def _both(make_session, target, **kwargs):
    a, b = make_session(), make_session()
    lockstep = WeightAttack(a, target, **kwargs).run()
    serial = weight_attack_reference(WeightAttack(b, target, **kwargs))
    return lockstep, serial, a, b


@pytest.mark.parametrize("name", VICTIMS)
def test_lockstep_matches_serial(name):
    staged, geom, _, _ = build_conv_stage(**VICTIMS[name])
    lockstep, serial, a, b = _both(
        lambda: pruned_session(staged), AttackTarget.from_geometry(geom)
    )
    _assert_same(lockstep, serial, a.ledger, b.ledger)


def test_lockstep_matches_serial_on_demo_victim():
    # The perfbench `weights` victim: 43x43x3, 11x11/4 conv, 3x3/2 pool.
    # The conflict schedule does not depend on the bisection depth, so a
    # shorter search keeps the serial oracle affordable.
    staged, geom, _, _ = _demo_weight_victim(43, 2, 0)
    sim = AcceleratorSim(
        staged, AcceleratorConfig(pruning=PruningConfig(enabled=True))
    )
    lockstep, serial, a, b = _both(
        lambda: DeviceSession(sim, "conv1"),
        AttackTarget.from_geometry(geom),
        search_steps=32,
    )
    _assert_same(lockstep, serial, a.ledger, b.ledger)
    assert lockstep.recovery_fraction() == 1.0


def test_lockstep_batches_independent_weights(monkeypatch):
    staged, geom, _, _ = build_conv_stage(**VICTIMS["max-pooled"])
    calls: dict[int, int] = {}
    query_per_filter = DeviceSession.query_per_filter

    def counting(self, pixels, values, rep=0):
        calls[id(self)] = calls.get(id(self), 0) + 1
        return query_per_filter(self, pixels, values, rep)

    monkeypatch.setattr(DeviceSession, "query_per_filter", counting)
    target = AttackTarget.from_geometry(geom)
    a, b = pruned_session(staged), pruned_session(staged)
    WeightAttack(a, target).run()
    weight_attack_reference(WeightAttack(b, target))
    # Two input channels never conflict, so at most half the calls.
    assert 0 < calls[id(a)] <= calls[id(b)] // 2


@pytest.mark.parametrize("name", ["unpooled", "overlapping-pool"])
def test_lockstep_matches_serial_uncached(name):
    staged, geom, _, _ = build_conv_stage(**VICTIMS[name])
    lockstep, serial, a, b = _both(
        lambda: pruned_session(staged, cache_size=0),
        AttackTarget.from_geometry(geom),
    )
    _assert_same(lockstep, serial, a.ledger, b.ledger)


def test_evicting_lru_changes_only_the_hit_split():
    # An LRU smaller than the attack's working set evicts in probe order,
    # which the lockstep schedule interleaves: hits and misses may then
    # split differently from the serial order, but the probes issued and
    # everything recovered stay the same.
    staged, geom, _, _ = build_conv_stage(**VICTIMS["overlapping-pool"])
    lockstep, serial, a, b = _both(
        lambda: pruned_session(staged, cache_size=64),
        AttackTarget.from_geometry(geom),
    )
    np.testing.assert_array_equal(lockstep.ratio_tensor(), serial.ratio_tensor())
    assert (lockstep.status_tensor() == serial.status_tensor()).all()
    assert a.ledger.probe_lookups == b.ledger.probe_lookups


def test_lockstep_matches_serial_on_noisy_counter_channel():
    staged, geom, _, _ = build_conv_stage(
        w=8, c=2, d=3, pool=PoolSpec(2, 2, 0), bias_sign=-1.0, seed=7
    )
    noisy = ChannelModel(counter_sigma=0.2, seed=3)

    # A calibrated vote measures every probe several times (6 reads at
    # this sigma), so batching must keep one vote per probe.
    def voter():
        session = pruned_session(staged, channel=noisy)
        sigma = calibrate_channel(session).counter_sigma
        return VotingChannel(session, repeats=3, sigma=sigma)

    voters = [voter() for _ in range(2)]
    target = AttackTarget.from_geometry(geom)
    lockstep = WeightAttack(voters[0], target, search_steps=16).run()
    serial = weight_attack_reference(
        WeightAttack(voters[1], target, search_steps=16)
    )
    _assert_same(lockstep, serial, voters[0].ledger, voters[1].ledger)
    assert voters[0].measurements == voters[1].measurements
    assert voters[0].fixed_repeats == voters[1].fixed_repeats > 1


def test_lockstep_matches_serial_on_a_filter_range():
    staged, geom, _, _ = build_conv_stage(**VICTIMS["overlapping-pool"])
    lockstep, serial, a, b = _both(
        lambda: pruned_session(staged),
        AttackTarget.from_geometry(geom),
        filter_range=(1, 4),
    )
    _assert_same(lockstep, serial, a.ledger, b.ledger)


def test_sharded_lockstep_matches_serial_shards():
    staged, geom, _, _ = build_conv_stage(**VICTIMS["overlapping-pool"])
    target = AttackTarget.from_geometry(geom)
    parent = pruned_session(staged)
    sharded = WeightAttack(parent, target, workers=2).run()
    expected = QueryLedger()
    filters = []
    for lo, hi in shard_ranges(geom.d_ofm, 2):
        shard = pruned_session(staged)
        part = weight_attack_reference(
            WeightAttack(shard, target, filter_range=(lo, hi))
        )
        filters += part.filters
        expected.merge(shard.ledger)
    np.testing.assert_array_equal(
        sharded.ratio_tensor(), np.stack([f.ratios for f in filters])
    )
    assert (sharded.status_tensor() == np.stack([f.status for f in filters])).all()
    assert parent.ledger.snapshot() == expected.snapshot()


def test_stepped_chunks_match_serial_chunks():
    staged, geom, _, _ = build_conv_stage(**VICTIMS["max-pooled"])
    target = AttackTarget.from_geometry(geom)
    a, b = pruned_session(staged), pruned_session(staged)
    stepped = SteppedWeightAttack(a, target, filters_per_step=4).run()
    filters = []
    for lo in range(0, geom.d_ofm, 4):
        hi = min(lo + 4, geom.d_ofm)
        part = weight_attack_reference(
            WeightAttack(b, target, filter_range=(lo, hi))
        )
        filters += part.filters
    np.testing.assert_array_equal(
        stepped.ratio_tensor(), np.stack([f.ratios for f in filters])
    )
    assert (stepped.status_tensor() == np.stack([f.status for f in filters])).all()
    assert a.ledger.snapshot() == b.ledger.snapshot()


def test_threshold_attack_matches_serial(monkeypatch):
    staged, geom, _, _ = build_conv_stage(
        relu_threshold=0.0, pool=PoolSpec(2, 2, 0), seed=13
    )
    target = AttackTarget.from_geometry(geom)
    a, b = pruned_session(staged), pruned_session(staged)
    lockstep = ThresholdWeightAttack(a, target, t1=1.5, t2=3.0).run()
    monkeypatch.setattr(WeightAttack, "run", weight_attack_reference)
    serial = ThresholdWeightAttack(b, target, t1=1.5, t2=3.0).run()
    np.testing.assert_array_equal(lockstep.weights, serial.weights)
    np.testing.assert_array_equal(lockstep.biases, serial.biases)
    np.testing.assert_array_equal(lockstep.resolved, serial.resolved)
    assert a.ledger.snapshot() == b.ledger.snapshot()


# -- the declared read sets the schedule rests on --------------------------------

class _Recording:
    """An array stand-in noting every ``(c, i, j)`` cell indexed."""

    def __init__(self, array: np.ndarray, cells: set) -> None:
        self._array = array
        self._cells = cells

    def _note(self, key) -> None:
        _, c, i, j = key  # every access is [filters, c, i, j]
        for cell in zip(*(np.ravel(a) for a in np.broadcast_arrays(c, i, j))):
            self._cells.add(tuple(int(v) for v in cell))

    def __getitem__(self, key):
        self._note(key)
        return self._array[key]

    def __setitem__(self, key, value) -> None:
        self._note(key)
        self._array[key] = value


@pytest.mark.parametrize(
    "name", ["unpooled", "overlapping-pool", "max-pooled", "strided-pooled"]
)
def test_every_cell_a_search_reads_is_declared(monkeypatch, name):
    original = WeightAttack._resolve_weight
    undeclared = []
    deep_searches = []

    def recorded(self, state, pos, todo, deep):
        cells: set = set()
        watched = dataclasses.replace(
            state,
            ratios=_Recording(state.ratios, cells),
            status=_Recording(state.status, cells),
        )
        progress = yield from original(self, watched, pos, todo, deep)
        extra = cells - self._read_set(*pos, deep)
        if extra:
            undeclared.append((pos, deep, sorted(extra)))
        deep_searches.append(deep)
        return progress

    monkeypatch.setattr(WeightAttack, "_resolve_weight", recorded)
    staged, geom, _, _ = build_conv_stage(**VICTIMS[name])
    result = WeightAttack(
        pruned_session(staged), AttackTarget.from_geometry(geom)
    ).run()
    assert result.recovery_fraction() == 1.0
    assert not undeclared
    if geom.pool is not None:
        assert any(deep_searches)  # resolution rounds were exercised


@pytest.mark.parametrize("name", ["overlapping-pool", "strided-pooled"])
def test_conflicting_searches_never_overlap(monkeypatch, name):
    """The schedule's own invariant, checked directly: if two searches of
    one round conflict, the later one starts after the earlier ends."""
    clock = itertools.count()
    rounds: list[dict] = []
    run_round = WeightAttack._run_round
    resolve_weight = WeightAttack._resolve_weight
    query_per_filter = DeviceSession.query_per_filter

    def counted_round(self, state, deep):
        rounds.append({})
        return run_round(self, state, deep)

    def timed(self, state, pos, todo, deep):
        start = next(clock)
        progress = yield from resolve_weight(self, state, pos, todo, deep)
        rounds[-1][pos] = (start, next(clock), self._read_set(*pos, deep))
        return progress

    def ticking(self, pixels, values, rep=0):
        next(clock)
        return query_per_filter(self, pixels, values, rep)

    monkeypatch.setattr(WeightAttack, "_run_round", counted_round)
    monkeypatch.setattr(WeightAttack, "_resolve_weight", timed)
    monkeypatch.setattr(DeviceSession, "query_per_filter", ticking)
    staged, geom, _, _ = build_conv_stage(**VICTIMS[name])
    WeightAttack(pruned_session(staged), AttackTarget.from_geometry(geom)).run()
    assert len(rounds) > 1
    for spans in rounds:
        for k, (k_start, k_end, k_reads) in spans.items():
            for m, (m_start, _, m_reads) in spans.items():
                if k < m and (m in k_reads or k in m_reads):
                    assert k_end < m_start, (k, m)


def test_budget_breach_never_overspends(monkeypatch):
    staged, geom, _, _ = build_conv_stage(**VICTIMS["overlapping-pool"])
    target = AttackTarget.from_geometry(geom)
    full = pruned_session(staged)
    WeightAttack(full, target).run()
    budget = full.ledger.channel_queries // 3
    session = pruned_session(staged, max_queries=budget)
    device_runs = []
    nnz_batch = SparseStageOracle.nnz_batch

    def counted(self, pixels, values):
        counts = nnz_batch(self, pixels, values)
        device_runs.append(len(counts))
        return counts

    monkeypatch.setattr(SparseStageOracle, "nnz_batch", counted)
    with pytest.raises(QueryBudgetExceeded):
        WeightAttack(session, target).run()
    # A step is charged all-or-nothing before the device runs, so the
    # refused step cost nothing and no device run went unbilled.
    assert 0 < session.ledger.channel_queries <= budget
    assert sum(device_runs) == session.ledger.channel_queries
