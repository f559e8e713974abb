"""DeviceSession: the metered attacker/device boundary.

Covers the acceptance bar for the session layer: bit-identity with the
device's own pruning oracle, exact budget semantics, cache accounting
that matches the attack's own query report, and the Table 1 guard rails.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.accel import AcceleratorSim
from repro.accel.oracle import SparseStageOracle
from repro.attacks.weights import AttackTarget, WeightAttack
from repro.device import (
    TRACE_EVENT_BYTES,
    DeviceSession,
    QueryBudgetExceeded,
    QueryLedger,
)
from repro.errors import ConfigError, ThreatModelViolation
from repro.nn.shapes import PoolSpec
from repro.reference import dense_session

from tests.conftest import build_conv_stage, pruned_session

PIXEL = [(0, 2, 2)]


# -- bit-identity with the device's own oracle ----------------------------

def test_query_matches_device_oracle_bitwise():
    staged, _, _, _ = build_conv_stage(seed=5)
    session = pruned_session(staged)
    oracle = SparseStageOracle(staged, "conv1")
    for value in (0.0, -1.5, 2.25):
        reply = session.query(PIXEL, [value])
        assert reply.dtype == np.int64
        assert np.array_equal(
            reply, oracle.nnz(PIXEL, np.asarray([value]))
        )


def test_aggregate_mode_returns_length_one_array():
    staged, _, _, _ = build_conv_stage(seed=5)
    session = pruned_session(staged, granularity="aggregate")
    oracle = SparseStageOracle(staged, "conv1")
    reply = session.query(PIXEL, [1.5])
    assert reply.shape == (1,)
    # One aggregate stream: the sum of the device's per-plane counts.
    assert int(reply[0]) == int(oracle.nnz(PIXEL, np.asarray([1.5])).sum())


def test_session_attack_bit_identical_with_and_without_cache():
    # Caching changes attack *cost*, never attack *observations*.
    staged, geom, _, _ = build_conv_stage(
        pool=PoolSpec(2, 2, 0), bias_sign=-1.0, seed=4
    )
    target = AttackTarget.from_geometry(geom)
    cached = WeightAttack(pruned_session(staged), target).run()
    uncached = WeightAttack(
        pruned_session(staged, cache_size=0), target
    ).run()
    assert np.array_equal(cached.ratio_tensor(), uncached.ratio_tensor())
    assert np.array_equal(cached.resolved_mask(), uncached.resolved_mask())


# -- batching -------------------------------------------------------------

def test_query_batch_rows_equal_individual_queries():
    staged, _, _, _ = build_conv_stage(seed=3)
    session = pruned_session(staged)
    fresh = pruned_session(staged)
    values = np.array([[-2.0], [0.0], [0.5], [3.0]])
    batched = session.query_batch(PIXEL, values)
    singles = np.stack([fresh.query(PIXEL, row) for row in values])
    assert np.array_equal(batched, singles)


def test_query_batch_charges_each_distinct_row_once():
    staged, _, _, _ = build_conv_stage()
    session = pruned_session(staged)
    values = np.array([[1.0], [2.0], [1.0], [2.0], [3.0]])
    session.query_batch(PIXEL, values)
    assert session.queries == 3  # three distinct device runs
    assert session.ledger.cache_hits == 2  # two within-batch duplicates


def test_empty_batch_costs_nothing():
    staged, geom, _, _ = build_conv_stage()
    session = pruned_session(staged)
    out = session.query_batch(PIXEL, np.empty((0, 1)))
    assert out.shape == (0, geom.d_ofm)
    assert session.queries == 0


# -- caching --------------------------------------------------------------

def test_repeated_query_served_from_cache():
    staged, _, _, _ = build_conv_stage()
    session = pruned_session(staged)
    first = session.query(PIXEL, [1.25])
    again = session.query(PIXEL, [1.25])
    assert np.array_equal(first, again)
    assert session.queries == 1
    assert session.ledger.cache_hits == 1
    with pytest.raises(ValueError):
        again[0] = 7  # replies are read-only


def test_cache_disabled_charges_every_run():
    staged, _, _, _ = build_conv_stage()
    session = pruned_session(staged, cache_size=0)
    session.query(PIXEL, [1.25])
    session.query(PIXEL, [1.25])
    assert session.queries == 2


def test_per_filter_decomposition_shares_cached_runs():
    staged, geom, _, _ = build_conv_stage()
    session = pruned_session(staged)
    oracle = SparseStageOracle(staged, "conv1")
    values = np.zeros((1, geom.d_ofm))
    values[0, 0] = 1.5  # every other filter probes the idle 0.0 run
    counts = session.query_per_filter([PIXEL], [values])[0]
    assert np.array_equal(counts, oracle.nnz_per_filter(PIXEL, values))
    assert session.queries == 2  # the 1.5 run plus one shared 0.0 run


def test_threshold_namespaces_the_cache():
    staged, _, _, _ = build_conv_stage(relu_threshold=0.0, bias_sign=-1.0)
    session = pruned_session(staged)
    session.query(PIXEL, [2.0])
    session.set_threshold(0.5)
    session.query(PIXEL, [2.0])  # same probe, new threshold: a new run
    assert session.queries == 2
    session.set_threshold(0.0)
    session.query(PIXEL, [2.0])  # back to the first setting: memoised
    assert session.queries == 2
    assert session.ledger.cache_hits == 1


# -- budgets and accounting -----------------------------------------------

def test_budget_exhaustion_is_exact():
    staged, _, _, _ = build_conv_stage()
    session = pruned_session(staged, max_queries=3, cache_size=0)
    for k in range(3):
        session.query(PIXEL, [float(k)])
    with pytest.raises(QueryBudgetExceeded):
        session.query(PIXEL, [99.0])
    assert session.ledger.channel_queries == 3


def test_attack_reported_queries_match_the_ledger():
    staged, geom, _, _ = build_conv_stage(bias_sign=-1.0, seed=2)
    session = pruned_session(staged)
    result = WeightAttack(session, AttackTarget.from_geometry(geom)).run()
    assert result.recovery_fraction() == 1.0
    assert result.queries == session.ledger.channel_queries > 0
    assert session.ledger.hit_rate > 0.0  # binary searches repeat probes


def test_shared_ledger_accumulates_across_sessions():
    staged, _, _, _ = build_conv_stage()
    ledger = QueryLedger(max_queries=2)
    a = pruned_session(staged, ledger=ledger, cache_size=0)
    b = pruned_session(staged, ledger=ledger, cache_size=0)
    a.query(PIXEL, [1.0])
    b.query(PIXEL, [2.0])
    with pytest.raises(QueryBudgetExceeded):
        a.query(PIXEL, [3.0])
    assert ledger.channel_queries == 2


def test_structure_observation_fields():
    staged, _, _, _ = build_conv_stage()
    session = DeviceSession(AcceleratorSim(staged))
    obs = session.observe_structure(seed=0)
    assert obs.input_shape == session.image_shape
    assert obs.num_classes > 0
    assert obs.total_cycles > 0
    assert len(obs.trace) > 0
    # No data values anywhere in the observation (Table 1).
    assert not hasattr(obs, "output")


def test_structure_observation_is_metered():
    staged, _, _, _ = build_conv_stage()
    session = DeviceSession(AcceleratorSim(staged))
    obs = session.observe_structure(seed=0)
    assert session.ledger.inferences == 1
    assert session.ledger.trace_events == len(obs.trace)
    assert session.ledger.trace_bytes == len(obs.trace) * TRACE_EVENT_BYTES


def test_inference_budget_guards_classify():
    staged, _, _, _ = build_conv_stage()
    session = DeviceSession(AcceleratorSim(staged), max_inferences=1)
    x = np.zeros((1, *staged.network.input_shape))
    session.classify(x)
    with pytest.raises(QueryBudgetExceeded):
        session.classify(x)


# -- the count oracle -----------------------------------------------------

def test_backends_agree_and_unknown_name_rejected():
    """A session through the dense reference answers like the default one;
    there is no backend to name."""
    staged, _, _, _ = build_conv_stage(seed=6)
    sparse = pruned_session(staged)
    dense = dense_session(sparse.device, "conv1")
    values = np.array([[0.0], [1.0], [-2.5]])
    assert np.array_equal(
        sparse.query_batch(PIXEL, values), dense.query_batch(PIXEL, values)
    )
    assert type(dense.fork()) is type(dense)
    with pytest.raises(TypeError, match="backend"):
        pruned_session(staged, backend="fpga")


# -- threat-model guard rails ---------------------------------------------

def test_dense_device_has_no_channel():
    staged, _, _, _ = build_conv_stage()
    session = DeviceSession(AcceleratorSim(staged), "conv1")
    with pytest.raises(ThreatModelViolation):
        session.query(PIXEL, [1.0])


def test_pruned_device_refuses_structure_observation():
    staged, _, _, _ = build_conv_stage()
    with pytest.raises(ThreatModelViolation):
        pruned_session(staged).observe_structure()


def test_out_of_range_values_rejected_without_charge():
    staged, _, _, _ = build_conv_stage()
    session = pruned_session(staged)
    with pytest.raises(ThreatModelViolation):
        session.query(PIXEL, [1e9])
    assert session.queries == 0


def test_per_filter_requires_plane_substreams():
    staged, geom, _, _ = build_conv_stage()
    session = pruned_session(staged, granularity="aggregate")
    with pytest.raises(ThreatModelViolation):
        session.query_per_filter([PIXEL], [np.zeros((1, geom.d_ofm))])


def test_untunable_device_rejects_set_threshold():
    staged, _, _, _ = build_conv_stage()  # plain ReLU, no knob
    session = pruned_session(staged)
    with pytest.raises(ThreatModelViolation):
        session.set_threshold(0.5)


def test_shape_validation():
    staged, geom, _, _ = build_conv_stage()
    session = pruned_session(staged)
    with pytest.raises(ConfigError):
        session.query(PIXEL, [1.0, 2.0])
    with pytest.raises(ConfigError):
        session.query_batch(PIXEL, np.zeros((2, 3)))
    with pytest.raises(ConfigError):
        session.query_per_filter([PIXEL], [np.zeros((2, geom.d_ofm))])
    # One probe's pixels are not a list of probes: (0, 2, 2) would read
    # as a three-pixel pattern.
    with pytest.raises(ConfigError, match="list of probes"):
        session.query_per_filter(PIXEL, np.ones((1, geom.d_ofm)))
    assert session.queries == 0


# -- multi-pattern per-filter queries and the channel wrappers ----------------

def _probes(session):
    d = session.d_ofm
    return (
        [[(0, 2, 2)], [(1, 4, 3)], [(0, 2, 2), (1, 0, 5)]],
        [np.full((1, d), 1.5), np.linspace(-2, 2, d)[None], np.ones((2, d))],
    )


def test_multi_pattern_per_filter_equals_one_probe_at_a_time():
    staged, _, _, _ = build_conv_stage(seed=5, pool=PoolSpec(2, 2, 0))
    batched, alone = pruned_session(staged), pruned_session(staged)
    patterns, values = _probes(batched)
    counts = batched.query_per_filter(patterns, values)
    assert counts.shape == (3, batched.d_ofm) and counts.dtype == np.int64
    for row, p, v in zip(counts, patterns, values):
        np.testing.assert_array_equal(row, alone.query_per_filter([p], [v])[0])
    assert batched.ledger.snapshot() == alone.ledger.snapshot()


def test_multi_pattern_per_filter_is_charged_all_or_nothing():
    staged, _, _, _ = build_conv_stage(seed=5)
    session = pruned_session(staged, max_queries=2)
    patterns, values = _probes(session)
    with pytest.raises(QueryBudgetExceeded):
        session.query_per_filter(patterns, values)
    assert session.ledger.channel_queries == 0


def test_channel_wrappers_define_every_query_method():
    from repro.attacks.robust import VotingChannel
    from repro.defenses import PaddedChannel

    names = [
        name
        for name, member in vars(DeviceSession).items()
        if name.startswith("query") and callable(member)
    ]
    assert {"query", "query_batch", "query_per_filter", "query_repeat"} <= set(
        names
    )
    for wrapper in (VotingChannel, PaddedChannel):
        missing = [name for name in names if name not in vars(wrapper)]
        assert not missing, f"{wrapper.__name__} lacks {missing}"


def _counting(session):
    """``session`` with its ``query_per_filter`` calls recorded (probes
    per call)."""
    calls = []
    inner = session.query_per_filter

    def counted(pixels, values, rep=0):
        calls.append(len(pixels))
        return inner(pixels, values, rep)

    session.query_per_filter = counted
    return session, calls


def test_wrappers_answer_multi_pattern_queries_probe_by_probe():
    """Both wrappers pass a multi-probe call on whole, and answer and
    account for it exactly as for its probes asked one at a time."""
    from repro.attacks.robust import VotingChannel
    from repro.channel import ChannelModel
    from repro.defenses import PaddedChannel

    staged, _, _, _ = build_conv_stage(seed=5, pool=PoolSpec(2, 2, 0))
    noisy = ChannelModel(counter_sigma=0.5, seed=5)
    session, calls = _counting(pruned_session(staged, channel=noisy))
    batched = VotingChannel(session, repeats=3, sigma=0.1)
    alone = VotingChannel(
        pruned_session(staged, channel=noisy), repeats=3, sigma=0.1
    )
    patterns, values = _probes(batched)
    counts = batched.query_per_filter(patterns, values)
    assert calls == [3] * batched.fixed_repeats
    for row, p, v in zip(counts, patterns, values):
        np.testing.assert_array_equal(row, alone.query_per_filter([p], [v])[0])
    assert batched.measurements == alone.measurements == 3
    assert batched.ledger.snapshot() == alone.ledger.snapshot()

    session, calls = _counting(pruned_session(staged))
    alone_session = pruned_session(staged)
    padded, padded_alone = PaddedChannel(session), PaddedChannel(alone_session)
    counts = padded.query_per_filter(patterns, values)
    assert calls == [3]
    expected = np.stack(
        [
            padded_alone.query_per_filter([p], [v])[0]
            for p, v in zip(patterns, values)
        ]
    )
    np.testing.assert_array_equal(counts, expected)
    assert counts.shape == (3, padded.d_ofm)
    assert (counts == counts[0, 0]).all()
    assert session.ledger.snapshot() == alone_session.ledger.snapshot()
    np.testing.assert_array_equal(
        padded.query_repeat(PIXEL, [1.0], 2), np.stack([expected[0]] * 2)
    )


def test_voting_channel_refuses_unvoted_queries():
    from repro.attacks.robust import VotingChannel

    staged, _, _, _ = build_conv_stage(seed=5)
    voting = VotingChannel(pruned_session(staged), sigma=0.0)
    with pytest.raises(ConfigError):
        voting.query_repeat(PIXEL, [1.0], 3)
    # A query form the wrapper does not define is never forwarded to
    # the raw session, where it would skip the vote.
    with pytest.raises(AttributeError):
        voting.query_raw
    assert voting.queries == 0
