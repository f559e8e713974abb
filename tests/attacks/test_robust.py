"""Robust estimators: voting, hysteresis boundaries, calibration."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.accel import AcceleratorSim
from repro.attacks.robust import (
    BoundaryRecovery,
    BoundaryScore,
    RobustRawBoundaryTracker,
    VotingChannel,
    boundary_cycles_from_trace,
    boundary_f1,
    calibrate_channel,
    consensus_boundaries,
    required_repeats,
    vote_confidence,
)
from repro.attacks.weights import AttackTarget, WeightAttack
from repro.channel import ChannelModel
from repro.device import DeviceSession
from repro.errors import ConfigError
from repro.nn.zoo import build_lenet

from tests.conftest import build_conv_stage, pruned_session

PIXEL = [(0, 2, 2)]


# -- repeat budget mathematics ---------------------------------------------

def test_required_repeats_scaling():
    assert required_repeats(0.0) == 1
    # Quadratic in sigma, at fixed confidence.
    r1 = required_repeats(0.5)
    r2 = required_repeats(1.0)
    assert 3.5 < r2 / r1 < 4.5
    # The median pays the pi/2 efficiency penalty.
    assert required_repeats(1.0) == math.ceil(
        math.pi / 2.0 * (2.0 * 5.326723886384500 * 1.0) ** 2
    )


def test_required_repeats_validates_confidence():
    with pytest.raises(ConfigError, match="confidence"):
        required_repeats(1.0, confidence=1.0)


def test_vote_confidence_matches_required_repeats():
    sigma, conf = 1.3, 0.999
    n = required_repeats(sigma, conf)
    assert vote_confidence(n, sigma) >= conf
    assert vote_confidence(max(1, n // 4), sigma) < conf
    assert vote_confidence(1, 0.0) == 1.0


# -- the voting wrapper ----------------------------------------------------

def _victim(**kwargs):
    return build_conv_stage(
        w=8, c=1, d=2, relu_threshold=0.0, bias_sign=-1.0, seed=5, **kwargs
    )


def test_voting_channel_validates_configuration():
    staged, _, _, _ = _victim()
    session = pruned_session(staged)
    with pytest.raises(ConfigError, match="repeats"):
        VotingChannel(session, repeats=0, sigma=0.0)


def test_voting_recovers_truth_under_counter_noise():
    staged, _, _, _ = _victim()
    truth = pruned_session(staged).query(PIXEL, [1.5])
    noisy = pruned_session(
        staged, channel=ChannelModel(counter_sigma=1.0, seed=5)
    )
    voting = VotingChannel(noisy, sigma=1.0)
    assert np.array_equal(voting.query(PIXEL, [1.5]), truth)
    assert voting.fixed_repeats == required_repeats(1.0)
    assert vote_confidence(voting.fixed_repeats, 1.0) >= 1.0 - 1e-7
    # A single noisy read disagrees with the consensus often; check the
    # raw channel is actually noisy so the test above is meaningful.
    reps = noisy.query_repeat(PIXEL, [1.5], repeats=16)
    assert len({row.tobytes() for row in reps}) > 1


def test_voting_on_clean_channel_is_single_shot():
    staged, _, _, _ = _victim()
    session = pruned_session(staged)
    voting = VotingChannel(session, repeats=9, sigma=0.0)
    truth = session.query(PIXEL, [1.5])
    assert np.array_equal(voting.query(PIXEL, [1.5]), truth)
    assert voting.fixed_repeats == 1
    assert session.ledger.repeat_queries == 0


def test_voting_charges_repeat_overhead_to_ledger():
    staged, _, _, _ = _victim()
    session = pruned_session(
        staged, channel=ChannelModel(counter_sigma=0.5, seed=5)
    )
    # At sigma 0.1 two reads suffice, so the floor of 7 decides.
    voting = VotingChannel(session, repeats=7, sigma=0.1)
    voting.query(PIXEL, [1.0])
    assert voting.fixed_repeats == 7
    assert session.ledger.repeat_queries == 6
    assert session.ledger.channel_queries == 7


def test_voting_batch_shapes_match_session():
    staged, _, _, _ = _victim()
    session = pruned_session(
        staged, channel=ChannelModel(counter_sigma=0.5, seed=5)
    )
    clean = pruned_session(staged)
    voting = VotingChannel(session, sigma=0.5)
    values = np.linspace(-1.0, 1.0, 4)[:, None]
    assert np.array_equal(
        voting.query_batch(PIXEL, values), clean.query_batch(PIXEL, values)
    )
    per_filter = np.zeros((1, session.d_ofm))
    per_filter[0, :] = 1.5
    assert np.array_equal(
        voting.query_per_filter([PIXEL], [per_filter]),
        clean.query_per_filter([PIXEL], [per_filter]),
    )


def test_voting_delegates_device_facts_and_guards_privates():
    staged, _, _, _ = _victim()
    session = pruned_session(staged)
    voting = VotingChannel(session, sigma=0.0)
    assert voting.d_ofm == session.d_ofm
    assert voting.input_shape == session.input_shape
    assert voting.ledger is session.ledger
    assert voting.session is session
    with pytest.raises(AttributeError):
        voting._no_such_attribute


def test_voting_fork_preserves_configuration():
    staged, _, _, _ = _victim()
    session = pruned_session(
        staged, channel=ChannelModel(counter_sigma=0.5, seed=5)
    )
    voting = VotingChannel(session, repeats=5, sigma=0.5)
    fork = voting.fork(2)
    assert isinstance(fork, VotingChannel)
    assert fork.session is not session
    assert fork.session.channel.spawn_key == (2,)
    assert (fork.repeats, fork.sigma, fork.fixed_repeats) == (
        5, 0.5, voting.fixed_repeats
    )


# -- hysteresis boundary tracking on synthetic streams ---------------------

def _feed(tracker, cycles, addresses, is_write, chunk=None):
    cycles = np.asarray(cycles, np.int64)
    addresses = np.asarray(addresses, np.int64)
    is_write = np.asarray(is_write, bool)
    step = chunk or len(cycles)
    for i in range(0, len(cycles), step):
        tracker.feed(
            cycles[i : i + step],
            addresses[i : i + step],
            is_write[i : i + step],
        )
    return tracker


def _two_layer_stream():
    """Layer 0 writes blocks 0..4; layer 1 reads them back, writes 10..12."""
    cycles = list(range(5)) + list(range(10, 18))
    addresses = [0, 1, 2, 3, 4] + [0, 1, 2, 3, 4, 10, 11, 12]
    is_write = [True] * 5 + [False] * 5 + [True] * 3
    return cycles, addresses, is_write


def test_tracker_with_support_one_is_the_naive_rule():
    tracker = RobustRawBoundaryTracker(min_support=1)
    _feed(tracker, *_two_layer_stream())
    assert tracker.boundaries == [0, 5]
    assert tracker.boundary_cycles == [0, 10]


def test_tracker_commits_after_support_accrues():
    tracker = RobustRawBoundaryTracker(min_support=3)
    _feed(tracker, *_two_layer_stream())
    # Candidate opens at the first RAW read (event 5) and commits once
    # three distinct RAW addresses corroborate it.
    assert tracker.boundaries == [0, 5]
    assert tracker.boundary_cycles == [0, 10]


def test_tracker_streams_identically_in_chunks():
    whole = RobustRawBoundaryTracker(min_support=3)
    chunked = RobustRawBoundaryTracker(min_support=3)
    _feed(whole, *_two_layer_stream())
    _feed(chunked, *_two_layer_stream(), chunk=2)
    assert whole.boundaries == chunked.boundaries
    assert whole.boundary_cycles == chunked.boundary_cycles


def test_tracker_rejects_thin_artefacts():
    # One forged RAW read (a duplicated write delivered late) must not
    # commit a boundary when support is required.
    cycles = list(range(5)) + [10, 11, 12, 13]
    addresses = [0, 1, 2, 3, 4] + [0, 20, 21, 22]
    is_write = [True] * 5 + [False, False, False, False]
    tracker = RobustRawBoundaryTracker(min_support=3)
    _feed(tracker, cycles, addresses, is_write)
    assert tracker.boundaries == [0]


def test_tracker_expires_unsupported_candidates():
    # Support arriving after the expiry window does not resurrect the
    # stale candidate; the commit anchors on a fresh candidate instead.
    cycles = list(range(5)) + [10] + list(range(20, 30)) + [40, 41, 42]
    addresses = [0, 1, 2, 3, 4] + [0] + [30 + i for i in range(10)] + [1, 2, 3]
    is_write = [True] * 5 + [False] + [True] * 10 + [False] * 3
    tracker = RobustRawBoundaryTracker(min_support=3, expiry=6)
    _feed(tracker, cycles, addresses, is_write)
    assert tracker.boundaries == [0, 16]
    assert tracker.boundary_cycles == [0, 40]


def test_tracker_refractory_rejects_echo_writes():
    """A write delivered inside the echo window is not a RAW producer."""
    # Layer 0 writes 0..4 spread over cycles 0..60 (well past the
    # refractory, so they are legitimate RAW producers); the boundary
    # commits at cycle 100.  An echoed (late-delivered) copy of write 7
    # lands at cycle 103 — inside the echo window — and the new layer
    # re-reads block 7 much later.
    base_c = [0, 15, 30, 45, 60] + [100, 101, 102] + [103]
    base_a = [0, 1, 2, 3, 4] + [2, 3, 4] + [7]
    base_w = [True] * 5 + [False] * 3 + [True]
    tail_c = [400, 401, 402]
    tail_a = [7, 7, 7]
    tail_w = [False] * 3

    relaxed = RobustRawBoundaryTracker(min_support=1, refractory=0)
    _feed(relaxed, base_c + tail_c, base_a + tail_a, base_w + tail_w)
    assert relaxed.boundary_cycles == [0, 100, 400]  # echo forges one

    guarded = RobustRawBoundaryTracker(min_support=1, refractory=20)
    _feed(guarded, base_c + tail_c, base_a + tail_a, base_w + tail_w)
    assert guarded.boundary_cycles == [0, 100]


def test_tracker_refractory_makes_short_layers_unresolvable():
    # The documented physics limit: a layer whose entire write phase
    # fits inside the refractory (= latency) window of the previous
    # boundary cannot produce qualified RAW evidence — its transition
    # is indistinguishable from channel echo and is not reported.
    cycles = [0, 150, 160] + [200, 201] + [205] + [230, 231]
    addresses = [0, 1, 2] + [1, 2] + [9] + [9, 9]
    is_write = [True] * 3 + [False] * 2 + [True] + [False] * 2
    tracker = RobustRawBoundaryTracker(min_support=1, refractory=0)
    _feed(tracker, cycles, addresses, is_write)
    assert tracker.boundary_cycles == [0, 200, 230]
    guarded = RobustRawBoundaryTracker(min_support=1, refractory=100)
    _feed(guarded, cycles, addresses, is_write)
    assert guarded.boundary_cycles == [0, 200]


def test_tracker_producer_refractory_split_from_commit_refractory():
    # Weight-/row-stationary victims stream OFM bursts from the very
    # start of each stage, so the *producing* writes of the next
    # genuine boundary can land within the echo window of the current
    # one.  The producer filter must be separable from the candidate
    # (commit) refractory: with both tied, the next boundary starves;
    # with producer_refractory=0 it commits on the same stream.
    cycles = (
        [0, 60, 70, 80] + [150, 151, 152] + [155, 156, 157]
        + [400, 401, 402]
    )
    addresses = [9, 0, 1, 2] + [0, 1, 2] + [10, 11, 12] + [10, 11, 12]
    is_write = [True] * 4 + [False] * 3 + [True] * 3 + [False] * 3
    tied = RobustRawBoundaryTracker(min_support=3, refractory=20)
    _feed(tied, cycles, addresses, is_write)
    assert tied.boundary_cycles == [0, 150]  # writes at 155..157 eaten
    split = RobustRawBoundaryTracker(
        min_support=3, refractory=20, producer_refractory=0
    )
    _feed(split, cycles, addresses, is_write)
    assert split.boundary_cycles == [0, 150, 400]


def test_tracker_validates_configuration():
    with pytest.raises(ConfigError, match="min_support"):
        RobustRawBoundaryTracker(min_support=0)
    with pytest.raises(ConfigError, match="expiry"):
        RobustRawBoundaryTracker(min_support=8, expiry=4)
    with pytest.raises(ConfigError, match="refractory"):
        RobustRawBoundaryTracker(refractory=-1)
    with pytest.raises(ConfigError, match="producer_refractory"):
        RobustRawBoundaryTracker(producer_refractory=-1)


# -- consensus and scoring -------------------------------------------------

def test_consensus_requires_quorum_and_clusters_by_tolerance():
    runs = [[100, 500], [102, 498], [101, 900]]
    assert consensus_boundaries(runs, quorum=2, tol=5) == [101, 499]
    # Lone artefacts survive only if the quorum is 1.
    assert consensus_boundaries(runs, quorum=1, tol=5) == [101, 499, 900]
    with pytest.raises(ConfigError):
        consensus_boundaries(runs, quorum=0, tol=5)
    with pytest.raises(ConfigError):
        consensus_boundaries(runs, quorum=1, tol=-1)


def test_consensus_counts_runs_not_events():
    # Three boundaries from ONE run's noise must not fake a quorum of 2.
    assert consensus_boundaries([[100, 101, 102], []], quorum=2, tol=5) == []


def test_consensus_overlapping_clusters():
    """Clusters whose member ranges interleave across runs.

    The sweep is single-linkage over the *merged* sorted cycle stream:
    two boundaries land in one cluster iff the gap chain between them
    never exceeds the tolerance, regardless of which run contributed
    which cycle.
    """
    # Interleaved pairs: 100/103 and 110/113 split at the 7-cycle gap.
    assert consensus_boundaries(
        [[100, 110], [103, 113]], quorum=2, tol=4
    ) == [101, 111]
    # Chain linking: 100-104-108 joins via <=5 steps into one cluster
    # with distinct-run support 3 and the true median.
    assert consensus_boundaries([[100], [104], [108]], quorum=3, tol=5) == [104]
    # Same chain, but the middle link comes from a run that already
    # contributed — support stays 2 and a quorum of 3 rejects it.
    assert consensus_boundaries([[100, 104], [108]], quorum=3, tol=5) == []
    # A dense cluster absorbing a duplicate from one run keeps the
    # median over all events, not per-run firsts.
    assert consensus_boundaries(
        [[100, 102], [101], [130]], quorum=2, tol=5
    ) == [101]


def test_boundary_f1_greedy_matching():
    score = boundary_f1([100, 200], [101, 300], tol=5)
    assert score == BoundaryScore(matched=1, predicted=2, truth=2)
    assert score.precision == score.recall == score.f1 == 0.5
    perfect = boundary_f1([10, 20], [10, 20], tol=0)
    assert perfect.f1 == 1.0
    # One prediction cannot consume two truths.
    assert boundary_f1([100], [100, 101], tol=5).matched == 1
    assert boundary_f1([], [], tol=0).f1 == 0.0


# -- end-to-end structure recovery -----------------------------------------

def test_recover_boundaries_ideal_channel_is_exact():
    lenet = build_lenet()
    truth = boundary_cycles_from_trace(
        DeviceSession(AcceleratorSim(lenet)).observe_structure(seed=0).trace
    )
    session = DeviceSession(
        AcceleratorSim(lenet), channel=ChannelModel.ideal()
    )
    result = BoundaryRecovery(session, runs=3).run()
    assert result.boundaries == truth
    assert result.num_layers == len(truth)


def test_recover_boundaries_dataflow_aware_producer_filter():
    # Under a weight-stationary victim the producer filter presuming
    # stage-end write bursts starves the final LeNet boundary (the fc3
    # OFM is written right after fc3's own start); declaring the
    # identified dataflow disables it and recovers every stage.
    from repro.accel import AcceleratorConfig

    lenet = build_lenet()
    config = AcceleratorConfig(dataflow="weight-stationary")
    truth = boundary_cycles_from_trace(
        DeviceSession(AcceleratorSim(lenet, config))
        .observe_structure(seed=0).trace
    )
    channel = ChannelModel(
        drop_rate=0.01, dup_rate=0.005, cycle_sigma=20.0, seed=11
    )
    session = DeviceSession(AcceleratorSim(lenet, config), channel=channel)
    tol = channel.latency_window + 50
    presumed = BoundaryRecovery(session, runs=3).run()
    assert len(presumed.boundaries) < len(truth)
    aware = BoundaryRecovery(
        session, runs=3, dataflow="weight-stationary"
    ).run()
    assert boundary_f1(aware.boundaries, truth, tol=tol).f1 == 1.0


def test_recover_boundaries_survives_noisy_channel():
    lenet = build_lenet()
    truth = boundary_cycles_from_trace(
        DeviceSession(AcceleratorSim(lenet)).observe_structure(seed=0).trace
    )
    channel = ChannelModel(
        drop_rate=0.02, dup_rate=0.01, cycle_sigma=60.0, seed=11
    )
    session = DeviceSession(AcceleratorSim(lenet), channel=channel)
    result = BoundaryRecovery(session, runs=3, compare_naive=True).run()
    tol = channel.latency_window + 50
    assert boundary_f1(result.boundaries, truth, tol=tol).f1 == 1.0
    assert len(result.runs) == len(result.naive_runs) == 3


# -- calibration -----------------------------------------------------------

def test_calibration_recovers_counter_sigma_and_quantum():
    staged, _, _, _ = _victim()
    session = pruned_session(
        staged,
        channel=ChannelModel(counter_sigma=0.8, counter_quantum=2, seed=3),
    )
    cal = calibrate_channel(session, repeats=64)
    assert 0.4 <= cal.counter_sigma <= 1.4
    assert cal.counter_quantum == 2
    # Reported as total reads: repeats per probe value, four values.
    assert cal.counter_repeats == 256
    assert cal.recommended_repeats == required_repeats(cal.counter_sigma)
    assert "sigma" in cal.describe()


def test_calibration_on_clean_channel_reports_zero_noise():
    staged, _, _, _ = _victim()
    cal = calibrate_channel(pruned_session(staged), repeats=16)
    assert cal.counter_sigma == 0.0
    assert cal.counter_quantum == 1
    assert cal.recommended_repeats == 1


# -- parallel determinism under noise (the spawn-key contract) -------------

def test_sharded_weight_attack_bit_identical_under_noise():
    staged, geom, _, _ = _victim()
    target = AttackTarget.from_geometry(geom)
    channel = ChannelModel(counter_sigma=0.5, seed=3)

    def run(workers):
        session = pruned_session(staged, channel=channel)
        voting = VotingChannel(session, sigma=0.5)
        return WeightAttack(
            voting, target, search_steps=12, workers=workers
        ).run()

    serial = run(1)
    sharded = run(2)
    assert np.array_equal(serial.ratio_tensor(), sharded.ratio_tensor())
    assert (serial.status_tensor() == sharded.status_tensor()).all()
