"""Power segmentation + memory/power fused boundary recovery."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.accel import AcceleratorSim
from repro.attacks.fusion import (
    FusedBoundaryRecovery,
    segment_power_trace,
)
from repro.attacks.robust import (
    BoundaryRecovery,
    boundary_cycles_from_trace,
    boundary_f1,
)
from repro.attacks.robust.calibrate import calibrate_channel
from repro.channel import ChannelModel
from repro.device import DeviceSession
from repro.errors import ConfigError
from repro.nn.zoo import build_lenet
from repro.power import PowerTrace

from tests.conftest import build_conv_stage

# The bench's matched noisy-channel point: heavy enough drop noise
# that single-run memory-only recovery is unreliable on LeNet.
MATCHED = dict(
    drop_rate=0.1, dup_rate=0.02, cycle_sigma=8.0, power_sigma=10.0,
    seed=11,
)


def _trace(samples, quantum=4):
    return PowerTrace(
        samples=np.asarray(samples, dtype=np.int64), quantum=quantum
    )


# -- segmentation ----------------------------------------------------------

def test_segments_split_on_long_quiet_gaps():
    seg = segment_power_trace(
        _trace([10] * 5 + [0] * 3 + [10] * 5),
        threshold=2, min_gap_bins=2, min_segment_bins=2,
    )
    assert seg.edges == [0, 32]
    assert seg.segments == [(0, 19), (32, 51)]


def test_short_lulls_are_bridged():
    # A quiet run shorter than min_gap_bins is a compute lull, not a
    # layer gap: the two plateaus stay one segment.
    seg = segment_power_trace(
        _trace([10] * 5 + [0] + [10] * 5),
        threshold=2, min_gap_bins=2, min_segment_bins=2,
    )
    assert seg.edges == [0]


def test_short_blips_are_filtered():
    seg = segment_power_trace(
        _trace([10] * 5 + [0] * 4 + [10] + [0] * 4 + [10] * 5),
        threshold=2, min_gap_bins=2, min_segment_bins=2,
    )
    assert seg.edges == [0, 56]


def test_empty_and_quiet_traces_yield_no_segments():
    assert segment_power_trace(_trace([])).edges == []
    assert segment_power_trace(_trace([0, 1, 0]), threshold=2).edges == []


def test_segment_validation():
    with pytest.raises(ConfigError):
        segment_power_trace(_trace([1]), min_gap_bins=0)
    with pytest.raises(ConfigError):
        segment_power_trace(_trace([1]), min_segment_bins=0)


def test_lenet_clean_segmentation_recovers_every_layer():
    session = DeviceSession(AcceleratorSim(build_lenet()))
    trace = session.observe_power(seed=0)
    seg = segment_power_trace(
        trace,
        stage_overhead=session.device.config.timing.stage_overhead,
    )
    truth = boundary_cycles_from_trace(
        DeviceSession(
            AcceleratorSim(build_lenet())
        ).observe_structure(seed=0).trace
    )
    assert seg.num_layers == len(truth) == 4
    # Each power edge snaps to the bin start just below its RAW-rule
    # boundary cycle — within one quantum.
    for edge, cycle in zip(seg.edges, truth):
        assert 0 <= cycle - edge <= trace.quantum


# -- fusion rule (no device) ----------------------------------------------

def _recovery(**kwargs):
    staged, *_ = build_conv_stage(seed=5)
    session = DeviceSession(AcceleratorSim(staged))
    recovery = FusedBoundaryRecovery(session, 1, **kwargs)
    recovery.confirm_tol = 10
    return recovery


def test_fuse_vetoes_unconfirmed_candidates():
    rec = _recovery()
    assert rec._fuse([100, 500, 900], [95, 905]) == [100, 900]


def test_fuse_falls_back_when_power_uninformative():
    rec = _recovery()
    rec.max_power_segments = 4
    raw = [100, 500, 900]
    assert rec._fuse(raw, []) == raw
    degenerate = list(range(0, 600, 100))  # 6 edges > gate of 4
    assert rec._fuse(raw, degenerate) == raw


def test_fuse_augments_unmatched_edges_only_when_enabled():
    rec = _recovery()
    assert rec._fuse([100], [95, 400]) == [100]
    rec_aug = _recovery(augment_unmatched=True)
    assert rec_aug._fuse([100], [95, 400]) == [100, 400]


def test_recovery_validation():
    staged, *_ = build_conv_stage(seed=5)
    session = DeviceSession(AcceleratorSim(staged))
    with pytest.raises(ConfigError):
        FusedBoundaryRecovery(session, 0)
    with pytest.raises(ConfigError):
        FusedBoundaryRecovery(session, 1).run_step("nope", {})


# -- end-to-end ------------------------------------------------------------

def test_fused_recovery_ideal_channel_equals_truth():
    staged, *_ = build_conv_stage(seed=5)
    truth = boundary_cycles_from_trace(
        DeviceSession(AcceleratorSim(staged)).observe_structure(seed=0).trace
    )
    session = DeviceSession(AcceleratorSim(staged))
    result = FusedBoundaryRecovery(session, runs=1).run()
    assert result.boundaries == truth
    assert session.ledger.inferences == 1
    assert session.ledger.power_samples > 0


def test_fused_beats_memory_only_at_matched_budget_on_lenet():
    """The PR's headline property at unit-test scale: one fused run
    reaches F1 = 1.0 where one memory-only run does not."""
    truth = boundary_cycles_from_trace(
        DeviceSession(
            AcceleratorSim(build_lenet())
        ).observe_structure(seed=0).trace
    )
    channel = ChannelModel(**MATCHED)
    tol = channel.latency_window + 50

    fused_session = DeviceSession(
        AcceleratorSim(build_lenet()), channel=channel
    )
    fused = FusedBoundaryRecovery(fused_session, runs=1).run()
    assert boundary_f1(fused.boundaries, truth, tol=tol).f1 == 1.0
    assert fused_session.ledger.inferences == 1

    memory = BoundaryRecovery(
        DeviceSession(AcceleratorSim(build_lenet()), channel=channel),
        runs=1,
    ).run()
    assert boundary_f1(memory.boundaries, truth, tol=tol).f1 < 1.0


def test_stepwise_resume_matches_uninterrupted_run():
    staged, *_ = build_conv_stage(seed=5)
    channel = ChannelModel(
        drop_rate=0.05, cycle_sigma=6.0, power_sigma=4.0, seed=3
    )

    def session():
        return DeviceSession(AcceleratorSim(staged), channel=channel)

    full = FusedBoundaryRecovery(session(), 2).run()

    # Kill after run:0, round-trip the state through JSON (the campaign
    # checkpoint format), resume in a fresh process-equivalent.
    state = FusedBoundaryRecovery(session(), 2).run_step("run:0", {})
    state["steps_done"] = ["run:0"]
    state = json.loads(json.dumps(state))
    resumed = FusedBoundaryRecovery(session(), 2).run(state)
    assert resumed == full


def test_consensus_requires_all_runs():
    staged, *_ = build_conv_stage(seed=5)
    rec = FusedBoundaryRecovery(
        DeviceSession(AcceleratorSim(staged)), 2
    )
    state = rec.run_step("run:0", {})
    with pytest.raises(ConfigError):
        rec.run_step("consensus", state)


# -- calibration power probe ----------------------------------------------

def test_calibrate_probes_power_noise():
    staged, *_ = build_conv_stage(seed=5)
    channel = ChannelModel(power_sigma=4.0, power_quantum=2, seed=7)
    session = DeviceSession(AcceleratorSim(staged), channel=channel)
    cal = calibrate_channel(session, repeats=8, power_runs=4)
    assert cal.power_runs == 4
    assert cal.power_quantum == 2
    assert cal.power_sigma is not None and 1.0 < cal.power_sigma < 10.0
    assert cal.power_plateau is not None and cal.power_plateau > 0
    assert cal.recommended_fusion_runs in (1, 3)
    assert "power sigma~" in cal.describe()
    assert session.ledger.inferences == 4
    assert session.ledger.power_samples > 0


def test_calibrate_skips_power_when_not_requested():
    staged, *_ = build_conv_stage(seed=5)
    session = DeviceSession(AcceleratorSim(staged))
    cal = calibrate_channel(session, repeats=8)
    assert cal.power_runs == 0
    assert cal.power_sigma is None
    assert "power" not in cal.describe()


def test_calibrate_rejects_single_power_run():
    staged, *_ = build_conv_stage(seed=5)
    session = DeviceSession(AcceleratorSim(staged))
    with pytest.raises(ConfigError):
        calibrate_channel(session, repeats=8, power_runs=1)


# -- campaign job ----------------------------------------------------------

def _run_job(params):
    from repro.campaign.jobs import JOB_KINDS, build_runner

    job, _ = build_runner("power_fusion", params)
    state: dict = {}
    for name in job.steps():
        state = job.run_step(name, state)
    return JOB_KINDS["power_fusion"].metrics(job, state)


def test_power_fusion_job_fused_mode():
    metrics = _run_job({
        "victim": {"conv": {"w": 12, "c": 2, "d": 6, "seed": 7}},
        "mode": "fused",
        "runs": 1,
        "calibrate_runs": 2,
    })
    assert metrics["mode"] == "fused"
    assert metrics["runs"] == 1
    assert metrics["f1"] == 1.0
    assert metrics["power_samples"] > 0
    assert metrics["calibration"]["recommended_fusion_runs"] in (1, 3)


def test_power_fusion_job_memory_mode_touches_no_power():
    metrics = _run_job({
        "victim": {"conv": {"w": 12, "c": 2, "d": 6, "seed": 7}},
        "mode": "memory",
        "runs": 1,
    })
    assert metrics["mode"] == "memory"
    assert metrics["f1"] == 1.0
    assert metrics["power_samples"] == 0
    assert "calibration" not in metrics


def test_power_fusion_job_rejects_unknown_mode():
    from repro.campaign.jobs import build_runner

    with pytest.raises(ConfigError):
        build_runner(
            "power_fusion", {"victim": {"conv": {"w": 12}}, "mode": "both"}
        )
