"""Coordinator behaviour: run, resume, dedupe, quotas — durably.

The acceptance properties of the campaign service:

* a completed campaign's ``results.jsonl`` is a pure function of the
  spec (kill-and-resume reproduces it byte for byte);
* ``run`` is ``resume`` — finished jobs are never re-executed;
* two identical grid cells share every device measurement through the
  content-addressed cache (the second cell touches the victim zero
  times);
* per-tenant quotas are hard: the offending job fails with
  ``failed:budget``, other tenants are untouched.
"""

from __future__ import annotations

import json

import pytest

from repro.campaign import Campaign, JobCheckpoint
from repro.campaign.smoke import _run_until_done
from repro.device import SharedQueryCache
from repro.errors import ConfigError

WEIGHT_BASE = {
    "victim": {"conv": {"w": 6, "d": 2, "seed": 9}},
    "device": {"pruning": True},
    "search_steps": 8,
    "filters_per_step": 1,
}

BOUNDARY_BASE = {
    "victim": {"conv": {"w": 10, "d": 4, "seed": 7}},
    "runs": 2,
    "channel": {"drop_rate": 0.02, "dup_rate": 0.01, "cycle_sigma": 30.0,
                "seed": 11},
}

TINY_SPEC = {
    "name": "tiny",
    "sweeps": [
        {"kind": "weight_recovery", "tenant": "weights",
         "base": WEIGHT_BASE},
        {"kind": "boundary_recovery", "tenant": "structure",
         "base": BOUNDARY_BASE},
    ],
}


def test_campaign_runs_to_done_and_consolidates(tmp_path):
    campaign = Campaign.create(TINY_SPEC, tmp_path / "c")
    status = campaign.run()
    assert status["by_status"] == {"done": 2}
    records = campaign.store.read_all()
    assert [r["job"] for r in records] == [j.job_id for j in campaign.jobs]
    assert all(r["status"] == "done" for r in records)
    for record in records:
        assert set(record["ledger"]) == {
            "probe_lookups", "observations", "trace_events",
            "repeat_queries", "power_samples",
        }
    # Canonical lines: re-serialising each record reproduces the file.
    from repro.campaign import canonical_json

    text = (tmp_path / "c" / "results.jsonl").read_text()
    assert text == "".join(canonical_json(r) + "\n" for r in records)


def test_create_refuses_existing_directory(tmp_path):
    Campaign.create(TINY_SPEC, tmp_path / "c")
    with pytest.raises(ConfigError):
        Campaign.create(TINY_SPEC, tmp_path / "c")


def test_rerun_skips_completed_jobs(tmp_path):
    campaign = Campaign.create(TINY_SPEC, tmp_path / "c")
    campaign.run()
    results = (tmp_path / "c" / "results.jsonl").read_bytes()
    ledgers_before = {
        j.job_id: JobCheckpoint.load(campaign.store.jobs_dir, j.job_id).ledgers
        for j in campaign.jobs
    }
    again = Campaign.load(tmp_path / "c")
    again.run()
    assert (tmp_path / "c" / "results.jsonl").read_bytes() == results
    for job in again.jobs:
        ckpt = JobCheckpoint.load(again.store.jobs_dir, job.job_id)
        assert ckpt.ledgers == ledgers_before[job.job_id]


def test_kill_and_resume_is_bit_identical(tmp_path):
    spec = {
        "name": "killres",
        "sweeps": [{"kind": "weight_recovery", "tenant": "weights",
                    "base": WEIGHT_BASE}],
    }
    ref = Campaign.create(spec, tmp_path / "reference")
    ref.run()
    Campaign.create(spec, tmp_path / "resumed")
    deaths = _run_until_done(tmp_path / "resumed", kill_every=1)
    assert deaths >= 2, "fault injection must actually interrupt the run"
    assert (
        (tmp_path / "reference" / "results.jsonl").read_bytes()
        == (tmp_path / "resumed" / "results.jsonl").read_bytes()
    )


def test_duplicate_cell_consumes_zero_device_queries(tmp_path):
    spec = {
        "name": "dedupe",
        "sweeps": [{
            "kind": "weight_recovery",
            "tenant": "weights",
            "base": WEIGHT_BASE,
            "grid": {"mode": ["naive", "naive"]},
        }],
    }
    campaign = Campaign.create(spec, tmp_path / "c")
    status = campaign.run()
    assert status["by_status"] == {"done": 2}
    first, second = campaign.jobs
    records = {r["job"]: r for r in campaign.store.read_all()}
    assert (
        records[first.job_id]["metrics"]["ratio_digest"]
        == records[second.job_id]["metrics"]["ratio_digest"]
    )
    # The lookup figures written to results are identical (cache-state
    # independent) ...
    assert records[first.job_id]["ledger"] == records[second.job_id]["ledger"]
    # ... while the device charge of the second cell is exactly zero:
    # every probe was answered by the campaign's shared cache.
    first_ckpt = JobCheckpoint.load(campaign.store.jobs_dir, first.job_id)
    second_ckpt = JobCheckpoint.load(campaign.store.jobs_dir, second.job_id)
    first_charge = sum(
        s["channel_queries"] + s["inferences"] for s in first_ckpt.ledgers
    )
    second_charge = sum(
        s["channel_queries"] + s["inferences"] for s in second_ckpt.ledgers
    )
    assert first_charge > 0
    assert second_charge == 0
    assert sum(s["shared_hits"] for s in second_ckpt.ledgers) > 0


def test_quota_is_hard_and_per_tenant(tmp_path):
    spec = dict(TINY_SPEC, name="quota", tenants={
        "weights": {"max_queries": 10},
    })
    campaign = Campaign.create(spec, tmp_path / "c")
    status = campaign.run()
    assert status["by_status"] == {"failed:budget": 1, "done": 1}
    records = {r["job"]: r for r in campaign.store.read_all()}
    weight_job, boundary_job = campaign.jobs
    assert records[weight_job.job_id]["status"] == "failed:budget"
    assert "budget" in records[weight_job.job_id]["error"]
    assert records[boundary_job.job_id]["status"] == "done"
    # The failed job's spend stayed within quota and is billed.
    tenants = status["tenants"]
    assert tenants["weights"]["spent"]["channel_queries"] <= 10
    # A rerun does not resurrect the failed job silently into more
    # spend: the budget still caps its lifetime total.
    status2 = Campaign.load(tmp_path / "c").run()
    assert status2["by_status"]["failed:budget"] == 1
    assert status2["tenants"]["weights"]["spent"]["channel_queries"] <= 10


def test_status_reports_cache_and_counts(tmp_path):
    campaign = Campaign.create(TINY_SPEC, tmp_path / "c")
    before = campaign.status()
    assert before["by_status"] == {"pending": 2}
    assert before["results"] == 0
    campaign.run()
    after = campaign.status()
    assert after["jobs"] == 2
    assert after["results"] == 2
    assert after["cache"]["probes"] > 0


def test_results_records_carry_no_cache_state(tmp_path):
    """Records list only lookup figures, never hit/miss splits."""
    campaign = Campaign.create(dict(TINY_SPEC, name="det"), tmp_path / "c")
    campaign.run()
    for record in campaign.store.read_all():
        blob = json.dumps(record)
        assert "cache_hits" not in blob
        assert "shared_hits" not in blob
        assert "channel_queries" not in blob


def _kill_after(root, checkpoints: int) -> None:
    """Run the campaign in a subprocess that dies after N checkpoints."""
    import os
    import subprocess
    import sys

    env = dict(os.environ, REPRO_CAMPAIGN_KILL=str(checkpoints))
    proc = subprocess.run(
        [sys.executable, "-c",
         f"from repro.campaign import Campaign; "
         f"Campaign.load({str(root)!r}).run()"],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == 137, proc.stderr


BOUNDARY_ONLY = {
    "name": "boundary",
    "sweeps": [{"kind": "boundary_recovery", "tenant": "structure",
                "base": BOUNDARY_BASE}],
}


VOTED_ONLY = {
    "name": "voted",
    "sweeps": [{"kind": "weight_recovery", "tenant": "weights", "base": {
        "victim": {"conv": {"w": 8, "d": 3, "seed": 5, "bias_sign": -1.0}},
        "device": {"pruning": True},
        "channel": {"counter_sigma": 0.5, "seed": 3},
        "search_steps": 24,
        "filters_per_step": 3,
        "mode": "voted",
    }}],
}


def test_voted_weight_job_resumes_after_calibration(tmp_path):
    ref = Campaign.create(VOTED_ONLY, tmp_path / "reference")
    ref.run()
    resumed = Campaign.create(VOTED_ONLY, tmp_path / "resumed")
    _kill_after(tmp_path / "resumed", 1)
    (job,) = resumed.jobs
    ckpt = JobCheckpoint.load(resumed.store.jobs_dir, job.job_id)
    assert "calibrated_sigma" in ckpt.state and "filters" not in ckpt.state
    Campaign.load(tmp_path / "resumed").run()
    assert (
        (tmp_path / "reference" / "results.jsonl").read_bytes()
        == (tmp_path / "resumed" / "results.jsonl").read_bytes()
    )
    (record,) = ref.store.read_all()
    metrics = record["metrics"]
    assert record["status"] == "done" and metrics["mode"] == "voted"
    assert metrics["repeats"] > 1 and metrics["repeat_queries"] > 0
    assert metrics["resolved_fraction"] == 1.0
    assert metrics["max_ratio_error"] < 2.0**-10


def test_resume_applies_fresh_budgets_over_checkpointed_ones(tmp_path):
    from repro.campaign.coordinator import _execute_job
    from repro.campaign.victims import VictimMemo

    campaign = Campaign.create(BOUNDARY_ONLY, tmp_path / "c")
    _kill_after(tmp_path / "c", 1)
    (job,) = campaign.jobs
    ckpt = JobCheckpoint.load(campaign.store.jobs_dir, job.job_id)
    assert "truth" in ckpt.state and "runs" not in ckpt.state
    assert ckpt.ledgers[0]["inferences"] == 1
    assert ckpt.ledgers[0]["max_inferences"] is None

    # The tenant has no inferences left: the resumed job must not
    # inherit the unlimited budget its checkpoint was saved under.
    cache = SharedQueryCache(tmp_path / "c" / "cache.sqlite")
    try:
        status = _execute_job(
            job, {"max_inferences": 0}, campaign.store, cache, VictimMemo()
        )
    finally:
        cache.close()
    assert status == "failed:budget"
    ckpt = JobCheckpoint.load(campaign.store.jobs_dir, job.job_id)
    assert ckpt.ledgers[0]["inferences"] == 1


def test_failed_step_spend_is_billed(tmp_path, monkeypatch):
    from repro.attacks.robust import BoundaryRecovery

    step_run = BoundaryRecovery._step_run

    def observe_then_fail(self, k, state):
        state = step_run(self, k, state)
        if k == 1:
            raise RuntimeError("decoder crashed")
        return state

    monkeypatch.setattr(BoundaryRecovery, "_step_run", observe_then_fail)
    campaign = Campaign.create(BOUNDARY_ONLY, tmp_path / "c")
    status = campaign.run()
    assert status["by_status"] == {"failed:error": 1}
    (job,) = campaign.jobs
    ckpt = JobCheckpoint.load(campaign.store.jobs_dir, job.job_id)
    assert list(ckpt.state["runs"]) == ["0"]
    # truth + run:0 + the failed run:1 all ran the device.
    assert ckpt.ledgers[0]["inferences"] == 3
    assert status["tenants"]["structure"]["spent"]["inferences"] == 3


def test_corrupt_checkpoint_raises_typed_error(tmp_path):
    campaign = Campaign.create(BOUNDARY_ONLY, tmp_path / "c")
    _kill_after(tmp_path / "c", 2)
    (job,) = campaign.jobs
    path = JobCheckpoint.path(campaign.store.jobs_dir, job.job_id)
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    for call in (Campaign.load(tmp_path / "c").run, campaign.status):
        with pytest.raises(ConfigError) as info:
            call()
        assert str(path) in str(info.value)
        assert f"delete {path.parent}/" in str(info.value)


def test_corrupt_result_raises_typed_error_and_rebuilds(tmp_path):
    campaign = Campaign.create(BOUNDARY_ONLY, tmp_path / "c")
    campaign.run()
    reference = campaign.store.results_path.read_bytes()
    (job,) = campaign.jobs
    spent = JobCheckpoint.load(campaign.store.jobs_dir, job.job_id).ledgers
    path = campaign.store.result_path(job.job_id)
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    with pytest.raises(ConfigError) as info:
        Campaign.load(tmp_path / "c").run()
    assert str(path) in str(info.value)
    assert f"delete {path}" in str(info.value)
    # Following the advice rebuilds the record from the checkpoint alone.
    path.unlink()
    resumed = Campaign.load(tmp_path / "c")
    resumed.run()
    assert resumed.store.results_path.read_bytes() == reference
    # ... without running the device again.
    assert JobCheckpoint.load(resumed.store.jobs_dir, job.job_id).ledgers == spent


def test_torn_results_file_raises_typed_error_and_rebuilds(tmp_path, capsys):
    from repro.cli import main

    campaign = Campaign.create(BOUNDARY_ONLY, tmp_path / "c")
    campaign.run()
    path = campaign.store.results_path
    reference = path.read_bytes()
    path.write_bytes(reference[: len(reference) // 2])  # torn last line
    with pytest.raises(ConfigError) as info:
        Campaign.load(tmp_path / "c").store.read_all()
    assert str(path) in str(info.value)
    assert "repro campaign resume" in str(info.value)
    # The CLI prints the same advice instead of a traceback.
    assert main(["campaign", "status", "--dir", str(tmp_path / "c")]) == 2
    assert capsys.readouterr().err == f"repro: error: {info.value}\n"
    # Following the advice rebuilds the file from the per-job results.
    path.unlink()
    assert main(["campaign", "resume", "--dir", str(tmp_path / "c")]) == 0
    assert path.read_bytes() == reference


def test_corrupt_cache_file_stops_the_campaign_with_typed_error(tmp_path):
    campaign = Campaign.create(BOUNDARY_ONLY, tmp_path / "c")
    campaign.run()
    reference = campaign.store.results_path.read_bytes()
    path = tmp_path / "c" / "cache.sqlite"
    path.write_bytes(b"not a sqlite database " * 100)
    for call in (Campaign.load(tmp_path / "c").run, campaign.status):
        with pytest.raises(ConfigError) as info:
            call()
        assert str(path) in str(info.value)
        assert "safe to delete" in str(info.value)
    # Following the advice: the campaign runs again, results unchanged.
    path.unlink()
    assert Campaign.load(tmp_path / "c").run()["by_status"] == {"done": 1}
    assert campaign.store.results_path.read_bytes() == reference


def test_clone_job_completes(tmp_path):
    """A conv victim with an FC head gives the structure phase its
    classifier: the clone job ends with every weight recovered."""
    victim = {"conv": {
        "w": 14, "c": 1, "d": 6, "f": 3, "s": 1, "pool": [2, 2, 0],
        "relu_threshold": 0.0, "bias_sign": -1.0, "bias_low": 0.2,
        "bias_high": 0.8, "fc": 10,
    }}
    spec = {"name": "clone", "sweeps": [{
        "kind": "clone", "base": {"victim": victim, "distill_epochs": 2},
    }]}
    campaign = Campaign.create(spec, tmp_path / "c")
    assert campaign.run()["by_status"] == {"done": 1}
    [record] = campaign.store.read_all()
    assert record["metrics"]["weights_resolved_fraction"] == 1.0
    assert record["metrics"]["geometry"]["d_ofm"] == 6


def test_clone_failure_gives_every_candidates_reason(tmp_path):
    """Random-sign biases leave the true geometry's threshold attack with
    NaN biases; the error says so, next to each other candidate's reason."""
    from repro.nn.shapes import PoolSpec
    from repro.nn.spec import LayerGeometry

    victim = {"conv": {"w": 14, "d": 6, "pool": [2, 2, 0], "fc": 10}}
    spec = {"name": "clone", "sweeps": [{
        "kind": "clone", "base": {"victim": victim, "distill_epochs": 2},
    }]}
    campaign = Campaign.create(spec, tmp_path / "c")
    assert campaign.run()["by_status"] == {"failed:error": 1}
    [record] = campaign.store.read_all()
    true = LayerGeometry.from_conv(14, 1, 6, 3, 1, 0, pool=PoolSpec(2, 2, 0))
    assert (
        f"{true}: incomplete weight recovery, 2 of 6 resolved filters; "
        "NaN biases in filters [" in record["error"]
    )
    assert "got p_conv=2" in record["error"]


VICTIM_MEMO_SPEC = {
    "name": "memo",
    "sweeps": [
        {"kind": "power_fusion", "tenant": "structure",
         "base": {"victim": {"conv": {"w": 10, "c": 2, "d": 4, "seed": 7}},
                  "runs": 1,
                  "channel": {"drop_rate": 0.02, "cycle_sigma": 8.0,
                              "power_sigma": 4.0, "seed": 11}},
         "grid": {"mode": ["memory", "fused"]}},
        {"kind": "weight_recovery", "tenant": "weights",
         "base": WEIGHT_BASE, "grid": {"mode": ["naive", "naive"]}},
    ],
}


def test_victim_memo_lives_for_one_run(tmp_path, monkeypatch):
    """Each run builds each distinct victim once, in a memo of its own,
    and no job changes a victim it shares."""
    from repro.campaign import canonical_json, coordinator, victims
    from repro.campaign.victims import VictimMemo, build_device
    from repro.device import device_fingerprint

    memos, builds = [], []
    build_victim = victims.build_victim

    class RecordingMemo(VictimMemo):
        def __init__(self) -> None:
            super().__init__()
            memos.append(self)

    def counting_build(spec):
        builds.append(canonical_json(spec))
        return build_victim(spec)

    monkeypatch.setattr(coordinator, "VictimMemo", RecordingMemo)
    monkeypatch.setattr(victims, "build_victim", counting_build)
    for name in ("a", "b"):
        assert Campaign.create(VICTIM_MEMO_SPEC, tmp_path / name).run()[
            "by_status"
        ] == {"done": 4}

    first, second = memos
    assert len(builds) == 4 and len(set(builds)) == 2
    assert first.victims.keys() == second.victims.keys()
    for key in first.victims:
        assert first.victims[key] is not second.victims[key]
    for memo in memos:
        assert len(memo.fingerprints) == 2
        for key, fingerprint in memo.fingerprints.items():
            victim_spec, device_spec = json.loads(key)
            victim = memo.victims[canonical_json(victim_spec)]
            assert device_fingerprint(
                build_device(victim, device_spec)
            ) == fingerprint


def test_quota_breach_resumes_under_a_raised_quota(tmp_path, monkeypatch):
    """A job stopped mid-step by its tenant quota finishes after the
    quota is raised in spec.json (job ids do not include quotas): it
    re-enters at the failed step, never redoes a completed one, spends
    within the new quota, and its record equals that of a run which had
    the raised quota from the start."""
    from repro.campaign import coordinator

    executed: list[str] = []
    drive = coordinator.drive

    def recording_drive(runner, state, done, on_step):
        run_step = runner.run_step

        def step(name, step_state):
            executed.append(name)
            return run_step(name, step_state)

        runner.run_step = step
        return drive(runner, state, done, on_step)

    monkeypatch.setattr(coordinator, "drive", recording_drive)

    def spec_with(max_queries: int) -> dict:
        return dict(TINY_SPEC, name="raise", tenants={
            "weights": {"max_queries": max_queries},
        })

    reference = Campaign.create(spec_with(1000), tmp_path / "ref")
    reference.run()
    root = tmp_path / "c"
    campaign = Campaign.create(spec_with(10), root)
    weight_job = campaign.jobs[0]
    # Step filters:0:1 costs 95 queries and filters:1:2 27 more, so a
    # quota of 100 breaks the second step after the first completed.
    runs = []
    for quota in (10, 100, 1000):
        (root / "spec.json").write_text(json.dumps(spec_with(quota)))
        executed.clear()
        status = Campaign.load(root).run()
        ckpt = JobCheckpoint.load(campaign.store.jobs_dir, weight_job.job_id)
        spent = status["tenants"]["weights"]["spent"]["channel_queries"]
        assert spent <= quota
        runs.append((
            [n for n in executed if n.startswith("filters")],
            ckpt.status, list(ckpt.done),
        ))
    assert runs == [
        (["filters:0:1"], "failed:budget", []),
        (["filters:0:1", "filters:1:2"], "failed:budget", ["filters:0:1"]),
        (["filters:1:2"], "done", ["filters:0:1", "filters:1:2"]),
    ]
    record = campaign.store.read_result(weight_job.job_id)
    expected = reference.store.read_result(weight_job.job_id)
    assert record["metrics"] == expected["metrics"]
    assert record == expected
    assert spent == reference.status()["tenants"]["weights"]["spent"][
        "channel_queries"
    ]
