"""CLI smoke tests: every subcommand runs and prints sane output."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


def run_cli(capsys, *argv) -> str:
    assert main(list(argv)) == 0
    return capsys.readouterr().out


def test_simulate_command(capsys, tmp_path):
    trace_path = str(tmp_path / "trace.npz")
    out = run_cli(
        capsys, "simulate", "--model", "lenet", "--save-trace", trace_path
    )
    assert "stages: 4" in out
    assert "transactions" in out
    assert "trace saved" in out
    from repro.accel import MemoryTrace

    assert len(MemoryTrace.load(trace_path)) > 0


def test_simulate_pruned(capsys):
    out = run_cli(capsys, "simulate", "--model", "lenet", "--pruned")
    assert "pruned" in out


def test_structure_command(capsys):
    out = run_cli(
        capsys, "structure", "--model", "lenet", "--tolerance", "0.25",
        "--show", "2",
    )
    assert "layers detected: 4" in out
    assert "candidate structures:" in out
    assert "candidate 0:" in out


def test_weights_command(capsys):
    out = run_cli(capsys, "weights", "--size", "27", "--filters", "3")
    assert "resolved 100.0%" in out
    assert "max |w/b| error" in out


@pytest.mark.slow
def test_weights_command_votes_on_a_noisy_counter(capsys):
    out = run_cli(
        capsys, "weights", "--size", "19", "--filters", "1",
        "--channel-sigma", "0.5", "--repeats", "3",
    )
    assert out.startswith("calibration: counter sigma~")
    assert "resolved 100.0%" in out
    assert "noise repeats=" in out


def test_weights_threshold_command(capsys):
    out = run_cli(
        capsys, "weights", "--size", "27", "--filters", "3", "--threshold"
    )
    assert "max |w| error" in out
    assert "max |b| error" in out


@pytest.mark.slow
def test_clone_command(capsys):
    out = run_cli(capsys, "clone", "--probes", "40", "--epochs", "4")
    assert "stolen conv1 max weight error" in out
    assert "prediction agreement" in out


@pytest.mark.parametrize(
    "dataflow", ["weight-stationary", "row-stationary"]
)
def test_simulate_dataflow_roundtrip(capsys, dataflow):
    out = run_cli(
        capsys, "simulate", "--model", "lenet", "--dataflow", dataflow
    )
    assert f"dataflow: {dataflow}" in out
    assert "stages: 4" in out


def test_simulate_names_default_dataflow(capsys):
    out = run_cli(capsys, "simulate", "--model", "lenet")
    assert "dataflow: output-stationary" in out


@pytest.mark.parametrize(
    "dataflow", ["output-stationary", "weight-stationary", "row-stationary"]
)
def test_structure_dataflow_roundtrip(capsys, dataflow):
    # The attack is not told the schedule — it must identify the
    # victim's configured dataflow before decoding.
    out = run_cli(
        capsys, "structure", "--model", "lenet", "--tolerance", "0.25",
        "--dataflow", dataflow,
    )
    assert f"dataflow identified: {dataflow}" in out
    assert "layers detected: 4" in out
    assert "candidate structures:" in out


def test_parser_rejects_unknown_dataflow():
    for command in ("simulate", "structure", "clone"):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, "--dataflow", "systolic"])


def test_parser_rejects_unknown_model():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["simulate", "--model", "resnet"])


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_campaign_run_status_resume(capsys, tmp_path):
    import json

    spec = {
        "name": "cli-smoke",
        "sweeps": [{
            "kind": "weight_recovery",
            "tenant": "weights",
            "base": {
                "victim": {"conv": {"w": 6, "d": 2, "seed": 9}},
                "device": {"pruning": True},
                "search_steps": 8,
                "filters_per_step": 1,
            },
        }],
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    root = tmp_path / "campaign"

    out = run_cli(
        capsys, "campaign", "run", "--dir", str(root),
        "--spec", str(spec_path),
    )
    assert "campaign cli-smoke: 1/1 jobs done" in out
    assert (root / "results.jsonl").exists()

    out = run_cli(capsys, "campaign", "status", "--dir", str(root))
    assert '"done": 1' in out
    assert "weight_recovery" in out  # summary table rendered

    # Resume on a finished campaign is a no-op that leaves results alone.
    before = (root / "results.jsonl").read_bytes()
    run_cli(capsys, "campaign", "resume", "--dir", str(root))
    assert (root / "results.jsonl").read_bytes() == before


def test_campaign_run_without_spec_fails(capsys, tmp_path):
    assert main(
        ["campaign", "run", "--dir", str(tmp_path / "nowhere")]
    ) == 2
    assert "pass --spec" in capsys.readouterr().err


def test_channel_flags_round_trip_every_channel_field():
    import dataclasses

    from repro.channel import ChannelModel
    from repro.cli import _CHANNEL_FLAGS, _channel_from_args

    fields = {f.name for f in dataclasses.fields(ChannelModel)}
    assert {name for _, name, _, _ in _CHANNEL_FLAGS} == fields - {"spawn_key"}
    parser = build_parser()
    for command in ("structure", "weights", "clone"):
        args = parser.parse_args([command])
        assert _channel_from_args(args) == ChannelModel()
    model = ChannelModel(
        drop_rate=0.05, dup_rate=0.02, probe_granularity=128,
        cycle_sigma=12.5, counter_sigma=0.25, counter_quantum=3,
        power_sigma=1.5, power_quantum=4, seed=17,
    )
    argv = ["weights"]
    for flag, name, _, _ in _CHANNEL_FLAGS:
        argv += [flag, str(getattr(model, name))]
    args = parser.parse_args(argv)
    assert _channel_from_args(args) == model
    assert args.seed == 0


def test_channel_seed_and_victim_seed_are_separate_flags():
    from repro.channel import ChannelModel
    from repro.cli import _channel_from_args

    parser = build_parser()
    for command, default_seed in (("weights", 0), ("clone", 4)):
        args = parser.parse_args([command, "--seed", "3"])
        assert args.seed == 3
        assert _channel_from_args(args) == ChannelModel()
        args = parser.parse_args([command, "--channel-seed", "7"])
        assert args.seed == default_seed
        assert _channel_from_args(args) == ChannelModel(seed=7)


def test_invalid_channel_flag_prints_an_error(capsys):
    assert main(["structure", "--channel-drop", "1.5"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("repro: error: drop_rate must be in [0, 1)")
    assert "Traceback" not in err


def test_campaign_status_of_missing_dir_prints_an_error(capsys, tmp_path):
    missing = tmp_path / "nowhere"
    assert main(["campaign", "status", "--dir", str(missing)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("repro: error: no campaign spec at ")
    assert str(missing) in err
