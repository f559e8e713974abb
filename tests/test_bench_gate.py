"""Perf-regression gate: pure-function tests for the CI throughput check.

The live gate only runs on multi-CPU hosts (single-CPU wall clocks
measure contention, not the code), so its decision logic is unit-tested
here where it always runs.  Figures are compared in units of the
reference kernel each run timed (``_meta.ref_kernel_s``).
"""

from __future__ import annotations

import json

import pytest

from benchmarks.perf.__main__ import (
    SKIP_SINGLE_CPU,
    check_throughput_regression,
    gated_figures,
)


def results_with(synth_eps: int, decode_eps: int, quick: bool = True) -> dict:
    return {
        "events_per_second": {
            "nets": {"alexnet": {"events_per_second": synth_eps}},
        },
        "decode_events_per_second": {"events_per_second": decode_eps},
        "_meta": {"quick": quick, "ref_kernel_s": 1.0},
    }


GATED = {
    "synthesis:alexnet": 300_000_000,
    "synthesis:lenet": 6_000_000,
    "decode:alexnet": 8_000_000,
    "power:alexnet": 5_000_000,
    "power:lenet": 300_000,
    "campaign:jobs_per_minute": 1_700.0,
}


def every_figure(kernel_s: float, slow: dict[str, float] | None = None) -> dict:
    """A run with every gated figure, each divided by its ``slow`` factor."""
    fig = {k: v / (slow or {}).get(k, 1.0) for k, v in GATED.items()}
    return {
        "events_per_second": {
            "nets": {
                "alexnet": {"events_per_second": fig["synthesis:alexnet"]},
                "lenet": {"events_per_second": fig["synthesis:lenet"]},
            },
        },
        "decode_events_per_second": {"events_per_second": fig["decode:alexnet"]},
        "power": {"nets": {
            "alexnet": {"samples_per_second": fig["power:alexnet"]},
            "lenet": {"samples_per_second": fig["power:lenet"]},
        }},
        "campaign": {"jobs_per_minute": fig["campaign:jobs_per_minute"]},
        "_meta": {"quick": True, "ref_kernel_s": kernel_s},
    }


@pytest.mark.parametrize("metric", sorted(GATED))
def test_gate_fails_a_2x_slowdown_of_each_figure(metric):
    baseline = every_figure(0.08)
    current = every_figure(0.08, slow={metric: 2.0})
    failures = check_throughput_regression(baseline, current, cpus=2)
    assert len(failures) == 1 and metric in failures[0]


def test_gate_cancels_the_host_speed():
    """A host half as fast halves every figure and doubles the kernel."""
    baseline = every_figure(0.08)
    slower_host = every_figure(0.16, slow=dict.fromkeys(GATED, 2.0))
    assert check_throughput_regression(baseline, slower_host, cpus=2) == []
    # Without the unit the same run would read as a 2x regression.
    slower_host["_meta"]["ref_kernel_s"] = 0.08
    failures = check_throughput_regression(baseline, slower_host, cpus=2)
    assert len(failures) == len(GATED)


def test_figures_cover_synthesis_and_decode():
    figs = gated_figures(results_with(1_000_000, 2_000_000))
    assert figs == {
        "synthesis:alexnet": 1_000_000,
        "decode:alexnet": 2_000_000,
    }


def test_gate_passes_within_tolerance():
    baseline = results_with(1_000_000, 2_000_000)
    # 30% slower is exactly the floor; still passing.
    current = results_with(700_000, 1_400_000)
    assert check_throughput_regression(baseline, current, cpus=2) == []


def test_gate_fails_past_tolerance(capsys):
    baseline = results_with(1_000_000, 2_000_000)
    current = results_with(699_999, 2_100_000)
    failures = check_throughput_regression(baseline, current, cpus=2)
    assert len(failures) == 1
    assert "synthesis:alexnet" in failures[0]
    assert "REGRESSED" in capsys.readouterr().out


def test_gate_flags_decode_regression():
    baseline = results_with(1_000_000, 2_000_000)
    current = results_with(1_000_000, 500_000)
    failures = check_throughput_regression(baseline, current, cpus=2)
    assert len(failures) == 1
    assert "decode:alexnet" in failures[0]


def test_gate_skips_on_single_cpu(capsys):
    baseline = results_with(1_000_000, 2_000_000)
    current = results_with(1, 1)
    assert check_throughput_regression(baseline, current, cpus=1) == []
    assert SKIP_SINGLE_CPU in capsys.readouterr().out


def test_gate_skips_without_baseline(capsys):
    assert check_throughput_regression(
        None, results_with(1, 1), cpus=2
    ) == []
    assert "no committed baseline" in capsys.readouterr().out


def test_gate_skips_on_scale_mismatch(capsys):
    baseline = results_with(1_000_000, 2_000_000, quick=False)
    current = results_with(1, 1, quick=True)
    assert check_throughput_regression(baseline, current, cpus=2) == []
    assert "different scale" in capsys.readouterr().out


def test_gate_ignores_metrics_missing_from_either_side():
    baseline = results_with(1_000_000, 2_000_000)
    del baseline["decode_events_per_second"]
    current = results_with(500_000, 1, quick=True)
    failures = check_throughput_regression(baseline, current, cpus=2)
    # decode has no baseline -> not compared; synthesis still gates.
    assert len(failures) == 1
    assert "synthesis:alexnet" in failures[0]


def test_failed_gate_leaves_the_baseline_untouched(tmp_path, monkeypatch):
    import benchmarks.perf.__main__ as perf

    def below_floor(quick, workers):
        return {"wall_s": 1.0, "identical": True,
                "nets": {"alexnet": {"events_per_second": 1}}}

    (synthesis,) = [r for r in perf.ROWS if r.name == "events_per_second"]
    monkeypatch.setattr(perf, "ROWS", (perf.Row(
        synthesis.name, below_floor, figures=synthesis.figures,
    ),))
    monkeypatch.setattr(perf, "available_cpus", lambda: 2)
    baseline = tmp_path / "BENCH_perf.json"
    baseline.write_text(json.dumps(results_with(1_000_000, 2_000_000)))
    before = baseline.read_bytes()
    assert perf.main(["--quick", "--output", str(baseline)]) == 1
    # A regressed run must not become the next run's baseline.
    assert baseline.read_bytes() == before


@pytest.mark.parametrize("name, compared", [
    ("ranking", True), ("weights", True), ("channel", True),
    ("events_per_second", False), ("decode_events_per_second", False),
    ("power", False), ("dataflow_id", False), ("memory", False),
    ("campaign", False),
])
def test_header_announces_workers_only_for_worker_rows(name, compared):
    from benchmarks.perf.__main__ import ROWS, header

    (row,) = [r for r in ROWS if r.name == name]
    line = header(row, 2)
    assert line.startswith(f"[{name}] ")
    assert ("workers=1 vs workers=2" in line) is compared
