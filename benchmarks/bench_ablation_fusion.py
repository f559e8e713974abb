"""Ablation: memory-bus vs memory+power fusion at matched query budgets.

The paper's structure attack reads a single leak surface — the memory
bus.  :mod:`repro.power` adds the second surface the threat model
admits (a per-cycle power proxy tapped off the very same inference),
and :mod:`repro.attacks.fusion` cross-validates RAW-boundary consensus
against power-trace segment edges.  This bench measures what that buys
under one fixed noisy channel: at a **matched observation budget**
(every recovery run costs exactly one victim inference on either
estimator), how many repeat runs does each channel need to reach
boundary F1 = 1.0?

* **memory**: the robust consensus :class:`BoundaryRecovery` alone, at
  1, 2 and 3 runs — at this noise point single runs forge or miss
  boundaries and consensus needs 3 runs to vote them away;
* **fused**: :class:`~repro.attacks.fusion.FusedBoundaryRecovery` at
  1 run — the relaxed (min_support=1) tracker recovers every true
  boundary and the independent power rail vetoes the forgeries, so one
  inference suffices.  The fused cell first spends a few metered
  calibration probes (:func:`calibrate_channel` with ``power_runs``)
  whose sigma/plateau estimate recommends that 1-run budget.

The bench is a client of the campaign service: one declarative spec,
every cell a resumable metered job, tables and assertions derived
purely from the campaign's results records.

Acceptance asserts (the PR's headline claim): fused reaches F1 = 1.0
on LeNet at ``runs=1`` while memory-only is below 1.0 at ``runs=1``
and ``runs=2`` and needs ``runs=3`` — a strictly lower repeat budget
on the identical channel — and the credibility gate keeps the deep
AlexNet victim (whose power trace over-segments) at the memory
baseline's F1 rather than below it.
"""

from __future__ import annotations

from repro.report import render_table

from benchmarks.common import emit, paper_scale, run_campaign

# One fixed noisy-channel point for every cell: enough drop/latency
# noise that single-run memory recovery is unreliable, power-side
# noise well under the LeNet plateau (sigma 10 vs ~173).
CHANNEL_SEED = 11
CHANNEL = {
    "drop_rate": 0.1,
    "dup_rate": 0.02,
    "cycle_sigma": 8.0,
    "power_sigma": 10.0,
    "power_quantum": 1,
    "seed": CHANNEL_SEED,
}
MEMORY_RUNS = (1, 2, 3)
FUSED_RUNS = 1
CALIBRATE_RUNS = 4


def _victims() -> list[dict]:
    return [
        {"model": "lenet"},
        {
            "model": "alexnet",
            "width_scale": 1.0 if paper_scale() else 0.25,
            "num_classes": 1000 if paper_scale() else 100,
        },
    ]


def _campaign_spec() -> dict:
    return {
        "name": "ablation_fusion",
        "sweeps": [
            {
                "kind": "power_fusion",
                "tenant": "structure",
                "base": {"mode": "memory", "channel": CHANNEL},
                "grid": {
                    "victim": _victims(),
                    "runs": list(MEMORY_RUNS),
                },
            },
            {
                "kind": "power_fusion",
                "tenant": "structure",
                "base": {
                    "mode": "fused",
                    "runs": FUSED_RUNS,
                    "calibrate_runs": CALIBRATE_RUNS,
                    "channel": CHANNEL,
                },
                "grid": {"victim": _victims()},
            },
        ],
    }


def _table_rows(memory_records, fused_record):
    """Table rows + keyed scores for one victim."""
    rows = []
    scores = {}
    for runs, record in zip(MEMORY_RUNS, memory_records):
        m = record["metrics"]
        rows.append((
            "memory", str(runs), f"{m['f1']:.3f}",
            f"{m['found_boundaries']}/{m['truth_boundaries']}",
            str(m["power_samples"]), "-",
        ))
        scores[("memory", runs)] = m["f1"]
    m = fused_record["metrics"]
    cal = m["calibration"]
    rows.append((
        "fused", str(m["runs"]), f"{m['f1']:.3f}",
        f"{m['found_boundaries']}/{m['truth_boundaries']}",
        str(m["power_samples"]),
        f"sigma~{cal['power_sigma']:.1f} -> {cal['recommended_fusion_runs']} run(s)",
    ))
    scores[("fused", m["runs"])] = m["f1"]
    return rows, scores, cal


def test_ablation_fusion(benchmark):
    spec = _campaign_spec()

    def sweep():
        return run_campaign("ablation_fusion", spec)

    pairs = benchmark.pedantic(sweep, rounds=1, iterations=1)
    records = [record for _, record in pairs]
    n = len(MEMORY_RUNS)
    # Grid order: victims x runs for the memory sweep, then one fused
    # cell per victim.
    lenet_mem = records[0:n]
    alex_mem = records[n:2 * n]
    lenet_fused, alex_fused = records[2 * n], records[2 * n + 1]
    lrows, lscores, lcal = _table_rows(lenet_mem, lenet_fused)
    arows, ascores, _ = _table_rows(alex_mem, alex_fused)

    headers = ["estimator", "runs (=inferences)", "boundary F1",
               "boundaries", "power samples", "calibration"]
    text = "structure: memory-only vs memory+power fusion "
    text += "(one noisy channel, matched budgets)\n"
    text += (
        f"\nchannel: drop {CHANNEL['drop_rate']:.0%} dup "
        f"{CHANNEL['dup_rate']:.0%} latency sigma "
        f"{CHANNEL['cycle_sigma']:.0f} power sigma "
        f"{CHANNEL['power_sigma']:.0f} (seed {CHANNEL_SEED})\n"
    )
    text += "\nLeNet:\n"
    text += render_table(headers, lrows)
    text += "\n\nAlexNet:\n"
    text += render_table(headers, arows)
    text += (
        "\n\nmemory = consensus boundary recovery on the bus channel "
        "alone; fused = one\ntee'd inference per run observed on bus "
        "+ power rail, power segment edges\nvetoing forged RAW "
        "candidates (uninformative power falls back to memory).\n"
        "Each run costs one victim inference on either estimator; the "
        "fused cells\nspend 4 extra metered calibration probes to "
        "pick their 1-run budget."
    )
    emit("ablation_fusion", text)

    # Calibration feeds the budget choice: the probe must find the
    # power channel informative and recommend the single-run budget.
    assert lcal["power_informative"], "LeNet power channel informative"
    assert lcal["recommended_fusion_runs"] == FUSED_RUNS

    # Headline acceptance: fusion reaches F1 = 1.0 at a strictly
    # lower repeat budget than memory-only on the identical channel.
    assert lscores[("fused", FUSED_RUNS)] == 1.0, "fused LeNet F1"
    assert lscores[("memory", 1)] < 1.0, "memory must miss at runs=1"
    assert lscores[("memory", 2)] < 1.0, "memory must miss at runs=2"
    assert lscores[("memory", 3)] == 1.0, "memory recovers at runs=3"

    # Deep victim: power over-segments, the credibility gate must keep
    # fusion at (not below) the memory baseline at the same budget.
    assert ascores[("fused", FUSED_RUNS)] >= ascores[("memory", 1)]
    assert ascores[("fused", FUSED_RUNS)] == 1.0, "fused AlexNet F1"

    # Power-sample accounting: only fused cells touch the power rail.
    for record in lenet_mem + alex_mem:
        assert record["metrics"]["power_samples"] == 0
    for record in (lenet_fused, alex_fused):
        assert record["metrics"]["power_samples"] > 0
