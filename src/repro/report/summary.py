"""Summary tables over campaign/bench JSONL result records.

One renderer for every results store in the repo: the campaign
coordinator's ``results.jsonl`` and the benchmark suite's
``benchmarks/results/results.jsonl`` both hold records shaped
``{"kind"/"name", "params"/..., "metrics"/"text", ...}``; this module
turns them back into the aligned text tables humans read, grouping by
kind and selecting the interesting columns per kind.
"""

from __future__ import annotations

from repro.report.tables import render_table

__all__ = [
    "render_campaign_summary",
    "render_bench_results",
]


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return f"{value:.3g}"
    if value is None:
        return "-"
    return str(value)


def _channel_label(params: dict) -> str:
    spec = dict(params.get("channel") or {})
    if not any(
        spec.get(k)
        for k in ("drop_rate", "dup_rate", "cycle_sigma", "counter_sigma",
                  "probe_granularity")
    ):
        return "ideal"
    parts = []
    if spec.get("drop_rate"):
        parts.append(f"drop{100 * spec['drop_rate']:g}%")
    if spec.get("dup_rate"):
        parts.append(f"dup{100 * spec['dup_rate']:g}%")
    if spec.get("cycle_sigma"):
        parts.append(f"lat{spec['cycle_sigma']:g}")
    if spec.get("probe_granularity"):
        parts.append(f"gran{spec['probe_granularity']}")
    if spec.get("counter_sigma"):
        parts.append(f"sigma{spec['counter_sigma']:g}")
    return "+".join(parts)


def _victim_label(params: dict) -> str:
    victim = dict(params.get("victim") or {})
    if "model" in victim:
        return str(victim["model"])
    if "conv" in victim:
        conv = victim["conv"]
        return (
            f"conv{conv.get('c', 1)}x{conv['w']}x{conv['w']}"
            f"/d{conv.get('d', 3)}"
        )
    return "?"


_KIND_COLUMNS = {
    "boundary_recovery": [
        ("victim", lambda r: _victim_label(r["params"])),
        ("channel", lambda r: _channel_label(r["params"])),
        ("robust F1", lambda r: r["metrics"].get("robust_f1")),
        ("naive F1", lambda r: r["metrics"].get("naive_f1_mean")),
        ("boundaries", lambda r: (
            f"{r['metrics'].get('found_boundaries')}/"
            f"{r['metrics'].get('truth_boundaries')}"
        )),
        ("exact", lambda r: r["metrics"].get("exact")),
    ],
    "weight_recovery": [
        ("victim", lambda r: _victim_label(r["params"])),
        ("channel", lambda r: _channel_label(r["params"])),
        ("mode", lambda r: r["metrics"].get("mode")),
        ("max |w/b| err", lambda r: r["metrics"].get("max_ratio_error")),
        ("resolved", lambda r: r["metrics"].get("resolved_fraction")),
        ("repeats", lambda r: r["metrics"].get("repeats")),
    ],
    "structure": [
        ("victim", lambda r: _victim_label(r["params"])),
        ("dataflow", lambda r: r["metrics"].get("dataflow")),
        ("identified", lambda r: r["metrics"].get("attack_identified")),
        ("candidates", lambda r: r["metrics"].get("candidates")),
        ("layers", lambda r: (
            f"{r['metrics'].get('num_layers')}/"
            f"{r['metrics'].get('expected_layers')}"
        )),
        ("truth found", lambda r: r["metrics"].get("truth_found")),
    ],
    "clone": [
        ("victim", lambda r: _victim_label(r["params"])),
        ("candidates", lambda r: r["metrics"].get("structure_candidates")),
        ("resolved", lambda r: r["metrics"].get(
            "weights_resolved_fraction"
        )),
        ("train agree", lambda r: r["metrics"].get("train_agreement")),
        ("val agree", lambda r: r["metrics"].get("val_agreement")),
    ],
}

_LEDGER_COLUMNS = [
    ("probe lookups", "probe_lookups"),
    ("observations", "observations"),
]


def render_campaign_summary(records: list[dict]) -> str:
    """Group campaign result records by kind and render one table each."""
    blocks = []
    kinds: list[str] = []
    for record in records:
        if record.get("kind") not in kinds:
            kinds.append(record.get("kind"))
    for kind in kinds:
        group = [r for r in records if r.get("kind") == kind]
        columns = _KIND_COLUMNS.get(kind)
        rows = []
        for r in group:
            if r.get("status") != "done" or columns is None:
                rows.append(
                    [r["job"], r.get("status", "?")]
                    + ["-"] * (len(columns or []) + len(_LEDGER_COLUMNS))
                )
                continue
            row = [r["job"], r["status"]]
            row += [_fmt(get(r)) for _, get in columns]
            ledger = r.get("ledger", {})
            row += [_fmt(ledger.get(key)) for _, key in _LEDGER_COLUMNS]
            rows.append(row)
        headers = ["job", "status"]
        headers += [name for name, _ in (columns or [])]
        headers += [name for name, _ in _LEDGER_COLUMNS]
        blocks.append(f"{kind} ({len(group)} jobs)\n"
                      + render_table(headers, rows))
    return "\n\n".join(blocks)


def render_bench_results(records: list[dict]) -> str:
    """Render the benchmark suite's JSONL store back to readable text.

    Each bench record is ``{"name": ..., "scale": ..., "text": ...}``;
    the text block is the bench's own rendered table, stored verbatim
    so the JSONL file is the single source of truth.
    """
    blocks = []
    for record in records:
        banner = f"===== {record['name']} [scale={record['scale']}] ====="
        blocks.append(f"{banner}\n{record['text']}")
    return "\n\n".join(blocks)
