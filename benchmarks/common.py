"""Shared benchmark infrastructure.

Every benchmark regenerates one of the paper's tables or figures and

* prints the rendered result (visible with ``pytest -s``),
* upserts it into the JSONL store ``benchmarks/results/results.jsonl``
  (one record per bench; re-runs replace the bench's record in place),
* asserts the reproduction properties that must hold regardless of
  scale (ground truth among candidates, error bounds, orderings).

Render the store back to readable text with
``repro.report.summary.render_bench_results``.

``REPRO_BENCH_SCALE=paper`` switches from the fast defaults (minutes on
one core) to the full paper-scale experiments; EXPERIMENTS.md records
both.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

RESULTS_DIR = Path(__file__).parent / "results"
RESULTS_STORE = RESULTS_DIR / "results.jsonl"


def run_campaign(name: str, spec: dict) -> list:
    """Run a campaign spec in a scratch directory; benches are clients.

    Returns ``[(AttackJob, record), ...]`` in spec-expansion order and
    raises if any job finished in a non-``done`` status, so bench
    assertions only ever look at completed records.
    """
    from repro.campaign import Campaign

    root = Path(
        tempfile.mkdtemp(prefix=f"repro-bench-{name}-{os.getpid()}-")
    ) / "campaign"
    campaign = Campaign.create(spec, root)
    campaign.run()
    by_id = {r["job"]: r for r in campaign.store.read_all()}
    pairs = []
    for job in campaign.jobs:
        record = by_id.get(job.job_id)
        if record is None or record["status"] != "done":
            raise AssertionError(
                f"campaign job {job.kind}/{job.job_id} did not finish: "
                f"{record and record.get('error')}"
            )
        pairs.append((job, record))
    return pairs


def bench_scale() -> str:
    """``small`` (default) or ``paper``."""
    scale = os.environ.get("REPRO_BENCH_SCALE", "small")
    if scale not in ("small", "paper"):
        raise ValueError(f"REPRO_BENCH_SCALE must be small|paper, got {scale}")
    return scale


def paper_scale() -> bool:
    return bench_scale() == "paper"


def read_results() -> list[dict]:
    """All records currently in the bench results store."""
    if not RESULTS_STORE.exists():
        return []
    return [
        json.loads(line)
        for line in RESULTS_STORE.read_text().splitlines()
        if line.strip()
    ]


def emit(name: str, text: str) -> None:
    """Print a result block and upsert it into the JSONL store."""
    RESULTS_DIR.mkdir(exist_ok=True)
    banner = f"===== {name} [scale={bench_scale()}] ====="
    print(f"\n{banner}\n{text}\n")
    record = {"name": name, "scale": bench_scale(), "text": text}
    records = [r for r in read_results() if r["name"] != name]
    records.append(record)
    records.sort(key=lambda r: r["name"])
    tmp = RESULTS_STORE.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(
        "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)
    )
    os.replace(tmp, RESULTS_STORE)
