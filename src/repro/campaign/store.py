"""The campaign results store: one deterministic JSONL file.

``results.jsonl`` holds one record per job, in spec expansion order,
each line the canonical JSON (sorted keys, fixed separators) of::

    {"job": <id>, "kind": ..., "tenant": ..., "repeat": ...,
     "params": {...}, "status": "done" | "failed:...",
     "metrics": {...}, "ledger": {probe_lookups, observations,
                                  trace_events, repeat_queries}}

No timestamps, no hostnames, no cache-state-dependent figures: the
file is a pure function of the spec and the victims' physics, so a
kill-and-resume campaign reproduces it byte for byte — the property
the CI smoke job asserts.  The store is regenerated from per-job
result files after every run, so a damaged ``results.jsonl`` is
rebuilt by the next ``repro campaign resume``.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.campaign.checkpoint import atomic_write_text
from repro.campaign.spec import AttackJob, canonical_json
from repro.errors import ConfigError

__all__ = ["ResultsStore"]


class ResultsStore:
    """Per-job result files plus the consolidated ``results.jsonl``."""

    def __init__(self, root: Path) -> None:
        self.root = Path(root)
        self.jobs_dir = self.root / "jobs"
        self.tmp_dir = self.root / "tmp"
        self.results_path = self.root / "results.jsonl"

    def result_path(self, job_id: str) -> Path:
        return self.jobs_dir / job_id / "result.json"

    def write_result(self, job: AttackJob, record: dict) -> None:
        """Persist one job's result record (atomic, canonical form)."""
        atomic_write_text(
            self.result_path(job.job_id),
            canonical_json(record) + "\n",
            self.tmp_dir,
        )

    def read_result(self, job_id: str) -> dict | None:
        path = self.result_path(job_id)
        if not path.exists():
            return None
        try:
            return json.loads(path.read_text())
        except ValueError as exc:
            # The record is derived: a finished job rebuilds it from its
            # checkpoint without touching the device again.
            raise ConfigError(
                f"corrupt job result {path} ({exc}); delete {path} and run "
                "the campaign again to rebuild it from the job's checkpoint"
            ) from exc

    def consolidate(self, jobs: list[AttackJob]) -> int:
        """Rewrite ``results.jsonl`` in spec order from per-job files.

        Returns the number of records written.  Jobs without a result
        yet are skipped (a partially-run campaign has a prefix-…-gap
        file; the next resume fills it in).
        """
        lines = []
        for job in jobs:
            record = self.read_result(job.job_id)
            if record is not None:
                lines.append(canonical_json(record))
        atomic_write_text(
            self.results_path,
            "".join(line + "\n" for line in lines),
            self.tmp_dir,
        )
        return len(lines)

    def read_all(self) -> list[dict]:
        path = self.results_path
        if not path.exists():
            return []
        try:
            return [
                json.loads(line)
                for line in path.read_text().splitlines()
                if line.strip()
            ]
        except ValueError as exc:
            # Torn by a crash mid-write of a non-atomic copy, or edited:
            # the file is derived from the per-job results.
            raise ConfigError(
                f"corrupt campaign results {path} ({exc}); delete {path} "
                "and run 'repro campaign resume' to rebuild it from "
                "jobs/*/result.json"
            ) from exc
