"""Durable per-job checkpoints: crash-safe, byte-deterministic.

Each job owns one ``jobs/<job_id>/state.json`` holding the step plan
progress (``steps_done``), the runner's JSON state, and a snapshot of
every session ledger.  Writes go through a temp file in the campaign's
``tmp/`` directory followed by :func:`os.replace` — a killed process
leaves either the previous checkpoint or the new one, never a torn
file.  The serialised form is canonical (sorted keys, fixed
separators, no timestamps), so an uninterrupted campaign and a
kill-and-resume one produce byte-identical checkpoint files.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.campaign.spec import canonical_json
from repro.errors import ConfigError

__all__ = ["JobCheckpoint", "atomic_write_text"]


def atomic_write_text(path: Path, text: str, tmp_dir: Path) -> None:
    """Write ``text`` to ``path`` atomically via rename."""
    tmp_dir.mkdir(parents=True, exist_ok=True)
    tmp = tmp_dir / f"{os.getpid()}-{path.name}.tmp"
    tmp.write_text(text)
    path.parent.mkdir(parents=True, exist_ok=True)
    os.replace(tmp, path)


@dataclass
class JobCheckpoint:
    """Everything needed to resume one job exactly where it stopped.

    ``done`` is the step cursor, persisted as ``steps_done``.
    """

    job_id: str
    done: list = field(default_factory=list)
    state: dict = field(default_factory=dict)
    ledgers: list = field(default_factory=list)
    status: str = "pending"
    error: str | None = None

    @staticmethod
    def path(jobs_dir: Path, job_id: str) -> Path:
        return jobs_dir / job_id / "state.json"

    @staticmethod
    def load(jobs_dir: Path, job_id: str) -> "JobCheckpoint":
        path = JobCheckpoint.path(jobs_dir, job_id)
        if not path.exists():
            return JobCheckpoint(job_id=job_id)
        try:
            d = json.loads(path.read_text())
        except ValueError as exc:
            # Not treated as pending: that would forget the job's billed
            # spend.  Only the operator can decide to re-run it.
            raise ConfigError(
                f"corrupt job checkpoint {path} ({exc}); delete "
                f"{path.parent}/ to re-run that job from scratch"
            ) from exc
        return JobCheckpoint(
            job_id=job_id,
            done=list(d.get("steps_done", [])),
            state=dict(d.get("state", {})),
            ledgers=list(d.get("ledgers", [])),
            status=str(d.get("status", "pending")),
            error=d.get("error"),
        )

    def save(self, jobs_dir: Path, tmp_dir: Path) -> None:
        payload = {
            "job_id": self.job_id,
            "steps_done": list(self.done),
            "state": self.state,
            "ledgers": list(self.ledgers),
            "status": self.status,
        }
        if self.error is not None:
            payload["error"] = self.error
        atomic_write_text(
            JobCheckpoint.path(jobs_dir, self.job_id),
            canonical_json(payload) + "\n",
            tmp_dir,
        )
