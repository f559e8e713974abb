"""The campaign coordinator: resumable, metered attack campaigns.

A campaign lives in one directory::

    <root>/spec.json       the declarative spec (canonical JSON)
    <root>/cache.sqlite    shared content-addressed query cache
    <root>/jobs/<id>/      per-job checkpoint + result files
    <root>/results.jsonl   consolidated results, spec order
    <root>/tmp/            atomic-write staging

:class:`Campaign` expands the spec into jobs, runs them one after
another in spec order, persists a checkpoint after every attack step,
and bills every ledger snapshot to its tenant's quota.  ``run`` *is*
``resume``: completed jobs are skipped, partially-done jobs restore
their ledger snapshot and re-enter their step plan at the first missing
step, and identical probes anywhere in the campaign are answered from
the shared cache instead of the victim.  Fault injection for the CI
smoke test: ``REPRO_CAMPAIGN_KILL=<n>`` hard-exits the process after
the *n*-th persisted checkpoint, which is exactly the window a real
crash hits.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.accel.sinks import reclaim_spool_dirs
from repro.attacks.stepped import drive
from repro.campaign.checkpoint import JobCheckpoint, atomic_write_text
from repro.campaign.jobs import JOB_KINDS, build_runner, ledger_totals
from repro.campaign.quota import QuotaBook
from repro.campaign.spec import AttackJob, CampaignSpec, canonical_json
from repro.campaign.store import ResultsStore
from repro.campaign.victims import VictimMemo
from repro.device import SharedQueryCache
from repro.errors import ConfigError, QueryBudgetExceeded

__all__ = ["Campaign"]

_KILL_ENV = "REPRO_CAMPAIGN_KILL"
_BUDGETS = ("max_queries", "max_inferences", "max_trace_bytes")
_SPEND = ("channel_queries", "inferences", "trace_bytes")  # what quotas cap
_persisted_checkpoints = 0


def _maybe_kill() -> None:
    """Fault injection: die (as a crash would) after N persisted steps."""
    global _persisted_checkpoints
    limit = os.environ.get(_KILL_ENV)
    if not limit:
        return
    _persisted_checkpoints += 1
    if _persisted_checkpoints >= int(limit):
        os._exit(137)


def _device_charge(snapshots: list) -> dict:
    """The quota-relevant device spend recorded in ledger snapshots."""
    out = dict.fromkeys(_SPEND, 0)
    for snap in snapshots:
        for key in out:
            out[key] += int(snap.get(key, 0))
    return out


def _execute_job(
    job: AttackJob,
    budgets: dict,
    store: ResultsStore,
    cache: SharedQueryCache,
    victims: VictimMemo,
) -> str:
    """Run (or finish) one job under ``budgets``; returns its status."""
    ckpt = JobCheckpoint.load(store.jobs_dir, job.job_id)
    record = {
        "job": job.job_id,
        "kind": job.kind,
        "tenant": job.tenant,
        "repeat": job.repeat,
        "params": job.params,
    }
    ledgers: list = []
    try:
        runner, ledgers = build_runner(
            job.kind,
            job.params,
            shared_cache=cache,
            budgets=budgets,
            victims=victims,
        )
        for ledger, snap in zip(ledgers, ckpt.ledgers):
            # Restore the counters, then apply this dispatch's quota-
            # derived budgets over the stale ones the snapshot carries:
            # a resume cannot buy more than the tenant has left.
            ledger.restore(snap)
            for axis in _BUDGETS:
                setattr(ledger, axis, budgets.get(axis))
        ckpt.ledgers = [ledger.snapshot() for ledger in ledgers]

        def checkpoint(name: str, state: dict) -> None:
            ckpt.state = state
            ckpt.ledgers = [ledger.snapshot() for ledger in ledgers]
            ckpt.status = "running"
            ckpt.save(store.jobs_dir, store.tmp_dir)
            _maybe_kill()

        state = drive(runner, dict(ckpt.state), ckpt.done, checkpoint)
        record["metrics"] = JOB_KINDS[job.kind].metrics(runner, state)
        record["ledger"] = ledger_totals(ledgers)
        record["status"] = ckpt.status = "done"
    except QueryBudgetExceeded as exc:
        record["status"] = ckpt.status = "failed:budget"
        record["error"] = ckpt.error = str(exc)
    except Exception as exc:  # noqa: BLE001 - one bad job must not sink the campaign
        record["status"] = ckpt.status = "failed:error"
        record["error"] = ckpt.error = f"{type(exc).__name__}: {exc}"
    if ckpt.status != "done" and ledgers:
        # Bill the failed step's device spend to the tenant.  The rest
        # of the account (lookups, observations) stays at the last
        # completed step: a resume re-runs the failed step, which counts
        # it again, so the finished record matches an uninterrupted run.
        for snap, ledger in zip(ckpt.ledgers, ledgers):
            snap.update({key: getattr(ledger, key) for key in _SPEND})
    ckpt.save(store.jobs_dir, store.tmp_dir)
    store.write_result(job, record)
    return record["status"]


class Campaign:
    """One campaign directory and its jobs."""

    def __init__(self, root: Path | str, spec: CampaignSpec) -> None:
        self.root = Path(root)
        self.spec = spec
        self.jobs = spec.expand()
        self.store = ResultsStore(self.root)

    # -- lifecycle ---------------------------------------------------------
    @staticmethod
    def create(spec: CampaignSpec | dict, root: Path | str) -> "Campaign":
        """Initialise a campaign directory from a spec."""
        if isinstance(spec, dict):
            spec = CampaignSpec.from_dict(spec)
        root = Path(root)
        spec_path = root / "spec.json"
        if spec_path.exists():
            raise ConfigError(f"campaign already exists at {root}")
        root.mkdir(parents=True, exist_ok=True)
        atomic_write_text(
            spec_path, canonical_json(spec.to_dict()) + "\n", root / "tmp"
        )
        return Campaign(root, spec)

    @staticmethod
    def load(root: Path | str) -> "Campaign":
        root = Path(root)
        spec_path = root / "spec.json"
        if not spec_path.exists():
            raise ConfigError(f"no campaign spec at {spec_path}")
        import json

        return Campaign(root, CampaignSpec.from_dict(
            json.loads(spec_path.read_text())
        ))

    # -- accounting --------------------------------------------------------
    def _checkpoints(self) -> dict[str, JobCheckpoint]:
        return {
            job.job_id: JobCheckpoint.load(self.store.jobs_dir, job.job_id)
            for job in self.jobs
        }

    def _quota_book(
        self, checkpoints: dict[str, JobCheckpoint], skip: str | None = None
    ) -> QuotaBook:
        """Every job's persisted spend, except job ``skip``'s, billed."""
        book = QuotaBook(self.spec.tenants)
        for job in self.jobs:
            if job.job_id != skip:
                charge = _device_charge(checkpoints[job.job_id].ledgers)
                book.charge(job.tenant, charge)
        return book

    def _budgets(
        self, job: AttackJob, checkpoints: dict[str, JobCheckpoint]
    ) -> dict:
        """One job's session budgets: the tenant quota minus *others'*
        spend.

        The job's own prior spend is excluded here because its restored
        ledger already carries those counters — the ledger budget then
        caps the job's lifetime total at exactly the tenant remainder.
        """
        book = self._quota_book(checkpoints, skip=job.job_id)
        return book.budgets(job.tenant)

    # -- execution ---------------------------------------------------------
    def run(self) -> dict:
        """Run every pending job; completed ones are skipped (= resume).

        The run opens one shared-cache connection and one victim memo
        for all its jobs; neither outlives it.
        """
        # Spool directories stranded by a killed earlier run.
        reclaim_spool_dirs()
        checkpoints = self._checkpoints()
        pending = [
            job
            for job in self.jobs
            if not (
                checkpoints[job.job_id].status == "done"
                and self.store.read_result(job.job_id) is not None
            )
        ]
        cache = SharedQueryCache(self.root / "cache.sqlite")
        victims = VictimMemo()
        try:
            for job in pending:
                # Quota enforcement is exact: each dispatch sees every
                # earlier job's true ledger.
                _execute_job(
                    job,
                    self._budgets(job, checkpoints),
                    self.store,
                    cache,
                    victims,
                )
                checkpoints[job.job_id] = JobCheckpoint.load(
                    self.store.jobs_dir, job.job_id
                )
        finally:
            cache.close()
        self.store.consolidate(self.jobs)
        return self.status()

    def status(self) -> dict:
        """Job / quota / cache accounting for the whole campaign."""
        checkpoints = self._checkpoints()
        by_status: dict[str, int] = {}
        for ckpt in checkpoints.values():
            by_status[ckpt.status] = by_status.get(ckpt.status, 0) + 1
        cache_path = self.root / "cache.sqlite"
        cache_stats = None
        if cache_path.exists():
            cache = SharedQueryCache(cache_path)
            try:
                cache_stats = cache.stats()
            finally:
                cache.close()
        return {
            "name": self.spec.name,
            "jobs": len(self.jobs),
            "by_status": by_status,
            "results": len(self.store.read_all()),
            "tenants": self._quota_book(checkpoints).status(),
            "cache": cache_stats,
        }
