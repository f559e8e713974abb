"""Campaign service: resumable, metered attack jobs.

The attack modules answer "can this victim be reverse engineered?";
this package answers "run that question across a whole grid of
victims, channels and estimator variants — durably".  A declarative
:class:`CampaignSpec` expands into content-addressed
:class:`AttackJob` cells; the :class:`Campaign` coordinator runs them
through the repo's checkpointable step runners, persisting a crash-
safe checkpoint after every step, answering repeated probes from a
shared content-addressed query cache instead of the victim, billing
every measurement to per-tenant hard-budget quotas, and writing one
deterministic ``results.jsonl`` that a kill-and-resume run reproduces
byte for byte.  See DESIGN.md §14.
"""

from repro.campaign.checkpoint import JobCheckpoint
from repro.campaign.coordinator import Campaign
from repro.campaign.jobs import JOB_KINDS, build_runner, ledger_totals
from repro.campaign.quota import QuotaBook
from repro.campaign.spec import (
    AttackJob,
    CampaignSpec,
    canonical_json,
    job_content_id,
)
from repro.campaign.store import ResultsStore

__all__ = [
    "AttackJob",
    "Campaign",
    "CampaignSpec",
    "JobCheckpoint",
    "JOB_KINDS",
    "QuotaBook",
    "ResultsStore",
    "build_runner",
    "canonical_json",
    "job_content_id",
    "ledger_totals",
]
