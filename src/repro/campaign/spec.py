"""Campaign job model: a declarative grid expanded into attack jobs.

A :class:`CampaignSpec` is what a fleet operator writes: one or more
*sweeps*, each naming a job kind (see :mod:`repro.campaign.jobs`), a
tenant account, fixed base parameters, and a parameter grid.  Expansion
is deterministic — sweeps in order, grid axes in listed order, values
in listed order — and every resulting :class:`AttackJob` gets a
content-addressed id (a SHA-256 over its kind, canonical parameters
and occurrence index), so the same spec expands to the same job ids in
any process on any machine.  Two grid cells with identical parameters
are distinct jobs (their ``repeat`` index differs) but share every
device measurement through the campaign's shared query cache.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field

from repro.errors import ConfigError

__all__ = ["AttackJob", "CampaignSpec", "canonical_json", "job_content_id"]


def canonical_json(value) -> str:
    """The one serialised form used for hashing and results records."""
    return json.dumps(
        value, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    )


def job_content_id(kind: str, params: dict, repeat: int) -> str:
    """Content hash of one job cell — stable across sessions/processes."""
    payload = canonical_json({"kind": kind, "params": params, "repeat": repeat})
    return hashlib.sha256(payload.encode("ascii")).hexdigest()[:16]


@dataclass(frozen=True)
class AttackJob:
    """One expanded grid cell: a single attack against a single victim."""

    job_id: str
    kind: str
    tenant: str
    params: dict
    repeat: int = 0


@dataclass(frozen=True)
class CampaignSpec:
    """A declarative attack campaign.

    Attributes:
        name: operator-chosen campaign label.
        sweeps: list of sweep dicts, each with keys ``kind`` (job kind
            name), optional ``tenant`` (default ``"default"``),
            optional ``base`` (fixed parameters) and optional ``grid``
            (mapping of parameter name to a list of values, expanded
            as a cartesian product in listed order).
        tenants: optional per-tenant quota mapping; each value may set
            ``max_queries``, ``max_inferences`` and ``max_trace_bytes``
            (absent / ``None`` means unlimited).
    """

    name: str
    sweeps: tuple = ()
    tenants: dict = field(default_factory=dict)

    @staticmethod
    def from_dict(d: dict) -> "CampaignSpec":
        if "name" not in d:
            raise ConfigError("campaign spec needs a 'name'")
        sweeps = d.get("sweeps", [])
        if not isinstance(sweeps, list):
            raise ConfigError("campaign 'sweeps' must be a list")
        for sweep in sweeps:
            if "kind" not in sweep:
                raise ConfigError(f"sweep without a 'kind': {sweep!r}")
        return CampaignSpec(
            name=str(d["name"]),
            sweeps=tuple(dict(s) for s in sweeps),
            tenants={
                str(k): dict(v) for k, v in d.get("tenants", {}).items()
            },
        )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "sweeps": [dict(s) for s in self.sweeps],
            "tenants": {k: dict(v) for k, v in self.tenants.items()},
        }

    def expand(self) -> list[AttackJob]:
        """Expand every sweep's grid into the deterministic job list."""
        jobs: list[AttackJob] = []
        occurrences: dict[str, int] = {}
        for sweep in self.sweeps:
            kind = str(sweep["kind"])
            tenant = str(sweep.get("tenant", "default"))
            base = dict(sweep.get("base", {}))
            grid = sweep.get("grid", {})
            axes = list(grid.items())
            combos = (
                itertools.product(*(values for _, values in axes))
                if axes
                else [()]
            )
            for combo in combos:
                params = dict(base)
                for (axis, _), value in zip(axes, combo):
                    params[axis] = value
                cell = canonical_json({"kind": kind, "params": params})
                repeat = occurrences.get(cell, 0)
                occurrences[cell] = repeat + 1
                jobs.append(
                    AttackJob(
                        job_id=job_content_id(kind, params, repeat),
                        kind=kind,
                        tenant=tenant,
                        params=params,
                        repeat=repeat,
                    )
                )
        ids = [j.job_id for j in jobs]
        if len(set(ids)) != len(ids):  # pragma: no cover - defensive
            raise ConfigError("job id collision in campaign expansion")
        return jobs
