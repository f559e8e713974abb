"""Per-tenant metering: campaign quotas enforced by the hard ledger.

A tenant's quota (``max_queries`` / ``max_inferences`` /
``max_trace_bytes``) bounds the *device* cost of every job billed to
that account, across the whole campaign and across resumes.  The book
charges from persisted ledger snapshots — the same
:meth:`~repro.device.QueryLedger.snapshot` payload the checkpoints
carry — and hands each new job the tenant's *remaining* allowance as
its session budgets, so overruns surface as the ledger's own
:class:`~repro.errors.QueryBudgetExceeded` mid-measurement, never as
an after-the-fact reconciliation.  Jobs run one after another, so
enforcement is exact: each dispatch sees every earlier job's true
ledger.
"""

from __future__ import annotations

from repro.errors import QueryBudgetExceeded

__all__ = ["QuotaBook"]

_AXES = (
    ("max_queries", "channel_queries"),
    ("max_inferences", "inferences"),
    ("max_trace_bytes", "trace_bytes"),
)


class QuotaBook:
    """Tracks spend per tenant and derives per-job session budgets."""

    def __init__(self, tenants: dict | None = None) -> None:
        self._quotas = {
            str(name): dict(spec or {})
            for name, spec in (tenants or {}).items()
        }
        self._spent: dict[str, dict[str, int]] = {}

    def charge(self, tenant: str, ledger_snapshot: dict) -> None:
        """Bill one job's ledger snapshot to its tenant."""
        spent = self._spent.setdefault(
            tenant, {counter: 0 for _, counter in _AXES}
        )
        for _, counter in _AXES:
            spent[counter] += int(ledger_snapshot.get(counter, 0))

    def spent(self, tenant: str) -> dict:
        return dict(
            self._spent.get(tenant, {counter: 0 for _, counter in _AXES})
        )

    def budgets(self, tenant: str) -> dict:
        """Session budget kwargs for a new job of this tenant.

        Each configured axis becomes ``max(0, quota - spent)``; an
        unconfigured axis stays unlimited.  A zero budget still lets
        the job construct its session — the first metered action
        raises :class:`QueryBudgetExceeded`.
        """
        quota = self._quotas.get(tenant)
        if not quota:
            return {}
        budgets: dict[str, int] = {}
        spent = self._spent.get(tenant, {})
        for axis, counter in _AXES:
            limit = quota.get(axis)
            if limit is not None:
                budgets[axis] = max(0, int(limit) - spent.get(counter, 0))
        return budgets

    def check(self, tenant: str) -> None:
        """Fail fast when a tenant is already exhausted on any axis."""
        quota = self._quotas.get(tenant)
        if not quota:
            return
        spent = self._spent.get(tenant, {})
        for axis, counter in _AXES:
            limit = quota.get(axis)
            if limit is not None and spent.get(counter, 0) >= int(limit):
                raise QueryBudgetExceeded(
                    f"tenant {tenant!r} exhausted {axis}: "
                    f"{spent.get(counter, 0)} of {limit} spent"
                )

    def status(self) -> dict:
        """Per-tenant quota/spend summary for ``campaign status``."""
        out = {}
        for tenant in sorted(set(self._quotas) | set(self._spent)):
            out[tenant] = {
                "quota": dict(self._quotas.get(tenant, {})),
                "spent": self.spent(tenant),
            }
        return out
