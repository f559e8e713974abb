"""Exception hierarchy for the :mod:`repro` package.

All errors raised deliberately by this library derive from
:class:`ReproError`, so callers can catch a single base class at API
boundaries.  Sub-classes divide the failure space by subsystem: the numpy
CNN framework, the accelerator simulator, the side-channel attacks, and
the threat-model guard rails.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every deliberate error raised by :mod:`repro`."""


class ShapeError(ReproError):
    """An operation was given tensors whose shapes are incompatible."""


class GraphError(ReproError):
    """A network graph is malformed (cycle, missing node, bad wiring)."""


class ConfigError(ReproError):
    """A configuration value is out of its documented range."""


class SimulationError(ReproError):
    """The accelerator simulator reached an inconsistent state."""


class TraceError(ReproError):
    """A memory trace is malformed or cannot be analysed."""


class ThreatModelViolation(ReproError):
    """An attack tried to observe state its threat model forbids.

    The session layer (:mod:`repro.device`) raises this when an attack
    requests information outside the assumption matrix of Table 1 in
    the paper, e.g. the structure attack asking for data values.
    """


class QueryBudgetExceeded(ReproError):
    """A device session exhausted its query or inference budget.

    Raised by :class:`repro.device.QueryLedger` when a charge would push a
    counter past the budget configured on the session; the offending query
    is *not* executed and the counters are left unchanged.
    """


class AttackError(ReproError):
    """An attack failed to make progress (no solution, no crossing, ...)."""


class SolverError(AttackError):
    """The structure constraint solver found no feasible configuration."""
