"""Noise-robust layer-boundary recovery over a lossy trace channel.

:class:`BoundaryRecovery` is the structure attack's front line under a
noisy channel: it takes several metered observation runs (each run
draws independent channel noise), detects boundaries per run with the
hysteresis tracker, and keeps only boundaries a quorum of runs agrees
on.  For the ablation bench it can simultaneously run the paper's
naive single-event RAW rule (the same tracker at ``min_support=1``) on
the *same* post-channel streams, so robust and naive estimators are
compared on identical noise draws.

Each observation streams into the trackers through a tee (one pass,
two consumers) rather than materialising the trace — the memory
profile stays O(chunk) however long the trace is.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.attacks.robust.boundary import (
    RobustRawBoundaryTracker,
    consensus_boundaries,
)
from repro.attacks.stepped import Stepped
from repro.device import CoalescingSink, DeviceSession, TeeSink
from repro.errors import ConfigError, TraceError

__all__ = [
    "RobustStructureResult",
    "BoundaryRecovery",
    "boundary_cycles_from_trace",
]


@dataclass(frozen=True)
class RobustStructureResult:
    """Outcome of multi-run consensus boundary recovery.

    Attributes:
        boundaries: consensus boundary cycles (quorum-filtered).
        runs: per-run robust boundary cycles, one list per observation.
        naive_runs: per-run naive-rule boundary cycles on the same
            streams (empty unless ``compare_naive``).
        quorum: the quorum that filtered the consensus.
        tol: the clustering tolerance, in cycles.
    """

    boundaries: list[int]
    runs: list[list[int]]
    naive_runs: list[list[int]] = field(default_factory=list)
    quorum: int = 1
    tol: int = 0

    @property
    def num_layers(self) -> int:
        """One recovered layer per consensus boundary."""
        return len(self.boundaries)


class BoundaryRecovery(Stepped):
    """Recover layer-boundary cycles by multi-run consensus.

    A checkpointable step/resume runner: one ``run:k`` step per
    observation run plus a final device-free ``consensus`` step; each
    run's boundary cycles (robust and, with ``compare_naive``, naive)
    are plain int lists, so the state dict is JSON-serialisable as-is.
    Run ``k`` observes with an explicit run index
    (``observe_structure(run=k)``), pinning its channel noise stream —
    a killed recovery resumed on a fresh session replays the remaining
    runs under exactly the noise the uninterrupted run would have
    drawn, making resume bit-identical.  ``.run()`` drives every step.

    The per-run refractory and the cross-run clustering tolerance both
    derive from the channel's latency window — a property of the
    attacker's *own probe*, so presuming it violates nothing in the
    threat model: echoes of a transition appear for up to one window
    after it (suppressed per run), while independent runs place the
    same true boundary within a fraction of the window of each other
    (clustered across runs at ``window // 4``).  A boundary survives
    the consensus when a strict majority of runs (``runs // 2 + 1``)
    agrees on it.  Every run observes the same generic input (seed 0);
    only the channel noise varies across runs.

    Args:
        session: the metered device session (its channel model decides
            how noisy each observation run is).
        runs: independent observation runs to stack.
        compare_naive: also run the naive single-event RAW rule on the
            identical post-channel streams, for ablation.
        dataflow: the victim's (identified) dataflow.  Output-stationary
            victims drain each OFM in one stage-end burst, so any write
            delivered near a committed boundary is a channel echo and
            is disqualified as a RAW producer for the full refractory.
            Weight- and row-stationary victims stream OFM bursts from
            the very start of each stage — there the producer filter
            would eat the next boundary's genuine evidence, so it is
            disabled and forged edges are left to ``min_support`` and
            the cross-run quorum (see
            :class:`RobustRawBoundaryTracker`).
    """

    # Distinct RAW addresses that corroborate a boundary in one run.
    min_support = 3

    def __init__(
        self,
        session: DeviceSession,
        runs: int = 3,
        *,
        compare_naive: bool = False,
        dataflow: str = "output-stationary",
    ) -> None:
        if runs < 1:
            raise ConfigError(f"runs must be >= 1, got {runs}")
        window = session.channel.latency_window
        self.session = session
        self.runs = runs
        self.refractory = window
        self.quorum = runs // 2 + 1
        self.tol = max(1, window // 4)
        self.compare_naive = compare_naive
        self.producer_refractory = (
            self.refractory if dataflow == "output-stationary" else 0
        )

    def steps(self) -> list[str]:
        """The deterministic step plan for this recovery."""
        return [f"run:{k}" for k in range(self.runs)] + ["consensus"]

    def run_step(self, name: str, state: dict | None = None) -> dict:
        """Execute one named step, returning the updated state dict."""
        state = self._begin_step(name, state)
        if name == "consensus":
            return self._step_consensus(state)
        return self._step_run(int(name.split(":", 1)[1]), state)

    def _tracker(self) -> RobustRawBoundaryTracker:
        """A fresh per-run hysteresis tracker at this recovery's settings."""
        return RobustRawBoundaryTracker(
            min_support=self.min_support,
            refractory=self.refractory,
            producer_refractory=self.producer_refractory,
        )

    @staticmethod
    def _record(state: dict, key: str, k: int, cycles: list[int]) -> None:
        """Store run ``k``'s boundary cycles in the per-run map ``key``."""
        per_run = dict(state.get(key, {}))
        per_run[str(k)] = cycles
        state[key] = per_run

    def _step_run(self, k: int, state: dict) -> dict:
        robust = self._tracker()
        if self.compare_naive:
            naive = RobustRawBoundaryTracker(min_support=1)
            sink = TeeSink(robust, naive)
        else:
            naive = None
            sink = robust
        # Coalesce upstream of the tee: the channel's reorder buffer
        # delivers fragmented spans, and both decoders are chunking
        # invariant, so fewer/larger chunks is pure decode throughput.
        self.session.observe_structure(sink=CoalescingSink(sink), run=k)
        self._record(state, "runs", k, [int(c) for c in robust.boundary_cycles])
        if naive is not None:
            self._record(
                state, "naive_runs", k, [int(c) for c in naive.boundary_cycles]
            )
        return state

    def _step_consensus(self, state: dict) -> dict:
        runs = state.get("runs", {})
        missing = [k for k in range(self.runs) if str(k) not in runs]
        if missing:
            raise ConfigError(
                f"consensus step needs all {self.runs} runs; missing {missing}"
            )
        per_run = [runs[str(k)] for k in range(self.runs)]
        state["boundaries"] = [
            int(b)
            for b in consensus_boundaries(
                per_run, quorum=self.quorum, tol=self.tol
            )
        ]
        return state

    def _per_run(self, state: dict, key: str) -> list[list[int]]:
        """The per-run map ``key`` of a completed state, in run order."""
        per_run = state.get(key, {})
        return [
            list(per_run[str(k)]) for k in range(self.runs) if str(k) in per_run
        ]

    def result(self, state: dict) -> RobustStructureResult:
        """Assemble the final result from a completed state."""
        if "boundaries" not in state:
            state = self._step_consensus(dict(state))
        return RobustStructureResult(
            boundaries=list(state["boundaries"]),
            runs=self._per_run(state, "runs"),
            naive_runs=self._per_run(state, "naive_runs"),
            quorum=self.quorum,
            tol=int(self.tol),
        )


def boundary_cycles_from_trace(trace) -> list[int]:
    """Ground-truth boundary cycles from a clean materialised trace.

    Convenience for benches: run the naive rule on an *ideal-channel*
    trace (where it is exact) and report its boundary cycles.
    """
    if len(trace.cycles) == 0:
        raise TraceError("empty trace")
    tracker = RobustRawBoundaryTracker(min_support=1)
    tracker.feed(trace.cycles, trace.addresses, trace.is_write)
    return tracker.boundary_cycles
