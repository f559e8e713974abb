"""Memory+power fusion of layer-boundary evidence.

One metered inference feeds both leak surfaces at once: the session
tees the span stream into the memory channel (RAW-rule boundary
tracking) and the power probe (changepoint segmentation), so a fused
run costs exactly what a memory-only run costs.  The fusion rule is
*cross-validation*: run the RAW tracker at relaxed sensitivity
(``min_support=1`` — every candidate, even ones a single surviving
read/write pair supports) and keep only candidates that land within
``confirm_tol`` cycles of a power segment edge.

Why this beats either channel alone at a matched repeat budget:

* Memory-only at safe sensitivity (``min_support=3``) needs the drop
  channel to deliver three RAW pairs per boundary; at high drop rates
  a boundary's evidence thins below that in a fraction of runs, so the
  consensus estimator buys reliability with extra observation runs.
* Memory-only at relaxed sensitivity forges boundaries (duplication
  and latency jitter fabricate RAW pairs) — ``min_support`` exists
  precisely to suppress those.
* The power trace is tapped before the bus channel (a physically
  separate probe), so its layer-gap edges are independent of bus
  drop/dup noise.  Power edges veto forged RAW candidates, which makes
  the relaxed sensitivity safe, which recovers thinly-supported true
  boundaries — without extra runs.

Power edges are used as a *veto*, not as boundaries in their own
right: on deeper victims (AlexNet) intra-layer pipeline lulls produce
activity gaps longer than the true inter-stage gaps, so unmatched
power edges are not promoted to boundaries unless the caller opts in
with ``augment_unmatched`` (sensible on shallow victims whose power
segmentation is known clean).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.attacks.fusion.segment import segment_power_trace
from repro.attacks.robust.boundary import (
    RobustRawBoundaryTracker,
    consensus_boundaries,
)
from repro.device import CoalescingSink, DeviceSession
from repro.errors import ConfigError
from repro.power import PowerModel

__all__ = ["FusedStructureResult", "FusedBoundaryRecovery", "fuse_boundaries"]


@dataclass(frozen=True)
class FusedStructureResult:
    """Outcome of fused memory+power boundary recovery.

    Attributes:
        boundaries: consensus boundary cycles (quorum-filtered over the
            fused per-run lists).
        runs: per-run *fused* boundary cycles (power-confirmed RAW
            candidates, plus augmented power edges when enabled).
        raw_runs: per-run RAW candidates before the power veto, at the
            relaxed sensitivity — the memory channel's unfiltered view.
        power_runs: per-run power segment edges — the power channel's
            independent view.
        quorum: the quorum that filtered the consensus.
        tol: cross-run clustering tolerance, in cycles.
        confirm_tol: RAW-candidate-to-power-edge match tolerance, in
            cycles.
    """

    boundaries: list[int]
    runs: list[list[int]]
    raw_runs: list[list[int]] = field(default_factory=list)
    power_runs: list[list[int]] = field(default_factory=list)
    quorum: int = 1
    tol: int = 0
    confirm_tol: int = 0

    @property
    def num_layers(self) -> int:
        """One recovered layer per consensus boundary."""
        return len(self.boundaries)


class FusedBoundaryRecovery:
    """Checkpointable step/resume runner for fused boundary recovery.

    Mirrors :class:`~repro.attacks.robust.structure.BoundaryRecovery`:
    one ``run:k`` step per observation (each a *single* metered
    inference observed on both channels at once, with a pinned run
    index so kill-and-resume replays identical noise) plus a final
    device-free ``consensus`` step; the state dict is JSON-serialisable
    as-is.

    Parameters are those of :func:`fuse_boundaries`, the thin
    all-steps-in-order driver over this class.
    """

    def __init__(
        self,
        session: DeviceSession,
        runs: int = 1,
        *,
        min_support: int = 1,
        expiry: int = 4096,
        refractory: int | None = None,
        quorum: int | None = None,
        tol: int | None = None,
        confirm_tol: int | None = None,
        seed: int = 0,
        dataflow: str = "output-stationary",
        power: PowerModel | None = None,
        stage_overhead: int | None = None,
        augment_unmatched: bool = False,
        max_power_segments: int = 64,
    ) -> None:
        if runs < 1:
            raise ConfigError(f"runs must be >= 1, got {runs}")
        if max_power_segments < 1:
            raise ConfigError(
                f"max_power_segments must be >= 1, got {max_power_segments}"
            )
        if quorum is not None and not 1 <= quorum <= runs:
            raise ConfigError(f"quorum must be in [1, {runs}], got {quorum}")
        window = session.channel.latency_window
        self.session = session
        self.runs = runs
        self.min_support = min_support
        self.expiry = expiry
        self.refractory = window if refractory is None else refractory
        self.quorum = quorum if quorum is not None else runs // 2 + 1
        self.tol = max(1, window // 4) if tol is None else tol
        self.seed = seed
        self.power = power if power is not None else PowerModel()
        # The per-stage overhead is a public (datasheet) timing figure,
        # same threat-model footing as the channel's latency window.
        self.stage_overhead = (
            session.device.config.timing.stage_overhead
            if stage_overhead is None
            else stage_overhead
        )
        # A power edge snaps down to its bin start (up to one quantum
        # early) while the RAW cycle jitters by up to the channel
        # latency window — both slacks, plus margin, must fit.
        self.confirm_tol = (
            window + 2 * self.power.quantum
            if confirm_tol is None
            else confirm_tol
        )
        self.augment_unmatched = augment_unmatched
        self.max_power_segments = max_power_segments
        self.producer_refractory = (
            self.refractory if dataflow == "output-stationary" else 0
        )

    def steps(self) -> list[str]:
        """The deterministic step plan for this recovery."""
        return [f"run:{k}" for k in range(self.runs)] + ["consensus"]

    def run_step(self, name: str, state: dict | None = None) -> dict:
        """Execute one named step, returning the updated state dict."""
        state = dict(state or {})
        if name.startswith("run:"):
            return self._step_run(int(name.split(":", 1)[1]), state)
        if name == "consensus":
            return self._step_consensus(state)
        raise ConfigError(f"unknown fused recovery step {name!r}")

    def _fuse(self, raw: list[int], edges: list[int]) -> list[int]:
        """Cross-validate one run's RAW candidates against power edges.

        The veto only applies when the power segmentation is itself
        credible.  Per-bin activity scales with the victim's layer
        widths while the probe's read-out sigma does not, so on a
        victim whose plateaus sit near the noise floor the threshold
        mask shatters into hundreds of slivers.  A segmentation with
        more edges than any plausible layer count (or none at all)
        marks the power channel uninformative at this SNR, and the run
        falls back to the memory channel's view rather than letting a
        degenerate mask veto true boundaries.
        """
        if not edges or len(edges) > self.max_power_segments:
            return list(raw)
        edge_arr = np.asarray(edges, dtype=np.int64)
        fused = [
            int(c)
            for c in raw
            if int(np.min(np.abs(edge_arr - int(c)))) <= self.confirm_tol
        ]
        if self.augment_unmatched:
            raw_arr = np.asarray(raw, dtype=np.int64)
            for e in edges:
                matched = len(raw_arr) and (
                    int(np.min(np.abs(raw_arr - int(e))))
                    <= self.confirm_tol
                )
                if not matched:
                    fused.append(int(e))
            fused.sort()
        return fused

    def _step_run(self, k: int, state: dict) -> dict:
        robust = RobustRawBoundaryTracker(
            min_support=self.min_support,
            expiry=self.expiry,
            refractory=self.refractory,
            producer_refractory=self.producer_refractory,
        )
        # One inference, two channels: the session tees the span stream
        # into the power probe (pre-bus, noise of its own) and the
        # memory channel feeding the RAW tracker.  Coalescing upstream
        # of the tracker is pure decode throughput (chunking-invariant).
        trace = self.session.observe_power(
            seed=self.seed, sink=CoalescingSink(robust), run=k, power=self.power
        )
        seg = segment_power_trace(trace, stage_overhead=self.stage_overhead)
        raw = [int(c) for c in robust.boundary_cycles]
        edges = [int(e) for e in seg.edges]
        for key, value in (
            ("raw_runs", raw),
            ("power_runs", edges),
            ("runs", self._fuse(raw, edges)),
        ):
            per_run = dict(state.get(key, {}))
            per_run[str(k)] = value
            state[key] = per_run
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

    def result(self, state: dict) -> FusedStructureResult:
        """Assemble the final result from a completed state."""
        if "boundaries" not in state:
            state = self._step_consensus(dict(state))
        return FusedStructureResult(
            boundaries=list(state["boundaries"]),
            runs=[list(state["runs"][str(k)]) for k in range(self.runs)],
            raw_runs=[
                list(state["raw_runs"][str(k)]) for k in range(self.runs)
            ],
            power_runs=[
                list(state["power_runs"][str(k)]) for k in range(self.runs)
            ],
            quorum=self.quorum,
            tol=int(self.tol),
            confirm_tol=int(self.confirm_tol),
        )

    def run(self, state: dict | None = None) -> FusedStructureResult:
        """Drive every remaining step in order (the resume path skips
        steps recorded in ``state["steps_done"]``)."""
        state = dict(state or {})
        done = list(state.get("steps_done", []))
        for name in self.steps():
            if name in done:
                continue
            state = self.run_step(name, state)
            done.append(name)
            state["steps_done"] = list(done)
        return self.result(state)


def fuse_boundaries(
    session: DeviceSession,
    runs: int = 1,
    *,
    min_support: int = 1,
    expiry: int = 4096,
    refractory: int | None = None,
    quorum: int | None = None,
    tol: int | None = None,
    confirm_tol: int | None = None,
    seed: int = 0,
    dataflow: str = "output-stationary",
    power: PowerModel | None = None,
    stage_overhead: int | None = None,
    augment_unmatched: bool = False,
    max_power_segments: int = 64,
) -> FusedStructureResult:
    """Recover layer boundaries by memory+power cross-validation.

    A thin driver over :class:`FusedBoundaryRecovery` (the
    checkpointable step runner); running every step in order
    in-process is bit-identical to driving the steps externally.

    Args:
        session: the metered device session; its channel model decides
            both the bus noise and the power probe's read-out noise.
        runs: observation runs to stack (default 1 — the point of the
            fusion is to reach consensus-grade reliability without a
            repeat budget).
        min_support: RAW hysteresis support per run.  Defaults to the
            *relaxed* setting (1): forged candidates are vetoed by the
            power edges instead of by support counting.
        expiry: candidate expiry window per run, in events.
        refractory: post-commit suppression window per run, in cycles
            (default: the channel's latency window).
        quorum: runs that must agree on a fused boundary (default:
            strict majority, ``runs // 2 + 1``).
        tol: cross-run clustering tolerance in cycles (default: a
            quarter of the latency window).
        confirm_tol: how close a RAW candidate must land to a power
            segment edge to survive the veto, in cycles (default: the
            latency window plus two power quanta — the two channels'
            own slacks).
        seed: seed of the generic observation input.
        dataflow: the victim's (identified) dataflow, forwarded to the
            RAW tracker's producer filter.
        power: power-proxy coefficients (device-physics model; defaults
            apply).
        stage_overhead: the device's public per-stage overhead in
            cycles, used by the power segmentation (default: read off
            the device's datasheet timing model).
        augment_unmatched: also promote power edges with no nearby RAW
            candidate to boundaries.  Off by default — deep victims'
            intra-layer lulls masquerade as layer gaps on the power
            channel alone.
        max_power_segments: credibility gate for the veto — a run
            whose power segmentation yields more edges than this is
            treated as power-uninformative and keeps its RAW
            candidates unfiltered.
    """
    return FusedBoundaryRecovery(
        session,
        runs,
        min_support=min_support,
        expiry=expiry,
        refractory=refractory,
        quorum=quorum,
        tol=tol,
        confirm_tol=confirm_tol,
        seed=seed,
        dataflow=dataflow,
        power=power,
        stage_overhead=stage_overhead,
        augment_unmatched=augment_unmatched,
        max_power_segments=max_power_segments,
    ).run()
