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
from repro.attacks.robust.structure import BoundaryRecovery
from repro.device import CoalescingSink, DeviceSession
from repro.power import PowerModel

__all__ = ["FusedStructureResult", "FusedBoundaryRecovery"]


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


class FusedBoundaryRecovery(BoundaryRecovery):
    """Recover layer boundaries by memory+power cross-validation.

    The step plan, state layout and consensus are those of
    :class:`~repro.attacks.robust.structure.BoundaryRecovery`: one
    ``run:k`` step per observation (each a *single* metered inference
    observed on both channels at once, with a pinned run index so
    kill-and-resume replays identical noise) plus a final device-free
    ``consensus`` step.  Only the per-run evidence differs.

    Args:
        session: the metered device session; its channel model decides
            both the bus noise and the power probe's read-out noise.
        runs: observation runs to stack (default 1 — the point of the
            fusion is to reach consensus-grade reliability without a
            repeat budget).
        dataflow: as
            :class:`~repro.attacks.robust.structure.BoundaryRecovery`.
        power: power-proxy coefficients (device-physics model; defaults
            apply).
        augment_unmatched: also promote power edges with no nearby RAW
            candidate to boundaries.  Off by default — deep victims'
            intra-layer lulls masquerade as layer gaps on the power
            channel alone.

    The RAW tracker runs at the *relaxed* support (``min_support`` 1):
    forged candidates are vetoed by the power edges instead of by
    support counting.  A candidate survives the veto when it lands
    within ``confirm_tol`` cycles of a power segment edge: the channel's
    latency window plus two power quanta, the two channels' own slacks.
    The power segmentation reads the device's public per-stage overhead
    off its datasheet timing model.  A run whose segmentation yields
    more than ``max_power_segments`` edges is treated as
    power-uninformative and keeps its RAW candidates unfiltered.
    """

    min_support = 1
    # Credibility gate for the veto: no plausible victim has more layers.
    max_power_segments = 64

    def __init__(
        self,
        session: DeviceSession,
        runs: int = 1,
        *,
        dataflow: str = "output-stationary",
        power: PowerModel | None = None,
        augment_unmatched: bool = False,
    ) -> None:
        super().__init__(session, runs, dataflow=dataflow)
        self.power = power if power is not None else PowerModel()
        # The per-stage overhead is a public (datasheet) timing figure,
        # same threat-model footing as the channel's latency window.
        self.stage_overhead = session.device.config.timing.stage_overhead
        # A power edge snaps down to its bin start (up to one quantum
        # early) while the RAW cycle jitters by up to the channel
        # latency window — both slacks, plus margin, must fit.
        self.confirm_tol = (
            session.channel.latency_window + 2 * self.power.quantum
        )
        self.augment_unmatched = augment_unmatched

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
        robust = self._tracker()
        # One inference, two channels: the session tees the span stream
        # into the power probe (pre-bus, noise of its own) and the
        # memory channel feeding the RAW tracker.  Coalescing upstream
        # of the tracker is pure decode throughput (chunking-invariant).
        trace = self.session.observe_power(
            sink=CoalescingSink(robust), run=k, power=self.power
        )
        seg = segment_power_trace(trace, stage_overhead=self.stage_overhead)
        raw = [int(c) for c in robust.boundary_cycles]
        edges = [int(e) for e in seg.edges]
        self._record(state, "raw_runs", k, raw)
        self._record(state, "power_runs", k, edges)
        self._record(state, "runs", k, self._fuse(raw, edges))
        return state

    def result(self, state: dict) -> FusedStructureResult:
        """Assemble the final result from a completed state."""
        if "boundaries" not in state:
            state = self._step_consensus(dict(state))
        return FusedStructureResult(
            boundaries=list(state["boundaries"]),
            runs=self._per_run(state, "runs"),
            raw_runs=self._per_run(state, "raw_runs"),
            power_runs=self._per_run(state, "power_runs"),
            quorum=self.quorum,
            tol=int(self.tol),
            confirm_tol=int(self.confirm_tol),
        )
