"""High-level orchestration of the complete structure attack.

One call runs the paper's Algorithm 1 end to end against a simulated
device: observe a trace, analyse it, (optionally) detect repeated
modules, and enumerate/count the candidate structures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.device import (
    CoalescingSink,
    DeviceSession,
    MaterializeSink,
    QueryLedger,
    StructureObservation,
    TeeSink,
)
from repro.errors import ConfigError
from repro.attacks.stepped import Stepped
from repro.attacks.structure.constraints import DeviceKnowledge
from repro.attacks.structure.dataflow_id import DataflowIdentifier
from repro.attacks.structure.modules import detect_fire_modules
from repro.attacks.structure.pipeline import CandidateStructure, StructureSearch
from repro.attacks.structure.solver import PracticalityRules
from repro.attacks.structure.trace_analysis import (
    StreamingTraceAnalyzer,
    TraceAnalysis,
    analysis_from_dict,
    analysis_to_dict,
    average_analyses,
)

__all__ = ["StructureAttack", "StructureAttackResult", "run_structure_attack"]


@dataclass
class StructureAttackResult:
    """Everything the structure attack produced for one victim device."""

    observation: StructureObservation
    analysis: TraceAnalysis
    candidates: list[CandidateStructure]
    count: int
    module_roles: dict[int, str]
    ledger: QueryLedger | None = None
    boundaries: list[int] | None = None
    dataflow: str = "output-stationary"

    @property
    def num_layers(self) -> int:
        return self.analysis.num_layers


class StructureAttack(Stepped):
    """Checkpointable step/resume runner for Algorithm 1.

    Algorithm 1 (:func:`run_structure_attack`) is decomposed into a
    deterministic plan of named steps — one ``observe:k`` per
    observation run ``k`` and a final ``enumerate`` — threaded through a
    JSON-serialisable *state* dict.  A campaign persists the state after
    each step; a killed attack resumes by replaying :meth:`run_step` for
    the remaining plan entries against a fresh session, and because
    every observe step pins
    its run index explicitly (``observe_structure(run=k)``: run ``k``
    draws run ``k``'s noise stream no matter when it executes), the
    resumed result is bit-identical to the uninterrupted one.

    :meth:`~repro.attacks.stepped.Stepped.run` drives every step in
    order.  The trace is analysed span-by-span as the device runs, in
    O(chunk) memory; the result's observation carries no materialised
    trace.  The exception is ``observe:0`` under ``dataflow="auto"``:
    it identifies the dataflow from its own trace and keeps the
    coalesced spans until the verdict is in, so that step is O(trace).

    Args:
        sim: the victim device or an existing
            :class:`~repro.device.DeviceSession` on it (pruning must be
            off; Section 3 assumes a dense-write accelerator).  A bare
            device is wrapped in a fresh session, whose ledger is
            returned on the result.
        x: optional input image; a generic random image by default.
        tolerance: timing-filter tolerance.
        rules: practicality rules (defaults per
            :class:`~repro.attacks.structure.solver.PracticalityRules`).
        runs: number of inferences to observe; per-layer durations are
            averaged, countering device timing noise.
        dataflow: the victim accelerator's loop order, deciding which
            boundary rule decodes the trace (default: the simulator's
            output-stationary default).  ``"auto"`` identifies it with
            :class:`DataflowIdentifier` from the trace ``observe:0``
            decodes, at no extra observation — the attack has no
            a-priori schedule knowledge in that mode.

    Identical-module role constraints apply whenever repeated fire
    modules are detected (Section 3.2).  Enumeration is skipped past
    ``enumerate_limit`` candidates; the count is still computed exactly
    by DP.
    """

    enumerate_limit = 100_000

    def __init__(
        self,
        sim,
        x: np.ndarray | None = None,
        tolerance: float = 0.25,
        rules: PracticalityRules | None = None,
        seed: int = 0,
        runs: int = 1,
        dataflow: str = "output-stationary",
    ) -> None:
        self.session = sim if isinstance(sim, DeviceSession) else DeviceSession(sim)
        self.x = x
        self.tolerance = tolerance
        self.rules = rules
        self.seed = seed
        self.runs = runs
        self._auto = dataflow == "auto"
        if self._auto:
            self._dataflow = None
        else:
            from repro.accel.dataflow import resolve_dataflow

            self._dataflow = resolve_dataflow(dataflow).name
        # Non-serialisable products of the last enumerate step, consumed
        # by result(); reconstructed deterministically if missing.
        self._candidates: list[CandidateStructure] | None = None
        self._analysis: TraceAnalysis | None = None
        self._roles: dict[int, str] | None = None
        self._count: int | None = None

    def steps(self) -> list[str]:
        """The deterministic step plan for this attack."""
        return [f"observe:{k}" for k in range(self.runs)] + ["enumerate"]

    # -- individual steps --------------------------------------------------
    def _resolved_dataflow(self, state: dict) -> str:
        if self._dataflow is not None:
            return self._dataflow
        dataflow = state.get("dataflow")
        if dataflow is None:
            raise ConfigError(
                "dataflow='auto' requires the observe:0 step before any "
                "later step"
            )
        return str(dataflow)

    def _analyzer(self, dataflow: str) -> StreamingTraceAnalyzer:
        session = self.session
        return StreamingTraceAnalyzer(
            session.image_shape,
            session.element_bytes,
            session.block_bytes,
            dataflow=dataflow,
        )

    def _step_observe(self, k: int, state: dict) -> dict:
        session = self.session
        identify = self._auto and k == 0
        if identify:
            # The dataflow is identified from this observation's own
            # trace; its coalesced spans are kept for the decode.
            identifier = DataflowIdentifier(
                session.image_shape, session.element_bytes, session.block_bytes
            )
            kept = MaterializeSink()
            sink = TeeSink(identifier, kept)
        else:
            sink = analyzer = self._analyzer(self._resolved_dataflow(state))
        obs = session.observe_structure(
            self.x, seed=self.seed + k, sink=CoalescingSink(sink), run=k
        )
        if identify:
            state["dataflow"] = identifier.finish().dataflow
            analyzer = self._analyzer(state["dataflow"])
            # Replayed in the coalesced chunking: the decode's cost grows
            # with chunk size, so one concatenated chunk would be slower.
            for span in kept.spans:
                analyzer.emit(span)
        analyses = dict(state.get("analyses", {}))
        analyses[str(k)] = analysis_to_dict(analyzer.finish(obs))
        state["analyses"] = analyses
        if k == 0:
            state["boundaries"] = [int(b) for b in analyzer.boundaries]
            state["observation"] = {
                "input_shape": list(obs.input_shape),
                "num_classes": obs.num_classes,
                "element_bytes": obs.element_bytes,
                "block_bytes": obs.block_bytes,
                "total_cycles": obs.total_cycles,
            }
        return state

    def _step_enumerate(self, state: dict) -> dict:
        analyses = state.get("analyses", {})
        if len(analyses) != self.runs:
            missing = [
                k for k in range(self.runs) if str(k) not in analyses
            ]
            raise ConfigError(
                f"enumerate step needs all {self.runs} observe steps; "
                f"missing runs {missing}"
            )
        per_run = [
            analysis_from_dict(analyses[str(k)]) for k in range(self.runs)
        ]
        analysis = per_run[0] if self.runs == 1 else average_analyses(per_run)
        roles = detect_fire_modules(analysis)
        search = StructureSearch(
            analysis,
            DeviceKnowledge.from_timing(self.session.public_timing),
            tolerance=self.tolerance,
            module_roles=roles,
            rules=self.rules,
        )
        count = search.count()
        candidates = (
            search.enumerate(self.enumerate_limit)
            if count <= self.enumerate_limit
            else []
        )
        self._analysis = analysis
        self._roles = roles
        self._count = count
        self._candidates = candidates
        state["dataflow"] = self._resolved_dataflow(state)
        state["count"] = count
        state["num_candidates"] = len(candidates)
        state["num_layers"] = analysis.num_layers
        return state

    def run_step(self, name: str, state: dict | None = None) -> dict:
        """Execute one named step, returning the updated state dict.

        The input state is not mutated; callers persist the returned
        dict before moving to the next step.  Steps must respect the
        plan order (later observe steps need the dataflow ``observe:0``
        identified under ``dataflow="auto"``; enumerate needs every
        observe).
        """
        state = self._begin_step(name, state)
        if name == "enumerate":
            return self._step_enumerate(state)
        return self._step_observe(int(name.split(":", 1)[1]), state)

    # -- results -----------------------------------------------------------
    def result(self, state: dict) -> StructureAttackResult:
        """Assemble the final result from a completed state.

        Candidate objects are not serialised in the checkpoint; if this
        instance did not itself run the enumerate step (a resume that
        found every step already done), the enumeration is re-derived
        from the persisted analyses — a deterministic, device-free
        computation.
        """
        if self._candidates is None:
            state = self._step_enumerate(dict(state))
        assert self._analysis is not None and self._count is not None
        meta = state.get("observation")
        if meta is None:
            raise ConfigError(
                "state has no observation; run the observe steps first"
            )
        return StructureAttackResult(
            observation=StructureObservation(
                trace=None,
                input_shape=tuple(meta["input_shape"]),
                num_classes=int(meta["num_classes"]),
                element_bytes=int(meta["element_bytes"]),
                block_bytes=int(meta["block_bytes"]),
                total_cycles=int(meta["total_cycles"]),
            ),
            analysis=self._analysis,
            candidates=self._candidates or [],
            count=self._count,
            module_roles=self._roles or {},
            ledger=self.session.ledger,
            boundaries=[int(b) for b in state.get("boundaries", [])] or None,
            dataflow=self._resolved_dataflow(state),
        )


def run_structure_attack(
    sim, x: np.ndarray | None = None, **options
) -> StructureAttackResult:
    """Run Algorithm 1 against a victim accelerator.

    Drives every step of ``StructureAttack(sim, x, **options)`` in
    order; the options are :class:`StructureAttack`'s.
    """
    return StructureAttack(sim, x, **options).run()
