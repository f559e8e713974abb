"""The Section 3 structure reverse-engineering attack."""

from repro.attacks.structure.attack import (
    StructureAttack,
    StructureAttackResult,
    run_structure_attack,
)
from repro.attacks.structure.constraints import DeviceKnowledge, timing_consistent
from repro.attacks.structure.dataflow_id import (
    DataflowIdentifier,
    DataflowSignature,
    identify_dataflow,
)
from repro.attacks.structure.modules import detect_fire_modules
from repro.attacks.structure.pipeline import (
    CandidateLayer,
    CandidateStructure,
    MicroParams,
    StructureSearch,
)
from repro.attacks.structure.ranking import RankedCandidate, rank_candidates
from repro.attacks.structure.reconstruct import reconstruct_network
from repro.attacks.structure.solver import (
    LayerProblem,
    PracticalityRules,
    solve_conv_layer,
    solve_fc_layer,
)
from repro.attacks.structure.trace_analysis import (
    INPUT_SOURCE,
    BoundaryTracker,
    DataflowBoundaryTracker,
    LayerObservation,
    SizeRange,
    StreamingTraceAnalyzer,
    TraceAnalysis,
    analyse_trace,
    average_analyses,
    find_layer_boundaries,
    find_layer_boundaries_dataflow,
)

__all__ = [
    "run_structure_attack",
    "StructureAttack",
    "StructureAttackResult",
    "DeviceKnowledge",
    "timing_consistent",
    "detect_fire_modules",
    "StructureSearch",
    "CandidateStructure",
    "CandidateLayer",
    "MicroParams",
    "RankedCandidate",
    "rank_candidates",
    "reconstruct_network",
    "LayerProblem",
    "PracticalityRules",
    "solve_conv_layer",
    "solve_fc_layer",
    "SizeRange",
    "LayerObservation",
    "TraceAnalysis",
    "analyse_trace",
    "average_analyses",
    "find_layer_boundaries",
    "find_layer_boundaries_dataflow",
    "BoundaryTracker",
    "DataflowBoundaryTracker",
    "StreamingTraceAnalyzer",
    "DataflowIdentifier",
    "DataflowSignature",
    "identify_dataflow",
    "INPUT_SOURCE",
]
