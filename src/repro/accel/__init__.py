"""Cycle-approximate CNN inference accelerator simulator.

Executes staged networks as the paper's Figure 1 accelerator would and
emits the externally visible artefacts — the off-chip memory trace and
per-stage timing — plus the dynamic zero-pruning write channel.  Traces
stream as :class:`TraceSpan` chunks into a :class:`TraceSink` (see
:mod:`repro.accel.sinks`).  Adversary access goes through
:class:`repro.device.DeviceSession`.
"""

from repro.accel.dataflow import (
    Dataflow,
    OutputStationary,
    RowStationary,
    WeightStationary,
    available_dataflows,
    resolve_dataflow,
)
from repro.accel.memory import DramAllocator, MemoryConfig, MemoryRegion
from repro.accel.oracle import SparseStageOracle, StageOracle
from repro.accel.pruning import PrunedLayout, PruningConfig, pruned_region_elements
from repro.accel.simulator import (
    AcceleratorConfig,
    AcceleratorSim,
    SimulationResult,
    StageWindow,
)
from repro.accel.sinks import (
    MaterializeSink,
    SpoolSink,
    StatsSink,
    TeeSink,
    reclaim_spool_dirs,
)
from repro.accel.tiling import BufferConfig, plan_conv_tiles, plan_fc_tiles
from repro.accel.timing import TimingModel
from repro.accel.trace import (
    READ,
    TRACE_EVENT_BYTES,
    WRITE,
    MemoryTrace,
    TraceBuilder,
    TraceSink,
    TraceSpan,
)

__all__ = [
    "MemoryConfig",
    "MemoryRegion",
    "DramAllocator",
    "MemoryTrace",
    "TraceSpan",
    "TraceSink",
    "TraceBuilder",
    "READ",
    "WRITE",
    "TRACE_EVENT_BYTES",
    "MaterializeSink",
    "SpoolSink",
    "reclaim_spool_dirs",
    "StatsSink",
    "TeeSink",
    "TimingModel",
    "BufferConfig",
    "plan_conv_tiles",
    "plan_fc_tiles",
    "Dataflow",
    "OutputStationary",
    "WeightStationary",
    "RowStationary",
    "available_dataflows",
    "resolve_dataflow",
    "PruningConfig",
    "PrunedLayout",
    "pruned_region_elements",
    "AcceleratorConfig",
    "AcceleratorSim",
    "SimulationResult",
    "StageWindow",
    "StageOracle",
    "SparseStageOracle",
]
