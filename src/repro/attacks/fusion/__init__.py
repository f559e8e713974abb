"""``repro.attacks.fusion``: multi-channel (memory+power) attacks.

The memory bus and the power rail leak the same layer structure
through different physics, with *independent* noise: the bus channel
drops, duplicates and delays events; the power probe reads a smoothed
activity envelope through its own sigma/quantisation.  This package
fuses the two — :mod:`segment` recovers layer windows from a power
trace by changepoint detection, and :mod:`estimator` cross-validates
relaxed-sensitivity RAW boundary candidates against the power segment
edges, reaching consensus-grade F1 at a lower observation budget than
the memory channel alone.
"""

from repro.attacks.fusion.estimator import (
    FusedBoundaryRecovery,
    FusedStructureResult,
)
from repro.attacks.fusion.segment import (
    PowerSegmentation,
    power_threshold,
    segment_power_trace,
)

__all__ = [
    "FusedBoundaryRecovery",
    "FusedStructureResult",
    "PowerSegmentation",
    "power_threshold",
    "segment_power_trace",
]
