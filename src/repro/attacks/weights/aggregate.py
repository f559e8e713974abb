"""Crossing-set recovery against aggregate-stream pruning devices.

When the accelerator packs the whole OFM into one compressed stream, the
adversary only sees the *total* non-zero count.  Probing the corner
pixel still leaks every filter's corner-weight crossing — the total
count is a step function of the probe value with one step per filter —
but the steps can no longer be attributed to filters.  This module
recovers the unattributed crossing multiset (hence the multiset of
``b/w(0,0)`` values across filters), quantifying how much the plane-
granularity layout choice amplifies the leak.

Steps are located by scanning the probe range at a fixed resolution and
bisecting every segment whose counts differ.  Steps closer together
than the scan resolution merge (reported as one crossing with the
summed step size); the benchmark sweeps the resolution to show the
trade-off.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import AttackError
from repro.device import DeviceSession

__all__ = ["Crossing", "AggregateAttackResult", "recover_crossing_multiset"]


@dataclass(frozen=True)
class Crossing:
    """One located count step: probe value and count delta."""

    x: float
    delta: int


# The probe pixel (the corner: its crossings are every filter's
# ``b/w(0,0)``) and the bisection depth that refines each located step.
_PIXEL = (0, 0, 0)
_REFINE_STEPS = 60


@dataclass
class AggregateAttackResult:
    """Unattributed crossings of the corner probe pixel."""

    crossings: list[Crossing]
    queries: int

    def values(self) -> np.ndarray:
        """Crossing positions, each repeated |delta| times (multiset)."""
        out: list[float] = []
        for c in self.crossings:
            out.extend([c.x] * abs(c.delta))
        return np.array(sorted(out))


def recover_crossing_multiset(
    channel: DeviceSession, resolution: int = 512
) -> AggregateAttackResult:
    """Locate every count step of the corner-pixel probe.

    Works with both aggregate and per-plane channels (per-plane counts
    are summed), so the benchmark can compare the two layouts directly.
    The initial scan goes through the session's batched channel in one
    vectorised call; only the bisection refinement is sequential.
    """
    if resolution < 2:
        raise AttackError("resolution must be >= 2")
    lo_lim, hi_lim = channel.input_range
    xs = np.linspace(lo_lim, hi_lim, resolution + 1)
    scanned = channel.query_batch([_PIXEL], xs[:, None])
    counts = [int(row.sum()) for row in scanned]
    crossings: list[Crossing] = []
    for k in range(resolution):
        if counts[k] == counts[k + 1]:
            continue
        lo, hi = float(xs[k]), float(xs[k + 1])
        c_lo = counts[k]
        for _ in range(_REFINE_STEPS):
            mid = 0.5 * (lo + hi)
            if int(np.sum(channel.query([_PIXEL], [mid]))) == c_lo:
                lo = mid
            else:
                hi = mid
        crossings.append(
            Crossing(x=0.5 * (lo + hi), delta=counts[k + 1] - counts[k])
        )
    return AggregateAttackResult(crossings=crossings, queries=channel.queries)
