"""Write padding: closing the zero-pruning channel.

The Section 4 leak exists because the number of OFM write transactions
equals the number of non-zero pixels.  The obvious countermeasure is to
pad every compressed OFM plane to its worst-case capacity with dummy
writes: the adversary then sees a constant count for every input and the
channel carries zero information — at the price of giving back the
bandwidth the pruning optimisation saved.  This module provides both the
sealed channel (for demonstrating attack failure) and the bandwidth
accounting (for quantifying the security/performance trade-off the paper
closes on: "performance optimization can lead to an unexpected security
vulnerability").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.accel.simulator import AcceleratorSim, SimulationResult
from repro.device import DeviceSession

__all__ = ["PaddedChannel", "PaddingOverhead", "measure_padding_overhead"]


class PaddedChannel:
    """A zero-pruning channel whose device pads writes to worst case.

    Wraps a :class:`~repro.device.DeviceSession` but returns the plane
    capacity for every query — exactly what the adversary would count
    when every plane is padded with dummy writes.  The query accounting
    still runs on the inner session so attack cost comparisons stay
    meaningful.
    """

    def __init__(self, inner: DeviceSession):
        self._inner = inner

    @property
    def d_ofm(self) -> int:
        return self._inner.d_ofm

    @property
    def input_shape(self):
        return self._inner.input_shape

    @property
    def per_plane(self) -> bool:
        return self._inner.per_plane

    @property
    def queries(self) -> int:
        return self._inner.queries

    @property
    def input_range(self):
        return self._inner.input_range

    def _constant(self, counts: np.ndarray) -> np.ndarray:
        # w_ofm is the stage's final (post-pool) output width.
        staged = self._inner.device.staged
        geom = staged.stage(self._inner.stage_name).geometry
        capacity = int(geom.w_ofm * geom.w_ofm)
        if not self._inner.per_plane:
            capacity *= self.d_ofm
        return np.full_like(counts, capacity)

    def query(self, pixels, values):
        counts = self._inner.query(pixels, values)
        return self._constant(counts)

    def query_batch(self, pixels, values):
        counts = self._inner.query_batch(pixels, values)
        return self._constant(counts)

    def query_per_filter(self, pixels, values):
        counts = self._inner.query_per_filter(pixels, values)
        return self._constant(counts)

    def query_repeat(self, pixels, values, repeats: int):
        counts = self._inner.query_repeat(pixels, values, repeats)
        return self._constant(counts)

    def set_threshold(self, threshold: float) -> None:
        self._inner.set_threshold(threshold)


@dataclass
class PaddingOverhead:
    """Bandwidth cost of padding feature-map writes to worst case."""

    pruned_writes: int
    padded_writes: int
    dense_writes: int

    @property
    def padding_vs_pruned(self) -> float:
        """Write amplification of the defence over pruned writes."""
        if self.pruned_writes == 0:
            return float("inf")
        return self.padded_writes / self.pruned_writes

    @property
    def savings_lost(self) -> float:
        """Fraction of pruning's bandwidth savings the defence gives up."""
        saved = self.dense_writes - self.pruned_writes
        if saved <= 0:
            return 0.0
        given_back = min(self.padded_writes, self.dense_writes) - self.pruned_writes
        return given_back / saved


def measure_padding_overhead(
    sim: AcceleratorSim, result: SimulationResult
) -> PaddingOverhead:
    """Account writes for one inference under the three write policies."""
    pruned = 0
    padded = 0
    dense = 0
    for stage in sim.staged.stages:
        elements = int(np.prod(sim.staged.shapes[stage.output_node]))
        nnz = int(result.nnz[stage.name].sum())
        pruned += nnz
        padded += elements  # every pixel slot written (real or dummy)
        dense += elements
    return PaddingOverhead(
        pruned_writes=pruned, padded_writes=padded, dense_writes=dense
    )
