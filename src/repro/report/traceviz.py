"""ASCII visualisation of memory traces (Figure 3-style plots).

Renders an address-vs-time density plot of a trace with read/write
markers and optional layer-boundary ticks — the textual equivalent of
the paper's Figure 3.  Used by the benches and handy for interactive
trace inspection.

The raster itself is streaming-friendly: :class:`AccessPatternRaster`
downsamples event chunks into a fixed ``rows x cols`` grid as they
arrive, so arbitrarily long traces render in O(grid) memory.  It
implements the trace-sink protocol and can be fed directly from the
simulator; :func:`render_access_pattern` is the batch wrapper over it
for a materialised :class:`~repro.accel.trace.MemoryTrace`.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ConfigError
from repro.accel.trace import MemoryTrace

__all__ = [
    "AccessPatternRaster",
    "render_access_pattern",
    "render_layer_timeline",
]


class AccessPatternRaster:
    """Streaming address-vs-time raster with a fixed memory footprint.

    The extents must be known up front (they fix the binning); a
    streaming caller gets them from a cheap first pass — e.g. a
    :class:`~repro.accel.sinks.StatsSink` tallied during simulation —
    and replays spooled spans into the raster for the second pass.
    Writes always win a shared cell, whatever order chunks arrive in,
    so the rendering is bit-identical to the batch path's.
    """

    def __init__(
        self,
        min_address: int,
        max_address: int,
        min_cycle: int,
        max_cycle: int,
        rows: int = 24,
        cols: int = 96,
    ) -> None:
        if rows < 2 or cols < 2:
            raise ConfigError("plot needs at least 2x2 cells")
        self.rows = rows
        self.cols = cols
        self._lo_a = int(min_address)
        self._hi_a = int(max_address) + 1
        self._lo_c = int(min_cycle)
        self._hi_c = int(max_cycle) + 1
        self._read_hit = np.zeros((rows, cols), dtype=bool)
        self._write_hit = np.zeros((rows, cols), dtype=bool)
        self._events = 0
        self._power: np.ndarray | None = None

    def _bin(self, cycles: np.ndarray, addresses: np.ndarray):
        r = (
            (addresses - self._lo_a)
            * (self.rows - 1)
            // max(1, self._hi_a - self._lo_a - 1)
        ).astype(int)
        c = (
            (cycles - self._lo_c)
            * (self.cols - 1)
            // max(1, self._hi_c - self._lo_c - 1)
        ).astype(int)
        return r, c

    def add(
        self,
        cycles: np.ndarray,
        addresses: np.ndarray,
        is_write: np.ndarray,
    ) -> None:
        """Downsample one event chunk into the grid."""
        cycles = np.asarray(cycles)
        addresses = np.asarray(addresses)
        is_write = np.asarray(is_write, dtype=bool)
        if len(cycles) == 0:
            return
        r, c = self._bin(cycles, addresses)
        self._read_hit[r[~is_write], c[~is_write]] = True
        self._write_hit[r[is_write], c[is_write]] = True
        self._events += len(cycles)

    def attach_power(self, trace) -> None:
        """Attach a power-proxy strip sharing the raster's cycle axis.

        ``trace`` is a :class:`~repro.power.PowerTrace` (duck-typed:
        anything with int ``samples`` per ``quantum``-cycle bin).  Each
        raster column averages the power bins whose start cycle maps to
        it — the same binning rule the event grid uses, so the strip
        lines up with the plot column for column.
        """
        samples = np.asarray(trace.samples, dtype=np.float64)
        cycles = np.arange(len(samples), dtype=np.int64) * int(trace.quantum)
        cols = (
            (cycles - self._lo_c)
            * (self.cols - 1)
            // max(1, self._hi_c - self._lo_c - 1)
        ).astype(int)
        valid = (cols >= 0) & (cols < self.cols)
        sums = np.bincount(
            cols[valid], weights=samples[valid], minlength=self.cols
        )
        counts = np.bincount(cols[valid], minlength=self.cols)
        self._power = sums / np.maximum(counts, 1)

    # -- sink protocol ----------------------------------------------------
    def emit(self, span) -> None:
        self.add(span.cycles, span.addresses, span.is_write)

    def close(self) -> None:
        pass

    # -- rendering --------------------------------------------------------
    def render(self, boundary_cycles: list[int] | None = None) -> str:
        """The finished plot; ``boundary_cycles`` get ``^`` ruler ticks."""
        if self._events == 0:
            raise ConfigError("cannot render an empty trace")
        grid = np.full((self.rows, self.cols), " ")
        grid[self._read_hit] = "."
        grid[self._write_hit] = "W"
        lines = ["".join(row) for row in grid[::-1]]
        if boundary_cycles is not None:
            ruler = [" "] * self.cols
            for cycle in boundary_cycles:
                pos = int(
                    (cycle - self._lo_c)
                    * (self.cols - 1)
                    // max(1, self._hi_c - self._lo_c - 1)
                )
                ruler[pos] = "^"
            lines.append("".join(ruler))
        lines.append(
            "(address ^ vs time ->; '.'=read 'W'=write"
            + (
                " '^'=layer boundary)"
                if boundary_cycles is not None
                else ")"
            )
        )
        if self._power is not None:
            levels = " .:-=+*#@"
            peak = float(self._power.max())
            if peak > 0.0:
                idx = np.ceil(
                    self._power / peak * (len(levels) - 1)
                ).astype(int)
            else:
                idx = np.zeros(self.cols, dtype=int)
            lines.append("".join(levels[i] for i in idx))
            lines.append(
                "(power proxy on the same time axis; ' '=idle '@'=peak)"
            )
        return "\n".join(lines)


def render_access_pattern(
    trace: MemoryTrace,
    boundaries: list[int] | None = None,
    rows: int = 24,
    cols: int = 96,
) -> str:
    """Address (vertical, growing upward) vs time (horizontal) plot.

    ``boundaries`` are event indices (as returned by
    :func:`repro.attacks.structure.find_layer_boundaries`) marked with
    ``^`` on a ruler line below the plot.
    """
    if rows < 2 or cols < 2:
        raise ConfigError("plot needs at least 2x2 cells")
    if len(trace) == 0:
        raise ConfigError("cannot render an empty trace")
    raster = AccessPatternRaster(
        min_address=int(trace.addresses.min()),
        max_address=int(trace.addresses.max()),
        min_cycle=int(trace.cycles.min()),
        max_cycle=int(trace.cycles.max()),
        rows=rows,
        cols=cols,
    )
    raster.add(trace.cycles, trace.addresses, trace.is_write)
    boundary_cycles = (
        [int(trace.cycles[b]) for b in boundaries]
        if boundaries is not None
        else None
    )
    return raster.render(boundary_cycles)


def render_layer_timeline(
    names: list[str], durations: list[int], width: int = 60
) -> str:
    """Per-layer duration bars over one inference (a Gantt-ish strip)."""
    if len(names) != len(durations):
        raise ConfigError("names and durations must align")
    total = sum(durations)
    if total <= 0:
        raise ConfigError("durations must sum to a positive value")
    label_w = max(len(n) for n in names)
    lines = []
    for name, duration in zip(names, durations):
        cells = max(1, round(width * duration / total))
        share = duration / total
        lines.append(
            f"{name.rjust(label_w)} |{'#' * cells} {duration:,} cyc ({share:.1%})"
        )
    return "\n".join(lines)
