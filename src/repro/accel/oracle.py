"""The count oracle: fast non-zero-count evaluation for crafted inputs.

The Section 4 weight attack drives the accelerator with inputs that are
all-zero except one or two pixels and observes the per-plane non-zero
write counts.  Running the full trace simulator for each of the
~10^5-10^6 binary-search queries would be needlessly slow, so
:class:`SparseStageOracle` exploits the input sparsity: a k-sparse input
only perturbs a small box of conv outputs around each pixel; everything
else equals the per-filter constant ``relu(b_f)`` (or its pooled image).
The box is recomputed, the rest analytically.

Its reference is :class:`repro.reference.DenseStageOracle`, which runs
the stage's real layers on a dense input.  The two agree on every
one-pixel probe; a two-pixel cell sums its terms in a different order
(see :meth:`SparseStageOracle._count`), so a probe that lands exactly on
a bisection crossing can count differently.  Measured on ``repro
weights --size 31 --filters 4``: 82 of its 77,089 device runs differ,
all two-pixel crossing probes, and the recovered ratios differ by at
most 1.1e-15.  The sparse path is an optimisation of the simulator, not a
shortcut through the threat model.  Oracles are *device-side* objects
(they hold the secret weights); adversaries access them only through
the counting channel of :class:`repro.device.DeviceSession`.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from repro.errors import ConfigError, SimulationError
from repro.nn.layers.activations import ReLU, ThresholdReLU
from repro.nn.layers.conv import Conv2D
from repro.nn.layers.pool import AvgPool2D, MaxPool2D
from repro.nn.shapes import pool_output_width
from repro.nn.stages import StagedNetwork

__all__ = [
    "Pixel",
    "StageOracle",
    "SparseStageOracle",
]

# A pixel coordinate in the stage input: (channel, row, col).
Pixel = tuple[int, int, int]


def _stage_components(staged: StagedNetwork, stage_name: str):
    """Extract (conv, activation, pool) layers of a conv stage."""
    stage = staged.stage(stage_name)
    if stage.kind != "conv":
        raise ConfigError(f"stage {stage_name!r} is {stage.kind}, not conv")
    conv = act = pool = None
    for node_name in stage.node_names:
        layer = staged.network.nodes[node_name].layer
        if isinstance(layer, Conv2D):
            conv = layer
        elif isinstance(layer, (ReLU, ThresholdReLU)):
            act = layer
        elif isinstance(layer, (MaxPool2D, AvgPool2D)):
            pool = layer
    if conv is None:
        raise SimulationError(f"stage {stage_name!r} has no conv layer")
    if act is None:
        raise SimulationError(
            f"stage {stage_name!r} has no activation; the zero-pruning "
            "channel requires a rectifier"
        )
    return stage, conv, act, pool


class StageOracle:
    """Per-plane non-zero counts of one conv stage's OFM for sparse inputs.

    Subclasses implement :meth:`nnz_batch`; the one-run and per-filter
    forms are rows of it.
    """

    d_ofm: int
    input_shape: tuple[int, int, int]

    def nnz_batch(self, patterns: list[tuple], rows) -> np.ndarray:
        """Counts for ``B`` independent runs, in one call.

        Run ``b`` drives the pixels ``patterns[b]`` with the values
        ``rows[b]``, one per pixel; callers have validated both.  Returns
        shape ``(B, d_ofm)``.
        """
        raise NotImplementedError

    def nnz(self, pixels: list[Pixel], values) -> np.ndarray:
        """Counts for one input: ``values[k]`` at ``pixels[k]``, rest zero."""
        values = np.atleast_1d(np.asarray(values, dtype=float))
        if values.shape != (len(pixels),):
            raise ConfigError(
                f"need one value per pixel, got {values.shape} for "
                f"{len(pixels)} pixels"
            )
        return self.nnz_batch([tuple(pixels)], [values])[0]

    def nnz_per_filter(self, pixels: list[Pixel], values) -> np.ndarray:
        """Counts of ``d_ofm`` runs, plane ``f`` read from run ``f``.

        ``values`` has shape ``(len(pixels), d_ofm)``: column ``f`` is the
        input used when reading plane ``f``'s count.
        """
        values = np.asarray(values, dtype=float)
        if values.shape != (len(pixels), self.d_ofm):
            raise ConfigError(
                f"values must be (n_pixels, d_ofm) = "
                f"({len(pixels)}, {self.d_ofm}), got {values.shape}"
            )
        runs = self.nnz_batch([tuple(pixels)] * self.d_ofm, list(values.T))
        return runs.diagonal().copy()

    def set_threshold(self, threshold: float) -> None:
        """Adjust the stage's tunable pruning threshold, if it has one."""
        raise NotImplementedError

    def _check_pixels(self, pixels: list[Pixel]) -> None:
        c_max, h, w = self.input_shape
        for c, i, j in pixels:
            if not (0 <= c < c_max and 0 <= i < h and 0 <= j < w):
                raise ConfigError(
                    f"pixel {(c, i, j)} outside input {self.input_shape}"
                )
        if len(set(pixels)) != len(pixels):
            raise ConfigError(f"duplicate pixels in {pixels}")


class _Plan(NamedTuple):
    """Index plan of one pixel pattern: which cells and windows it moves.

    Only *indices* are stored, never weight or activation values, so a
    memo of plans stays small however many filters the stage has.

    * ``sizes`` is ``(cells, terms, members, windows)``.  The pattern
      touches ``cells`` conv output cells, numbered in first-touch
      order; every other cell keeps its all-zero-input value.
    * Column ``t`` of ``terms`` is ``(cell, tap, pixel)``: add tap
      ``w[:, tap] * value[pixel]`` to that cell.  Columns are sorted by
      pixel, so each cell sums its pixels in pattern order (and a
      one-pixel pattern's cells are its terms, in order).
    * Pooled stages only: the ``k``-th pooled window containing a
      touched cell owns the next ``windows[0, k]`` entries of
      ``member`` (its touched cells); ``windows[1, k]`` is 1 if it also
      holds an untouched cell.
    """

    sizes: tuple[int, int, int, int]
    terms: np.ndarray  # (3, terms) intp
    member: np.ndarray  # (members,) intp
    windows: np.ndarray  # (2, windows) intp


class _Segments(NamedTuple):
    """Consecutive row segments: segment ``s`` is rows
    ``starts[s]:ends[s]``."""

    starts: np.ndarray
    ends: np.ndarray
    dense: bool  # every segment non-empty: one ``reduceat`` sums them


def _segments(lengths: np.ndarray) -> _Segments:
    ends = np.cumsum(lengths)
    return _Segments(ends - lengths, ends, bool(lengths.all()))


def _segment_sums(flags: np.ndarray, seg: _Segments) -> np.ndarray:
    """Sum ``flags`` (N, D) over the consecutive segments ``seg``."""
    if len(flags) and seg.dense:  # reduceat needs non-empty segments
        return np.add.reduceat(flags, seg.starts, axis=0, dtype=np.int64)
    totals = np.zeros((len(flags) + 1, flags.shape[1]), dtype=np.int64)
    np.cumsum(flags, axis=0, out=totals[1:])
    return totals[seg.ends] - totals[seg.starts]


class _BatchPlan(NamedTuple):
    """Everything :meth:`SparseStageOracle._count` derives from a batch's
    patterns alone (and the threshold), concatenated across its runs.

    Term ``t`` adds ``weights[t]`` (its tap's per-filter weights) times
    value ``value[t]`` of the batch's concatenated run values to one
    touched cell (numbered across the batch).  ``passes`` is ``None``
    for one-pixel batches, whose cells are their terms in order;
    otherwise pass ``k`` adds the terms of every run's ``k``-th pixel,
    as ``(cells, term mask)``.
    """

    patterns: list[tuple]
    value: np.ndarray
    weights: np.ndarray  # (terms, d_ofm)
    cells: int
    passes: list[tuple[np.ndarray, np.ndarray]] | None
    member: np.ndarray | None  # pooled: touched cells of each window
    window_starts: np.ndarray | None  # pooled: first member of each window
    rest_on: np.ndarray | None  # pooled: window holds an active untouched cell
    changed: _Segments  # per run: touched cells or windows
    offset: np.ndarray  # per run: all-zero-input count minus the changed ones


class SparseStageOracle(StageOracle):
    """Fast oracle: analytic constant region + recomputed touched cells.

    Correct for any input that is zero outside the provided pixels: only
    the conv cells a pixel reaches can differ from the per-filter
    constant ``relu(b_f)``, and only pooled windows containing such a
    cell can differ from its pooled image.  Every pattern's touched
    cells and windows are planned once (:class:`_Plan`); a batch of runs
    with any mix of patterns is then evaluated in one numpy pass.
    """

    def __init__(self, staged: StagedNetwork, stage_name: str):
        self._stage, conv, act, pool = _stage_components(staged, stage_name)
        self._act = act
        geom = self._stage.geometry
        self.d_ofm = geom.d_ofm
        self.input_shape = (geom.d_ifm, geom.w_ifm, geom.w_ifm)

        # (D, C*F*F) view: column ``(c*F + di)*F + dj`` is one tap.
        self._taps = conv.weight.value.reshape(self.d_ofm, -1)
        self._b = (
            conv.bias.value if conv.bias is not None else np.zeros(self.d_ofm)
        )
        self._f = conv.f
        self._s = conv.stride
        self._p = conv.pad
        self._w_conv = geom.w_conv
        self._thr = act.threshold if isinstance(act, ThresholdReLU) else 0.0

        self._pool = pool
        if pool is not None:
            self._w_pool = pool_output_width(self._w_conv, pool.f, pool.stride, pool.pad)
        self._plans: dict[tuple, _Plan] = {}
        self._last: _BatchPlan | None = None
        self._set_constant()

    def set_threshold(self, threshold: float) -> None:
        if not isinstance(self._act, ThresholdReLU):
            raise ConfigError("stage activation has no tunable threshold")
        self._act.set_threshold(threshold)
        self._thr = threshold
        self._set_constant()

    def _set_constant(self) -> None:
        """Per-plane state of the all-zero input at the current threshold.

        Every cell equals ``b`` and is active iff ``b`` clears the
        threshold.  Max pooling then gives that value everywhere (ceil
        mode guarantees >= 1 valid cell per window); average pooling
        gives ``b * cells / F^2`` for an active cell, zero otherwise.
        """
        self._const_on = self._b > self._thr
        width = self._w_conv if self._pool is None else self._w_pool
        self._base_nnz = np.where(self._const_on, width * width, 0).astype(
            np.int64
        )
        self._last = None

    # -- planning ----------------------------------------------------------
    def _conv_coord_range(self, padded: int) -> range:
        """Conv output indices whose window covers ``padded``."""
        lo = -(-(padded - self._f + 1) // self._s)  # ceil
        hi = padded // self._s
        return range(max(0, lo), min(self._w_conv - 1, hi) + 1)

    def _pool_coord_range(self, cell: int) -> range:
        """Pooled indices whose window covers conv index ``cell``."""
        pool = self._pool
        # window of pooled index p covers [p*s - pad, p*s - pad + f)
        p_lo = -(-(cell + pool.pad - pool.f + 1) // pool.stride)
        p_hi = (cell + pool.pad) // pool.stride
        return range(max(0, p_lo), min(self._w_pool - 1, p_hi) + 1)

    def _pool_window_size(self, p_idx: int) -> int:
        """Valid conv cells along one axis of pooled index ``p_idx``."""
        lo = p_idx * self._pool.stride - self._pool.pad
        return min(self._w_conv, lo + self._pool.f) - max(0, lo)

    def _plan(self, pattern: tuple) -> _Plan:
        plan = self._plans.get(pattern)
        if plan is not None:
            return plan
        self._check_pixels(list(pattern))
        f = self._f
        cells: dict[tuple[int, int], int] = {}
        terms = []
        for k, (c, i, j) in enumerate(pattern):
            ip, jp = i + self._p, j + self._p
            for a in self._conv_coord_range(ip):
                for b in self._conv_coord_range(jp):
                    cell = cells.setdefault((a, b), len(cells))
                    tap = (c * f + ip - a * self._s) * f + jp - b * self._s
                    terms.append((cell, tap, k))
        windows: dict[tuple[int, int], list[int]] = {}
        if self._pool is not None:
            for (a, b), cell in cells.items():
                for pa in self._pool_coord_range(a):
                    for pb in self._pool_coord_range(b):
                        windows.setdefault((pa, pb), []).append(cell)
        keys = sorted(windows)
        member = [cell for key in keys for cell in windows[key]]
        plan = _Plan(
            sizes=(len(cells), len(terms), len(member), len(keys)),
            terms=np.array(terms, dtype=np.intp).reshape(-1, 3).T.copy(),
            member=np.array(member, dtype=np.intp),
            windows=np.array(
                [
                    [len(windows[key]) for key in keys],
                    [
                        self._pool_window_size(pa) * self._pool_window_size(pb)
                        > len(windows[(pa, pb)])
                        for pa, pb in keys
                    ],
                ],
                dtype=np.intp,
            ).reshape(2, -1),
        )
        self._plans[pattern] = plan
        return plan

    # -- queries -------------------------------------------------------------
    def nnz_batch(self, patterns: list[tuple], rows) -> np.ndarray:
        if not rows:
            return np.zeros((0, self.d_ofm), dtype=np.int64)
        return self._count([tuple(p) for p in patterns], np.concatenate(rows))

    def _batch_plan(self, patterns: list[tuple]) -> _BatchPlan:
        """The batch plan of ``patterns``, memoised for the last batch:
        consecutive steps of a lockstep search send the same patterns."""
        last = self._last
        if last is not None and last.patterns == patterns:
            return last
        plans = [self._plan(p) for p in patterns]
        sizes = np.array([pl.sizes for pl in plans], dtype=np.intp)
        run_cells = sizes[:, 0]
        cell_base = np.cumsum(run_cells) - run_cells
        widths = np.array([len(p) for p in patterns], dtype=np.intp)
        value_base = np.cumsum(widths) - widths
        cell, tap, px = np.concatenate([pl.terms for pl in plans], axis=1)
        passes = None
        if widths.max() > 1:
            # One pixel per pass: no cell repeats within a pass, and each
            # cell sums its pixels in pattern order.
            cell += np.repeat(cell_base, sizes[:, 1])
            passes = [(cell[px == k], px == k) for k in range(widths.max())]
        member = window_starts = rest_on = None
        if self._pool is None:
            changed = run_cells
        else:
            member = np.concatenate([pl.member for pl in plans])
            member += np.repeat(cell_base, sizes[:, 2])
            size, rest = np.concatenate([pl.windows for pl in plans], axis=1)
            window_starts = np.cumsum(size) - size
            rest_on = (rest > 0)[:, None] & self._const_on
            changed = sizes[:, 3]
        self._last = _BatchPlan(
            patterns=patterns,
            value=np.repeat(value_base, sizes[:, 1]) + px,
            weights=self._taps[:, tap].T,
            cells=int(run_cells.sum()),
            passes=passes,
            member=member,
            window_starts=window_starts,
            rest_on=rest_on,
            changed=_segments(changed),
            offset=self._base_nnz
            - np.where(self._const_on, changed[:, None], 0),
        )
        return self._last

    def _count(self, patterns: list[tuple], values: np.ndarray) -> np.ndarray:
        """Counts of ``len(patterns)`` runs in one numpy pass.

        ``values`` concatenates the runs' pixel values in pattern order.
        Each touched cell accumulates ``b + w_0*x_0 + w_1*x_1 ...`` in
        pixel order.  ``Conv2D.forward`` instead sums the products
        (``cols @ W.T``) and adds the bias last, so a two-pixel cell can
        round differently from the dense layers and flip a count when it
        lands exactly on the threshold — a bisection crossing.  One-pixel
        cells agree exactly.
        """
        plan = self._batch_plan(patterns)
        contrib = plan.weights * values[plan.value][:, None]
        if plan.passes is None:
            y = self._b + contrib
        else:
            y = np.empty((plan.cells, self.d_ofm))
            y[:] = self._b
            for cells, sel in plan.passes:
                y[cells] += contrib[sel]
        active = y > self._thr
        if self._pool is not None:
            # Rectified cells are >= 0, so a pooled window (max or
            # average) is non-zero iff one of its cells is; untouched
            # cells hold the constant.  Every window has a touched cell.
            active = np.logical_or.reduceat(
                active[plan.member], plan.window_starts, axis=0
            )
            active |= plan.rest_on
        return plan.offset + _segment_sums(active, plan.changed)
