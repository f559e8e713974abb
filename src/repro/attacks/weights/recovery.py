"""Weight recovery through the zero-pruning channel (paper Section 4).

Everything is expressed in *normalised ratios* ``rho = w / b``: a conv
cell computes ``w*x + b = b * (1 + rho*x)``, so with the bias sign known
(one baseline query: are the all-zero-input outputs non-zero?) the
activation state of any cell at any probe value is a function of its
ratio alone.  The attack recovers ``rho`` for every weight of every
filter — the paper's "each weight can be expressed as a function of one
bias value".

Algorithm (generalising the paper's Algorithm 2 and its pooling
extension):

1. Probe pixels walk the top-left ``F x F`` corner in lexicographic
   order; with an unpadded convolution, pixel ``(i, j)`` touches weight
   ``(i, j)`` through conv output ``(0, 0)`` and otherwise only weights
   already recovered at earlier pixels (Figure 6b's connection counts).
2. The attacker *models* the expected non-zero count from the recovered
   ratios; the residual measured-minus-modelled count isolates the new
   weight's activation, which flips exactly once — a binary search on
   each side of zero pins the crossing ``x* = -1/rho``.
3. With a merged pooling stage (max or average — the channel only sees
   zero vs non-zero, so both behave identically), a window can mask the
   new cell behind an already-known cell (the paper's Eq. 10 scenario).
   Masked weights are resolved in follow-up rounds by (a) re-probing the
   weight through a different conv output whose pooled window has a
   visible region — pixel ``(i + a*S, j + b*S)`` reaches weight
   ``(i, j)`` via output ``(a, b)`` — and (b) the paper's two-pixel
   technique: hold probe ``(i, j)`` at an anchor ``v`` that keeps every
   known cell of the corner window inactive and search pixel ``(0, 0)``
   (which influences only the corner output); the crossing of
   ``b*(1 + rho00*x + rho_ij*v)`` yields
   ``rho_ij = -(1 + rho00*x*) / v``.
4. Missing crossings identify zero weights (paper: "zero-valued weights
   can be identified from missing zero-crossing points").

Two axes run in lockstep.  Across filters, every probe is a per-filter
batch: plane ``f``'s count depends only on run ``f``'s own input, so all
``D_OFM`` filters search at once.  Across weights, each weight's search
is a generator that yields its one-off probes and, for each crossing,
one bisection request; each round advances many weights together,
sending every pending probe of a step to the device in one
multi-pattern call and stepping every running bisection in one table
of arrays (:class:`_BisectionTable`).  A weight starts once every
lexicographically earlier active weight it *conflicts* with has
finished; two weights conflict when either one's search may read the
other's status or ratio cells (:meth:`WeightAttack._read_set`, derived
from the same probe-plan helpers the search uses).  A search writes
only its own cell, so every weight sees exactly the state the serial
order gives it, and the ratios, statuses and query ledger equal the
one-weight-at-a-time order kept in :mod:`repro.reference`.  Weights of
the same pixel always conflict, so concurrent probes never share a
pixel pattern and the session cache answers them as in that order.

Filter ranges are independent too: ``workers > 1`` shards the filters
over worker processes, each driving its own forked
:class:`~repro.device.DeviceSession`, with ratios bit-identical to the
serial run.
"""

from __future__ import annotations

import heapq
from collections.abc import Generator
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from repro.errors import AttackError
from repro.device import DeviceSession
from repro.attacks.stepped import Stepped
from repro.attacks.weights.target import AttackTarget
from repro.parallel import fork_map, resolve_workers, shard_ranges

__all__ = [
    "WeightStatus",
    "FilterRecovery",
    "WeightAttackResult",
    "WeightAttack",
    "SteppedWeightAttack",
]


class WeightStatus:
    """Per-weight recovery outcomes."""

    UNKNOWN = "unknown"  # not yet attempted / dependencies unresolved
    RECOVERED = "recovered"
    ZERO = "zero"  # no crossing anywhere visible: w = 0 (or |w/b| < 1/x_max)
    MASKED = "masked"  # pooling hides it and no technique unmasked it
    SATURATED = "saturated"  # positive bias + pooling: channel is silent


@dataclass
class _Bisection:
    """One crossing search of Algorithm 2, asked as a single request.

    It stands for ``search_steps`` probes of ``pixels``: each step drives
    the last pixel at the midpoint of ``[lo, hi]`` for every ``moved``
    filter (0.0 for the rest) and, for two-pixel searches, holds
    ``pixels[0]`` at ``anchor``.  A step *flips* when its count differs
    from ``g0`` (two-pixel) or from the count modelled from the known
    cells ``known_rho``/``members`` (see :meth:`WeightAttack._model_counts`);
    a flip moves ``hi`` to the midpoint, anything else moves ``lo``.
    The search receives the final ``(lo, hi)``.
    """

    pixels: list
    lo: np.ndarray  # (d_ofm,)
    hi: np.ndarray  # (d_ofm,)
    moved: np.ndarray  # (d_ofm,) bool
    anchor: np.ndarray | None = None  # (d_ofm,), two-pixel only
    g0: np.ndarray | None = None  # (d_ofm,), two-pixel only
    known_rho: np.ndarray | None = None  # (d_ofm, n_known), one-pixel only
    members: np.ndarray | None = None  # window member matrix, pooled only


class _Probe(NamedTuple):
    """Geometry of probing weight (wi, wj) through conv output (a, b), in
    any input channel: the probe pixel's row and column, the weight
    coordinates of the other cells it drives (its known cells) and,
    pooled, those cells grouped by affected window
    (:meth:`WeightAttack._window_groups`, as a member matrix too)."""

    pixel: tuple[int, int]
    ki: list[int]
    kj: list[int]
    groups: list[list[int]] | None
    new_idx: list[int]
    members: np.ndarray | None


# A weight's search: yields ``(pixels, values_per_filter)`` probe
# requests, receiving each probe's per-filter counts, and
# :class:`_Bisection` requests, receiving their final ``(lo, hi)``;
# returns its result.
Search = Generator[tuple[list, np.ndarray] | _Bisection, object, object]


class _Row:
    """A search's bisection while it runs in a :class:`_BisectionTable`:
    its row (kept current by the table), the steps still to probe, its
    pattern, and where its probe values start in its row of
    :meth:`_BisectionTable.step_values` (``[anchor, mid]``)."""

    __slots__ = ("row", "left", "pixels", "first")

    def __init__(self, row: int, left: int, bisection: _Bisection) -> None:
        self.row = row
        self.left = left
        self.pixels = bisection.pixels
        self.first = 0 if bisection.anchor is not None else 1


class _BisectionTable:
    """The live bisections of one round, one row each, stepped together.

    A lockstep tick sends one probe per running search; for every
    bisecting search it is the next midpoint.  The table computes all
    midpoints, modelled counts and bracket updates of a tick in a fixed
    number of array operations, with the same elementwise arithmetic as
    a lone bisection (:func:`repro.reference.weight_attack_reference`).
    Live rows stay packed at the top: a finished row is replaced by the
    last one.

    A row compares its measured count with ``ref`` plus the number of
    its windows holding an active known cell: a pooled one-pixel row
    has ``ref = base`` and its window member matrix; an unpooled one
    has ``ref = base - n_known * bias_pos`` and one window per known
    cell (:meth:`WeightAttack._model_counts` either way, as integer sums
    do not depend on their order); a two-pixel row has ``ref = g0`` and
    no windows.  Known cells sit in columns ``1..n_known``; the other
    columns hold ratio NaN, whose cells are never active, and padded
    window members point at column 0, so padding counts nothing.
    """

    def __init__(
        self, d: int, steps: int, bias_pos: np.ndarray, base: np.ndarray
    ) -> None:
        self._d = d
        self._steps = steps
        self._bias_pos = bias_pos
        self._base = np.asarray(base, dtype=np.int64)
        self._live: list[_Row] = []
        self._shape = (0, 1, 1, 1)  # rows, model columns, windows, width
        self._lo = np.zeros((0, d))
        self._hi = np.zeros((0, d))
        self._moved = np.zeros((0, d), dtype=bool)
        self._anchor = np.zeros((0, d))
        self._ref = np.zeros((0, d), dtype=np.int64)
        self._rho = np.zeros((0, d, 1))
        self._members = np.zeros((0, 1, 1), dtype=np.intp)
        self._flat = np.zeros((0, d, 1, 1), dtype=np.intp)
        self._mid = self._lo

    def _resize(self, shape: tuple[int, int, int, int]) -> None:
        rows, cols, windows, width = shape
        d = self._d
        for name, fresh in (
            ("_lo", np.zeros((rows, d))),
            ("_hi", np.zeros((rows, d))),
            ("_moved", np.zeros((rows, d), dtype=bool)),
            ("_anchor", np.zeros((rows, d))),
            ("_ref", np.zeros((rows, d), dtype=np.int64)),
            ("_rho", np.full((rows, d, cols), np.nan)),
            ("_members", np.zeros((rows, windows, width), dtype=np.intp)),
        ):
            old = getattr(self, name)
            fresh[tuple(map(slice, old.shape))] = old
            setattr(self, name, fresh)
        self._shape = shape
        # Flat index into a tick's (rows, d, cols) activity array of
        # every (row, filter, window, member).
        cell = np.arange(rows * d).reshape(rows, d, 1, 1) * cols
        self._flat = cell + self._members[:, None]

    def add(self, bisection: _Bisection) -> _Row:
        """Start a bisection in the next row; returns its handle."""
        if bisection.g0 is not None:
            known = np.zeros((self._d, 0))
            members = np.zeros((0, 0), dtype=np.intp)
            ref = bisection.g0
        else:
            known = bisection.known_rho
            if bisection.members is None:
                members = np.arange(known.shape[1], dtype=np.intp)[:, None]
                ref = self._base - known.shape[1] * self._bias_pos
            else:
                members = bisection.members
                ref = self._base
        row = len(self._live)
        rows, cols, windows, width = self._shape
        shape = (
            rows if row < rows else max(4, 2 * rows),
            max(cols, 1 + known.shape[1]),
            max(windows, members.shape[0]),
            max(width, members.shape[1]),
        )
        if shape != self._shape:
            self._resize(shape)
        n, (g, w) = known.shape[1], members.shape
        self._lo[row] = bisection.lo
        self._hi[row] = bisection.hi
        self._moved[row] = bisection.moved
        self._anchor[row] = 0.0 if bisection.anchor is None else bisection.anchor
        self._ref[row] = ref
        self._rho[row] = np.nan
        self._rho[row, :, 1:1 + n] = known
        self._members[row] = 0
        self._members[row, :g, :w] = members + 1
        self._index(row)
        handle = _Row(row, self._steps, bisection)
        self._live.append(handle)
        return handle

    def _index(self, row: int) -> None:
        cols = self._shape[1]
        cell = (row * self._d + np.arange(self._d)) * cols
        self._flat[row] = cell[:, None, None] + self._members[row]

    def pop(self, handle: _Row) -> tuple[np.ndarray, np.ndarray]:
        """Retire a finished row; returns its final ``(lo, hi)``."""
        row = handle.row
        bracket = self._lo[row].copy(), self._hi[row].copy()
        last = self._live.pop()
        if last is not handle:
            for array in (
                self._lo, self._hi, self._moved, self._anchor, self._ref,
                self._rho, self._members,
            ):
                array[row] = array[last.row]
            self._index(row)
            last.row = row
            self._live[row] = last
        return bracket

    def step_values(self) -> np.ndarray:
        """This tick's probe values: row ``r`` holds ``[anchor, mid]``."""
        n = len(self._live)
        self._mid = np.where(
            self._moved[:n], 0.5 * (self._lo[:n] + self._hi[:n]), 0.0
        )
        values = np.empty((n, 2, self._d))
        values[:, 0] = self._anchor[:n]
        values[:, 1] = self._mid
        return values

    def step(self, measured: np.ndarray) -> None:
        """Fold the counts measured at :meth:`step_values`, one row per
        live row, into the brackets."""
        n = len(self._live)
        mid = self._mid
        v = 1.0 + self._rho[:n] * mid[:, :, None]
        active = np.where(self._bias_pos[:, None], v > 0, v < 0)
        windows = active.take(self._flat[:n]).any(axis=3).sum(axis=2)
        flipped = measured != self._ref[:n] + windows
        moved = self._moved[:n]
        to_hi = moved & flipped
        np.copyto(self._hi[:n], mid, where=to_hi)
        np.copyto(self._lo[:n], mid, where=moved ^ to_hi)


@dataclass
class _RecoveryState:
    """What the searches of one attack share: baseline and recovered cells."""

    base: np.ndarray  # (d_ofm,) all-zero-input counts
    bias_pos: np.ndarray  # (d_ofm,) bool
    ratios: np.ndarray  # (d_ofm, d_ifm, f, f) float
    status: np.ndarray  # (d_ofm, d_ifm, f, f) object (status strings)


@dataclass
class FilterRecovery:
    """Recovered ratios of one filter: ``ratios[c, i, j] = w / b``."""

    filter_index: int
    bias_positive: bool
    ratios: np.ndarray  # (d_ifm, f, f) float
    status: np.ndarray  # (d_ifm, f, f) object (status strings)


@dataclass
class WeightAttackResult:
    """Outcome of the full layer attack."""

    target: AttackTarget
    filters: list[FilterRecovery] = field(default_factory=list)
    queries: int = 0

    def ratio_tensor(self) -> np.ndarray:
        """Recovered ``w/b`` ratios, shape ``(d_ofm, d_ifm, f, f)``."""
        return np.stack([f.ratios for f in self.filters])

    def status_tensor(self) -> np.ndarray:
        return np.stack([f.status for f in self.filters])

    def resolved_mask(self) -> np.ndarray:
        status = self.status_tensor()
        return (status == WeightStatus.RECOVERED) | (status == WeightStatus.ZERO)

    def max_ratio_error(self, weights: np.ndarray, biases: np.ndarray) -> float:
        """Max |recovered - true| over resolved weights (Figure 7 metric)."""
        true_ratio = weights / biases[:, None, None, None]
        mask = self.resolved_mask()
        if not mask.any():
            raise AttackError("no weights were recovered")
        return float(np.abs(self.ratio_tensor() - true_ratio)[mask].max())

    def recovery_fraction(self) -> float:
        return float(self.resolved_mask().mean())


class WeightAttack:
    """Recover every ``w/b`` ratio of one conv stage via write counts.

    Args:
        channel: the attacker's :class:`~repro.device.DeviceSession` on
            the victim (must be per-plane; aggregate devices are attacked
            with :mod:`repro.attacks.weights.aggregate`).  Any object
            with the session's channel surface works — defence wrappers
            included.
        target: structural knowledge of the attacked stage.
        search_steps: bisection iterations per crossing (64 reaches
            float64 resolution over any practical input range).
        workers: shard the filter range over this many worker
            processes; ``None``/``0``/``1`` (default) runs serially.
        filter_range: restrict the attack to filters ``[lo, hi)`` —
            the shard a parallel worker owns.  Results then contain
            only those filters.

    After the main pass, up to ``max_resolution_rounds`` extra passes
    resolve pooling-masked weights through alternate probes.
    """

    max_resolution_rounds = 4

    def __init__(
        self,
        channel: DeviceSession,
        target: AttackTarget,
        search_steps: int = 64,
        workers: int | None = None,
        filter_range: tuple[int, int] | None = None,
    ):
        if not channel.per_plane:
            raise AttackError(
                "per-filter recovery needs per-plane write counts; use the "
                "aggregate attack for single-stream devices"
            )
        if channel.input_shape != (target.d_ifm, target.w_ifm, target.w_ifm):
            raise AttackError(
                f"target geometry {target} does not match device input "
                f"{channel.input_shape}"
            )
        if channel.d_ofm != target.d_ofm:
            # The adversary can count the OFM substreams directly, so a
            # candidate with the wrong output depth is rejected up front.
            raise AttackError(
                f"target d_ofm {target.d_ofm} does not match the device's "
                f"{channel.d_ofm} output substreams"
            )
        self.channel = channel
        self.target = target
        self.search_steps = search_steps
        self.workers = workers
        self.x_max = float(min(abs(channel.input_range[0]), channel.input_range[1]))
        if self.x_max <= 0:
            raise AttackError("device input range does not straddle zero")
        self._d = target.d_ofm
        lo, hi = filter_range if filter_range is not None else (0, self._d)
        if not 0 <= lo < hi <= self._d:
            raise AttackError(
                f"filter range [{lo}, {hi}) outside [0, {self._d})"
            )
        self.filter_range = (lo, hi)
        # Arrays stay full-width (per-filter queries are full batches of
        # d_ofm runs); the shard mask keeps out-of-range filters inert —
        # they are never live, so their probe columns are always 0.
        self._shard_mask = np.zeros(self._d, dtype=bool)
        self._shard_mask[lo:hi] = True
        self._probes: dict[tuple[int, int, int, int], _Probe] = {}

    # ------------------------------------------------------------------
    # Count model: everything in terms of rho = w/b and the bias sign.
    # ------------------------------------------------------------------
    @staticmethod
    def _cell_active(
        rho: np.ndarray, x: np.ndarray, bias_positive: np.ndarray
    ) -> np.ndarray:
        """Activation of a cell ``b*(1 + rho*x)`` after ReLU, elementwise."""
        v = 1.0 + rho * x
        return np.where(bias_positive, v > 0, v < 0)

    def _model_counts(
        self,
        x: np.ndarray,
        known_rho: np.ndarray,
        bias_pos: np.ndarray,
        base: np.ndarray,
        members: np.ndarray | None,
    ) -> np.ndarray:
        """Expected counts if the new weight were zero.

        ``known_rho`` is (d_ofm, n_known).  Without pooling each cell
        contributes its own pixel; with pooling, row ``g`` of
        ``members`` (see :meth:`_member_matrix`) indexes the known cells
        of one affected window — a window is active iff any member is
        (the channel only distinguishes zero from non-zero, so max and
        average pooling behave identically here).
        """
        if known_rho.shape[1] == 0 and members is None:
            return base.astype(np.int64)
        act = self._cell_active(known_rho, x[:, None], bias_pos[:, None])
        if members is None:
            # Each known cell counts relative to its x = 0 state (active
            # iff the bias is positive).
            return base + act.sum(axis=1) - known_rho.shape[1] * bias_pos
        # Pooled path is only reachable for negative-bias filters
        # (positive bias saturates the channel), so windows are inactive
        # at x = 0 and activate when any known member does.
        return base + act[:, members].any(axis=2).sum(axis=1)

    @staticmethod
    def _member_matrix(groups: list[list[int]]) -> np.ndarray:
        """Non-empty window groups as one index matrix; short rows repeat
        their first member, which leaves every window's ``any`` as is."""
        groups = [g for g in groups if g]
        width = max(map(len, groups), default=0)
        return np.array(
            [g + g[:1] * (width - len(g)) for g in groups], dtype=np.intp
        ).reshape(len(groups), width)

    # ------------------------------------------------------------------
    # Geometry helpers for one probe
    # ------------------------------------------------------------------
    def _probe_plan(
        self, c: int, wi: int, wj: int, a: int, b: int
    ) -> tuple[list[tuple[int, int, int]], list[tuple[int, int, int, int]]]:
        """Pixel and connections probing weight (wi, wj) via output (a, b).

        Returns ``(pixels, known_cells)`` where known_cells are the other
        (output, weight) pairs the pixel influences.
        """
        t = self.target
        pi = wi + a * t.s_conv
        pj = wj + b * t.s_conv
        if pi >= t.w_ifm or pj >= t.w_ifm:
            raise AttackError("probe pixel outside input")
        connected = t.outputs_seeing_pixel(pi, pj)
        known = [cell for cell in connected if (cell[0], cell[1]) != (a, b)]
        return [(c, pi, pj)], known

    def _probe(self, wi: int, wj: int, a: int, b: int) -> _Probe:
        """The (memoised) geometry of probing weight (wi, wj) via output
        (a, b); raises like :meth:`_probe_plan`."""
        key = (wi, wj, a, b)
        probe = self._probes.get(key)
        if probe is None:
            [(_, pi, pj)], known = self._probe_plan(0, wi, wj, a, b)
            groups, new_idx, members = None, [], None
            if self.target.has_pool:
                groups, new_idx = self._window_groups(known, a, b)
                members = self._member_matrix(groups)
            probe = self._probes[key] = _Probe(
                (pi, pj), [k[2] for k in known], [k[3] for k in known],
                groups, new_idx, members,
            )
        return probe

    def _window_groups(
        self,
        known: list[tuple[int, int, int, int]],
        a: int,
        b: int,
    ) -> tuple[list[list[int]], list[int]]:
        """Known cells grouped by affected window + new-cell window ids."""
        windows: dict[tuple[int, int], list[int]] = {}
        for k, (oa, ob, _, _) in enumerate(known):
            for w in self.target.windows_of_output(oa, ob):
                windows.setdefault(w, []).append(k)
        new_windows = self.target.windows_of_output(a, b)
        for w in new_windows:
            windows.setdefault(w, [])
        keys = sorted(windows)
        groups = [windows[k] for k in keys]
        new_idx = [keys.index(w) for w in new_windows]
        return groups, new_idx

    def _side_limits(
        self, probe: _Probe, known_rho: np.ndarray
    ) -> dict[float, np.ndarray]:
        """Per-filter |x| bound on each side (``+1.0``/``-1.0``) before
        every new-cell window is masked.

        Beyond the bound, each window containing the new cell is already
        active through a known member, hiding the new crossing.  Without
        pooling this is simply the input range.
        """
        if not self.target.has_pool:
            full = np.full(self._d, self.x_max)
            return {1.0: full, -1.0: full}
        # The new cell may sit in several (overlapping) windows; its
        # crossing stays observable while *at least one* of them is
        # known-inactive, so the bound is the max over windows of each
        # window's own masking point (min over that window's known
        # members' crossings on this side, capped at the input range).
        with np.errstate(divide="ignore"):
            crossing = np.where(known_rho != 0.0, -1.0 / known_rho, np.inf)
        reach = np.where(np.isfinite(crossing), np.abs(crossing), np.inf)
        limits = {}
        for sign in (1.0, -1.0):
            on_side = np.where(np.sign(crossing) == sign, reach, np.inf)
            limit = np.zeros(self._d)
            for w in probe.new_idx:
                masked_at = on_side[:, probe.groups[w]].min(
                    axis=1, initial=np.inf
                )
                limit = np.maximum(limit, np.minimum(masked_at, self.x_max))
            limits[sign] = limit * (1.0 - 1e-9)
        return limits

    # ------------------------------------------------------------------
    # Core search: residual bisection for one probe configuration
    # ------------------------------------------------------------------
    def _residual_search(
        self,
        pixels: list[tuple[int, int, int]],
        probe: _Probe,
        known_rho: np.ndarray,
        bias_pos: np.ndarray,
        base: np.ndarray,
        todo: np.ndarray,
    ) -> Search:
        """Search both sides of zero for the new weight's crossing.

        Returns ``(found, crossing, fully_visible)`` — ``fully_visible``
        marks filters whose search covered the whole input range on both
        sides (so a missing crossing proves the weight is zero).
        """
        found = np.zeros(self._d, dtype=bool)
        crossing = np.zeros(self._d)
        members = probe.members
        visible = self._side_limits(probe, known_rho)
        for sign, limit in visible.items():
            live = todo & ~found & (limit > 0)
            if not live.any():
                continue
            hi = sign * limit
            probe = np.where(live, hi, 0.0)
            measured = yield pixels, probe[None, :]
            modeled = self._model_counts(probe, known_rho, bias_pos, base, members)
            moved = live & ((measured - modeled) != 0)
            if not moved.any():
                continue
            lo, cur_hi = yield from self._bisect(_Bisection(
                pixels, np.zeros(self._d), hi.copy(), moved,
                known_rho=known_rho, members=members,
            ))
            crossing = np.where(moved & ~found, 0.5 * (lo + cur_hi), crossing)
            found |= moved
        full = self.x_max * (1 - 1e-6)
        fully_visible = (visible[1.0] >= full) & (visible[-1.0] >= full)
        return found, crossing, fully_visible

    def _attempt_probe(
        self,
        c: int,
        wi: int,
        wj: int,
        a: int,
        b: int,
        ratios: np.ndarray,
        status: np.ndarray,
        bias_pos: np.ndarray,
        base: np.ndarray,
        todo: np.ndarray,
    ) -> Search:
        """One probe of weight (wi, wj) via output (a, b).

        Only filters whose other connected weights are all resolved are
        attempted.  Returns (found, rho, proven_zero).
        """
        probe = self._probe(wi, wj, a, b)
        if probe.ki:
            dep = status[:, c, probe.ki, probe.kj]
            dep_ok = (
                (dep == WeightStatus.RECOVERED) | (dep == WeightStatus.ZERO)
            ).all(axis=1)
            known_rho = ratios[:, c, probe.ki, probe.kj]
        else:
            dep_ok = np.ones(self._d, dtype=bool)
            known_rho = np.zeros((self._d, 0))
        attempt = todo & dep_ok
        if not attempt.any():
            return (
                np.zeros(self._d, dtype=bool),
                np.zeros(self._d),
                np.zeros(self._d, dtype=bool),
            )
        found, crossing, fully_visible = yield from self._residual_search(
            [(c, *probe.pixel)], probe, known_rho, bias_pos, base, attempt
        )
        with np.errstate(divide="ignore"):
            rho = np.where(found, -1.0 / crossing, 0.0)
        proven_zero = attempt & ~found & fully_visible
        return found & attempt, rho, proven_zero

    # ------------------------------------------------------------------
    # Two-pixel unmasking (paper Eq. 10/11 generalised)
    # ------------------------------------------------------------------
    def _isolated_rows(self, far: bool) -> list[int]:
        """Pixel rows read by exactly one conv output row (a corner row).

        Near corner: rows ``< S_conv`` are read only by output row 0.
        Far corner: rows past ``(w_conv - 2) * S + F - 1`` are read only
        by the last output row.
        """
        t = self.target
        if not far:
            return list(range(min(t.s_conv, t.f_conv)))
        last_start = (t.w_conv - 1) * t.s_conv
        lo = max(last_start, (t.w_conv - 2) * t.s_conv + t.f_conv)
        return list(range(lo, min(last_start + t.f_conv, t.w_ifm)))

    def _corner_searchers(self) -> list[tuple[tuple[int, int], list[tuple[int, int]]]]:
        """Per corner output, the pixels influencing only that output.

        Returns ``[((A, B), [(r, c), ...]), ...]`` where each pixel
        ``(r, c)`` reaches output ``(A, B)`` through weight
        ``(r - A*S, c - B*S)``.  The paper's technique uses the (0, 0)
        corner; the other three give fallback searchers when the
        corner's weight happens to be zero.
        """
        t = self.target
        a_last = t.w_conv - 1
        corners = []
        for far_a in (False, True):
            for far_b in (False, True):
                corner = (a_last if far_a else 0, a_last if far_b else 0)
                pix = [
                    (r, c)
                    for r in self._isolated_rows(far_a)
                    for c in self._isolated_rows(far_b)
                ]
                if pix:
                    corners.append((corner, pix))
        return corners

    def _two_pixel(
        self,
        c: int,
        wi: int,
        wj: int,
        ratios: np.ndarray,
        status: np.ndarray,
        todo: np.ndarray,
    ) -> Search:
        """Recover masked (wi, wj) via anchored probe + corner search.

        Pixel (wi, wj) is held at an anchor ``v``; a searcher pixel
        (r, c) influencing only conv output (0, 0) through a recovered
        weight ``rho_s`` is swept: the corner output is
        ``b * (1 + rho_s*x + rho_ij*v)``, so its crossing gives
        ``rho_ij = -(1 + rho_s*x*) / v``.  Every other cell the anchor
        drives — including cells whose ratios are still unresolved — is
        *constant* in ``x``, so the count's only discontinuity in ``x``
        is the corner output's crossing.  Anchors are tried at several
        magnitudes on both sides because an unfortunate anchor can leave
        the corner window saturated by a companion cell.
        """
        found = np.zeros(self._d, dtype=bool)
        rho_new = np.zeros(self._d)
        for (corner, searcher_pixels) in self._corner_searchers():
            if not (todo & ~found).any():
                break
            ca, cb = corner
            try:
                probe = self._probe(wi, wj, ca, cb)
            except AttackError:
                continue
            pixels = [(c, *probe.pixel)]
            # Unresolved companions have ratio 0 in known_rho, which the
            # limits treat as never-masking; if they do mask at an
            # anchor, detection simply fails and a smaller anchor is
            # tried.
            limits = self._side_limits(probe, ratios[:, c, probe.ki, probe.kj])
            for (pr, pc) in searcher_pixels:
                if (c, pr, pc) == pixels[0]:
                    continue
                sr = pr - ca * self.target.s_conv
                sc = pc - cb * self.target.s_conv
                if (sr, sc) == (wi, wj):
                    continue
                rho_s = ratios[:, c, sr, sc]
                ok_s = (status[:, c, sr, sc] == WeightStatus.RECOVERED) & (
                    rho_s != 0.0
                )
                if not (todo & ok_s & ~found).any():
                    continue
                yield from self._two_pixel_with_searcher(
                    pixels, (c, pr, pc), rho_s, todo & ok_s,
                    limits, found, rho_new,
                )
        return found, rho_new

    def _two_pixel_with_searcher(
        self,
        pixels,
        searcher_pixel,
        rho_s: np.ndarray,
        eligible: np.ndarray,
        limits: dict[float, np.ndarray],
        found: np.ndarray,
        rho_new: np.ndarray,
    ) -> Search:
        """Anchor + searcher sweep; updates ``found``/``rho_new`` in place."""
        two_pixels = pixels + [searcher_pixel]
        for v_sign, v_limit in limits.items():
            for scale in (0.9, 0.45, 0.2, 0.08):
                remaining = eligible & ~found
                if not remaining.any():
                    break
                anchor = np.where(remaining, v_sign * scale * v_limit, 0.0)
                for x_sign in (1.0, -1.0):
                    live = remaining & ~found & (np.abs(anchor) > 0)
                    if not live.any():
                        break
                    hi = np.where(live, x_sign * self.x_max, 0.0)
                    g0 = yield two_pixels, np.stack([anchor, np.zeros(self._d)])
                    g1 = yield two_pixels, np.stack([anchor, hi])
                    moved = live & (g0 != g1)
                    if not moved.any():
                        continue
                    lo, cur_hi = yield from self._bisect(_Bisection(
                        two_pixels, np.zeros(self._d), hi.copy(), moved,
                        anchor=anchor, g0=g0,
                    ))
                    x_star = 0.5 * (lo + cur_hi)
                    with np.errstate(divide="ignore", invalid="ignore"):
                        rho = -(1.0 + rho_s * x_star) / anchor
                    rho_new[moved & ~found] = rho[moved & ~found]
                    found |= moved

    def _bisect(self, bisection: _Bisection) -> Search:
        """Hand one bisection to the driver; returns its final bracket."""
        if self.search_steps <= 0:
            return bisection.lo, bisection.hi
        return (yield bisection)

    def _alternate_outputs(self, wi: int, wj: int) -> list[tuple[int, int]]:
        """Conv outputs usable to probe weight (wi, wj), nearest first."""
        t = self.target
        outs = [(0, 0)]
        max_a = min(3, (t.w_ifm - 1 - wi) // t.s_conv, t.w_conv - 1)
        max_b = min(3, (t.w_ifm - 1 - wj) // t.s_conv, t.w_conv - 1)
        for a in range(max_a + 1):
            for b in range(max_b + 1):
                if (a, b) != (0, 0):
                    outs.append((a, b))
        return outs

    def _resolve_weight(
        self,
        state: _RecoveryState,
        pos: tuple[int, int, int],
        todo: np.ndarray,
        deep: bool,
    ) -> Search:
        """Attempt to resolve weight ``pos = (c, i, j)`` for all ``todo``
        filters.

        A generator over the probes it needs (see :data:`Search`); it
        returns whether it resolved anything and writes only the
        ``[:, c, i, j]`` cells of ``state.ratios``/``state.status``.
        """
        c, i, j = pos
        ratios, status = state.ratios, state.status
        progress = False
        pending = todo.copy()
        outputs = self._alternate_outputs(i, j) if deep else [(0, 0)]
        zero_evidence = np.zeros(self._d, dtype=bool)
        for (a, b) in outputs:
            if not pending.any():
                break
            found, rho, proven_zero = yield from self._attempt_probe(
                c, i, j, a, b, ratios, status, state.bias_pos, state.base,
                pending,
            )
            if found.any():
                ratios[found, c, i, j] = rho[found]
                status[found, c, i, j] = WeightStatus.RECOVERED
                pending &= ~found
                progress = True
            zero_evidence |= proven_zero
        newly_zero = pending & zero_evidence
        if newly_zero.any():
            ratios[newly_zero, c, i, j] = 0.0
            status[newly_zero, c, i, j] = WeightStatus.ZERO
            pending &= ~newly_zero
            progress = True
        if deep and pending.any() and self.target.has_pool and (i, j) != (0, 0):
            found, rho = yield from self._two_pixel(
                c, i, j, ratios, status, pending
            )
            if found.any():
                ratios[found, c, i, j] = rho[found]
                status[found, c, i, j] = WeightStatus.RECOVERED
                pending &= ~found
                progress = True
        if deep and pending.any():
            # Every technique exhausted this round: the weight is either
            # zero with partial visibility or genuinely masked.  Mark
            # masked; a later round may still flip it via new knowledge.
            mark = pending & (status[:, c, i, j] == WeightStatus.UNKNOWN)
            if mark.any():
                status[mark, c, i, j] = WeightStatus.MASKED
        return progress

    # ------------------------------------------------------------------
    # Main driver
    # ------------------------------------------------------------------
    def run(self) -> WeightAttackResult:
        """Run the full attack over every input channel and position.

        With ``workers > 1`` the filter range is split into contiguous
        shards, each recovered in a worker process against a forked
        session; shard results and ledgers are merged back here.
        """
        if resolve_workers(self.workers) > 1:
            return self._run_sharded()
        return self._run_shard_local()

    def _run_shard_local(self) -> WeightAttackResult:
        """Recovery of this attack's own filter range in this process."""
        state = self._start()
        for round_no in range(1 + self.max_resolution_rounds):
            if not self._run_round(state, deep=round_no > 0):
                break
        return self._finish(state)

    def _start(self) -> _RecoveryState:
        """Baseline query, bias signs and the empty recovery arrays."""
        t = self.target
        base = np.asarray(self.channel.query([(0, 0, 0)], [0.0]))
        plane = (t.w_pool if t.has_pool else t.w_conv) ** 2
        bias_pos = base >= plane
        shape = (self._d, t.d_ifm, t.f_conv, t.f_conv)
        status = np.full(shape, WeightStatus.UNKNOWN, dtype=object)
        if t.has_pool:
            # A positive bias keeps every pooled window non-zero for any
            # input: the count never changes and the channel is silent.
            status[bias_pos] = WeightStatus.SATURATED
        return _RecoveryState(base, bias_pos, np.zeros(shape), status)

    def _active(
        self, state: _RecoveryState
    ) -> list[tuple[tuple[int, int, int], np.ndarray]]:
        """This round's weights in lexicographic order, each with the
        filters to attempt.  A weight's own status changes only through
        its own search, so this can be read at the start of the round."""
        status = state.status
        todo = (status == WeightStatus.UNKNOWN) | (status == WeightStatus.MASKED)
        todo &= self._shard_mask[:, None, None, None]
        return [
            (pos, todo[(slice(None), *pos)])
            for pos in zip(*(axis.tolist() for axis in np.nonzero(todo.any(axis=0))))
        ]

    def _read_set(
        self, c: int, i: int, j: int, deep: bool
    ) -> set[tuple[int, int, int]]:
        """Every cell whose status or ratio the search of (c, i, j) may
        read in a round: its own, the known cells of each probe it may
        make, and (two-pixel rounds) each corner searcher's weight."""
        outputs = self._alternate_outputs(i, j) if deep else [(0, 0)]
        reads = {(c, i, j)}
        for a, b in outputs:
            _, known = self._probe_plan(c, i, j, a, b)
            reads.update((c, ki, kj) for _, _, ki, kj in known)
        if deep and self.target.has_pool and (i, j) != (0, 0):
            s = self.target.s_conv
            for (ca, cb), searcher_pixels in self._corner_searchers():
                try:
                    _, known = self._probe_plan(c, i, j, ca, cb)
                except AttackError:
                    continue
                reads.update((c, ki, kj) for _, _, ki, kj in known)
                reads.update(
                    (c, pr - ca * s, pc - cb * s) for pr, pc in searcher_pixels
                )
        return reads

    def _run_round(self, state: _RecoveryState, deep: bool) -> bool:
        """One pass over the active weights; returns whether any resolved.

        Weight ``k`` waits for every earlier active weight it conflicts
        with (either reads the other's cell), so it starts from the state
        the serial order would give it.  Each step then sends the pending
        probe of every running search to the device in one call.
        """
        active = self._active(state)
        index = {pos: k for k, (pos, _) in enumerate(active)}
        edges = set()
        for k, (pos, _) in enumerate(active):
            for cell in self._read_set(*pos, deep):
                m = index.get(cell)
                if m is not None and m != k:
                    edges.add((min(k, m), max(k, m)))
        later: list[list[int]] = [[] for _ in active]
        waits = [0] * len(active)
        for k, m in edges:
            later[k].append(m)
            waits[m] += 1

        progress = False
        ready = [k for k, n in enumerate(waits) if n == 0]
        table = _BisectionTable(
            self._d, self.search_steps, state.bias_pos, state.base
        )
        # Each running search with its pending request: a probe
        # ``(pixels, values)`` or its row in ``table``.
        running: dict[int, tuple[Search, tuple | _Row]] = {}

        def advance(k: int, search: Search, reply) -> None:
            nonlocal progress
            try:
                request = search.send(reply)
            except StopIteration as stop:
                running.pop(k, None)
                progress |= bool(stop.value)
                for m in later[k]:
                    waits[m] -= 1
                    if waits[m] == 0:
                        heapq.heappush(ready, m)
                return
            if isinstance(request, _Bisection):
                request = table.add(request)
            running[k] = (search, request)

        while ready or running:
            while ready:
                k = heapq.heappop(ready)
                pos, todo = active[k]
                advance(k, self._resolve_weight(state, pos, todo, deep), None)
            if not running:
                break
            order = sorted(running)
            step_values = table.step_values()
            pixels, values = [], []
            at = [0] * len(step_values)  # each table row's probe
            for p, k in enumerate(order):
                request = running[k][1]
                if isinstance(request, _Row):
                    pixels.append(request.pixels)
                    values.append(step_values[request.row, request.first:])
                    at[request.row] = p
                else:
                    pixels.append(request[0])
                    values.append(request[1])
            replies = self.channel.query_per_filter(pixels, values)
            if at:
                table.step(replies[at])
            for k, reply in zip(order, replies):
                search, request = running[k]
                if not isinstance(request, _Row):
                    advance(k, search, reply)
                else:
                    request.left -= 1
                    if request.left == 0:
                        advance(k, search, table.pop(request))
        return progress

    def _finish(self, state: _RecoveryState) -> WeightAttackResult:
        """Mark never-attempted weights masked and assemble the result."""
        status = state.status
        unknown = (status == WeightStatus.UNKNOWN) & self._shard_mask[
            :, None, None, None
        ]
        status[unknown] = WeightStatus.MASKED
        lo, hi = self.filter_range
        filters = [
            FilterRecovery(
                filter_index=f,
                bias_positive=bool(state.bias_pos[f]),
                ratios=state.ratios[f],
                status=status[f],
            )
            for f in range(lo, hi)
        ]
        return WeightAttackResult(
            target=self.target, filters=filters, queries=self.channel.queries
        )

    def _run_sharded(self) -> WeightAttackResult:
        """Fan the filter range out over worker processes and merge."""
        lo, hi = self.filter_range
        shards = [
            (lo + s_lo, lo + s_hi)
            for s_lo, s_hi in shard_ranges(hi - lo, resolve_workers(self.workers))
        ]
        context = _ShardContext(
            channel=self.channel,
            target=self.target,
            search_steps=self.search_steps,
        )
        shard_results = fork_map(
            _recover_shard, shards, len(shards),
            initializer=_shard_init, initargs=(context,),
        )
        filters: list[FilterRecovery] = []
        for result, ledger in shard_results:
            filters.extend(result.filters)
            self.channel.ledger.merge(ledger)
        filters.sort(key=lambda f: f.filter_index)
        return WeightAttackResult(
            target=self.target, filters=filters, queries=self.channel.queries
        )


@dataclass
class _ShardContext:
    """Worker payload: the parent session plus attack hyper-parameters.

    Under the fork start method the session (and the victim device it
    wraps) is inherited copy-on-write; each worker then *forks the
    session* so its count oracle is built locally and its queries land
    on a private ledger.
    """

    channel: DeviceSession
    target: AttackTarget
    search_steps: int


_SHARD_CONTEXT: _ShardContext | None = None


def _shard_init(context: _ShardContext) -> None:
    global _SHARD_CONTEXT
    _SHARD_CONTEXT = context


def _recover_shard(filter_range: tuple[int, int]):
    """Recover one contiguous filter shard on a forked session."""
    ctx = _SHARD_CONTEXT
    assert ctx is not None, "worker used before _shard_init"
    session = ctx.channel.fork()
    attack = WeightAttack(
        session,
        ctx.target,
        search_steps=ctx.search_steps,
        filter_range=filter_range,
    )
    return attack._run_shard_local(), session.ledger


class SteppedWeightAttack(Stepped):
    """Checkpointable step/resume runner for the weight attack.

    The filter axis is the attack's natural checkpoint granularity:
    plane ``f``'s reply in a per-filter batch depends only on run ``f``'s
    own input, so a contiguous ``filter_range`` recovers bit-identically
    to its slice of a full run (the same property the sharded parallel
    path rests on).  Each step recovers one filter chunk via
    ``WeightAttack(filter_range=...)`` and serialises the recovered
    ratios/status into the state dict; a killed attack resumes at the
    first missing chunk against a fresh session.  Counter noise is
    content-keyed (never call-order-keyed), so a resumed chunk measures
    exactly what the uninterrupted run would have.

    Args:
        channel: the metered device session (per-plane).
        target: structural knowledge of the attacked stage.
        search_steps: as :class:`WeightAttack`.
        filters_per_step: chunk width; the last chunk may be narrower.
    """

    def __init__(
        self,
        channel: DeviceSession,
        target: AttackTarget,
        search_steps: int = 64,
        filters_per_step: int = 8,
    ) -> None:
        if filters_per_step < 1:
            raise AttackError(
                f"filters_per_step must be >= 1, got {filters_per_step}"
            )
        self.channel = channel
        self.target = target
        self.search_steps = search_steps
        self.filters_per_step = filters_per_step

    def _chunks(self) -> list[tuple[int, int]]:
        d = self.target.d_ofm
        step = self.filters_per_step
        return [(lo, min(lo + step, d)) for lo in range(0, d, step)]

    def steps(self) -> list[str]:
        """The deterministic step plan: one entry per filter chunk."""
        return [f"filters:{lo}:{hi}" for lo, hi in self._chunks()]

    def run_step(self, name: str, state: dict | None = None) -> dict:
        """Recover one filter chunk; returns the updated state dict."""
        state = self._begin_step(name, state)
        _, lo, hi = name.split(":")
        attack = WeightAttack(
            self.channel,
            self.target,
            search_steps=self.search_steps,
            filter_range=(int(lo), int(hi)),
        )
        partial = attack._run_shard_local()
        filters = dict(state.get("filters", {}))
        for rec in partial.filters:
            filters[str(rec.filter_index)] = {
                "bias_positive": rec.bias_positive,
                "ratios": rec.ratios.tolist(),
                "status": rec.status.tolist(),
            }
        state["filters"] = filters
        return state

    def result(self, state: dict) -> WeightAttackResult:
        """Assemble the full-layer result from a completed state."""
        filters = state.get("filters", {})
        missing = [
            f for f in range(self.target.d_ofm) if str(f) not in filters
        ]
        if missing:
            raise AttackError(
                f"weight attack state incomplete: filters {missing} missing"
            )
        recoveries = [
            FilterRecovery(
                filter_index=f,
                bias_positive=bool(filters[str(f)]["bias_positive"]),
                ratios=np.array(filters[str(f)]["ratios"], dtype=float),
                status=np.array(filters[str(f)]["status"], dtype=object),
            )
            for f in range(self.target.d_ofm)
        ]
        return WeightAttackResult(
            target=self.target,
            filters=recoveries,
            queries=self.channel.queries,
        )
