"""Shared kernels of the attack-side vectorised decode engine.

PR 6 pushed victim-side trace *synthesis* to hundreds of millions of
events per second, which left the attack-side *decoders* — boundary
trackers, the streaming analyzer, the dataflow identifier — as the
pipeline bottleneck: their inner loops resolved read-after-write edges
one event at a time through Python dict lookups and ``.tolist()``
scans.  This module holds the chunk-at-a-time numpy kernels those
decoders now share:

* :func:`sorted_unique` / :func:`sorted_unique_counts` — sort-based
  deduplication.  ``np.unique`` on large int64 address arrays takes a
  hash path that is ~50× slower than an explicit sort + diff mask on
  this workload; the decoders never call hash-unique on a hot path.
* :func:`previous_write_index` and :class:`LastWriterIndex` — the RAW
  edge kernels of the RAW boundary tracker.  Within a chunk, RAW edges
  are resolved by :func:`previous_write_index`; across chunks, the
  index answers "when was this address last written?" for a whole
  address vector at once.

Every decoder built on them is asserted bit-identical to the
per-event oracles in :mod:`repro.reference`, for every model ×
dataflow × chunking, clean and noisy.

The last-writer index is a dense/dict hybrid: accelerator traces live
on a block-aligned grid spanning a compact range (an alexnet trace
touches ~2M distinct blocks across a ~2M-block span), so the map is a
flat int64 array indexed by ``(address - base) // stride`` — lookups
and updates are single gather/scatter operations, and scatter's
last-value-wins semantics implements "latest write" with no sort at
all.  If the observed addresses ever stop fitting a compact grid
(adversarial or fuzzed streams), the index migrates its contents to a
plain dict and degrades to a per-address lookup loop — slower, never
wrong.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import ConfigError

__all__ = [
    "sorted_unique",
    "sorted_unique_counts",
    "previous_write_index",
    "LastWriterIndex",
]

def sorted_unique(a: np.ndarray) -> np.ndarray:
    """Sorted distinct values of ``a`` — ``np.unique`` minus the hash path.

    On multi-million-element int64 address arrays numpy's hash-based
    unique is dramatically slower than an explicit sort; the decode
    engine's uniqueness needs are all served by this kernel.
    """
    a = np.asarray(a)
    if len(a) <= 1:
        return a.astype(a.dtype, copy=True)
    s = np.sort(a)
    keep = np.empty(len(s), dtype=bool)
    keep[0] = True
    np.not_equal(s[1:], s[:-1], out=keep[1:])
    return s[keep]


def sorted_unique_counts(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(unique_values, counts)`` via one sort — no hashing."""
    a = np.asarray(a)
    if len(a) == 0:
        return a.astype(a.dtype, copy=True), np.empty(0, dtype=np.int64)
    s = np.sort(a)
    keep = np.empty(len(s), dtype=bool)
    keep[0] = True
    np.not_equal(s[1:], s[:-1], out=keep[1:])
    first = np.flatnonzero(keep)
    counts = np.diff(np.append(first, len(s)))
    return s[first], counts


def previous_write_index(addresses: np.ndarray, is_write: np.ndarray) -> np.ndarray:
    """For each event, the index of the latest earlier write to the same
    address (-1 if none).  Vectorised via per-address running maxima."""
    n = len(addresses)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    idx = np.arange(n, dtype=np.int64)
    order = np.lexsort((idx, addresses))
    addr_s = addresses[order]
    write_idx_s = np.where(is_write[order], idx[order], -1)
    group_start = np.empty(n, dtype=bool)
    group_start[0] = True
    group_start[1:] = addr_s[1:] != addr_s[:-1]
    group_id = np.cumsum(group_start) - 1
    # Running max within groups via per-group offsets (values < n + 2).
    big = np.int64(n + 2)
    lifted = write_idx_s + group_id * big
    cummax = np.maximum.accumulate(lifted)
    prev_excl = np.empty(n, dtype=np.int64)
    prev_excl[0] = -1
    prev_excl[1:] = cummax[:-1] - group_id[1:] * big
    prev_excl[group_start] = -1
    prev_excl = np.where(prev_excl >= 0, prev_excl, -1)
    out = np.empty(n, dtype=np.int64)
    out[order] = prev_excl
    return out


class LastWriterIndex:
    """Vectorised address → (last write index, cycle) map.

    The streaming RAW tracker needs, per chunk, the global event index
    and the delivered cycle of the most recent *earlier-chunk* write
    to each address.  This index answers
    those queries for whole address vectors.

    Representation is chosen from the data:

    * **dense** (the fast path): addresses observed so far fit a grid
      ``base + k * stride`` with at most ``max_slots`` slots, and the
      map is a flat array per payload.  ``lookup`` is one bounds check
      plus a gather; ``update`` is one scatter (numpy fancy-index
      assignment keeps the *last* value per duplicate slot, which is
      exactly last-writer-wins for an in-order chunk).
    * **dict** (the fallback): grid span or alignment degenerates —
      scattered or adversarial address streams — and the dense array
      would not fit ``max_slots``.  Contents migrate to a Python dict
      with identical lookup results.

    The cycle stamp feeds the robust tracker's producer-refractory
    filter.

    Args:
        max_slots: dense-grid budget; beyond this many slots the index
            falls back to the dict representation.  The default admits
            a ~1 GiB device address span at 64-byte blocks.
    """

    __slots__ = (
        "_max_slots",
        "_base",
        "_stride",
        "_idx",
        "_cyc",
        "_hi_slot",
        "_dict",
    )

    def __init__(self, max_slots: int = 1 << 24):
        if max_slots < 1:
            raise ConfigError(f"max_slots must be >= 1, got {max_slots}")
        self._max_slots = max_slots
        self._base = 0
        self._stride = 0  # 0 = no grid established yet
        self._idx: np.ndarray | None = None
        self._cyc: np.ndarray | None = None
        self._hi_slot = -1
        self._dict: dict[int, tuple[int, int]] | None = None

    # -- queries -----------------------------------------------------------
    def lookup(self, addresses: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """``(indices, cycles)`` of the last write to each address, both
        -1 where the address was never written."""
        addresses = np.asarray(addresses, dtype=np.int64)
        n = len(addresses)
        out = np.full(n, -1, dtype=np.int64)
        cyc = np.full(n, -1, dtype=np.int64)
        if self._dict is not None and n:
            pairs = np.array(
                [self._dict.get(int(a), (-1, -1)) for a in addresses],
                dtype=np.int64,
            ).reshape(n, 2)
            out[:] = pairs[:, 0]
            cyc[:] = pairs[:, 1]
        elif self._idx is not None and n:
            off = addresses - self._base
            valid = (off >= 0) & (off < len(self._idx) * self._stride)
            if self._stride > 1:
                valid &= off % self._stride == 0
            slots = off[valid] // self._stride
            out[valid] = self._idx[slots]
            cyc[valid] = self._cyc[slots]  # type: ignore[index]
        return out, cyc

    # -- updates -----------------------------------------------------------
    def update(
        self,
        addresses: np.ndarray,
        indices: np.ndarray,
        cycles: np.ndarray,
    ) -> None:
        """Record writes, in stream order (later entries win per address)."""
        addresses = np.asarray(addresses, dtype=np.int64)
        if len(addresses) == 0:
            return
        indices = np.asarray(indices, dtype=np.int64)
        cycles = np.asarray(cycles, dtype=np.int64)
        if self._dict is not None:
            self._update_dict(addresses, indices, cycles)
            return
        amin = int(addresses.min())
        amax = int(addresses.max())
        if self._idx is None:
            self._build(addresses, amin, amax)
            if self._dict is not None:
                self._update_dict(addresses, indices, cycles)
                return
        else:
            off = addresses - self._base
            misaligned = self._stride > 1 and bool((off % self._stride).any())
            out_of_range = amin < self._base or (
                amax - self._base
            ) // self._stride >= len(self._idx)
            if misaligned or amin < self._base:
                self._rebuild(addresses, amin, amax)
            elif out_of_range:
                self._grow(amax)
            if self._dict is not None:
                self._update_dict(addresses, indices, cycles)
                return
        slots = (addresses - self._base) // self._stride
        self._idx[slots] = indices
        self._cyc[slots] = cycles  # type: ignore[index]
        hi = int(slots.max())
        if hi > self._hi_slot:
            self._hi_slot = hi

    # -- representation management ----------------------------------------
    def _update_dict(self, addresses, indices, cycles) -> None:
        d = self._dict
        for a, g, cy in zip(
            addresses.tolist(), indices.tolist(), cycles.tolist()
        ):
            d[a] = (g, cy)

    def _grid_of(self, addresses: np.ndarray, base: int) -> int:
        off = addresses - base
        stride = int(np.gcd.reduce(off)) if len(off) else 0
        return max(1, stride)

    def _alloc(self, slots_needed: int) -> np.ndarray | None:
        """A fresh slot array with geometric headroom, or None if over
        budget (caller must fall back to the dict)."""
        if slots_needed > self._max_slots:
            return None
        cap = min(self._max_slots, max(1024, 2 * slots_needed))
        return np.full(cap, -1, dtype=np.int64)

    def _build(self, addresses: np.ndarray, amin: int, amax: int) -> None:
        stride = self._grid_of(addresses, amin)
        idx = self._alloc((amax - amin) // stride + 1)
        if idx is None:
            self._to_dict()
            return
        self._base, self._stride, self._idx = amin, stride, idx
        self._cyc = np.full(len(idx), -1, dtype=np.int64)
        self._hi_slot = -1

    def _grow(self, amax: int) -> None:
        idx = self._alloc((amax - self._base) // self._stride + 1)
        if idx is None:
            self._to_dict()
            return
        idx[: len(self._idx)] = self._idx
        self._idx = idx
        cyc = np.full(len(idx), -1, dtype=np.int64)
        cyc[: len(self._cyc)] = self._cyc
        self._cyc = cyc

    def _rebuild(self, addresses: np.ndarray, amin: int, amax: int) -> None:
        """Re-grid: a finer stride and/or lower base now covers both the
        existing entries and the incoming chunk."""
        occupied = np.flatnonzero(self._idx[: self._hi_slot + 1] >= 0)
        old_addrs = self._base + occupied * self._stride
        new_base = min(self._base, amin)
        new_stride = math.gcd(
            self._grid_of(addresses, new_base),
            self._stride,
            self._base - new_base,
        )
        new_stride = max(1, new_stride)
        top = max(amax, int(old_addrs[-1]) if len(old_addrs) else amin)
        idx = self._alloc((top - new_base) // new_stride + 1)
        if idx is None:
            self._to_dict()
            return
        old_idx = self._idx[occupied]
        old_cyc = self._cyc[occupied]
        self._base, self._stride, self._idx = new_base, new_stride, idx
        self._cyc = np.full(len(idx), -1, dtype=np.int64)
        slots = (old_addrs - new_base) // new_stride
        self._idx[slots] = old_idx
        self._cyc[slots] = old_cyc
        self._hi_slot = int(slots.max()) if len(slots) else -1

    def _to_dict(self) -> None:
        """Migrate dense contents to the dict fallback representation."""
        d: dict = {}
        if self._idx is not None:
            occupied = np.flatnonzero(self._idx[: self._hi_slot + 1] >= 0)
            addrs = self._base + occupied * self._stride
            for a, g, cy in zip(
                addrs.tolist(),
                self._idx[occupied].tolist(),
                self._cyc[occupied].tolist(),
            ):
                d[a] = (g, cy)
        self._dict = d
        self._idx = None
        self._cyc = None
        self._hi_slot = -1
