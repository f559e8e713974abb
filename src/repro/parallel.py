"""Parallel attack execution: a per-call fork map with deterministic shards.

Two loops of the paper's pipeline shard across worker processes with a
measured end-to-end gain: short-training candidate structures
(Figures 4/5, :func:`~repro.attacks.structure.ranking.rank_candidates`)
and Algorithm 2's per-filter binary search (Section 4,
:class:`~repro.attacks.weights.WeightAttack`).  Each makes exactly one
:func:`fork_map` call per attack, so a pool is forked for that call and
closed after it; nothing stays warm between calls.

The determinism contract: work items are self-contained (per-item seeds
are derived from ``(seed, index)``, never from shared RNG state), shards
are contiguous index ranges, and results come back in input order — so
every attack result is bit-identical at any worker count, and the
serial path is a plain inline loop.  Parallelism changes wall-clock
only, never observations; see DESIGN.md sections 8 and 11.
"""

from __future__ import annotations

import multiprocessing
import os
from typing import Any, Callable, Iterable, Sequence

from repro.errors import ConfigError

__all__ = ["available_cpus", "fork_map", "resolve_workers", "shard_ranges"]


def available_cpus() -> int:
    """CPUs this process may actually run on.

    ``os.sched_getaffinity`` respects container / cgroup CPU masks, so
    on a CI runner pinned to two cores this returns 2 even when the
    host machine advertises 64 via ``os.cpu_count()`` — using it keeps
    "all cores" from over-subscribing containerised environments.
    """
    try:
        return len(os.sched_getaffinity(0)) or 1
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def resolve_workers(workers: int | None) -> int:
    """Normalise a user-facing ``workers`` value to an actual count.

    ``None``, ``0`` and ``1`` mean serial execution.  A negative value
    means "all available cores" — capped at the scheduler affinity mask
    (:func:`available_cpus`), not the raw ``os.cpu_count()``.  An
    explicit positive count is used as given (tests rely on forcing
    real pools on small hosts).
    """
    if workers is None or workers == 0:
        return 1
    if workers < 0:
        return available_cpus()
    return int(workers)


def shard_ranges(n_items: int, n_shards: int) -> list[tuple[int, int]]:
    """Split ``range(n_items)`` into contiguous, balanced ``[lo, hi)`` shards.

    Deterministic: shard sizes differ by at most one, larger shards
    first.  Empty shards are dropped, so the result has
    ``min(n_items, n_shards)`` entries.
    """
    if n_items < 0:
        raise ConfigError(f"cannot shard a negative item count: {n_items}")
    if n_shards < 1:
        raise ConfigError(f"need at least one shard, got {n_shards}")
    base, extra = divmod(n_items, n_shards)
    ranges: list[tuple[int, int]] = []
    lo = 0
    for k in range(n_shards):
        hi = lo + base + (1 if k < extra else 0)
        if hi > lo:
            ranges.append((lo, hi))
        lo = hi
    return ranges


def fork_map(
    fn: Callable[[Any], Any],
    items: Iterable[Any],
    workers: int | None,
    initializer: Callable[..., None] | None = None,
    initargs: Sequence[Any] = (),
) -> list[Any]:
    """Apply ``fn`` to every item, returning results in input order.

    With one worker (see :func:`resolve_workers`) or at most one item
    this is an inline loop after an inline ``initializer(*initargs)``.
    Otherwise a pool of ``min(workers, len(items))`` processes is
    started for this call, each running ``initializer`` once — under
    the ``fork`` start method its arguments (victim devices, datasets)
    are inherited copy-on-write rather than pickled — and terminated
    before returning.  ``fn`` must read its context from what the
    initializer set, the same way on both paths.
    """
    items = list(items)
    n = min(resolve_workers(workers), len(items))
    if n <= 1:
        if initializer is not None:
            initializer(*initargs)
        return [fn(item) for item in items]
    methods = multiprocessing.get_all_start_methods()
    ctx = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
    pool = ctx.Pool(processes=n, initializer=initializer, initargs=initargs)
    try:
        # chunksize=1: items are few and coarse, so the longest one
        # dominates and eager distribution beats chunking.
        return pool.map(fn, items, chunksize=1)
    finally:
        # terminate() rather than close(): workers hold nothing worth
        # flushing, and a failed map must not hang.
        pool.terminate()
        pool.join()
