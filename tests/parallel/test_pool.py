"""Unit tests for the per-call fork map and its sharding helpers."""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro.errors import ConfigError
from repro.parallel import (
    available_cpus,
    fork_map,
    resolve_workers,
    shard_ranges,
)

import tests.parallel.test_pool as _self


def test_resolve_workers_serial_values():
    assert resolve_workers(None) == 1
    assert resolve_workers(0) == 1
    assert resolve_workers(1) == 1


def test_resolve_workers_explicit_and_all_cores():
    assert resolve_workers(3) == 3
    # "All cores" respects the scheduler affinity mask, not the raw
    # cpu_count: a container pinned to 2 of 64 cores gets 2.
    assert resolve_workers(-1) == available_cpus()
    assert available_cpus() <= (os.cpu_count() or 1)


@pytest.mark.parametrize("n_items,n_shards", [
    (0, 3), (1, 1), (5, 2), (7, 3), (3, 8), (10, 10),
])
def test_shard_ranges_partition(n_items, n_shards):
    ranges = shard_ranges(n_items, n_shards)
    # Non-empty, contiguous, covering [0, n_items) exactly once.
    assert len(ranges) == min(n_items, n_shards)
    covered = [i for lo, hi in ranges for i in range(lo, hi)]
    assert covered == list(range(n_items))
    sizes = [hi - lo for lo, hi in ranges]
    assert all(s >= 1 for s in sizes)
    assert max(sizes, default=1) - min(sizes, default=1) <= 1
    # Deterministic: larger shards first.
    assert sizes == sorted(sizes, reverse=True)


def test_shard_errors():
    with pytest.raises(ConfigError):
        shard_ranges(-1, 2)
    with pytest.raises(ConfigError):
        shard_ranges(4, 0)


# Worker state must live in a module global so fork/spawn workers and the
# serial inline path all reach it the same way.
_OFFSET = 0


def _init_offset(offset: int) -> None:
    global _OFFSET
    _self._OFFSET = offset


def _add_offset(x: int) -> int:
    return x + _self._OFFSET


def _worker_pid(_item) -> int:
    return os.getpid()


@pytest.mark.parametrize("workers", [1, 3])
def test_pool_map_order_and_initializer(workers):
    out = fork_map(
        _add_offset, range(7), workers,
        initializer=_init_offset, initargs=(100,),
    )
    assert out == [100 + i for i in range(7)]


def test_serial_pool_runs_inline():
    assert fork_map(_worker_pid, range(3), None) == [os.getpid()] * 3
    assert fork_map(abs, [-2, 3], 1) == [2, 3]
    # One item never forks, whatever the worker count.
    assert fork_map(_worker_pid, [0], 4) == [os.getpid()]


def test_fork_map_closes_its_pool():
    pids = fork_map(_worker_pid, range(6), 2)
    assert os.getpid() not in pids
    assert len(set(pids)) <= 2
    # The pool lives for one call only: no worker outlives it.
    assert multiprocessing.active_children() == []
