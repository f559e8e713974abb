"""SharedQueryCache under concurrent first opens of one cache file."""

from __future__ import annotations

import multiprocessing as mp

import numpy as np

from repro.device import SharedQueryCache

WORKERS = 4
TRIALS = 100


def _open_and_put(path, barrier, index: int) -> None:
    # Exit status reports the outcome: 0 stored, 1 sqlite refused.
    import sqlite3

    barrier.wait(timeout=30)
    try:
        SharedQueryCache(path).put_reply(f"k{index}", np.arange(3))
    except sqlite3.OperationalError:
        raise SystemExit(1)


def test_concurrent_first_open_never_fails(tmp_path):
    """Fresh cache, several processes opening it at once: no errors.

    Switching a new database to WAL needs an exclusive lock that
    sqlite's busy timeout does not wait for, so racing first opens
    used to fail with ``database is locked``.
    """
    ctx = mp.get_context("fork")
    failures = 0
    for trial in range(TRIALS):
        path = tmp_path / f"cache{trial}.sqlite"
        barrier = ctx.Barrier(WORKERS)
        procs = [
            ctx.Process(target=_open_and_put, args=(path, barrier, i))
            for i in range(WORKERS)
        ]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=60)
            assert not p.is_alive()
        failures += sum(p.exitcode != 0 for p in procs)
        if not failures:
            assert SharedQueryCache(path).stats()["probes"] == WORKERS
    assert failures == 0, f"{failures} of {TRIALS * WORKERS} opens failed"
