"""Leak guard: abnormal exits must not strand spool files.

SIGKILL takes no finally blocks: a process killed mid-attack leaves its
spool directory behind.  The directory carries the owner's pid in its
name, so the reclaim sweeper can attribute and remove exactly the dead
owners' leavings — which the campaign coordinator runs before every
campaign run.  The kill path here is a real subprocess killed with
SIGKILL while its spool is live.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
from pathlib import Path

from repro.accel import SpoolSink, reclaim_spool_dirs

_CHILD = r"""
import json, os, signal, sys
import numpy as np
from repro.accel import SpoolSink
from repro.accel.trace import TraceSpan

sink = SpoolSink(budget_bytes=64)
span = TraceSpan(
    np.arange(16, dtype=np.int64),
    np.arange(16, dtype=np.int64),
    np.zeros(16, dtype=bool),
)
sink.emit(span)  # past the 64-byte budget: spills a chunk file
print(json.dumps({"spool": str(sink._dir)}))
sys.stdout.flush()
os.kill(os.getpid(), signal.SIGKILL)  # no cleanup runs
"""


def _spawn_and_kill() -> dict:
    proc = subprocess.run(
        [sys.executable, "-c", _CHILD], capture_output=True, text=True
    )
    assert proc.returncode == -signal.SIGKILL, proc.stderr
    import json

    return json.loads(proc.stdout)


def test_sigkill_leavings_are_reclaimed_and_live_resources_spared():
    leaked = _spawn_and_kill()
    spool_path = Path(leaked["spool"])
    assert spool_path.is_dir(), "the kill must actually leak the spool dir"
    assert list(spool_path.glob("chunk_*.npz")), "spool chunk expected"

    # This process's own live spool must survive the sweep.
    live_sink = SpoolSink()
    try:
        assert str(spool_path) in reclaim_spool_dirs()
        assert not spool_path.exists()
        assert live_sink._dir.is_dir()
    finally:
        live_sink.cleanup()


def test_reclaim_is_idempotent_and_ignores_foreign_names(tmp_path):
    leaked = _spawn_and_kill()
    reclaim_spool_dirs()
    # Second sweep: nothing of ours left to remove.
    assert all(
        leaked["spool"] != path for path in reclaim_spool_dirs()
    )
    # Non-numeric "pid" fields are never touched.
    foreign = tmp_path / "repro-spool-notapid-x"
    foreign.mkdir()
    assert reclaim_spool_dirs(str(tmp_path)) == []
    assert foreign.is_dir()


def test_spool_dir_name_carries_owner_pid():
    sink = SpoolSink()
    try:
        assert f"repro-spool-{os.getpid()}-" in str(sink._dir)
    finally:
        sink.cleanup()
