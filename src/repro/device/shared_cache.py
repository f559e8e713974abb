"""Content-addressed, cross-session query cache (fleet-wide memoisation).

The in-session :class:`~repro.device.cache.QueryCache` deduplicates
probes within one attack run; a campaign runs thousands of attacks
against the same victims from many processes over many sessions.  This
module adds the fleet-wide layer: a sqlite-backed store keyed by a
*content address* — a SHA-256 over everything that determines the
device's reply — so identical probes against the same victim are never
re-run anywhere in the fleet.

Three reply classes are cached:

* **probe replies** — zero-pruning channel counts for one crafted input
  (the weight attack's unit of cost);
* **structure observations** — the full post-channel trace event stream
  of one metered inference, replayed span by span into the attacker's
  sink on a hit (bounded by ``max_trace_events`` so pathological traces
  don't bloat the store);
* **classify outputs** — labelling replies used by the clone distiller.

Keys are derived with :func:`content_key` from explicit byte strings —
never Python ``hash()`` (salted per process) and never pickled objects —
which is what makes them stable across sessions, processes and hosts.
The victim itself enters the key through :func:`device_fingerprint`:
a digest of the network's parameter tensors, stage decomposition and
accelerator configuration.  Channel noise parameters are folded in by
the session (see ``DeviceSession``), because a reply observed through a
different noise model is a different measurement.

Replies are stored post-noise: the content address covers the noise
parameters and the deterministic noise draw, so a replayed reply is bit
for bit what a live device run would have produced.
"""

from __future__ import annotations

import hashlib
import io
import os
import sqlite3
import time
from pathlib import Path

import numpy as np

__all__ = [
    "SharedQueryCache",
    "content_key",
    "device_fingerprint",
    "array_digest",
]

_SCHEMA = """
CREATE TABLE IF NOT EXISTS probes (
    key TEXT PRIMARY KEY,
    reply BLOB NOT NULL
);
CREATE TABLE IF NOT EXISTS observations (
    key TEXT PRIMARY KEY,
    payload BLOB NOT NULL
);
CREATE TABLE IF NOT EXISTS outputs (
    key TEXT PRIMARY KEY,
    payload BLOB NOT NULL
);
"""

# Switching a fresh database to WAL takes an exclusive lock that sqlite's
# busy timeout does not wait for, so processes racing to open a new
# cache file retry the switch this many times, 10 ms apart.
_WAL_ATTEMPTS = 500

# Spans replayed from a cached observation are re-chunked to this many
# events so a hit never materialises the whole trace at once.
_REPLAY_CHUNK = 1 << 18


def _part(data: bytes) -> bytes:
    """Length-prefix one key part (prevents concatenation ambiguity)."""
    return len(data).to_bytes(8, "little") + data


def content_key(*parts: bytes | str | int | float | None) -> str:
    """SHA-256 content address over a sequence of key parts.

    Accepts bytes verbatim; str/int/float/None are canonicalised via
    ``repr`` (deterministic in Python 3, including float shortest-repr),
    tagged by type so ``1`` and ``"1"`` and ``1.0`` never collide.
    """
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, bytes):
            h.update(_part(b"b" + part))
        else:
            tag = type(part).__name__.encode("ascii")
            h.update(_part(tag + b":" + repr(part).encode("utf-8")))
    return h.hexdigest()


def array_digest(arr: np.ndarray) -> str:
    """Content address of one array (shape + dtype + raw bytes)."""
    arr = np.ascontiguousarray(arr)
    return content_key(repr(arr.shape), arr.dtype.str, arr.tobytes())


def device_fingerprint(device) -> str:
    """Content address of a victim device.

    Covers everything that determines what the device leaks: the
    network's input geometry, the stage decomposition (names, kinds,
    wiring), every parameter tensor's raw bytes, and the accelerator
    configuration (memory layout, timing, pruning, dataflow — all
    frozen dataclasses with deterministic ``repr``).  Two devices with
    the same fingerprint are indistinguishable through the session API,
    so their cached replies are interchangeable.
    """
    h = hashlib.sha256()
    staged = device.staged
    h.update(_part(repr(tuple(staged.network.input_shape)).encode()))
    for stage in staged.stages:
        h.update(
            _part(
                repr(
                    (stage.name, stage.kind, stage.node_names, stage.input_stages)
                ).encode()
            )
        )
    for param in staged.network.parameters():
        value = np.ascontiguousarray(param.value)
        h.update(_part(param.name.encode()))
        h.update(_part(repr(value.shape).encode() + value.dtype.str.encode()))
        h.update(_part(value.tobytes()))
    h.update(_part(repr(device.config).encode()))
    return h.hexdigest()


def _pack_arrays(**arrays: np.ndarray) -> bytes:
    buf = io.BytesIO()
    np.savez_compressed(buf, **arrays)
    return buf.getvalue()


def _unpack_arrays(blob: bytes) -> dict[str, np.ndarray]:
    with np.load(io.BytesIO(blob)) as npz:
        return {name: npz[name] for name in npz.files}


class SharedQueryCache:
    """Cross-session content-addressed cache, one sqlite file per fleet.

    Safe for concurrent use from multiple processes: WAL journaling,
    ``INSERT OR IGNORE`` writes (first writer wins — all writers would
    store identical bytes anyway, that is the point of content
    addressing), and a connection that is lazily re-opened after a
    ``fork`` so pool workers never share a sqlite handle.

    Args:
        path: sqlite database file (created on first use).
        max_trace_events: observations longer than this are not stored
            (lookups still work); bounds per-entry blob size.
    """

    def __init__(
        self, path: str | Path, *, max_trace_events: int = 2_000_000
    ) -> None:
        self.path = Path(path)
        self.max_trace_events = int(max_trace_events)
        self._conn: sqlite3.Connection | None = None
        self._pid: int | None = None

    # -- connection management --------------------------------------------
    def _connection(self) -> sqlite3.Connection:
        pid = os.getpid()
        if self._conn is None or self._pid != pid:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            conn = sqlite3.connect(self.path, timeout=60.0)
            for attempt in range(1, _WAL_ATTEMPTS + 1):
                try:
                    conn.execute("PRAGMA journal_mode=WAL")
                    break
                except sqlite3.OperationalError as exc:
                    if "locked" not in str(exc) or attempt == _WAL_ATTEMPTS:
                        raise
                    time.sleep(0.01)
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.executescript(_SCHEMA)
            conn.commit()
            self._conn = conn
            self._pid = pid
        return self._conn

    def close(self) -> None:
        if self._conn is not None and self._pid == os.getpid():
            self._conn.close()
        self._conn = None
        self._pid = None

    def __getstate__(self) -> dict:
        # Connections never cross process boundaries; workers reconnect.
        return {
            "path": self.path,
            "max_trace_events": self.max_trace_events,
        }

    def __setstate__(self, state: dict) -> None:
        self.path = state["path"]
        self.max_trace_events = state["max_trace_events"]
        self._conn = None
        self._pid = None

    # -- probe replies -----------------------------------------------------
    def get_reply(self, key: str) -> np.ndarray | None:
        row = (
            self._connection()
            .execute("SELECT reply FROM probes WHERE key = ?", (key,))
            .fetchone()
        )
        if row is None:
            return None
        reply = np.frombuffer(row[0], dtype=np.int64).copy()
        reply.setflags(write=False)
        return reply

    def put_reply(self, key: str, reply: np.ndarray) -> None:
        blob = np.ascontiguousarray(reply, dtype=np.int64).tobytes()
        conn = self._connection()
        conn.execute(
            "INSERT OR IGNORE INTO probes (key, reply) VALUES (?, ?)",
            (key, blob),
        )
        conn.commit()

    # -- structure observations -------------------------------------------
    def get_observation(self, key: str) -> dict | None:
        row = (
            self._connection()
            .execute("SELECT payload FROM observations WHERE key = ?", (key,))
            .fetchone()
        )
        if row is None:
            return None
        arrays = _unpack_arrays(row[0])
        return {
            "cycles": arrays["cycles"],
            "addresses": arrays["addresses"],
            "is_write": arrays["is_write"].astype(bool),
            "num_classes": int(arrays["meta"][0]),
            "total_cycles": int(arrays["meta"][1]),
        }

    def put_observation(
        self,
        key: str,
        cycles: np.ndarray,
        addresses: np.ndarray,
        is_write: np.ndarray,
        num_classes: int,
        total_cycles: int,
    ) -> bool:
        """Store one post-channel observation; False if over the size cap."""
        if len(cycles) > self.max_trace_events:
            return False
        blob = _pack_arrays(
            cycles=np.ascontiguousarray(cycles, dtype=np.int64),
            addresses=np.ascontiguousarray(addresses, dtype=np.int64),
            is_write=np.ascontiguousarray(is_write, dtype=bool),
            meta=np.array([num_classes, total_cycles], dtype=np.int64),
        )
        conn = self._connection()
        conn.execute(
            "INSERT OR IGNORE INTO observations (key, payload) VALUES (?, ?)",
            (key, blob),
        )
        conn.commit()
        return True

    # -- classify outputs --------------------------------------------------
    def get_output(self, key: str) -> np.ndarray | None:
        row = (
            self._connection()
            .execute("SELECT payload FROM outputs WHERE key = ?", (key,))
            .fetchone()
        )
        if row is None:
            return None
        return _unpack_arrays(row[0])["output"]

    def put_output(self, key: str, output: np.ndarray) -> None:
        conn = self._connection()
        conn.execute(
            "INSERT OR IGNORE INTO outputs (key, payload) VALUES (?, ?)",
            (key, _pack_arrays(output=np.ascontiguousarray(output))),
        )
        conn.commit()

    # -- reporting ---------------------------------------------------------
    def stats(self) -> dict:
        conn = self._connection()
        counts = {
            table: conn.execute(f"SELECT COUNT(*) FROM {table}").fetchone()[0]
            for table in ("probes", "observations", "outputs")
        }
        counts["db_bytes"] = (
            self.path.stat().st_size if self.path.exists() else 0
        )
        return counts
