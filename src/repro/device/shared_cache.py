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

Observations and outputs are stored as narrow raw columns (see
:func:`_pack_columns`): no compression, so a write is one ``diff`` and
a few ``astype`` calls and a read is ``np.frombuffer`` plus one
``cumsum``.  A blob this module cannot decode — another format tag, a
wrong length, a legacy npz archive — reads as a cache miss.
"""

from __future__ import annotations

import hashlib
import os
import sqlite3
import struct
import time
from collections.abc import Callable
from pathlib import Path

import numpy as np

from repro.errors import ConfigError

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

# Column blob layout (little-endian): a 4-byte format tag, three int64
# header fields, one dtype code byte per column, then each column's raw
# bytes back to back.  Codes index _DTYPES; _BITS is a bit-packed bool
# column.  The tag changes with the layout, so an older or newer blob
# reads as a miss instead of being misread.
_TAG = b"RQC1"
_HEAD = struct.Struct("<4s3q")
_DTYPES = tuple(
    np.dtype("<" + t)
    for t in ("u1", "i1", "u2", "i2", "u4", "i4", "i8", "f4", "f8")
)
_INTS = _DTYPES[:7]
_BITS = len(_DTYPES)


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
        # _part(value.tobytes()) without copying the tensor.
        h.update(value.nbytes.to_bytes(8, "little"))
        h.update(memoryview(value.reshape(-1)).cast("B"))
    h.update(_part(repr(device.config).encode()))
    return h.hexdigest()


def _narrow(values: np.ndarray) -> np.ndarray:
    """Integer ``values`` in the narrowest dtype that holds their range."""
    lo, hi = int(values.min(initial=0)), int(values.max(initial=0))
    for dtype in _INTS[:-1]:
        info = np.iinfo(dtype)
        if info.min <= lo and hi <= info.max:
            return values.astype(dtype)
    return values.astype(_INTS[-1], copy=False)


def _pack_columns(fields: tuple[int, int, int], *columns: np.ndarray) -> bytes:
    """One blob: header fields plus raw columns (bool ones bit-packed)."""
    codes = bytearray()
    data = []
    for column in columns:
        column = np.ascontiguousarray(column, column.dtype.newbyteorder("<"))
        if column.dtype == bool:
            codes.append(_BITS)
            data.append(np.packbits(column).tobytes())
        else:
            codes.append(_DTYPES.index(column.dtype))
            data.append(column.tobytes())
    return _HEAD.pack(_TAG, *fields) + bytes(codes) + b"".join(data)


def _unpack_columns(
    blob: bytes, lengths: Callable[[int, int, int], tuple[int, ...]]
) -> tuple[tuple[int, int, int], list[np.ndarray]] | None:
    """Inverse of :func:`_pack_columns`; ``None`` for any blob it did
    not write.  ``lengths(*fields)`` gives each column's element count.
    Columns are read-only views into ``blob`` (bool ones unpacked)."""
    if len(blob) < _HEAD.size or blob[:4] != _TAG:
        return None
    _, *fields = _HEAD.unpack_from(blob)
    counts = lengths(*fields)
    offset = _HEAD.size + len(counts)
    codes = blob[_HEAD.size:offset]
    columns = []
    for code, count in zip(codes, counts):
        if code > _BITS or count < 0:
            return None
        dtype = np.dtype(np.uint8) if code == _BITS else _DTYPES[code]
        size = -(-count // 8) if code == _BITS else count * dtype.itemsize
        if offset + size > len(blob):
            return None
        column = np.frombuffer(blob, dtype, size // dtype.itemsize, offset)
        if code == _BITS:
            column = np.unpackbits(column, count=count).astype(bool)
        columns.append(column)
        offset += size
    if offset != len(blob):
        return None
    return tuple(fields), columns


class SharedQueryCache:
    """Cross-session content-addressed cache, one sqlite file per fleet.

    Safe for concurrent use from multiple processes: WAL journaling,
    idempotent writes (all writers of one key store identical bytes,
    that is the point of content addressing), and a connection that is
    lazily re-opened after a ``fork`` so pool workers never share a
    sqlite handle.  Writes replace the row: they only follow a miss,
    and that miss may have been a row this module could not read (a
    probe reply of the wrong length, a blob :func:`_unpack_columns`
    rejected).

    Args:
        path: sqlite database file (created on first use).  An
            existing file that is not a sqlite database raises
            :class:`ConfigError` here.
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
        if self.path.exists():
            # A file that is not a database fails here, not mid-attack;
            # the working connection is opened on first use, so a fork
            # before then never inherits a sqlite handle.
            self._connection()
            self.close()

    # -- connection management --------------------------------------------
    def _connection(self) -> sqlite3.Connection:
        pid = os.getpid()
        if self._conn is None or self._pid != pid:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            conn = sqlite3.connect(self.path, timeout=60.0)
            try:
                self._set_up(conn)
            except sqlite3.OperationalError:
                conn.close()
                raise
            except sqlite3.DatabaseError as exc:
                conn.close()
                raise ConfigError(
                    f"corrupt query cache {self.path} ({exc}); it holds "
                    "only replies a device run can reproduce, so it is "
                    f"safe to delete: delete {self.path} and run again"
                ) from exc
            self._conn = conn
            self._pid = pid
        return self._conn

    @staticmethod
    def _set_up(conn: sqlite3.Connection) -> None:
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

    def _select(self, sql: str, key: str) -> bytes | None:
        row = self._connection().execute(sql, (key,)).fetchone()
        return None if row is None else row[0]

    def _insert(self, sql: str, key: str, blob: bytes) -> None:
        conn = self._connection()
        conn.execute(sql, (key, blob))
        conn.commit()

    # -- probe replies -----------------------------------------------------
    def get_reply(self, key: str, length: int) -> np.ndarray | None:
        """The stored reply of ``length`` counts; a row of any other
        size is a miss (the live run then rewrites it)."""
        blob = self._select("SELECT reply FROM probes WHERE key = ?", key)
        if blob is None or len(blob) != length * 8:
            return None
        reply = np.frombuffer(blob, dtype=np.int64).copy()
        reply.setflags(write=False)
        return reply

    def put_reply(self, key: str, reply: np.ndarray) -> None:
        self._insert(
            "INSERT OR REPLACE INTO probes (key, reply) VALUES (?, ?)",
            key,
            np.ascontiguousarray(reply, dtype=np.int64).tobytes(),
        )

    # -- structure observations -------------------------------------------
    def get_observation(self, key: str) -> dict | None:
        blob = self._select(
            "SELECT payload FROM observations WHERE key = ?", key
        )
        unpacked = None if blob is None else _unpack_columns(
            blob, lambda events, *_: (events, events, events)
        )
        if unpacked is None:
            return None
        (_, num_classes, total_cycles), (deltas, addresses, is_write) = unpacked
        return {
            "cycles": np.cumsum(deltas, dtype=np.int64),
            "addresses": addresses.astype(np.int64),
            "is_write": is_write,
            "num_classes": num_classes,
            "total_cycles": total_cycles,
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
        """Store one post-channel observation; False if over the size cap.

        ``cycles`` is delta-encoded (int64 wrap-around keeps any input
        exact) and every integer column is narrowed; ``is_write`` is
        bit-packed.
        """
        if len(cycles) > self.max_trace_events:
            return False
        cycles = np.asarray(cycles, dtype=np.int64)
        self._insert(
            "INSERT OR REPLACE INTO observations (key, payload) VALUES (?, ?)",
            key,
            _pack_columns(
                (len(cycles), int(num_classes), int(total_cycles)),
                _narrow(np.diff(cycles, prepend=np.int64(0))),
                _narrow(np.asarray(addresses, dtype=np.int64)),
                np.asarray(is_write, dtype=bool),
            ),
        )
        return True

    # -- classify outputs --------------------------------------------------
    def get_output(self, key: str) -> np.ndarray | None:
        blob = self._select("SELECT payload FROM outputs WHERE key = ?", key)
        unpacked = None if blob is None else _unpack_columns(
            blob, lambda ndim, size, _: (ndim, size)
        )
        if unpacked is None:
            return None
        (_, size, _), (shape, values) = unpacked
        if (shape < 0).any() or int(np.prod(shape)) != size:
            return None
        return values.reshape(tuple(int(n) for n in shape)).copy()

    def put_output(self, key: str, output: np.ndarray) -> None:
        output = np.asarray(output)
        self._insert(
            "INSERT OR REPLACE INTO outputs (key, payload) VALUES (?, ?)",
            key,
            _pack_columns(
                (output.ndim, output.size, 0),
                _narrow(np.asarray(output.shape, dtype=np.int64)),
                output.reshape(-1),
            ),
        )

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
