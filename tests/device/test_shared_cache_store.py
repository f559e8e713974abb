"""The shared cache's stored form: exact column round trips, a miss for
any blob the codec did not write or probe reply of the wrong length, a
typed error for a file that is not a database, and the fingerprint
cache keys rest on.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import sqlite3

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.campaign.victims import build_device, build_victim
from repro.channel import ChannelModel
from repro.device import DeviceSession, SharedQueryCache, device_fingerprint
from repro.errors import ConfigError

INT64 = np.iinfo(np.int64)
VALUES = st.one_of(
    st.integers(0, 3_000),
    st.integers(-(2**40), 2**40),
    st.sampled_from([INT64.min, INT64.max, 2**32, 2**32 - 1, -1]),
    st.integers(INT64.min, INT64.max),
)
EVENTS = st.lists(st.tuples(VALUES, VALUES, st.booleans()), max_size=40)
_keys = itertools.count()


@pytest.fixture(scope="module")
def cache(tmp_path_factory):
    cache = SharedQueryCache(tmp_path_factory.mktemp("store") / "c.sqlite")
    yield cache
    cache.close()


@settings(max_examples=80, deadline=None)
@given(events=EVENTS, num_classes=st.integers(0, 1000), total=VALUES)
@example(events=[], num_classes=0, total=0)
@example(events=[(7, 2**33, True)], num_classes=10, total=7)
@example(
    events=[(INT64.max, INT64.min, False), (INT64.min, INT64.max, True),
            (0, -1, True)],
    num_classes=1, total=INT64.min,
)
def test_observation_round_trip_is_exact(cache, events, num_classes, total):
    cycles = np.array([e[0] for e in events], dtype=np.int64)
    addresses = np.array([e[1] for e in events], dtype=np.int64)
    is_write = np.array([e[2] for e in events], dtype=bool)
    key = f"obs{next(_keys)}"
    assert cache.put_observation(
        key, cycles, addresses, is_write, num_classes, total
    )
    got = cache.get_observation(key)
    for name, want in (
        ("cycles", cycles), ("addresses", addresses), ("is_write", is_write)
    ):
        assert got[name].dtype == want.dtype
        assert np.array_equal(got[name], want)
    assert (got["num_classes"], got["total_cycles"]) == (num_classes, total)


def test_trace_columns_are_stored_narrow(cache):
    # Monotone cycles with small gaps store as uint16 deltas, 32-bit
    # addresses as uint32 and writes as bits: 6 bytes + 1 bit per event.
    n = 10_000
    cycles = np.cumsum(np.arange(n) % 2_000, dtype=np.int64)
    addresses = np.arange(n, dtype=np.int64) * 64 + 2**31
    cache.put_observation("narrow", cycles, addresses, cycles % 3 == 0, 10, 1)
    (blob,) = cache._connection().execute(
        "SELECT payload FROM observations WHERE key = 'narrow'"
    ).fetchone()
    assert len(blob) < n * 6 + n // 8 + 64


@pytest.mark.parametrize(
    "output",
    [np.arange(6.0).reshape(2, 3), np.ones((1, 2, 3, 3), dtype=np.float32),
     np.array(2.5), np.zeros((0, 4))],
)
def test_output_round_trip_keeps_shape_and_dtype(cache, output):
    key = f"out{next(_keys)}"
    cache.put_output(key, output)
    got = cache.get_output(key)
    assert got.dtype == output.dtype and got.shape == output.shape
    assert np.array_equal(got, output)


# -- undecodable rows ------------------------------------------------------

def _legacy_npz(**arrays) -> bytes:
    buf = io.BytesIO()
    np.savez_compressed(buf, **arrays)
    return buf.getvalue()


def _observation_npz(obs: dict) -> bytes:
    return _legacy_npz(
        cycles=obs["cycles"], addresses=obs["addresses"],
        is_write=obs["is_write"],
        meta=np.array([obs["num_classes"], obs["total_cycles"]]),
    )


CORRUPTIONS = {
    "truncated": lambda blob, legacy: blob[:-1],
    "format_tag": lambda blob, legacy: b"RQC9" + blob[4:],
    "legacy_npz": lambda blob, legacy: legacy,
}


def _corrupt(path, table: str, how: str, legacy: bytes) -> None:
    with sqlite3.connect(path) as conn:
        for key, blob in conn.execute(f"SELECT key, payload FROM {table}"):
            conn.execute(
                f"UPDATE {table} SET payload = ? WHERE key = ?",
                (CORRUPTIONS[how](blob, legacy), key),
            )


NOISY = ChannelModel(drop_rate=0.1, dup_rate=0.02, cycle_sigma=8.0, seed=4)


def _session(cache: SharedQueryCache | None) -> DeviceSession:
    victim = build_victim({"conv": {"w": 10, "c": 2, "d": 4, "seed": 3}})
    return DeviceSession(build_device(victim, None), channel=NOISY,
                         shared_cache=cache)


@pytest.mark.parametrize("how", sorted(CORRUPTIONS))
def test_undecodable_observation_is_a_miss_then_runs_live(tmp_path, how):
    path = tmp_path / "c.sqlite"
    cache = SharedQueryCache(path)
    _session(cache).observe_structure()
    ((key,),) = cache._connection().execute("SELECT key FROM observations")
    _corrupt(path, "observations", how, _observation_npz(
        cache.get_observation(key)
    ))
    assert cache.get_observation(key) is None

    session = _session(cache)
    live = session.observe_structure().trace
    assert session.ledger.inferences == 1
    assert session.ledger.cached_inferences == 0
    uncached = _session(None).observe_structure().trace
    for name in ("cycles", "addresses", "is_write"):
        assert np.array_equal(getattr(live, name), getattr(uncached, name))
    # The live run rewrote the row: the next session replays it.
    replay = _session(cache)
    assert np.array_equal(replay.observe_structure().trace.cycles,
                          uncached.cycles)
    assert replay.ledger.inferences == 0
    cache.close()


@pytest.mark.parametrize("how", sorted(CORRUPTIONS))
def test_undecodable_output_is_a_miss(tmp_path, how):
    path = tmp_path / "c.sqlite"
    cache = SharedQueryCache(path)
    output = np.linspace(-1.0, 1.0, 20).reshape(2, 10)
    cache.put_output("k", output)
    _corrupt(path, "outputs", how, _legacy_npz(output=output))
    assert cache.get_output("k") is None
    cache.close()


def _pruned_session(cache: SharedQueryCache | None) -> DeviceSession:
    victim = build_victim({"conv": {"w": 8, "d": 3, "seed": 5,
                                    "bias_sign": -1.0}})
    return DeviceSession(build_device(victim, {"pruning": True}),
                         shared_cache=cache)


PROBE = ([(0, 2, 2)], [1.5])


@pytest.mark.parametrize("short", [4, 8])
def test_short_probe_reply_is_a_miss_then_runs_live(tmp_path, short):
    # 4 bytes short is not a whole count; 8 bytes short is one count
    # too few, which must not be served as a shorter reply.
    path = tmp_path / "c.sqlite"
    cache = SharedQueryCache(path)
    uncached = _pruned_session(None).query(*PROBE)
    _pruned_session(cache).query(*PROBE)
    with sqlite3.connect(path) as conn:
        ((key, reply),) = conn.execute("SELECT key, reply FROM probes")
        conn.execute("UPDATE probes SET reply = ? WHERE key = ?",
                     (reply[:-short], key))
    assert cache.get_reply(key, len(uncached)) is None

    session = _pruned_session(cache)
    assert np.array_equal(session.query(*PROBE), uncached)
    assert session.ledger.channel_queries == 1
    assert session.ledger.shared_hits == 0
    # The live run rewrote the row: the next session is served from it.
    replay = _pruned_session(cache)
    assert np.array_equal(replay.query(*PROBE), uncached)
    assert replay.ledger.channel_queries == 0
    assert replay.ledger.shared_hits == 1
    cache.close()


def test_corrupt_cache_file_raises_typed_error(tmp_path):
    path = tmp_path / "cache.sqlite"
    path.write_bytes(b"not a sqlite database " * 100)
    with pytest.raises(ConfigError) as info:
        SharedQueryCache(path)
    assert str(path) in str(info.value)
    assert "safe to delete" in str(info.value)
    path.unlink()
    SharedQueryCache(path).close()


# -- the fingerprint -------------------------------------------------------

def _fingerprint_by_copy(device) -> str:
    """``device_fingerprint`` as first written: every tensor copied by
    ``tobytes`` and again by the length-prefix concatenation."""

    def part(data: bytes) -> bytes:
        return len(data).to_bytes(8, "little") + data

    h = hashlib.sha256()
    staged = device.staged
    h.update(part(repr(tuple(staged.network.input_shape)).encode()))
    for stage in staged.stages:
        h.update(part(repr(
            (stage.name, stage.kind, stage.node_names, stage.input_stages)
        ).encode()))
    for param in staged.network.parameters():
        value = np.ascontiguousarray(param.value)
        h.update(part(param.name.encode()))
        h.update(part(repr(value.shape).encode() + value.dtype.str.encode()))
        h.update(part(value.tobytes()))
    h.update(part(repr(device.config).encode()))
    return h.hexdigest()


@pytest.mark.parametrize(
    "victim, device",
    [
        ({"model": "lenet"}, None),
        ({"model": "alexnet", "width_scale": 0.25, "num_classes": 100}, None),
        ({"conv": {"w": 8, "d": 3, "seed": 5, "bias_sign": -1.0}},
         {"pruning": True}),
    ],
)
def test_fingerprint_matches_the_copying_formula(victim, device):
    sim = build_device(build_victim(victim), device)
    assert device_fingerprint(sim) == _fingerprint_by_copy(sim)
