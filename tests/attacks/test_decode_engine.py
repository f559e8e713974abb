"""Vectorised decoders: kernels, last-writer index, fuzzed identity.

The vectorised decoders are only allowed to exist because they are
bit-identical to the per-event oracles in :mod:`repro.reference`.
Beyond the zoo-trace identity matrix (test_engine_identity.py), this
module fuzzes *adversarial* traces — random addresses, random
read/write mixes, random chunkings — through the chunked trackers and
the whole-trace oracles and requires identical boundaries, and
unit-tests the shared kernels the decoders are built from.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.attacks.robust.boundary import RobustRawBoundaryTracker
from repro.attacks.structure.decode import (
    LastWriterIndex,
    sorted_unique,
    sorted_unique_counts,
)
from repro.attacks.structure.trace_analysis import (
    BoundaryTracker,
    DataflowBoundaryTracker,
    _BlockIntervalSet,
)
from repro.reference import (
    layer_boundaries_reference,
    raw_boundaries_reference,
    robust_boundaries_reference,
)

BLOCK = 64


# -- sort-based unique kernels ---------------------------------------------

@given(st.lists(st.integers(-1000, 1000), max_size=200))
def test_sorted_unique_matches_np_unique(values):
    a = np.asarray(values, dtype=np.int64)
    np.testing.assert_array_equal(sorted_unique(a), np.unique(a))


@given(st.lists(st.integers(-1000, 1000), max_size=200))
def test_sorted_unique_counts_matches_np_unique(values):
    a = np.asarray(values, dtype=np.int64)
    uniq, counts = sorted_unique_counts(a)
    ref_u, ref_c = np.unique(a, return_counts=True)
    np.testing.assert_array_equal(uniq, ref_u)
    np.testing.assert_array_equal(counts, ref_c)


# -- last-writer index ------------------------------------------------------

def model_lookup(model: dict, addresses) -> tuple[np.ndarray, np.ndarray]:
    pairs = [model.get(int(a), (-1, -1)) for a in addresses]
    return (
        np.array([p[0] for p in pairs], dtype=np.int64),
        np.array([p[1] for p in pairs], dtype=np.int64),
    )


def assert_lookup(idx: LastWriterIndex, addresses, indices, cycles) -> None:
    got, cyc = idx.lookup(np.asarray(addresses, dtype=np.int64))
    np.testing.assert_array_equal(got, indices)
    np.testing.assert_array_equal(cyc, cycles)


def test_last_writer_dense_roundtrip():
    idx = LastWriterIndex()
    a = np.arange(10, dtype=np.int64) * BLOCK + (1 << 20)
    idx.update(a, np.arange(10, dtype=np.int64), 100 + np.arange(10))
    assert_lookup(idx, a, np.arange(10), 100 + np.arange(10))
    # Unwritten addresses are -1, including off-grid ones.
    assert_lookup(
        idx, [0, (1 << 20) + 1, (1 << 20) + 10 * BLOCK], [-1] * 3, [-1] * 3
    )
    # Last write wins.
    idx.update(a[:3], np.array([7, 8, 9]), np.array([207, 208, 209]))
    assert_lookup(idx, a[:3], [7, 8, 9], [207, 208, 209])


def test_last_writer_regrids_on_finer_stride():
    idx = LastWriterIndex()
    coarse = np.array([0, 4096, 8192], dtype=np.int64)
    idx.update(coarse, np.array([0, 1, 2]), np.array([10, 11, 12]))
    # A 64-aligned address forces a re-grid to the finer stride.
    idx.update(np.array([64]), np.array([3]), np.array([13]))
    assert_lookup(
        idx, [0, 64, 4096, 8192, 128], [0, 3, 1, 2, -1], [10, 13, 11, 12, -1]
    )


def test_last_writer_falls_back_to_dict_when_sparse():
    # Two clusters too far apart for an 8-slot grid.
    idx = LastWriterIndex(max_slots=8)
    a = np.array([0, 64, 1 << 40], dtype=np.int64)
    idx.update(a, np.array([0, 1, 2]), np.array([10, 11, 12]))
    assert_lookup(idx, a, [0, 1, 2], [10, 11, 12])
    assert_lookup(idx, [128], [-1], [-1])
    # Updates keep working after the fallback.
    idx.update(np.array([128]), np.array([5]), np.array([15]))
    assert_lookup(idx, [128, 0], [5, 0], [15, 10])


def test_last_writer_tracks_cycles():
    idx = LastWriterIndex()
    a = np.array([0, 64], dtype=np.int64)
    idx.update(a, np.array([0, 1]), np.array([100, 200]))
    assert_lookup(idx, [64, 0, 128], [1, 0, -1], [200, 100, -1])


@settings(max_examples=30, deadline=None)
@given(
    data=st.lists(
        st.tuples(st.integers(0, 400), st.integers(0, 10_000)), max_size=120
    ),
    max_slots=st.sampled_from([4, 64, 1 << 24]),
    scale=st.sampled_from([64, 4096, 1 << 30]),
)
def test_last_writer_index_matches_dict_model(data, max_slots, scale):
    """Dense grid, re-grids, growth and dict fallback all agree with a dict."""
    idx = LastWriterIndex(max_slots=max_slots)
    model: dict[int, tuple[int, int]] = {}
    for step, (slot, value) in enumerate(data):
        addr = slot * scale + (step % 3) * 64  # mixes strides -> re-grids
        batch = np.array([addr], dtype=np.int64)
        assert_lookup(idx, batch, *model_lookup(model, batch))
        idx.update(batch, np.array([value]), np.array([step]))
        model[addr] = (value, step)
    keys = np.array(sorted(model) + [12345678901], dtype=np.int64)
    assert_lookup(idx, keys, *model_lookup(model, keys))


# -- block interval set -----------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(
    batches=st.lists(
        st.lists(st.integers(0, 80), min_size=1, max_size=30),
        min_size=1,
        max_size=8,
    ),
    probes=st.lists(st.integers(-2, 84), max_size=20),
)
def test_block_interval_set_matches_set_model(batches, probes):
    """add/contains/touches against a plain python-set-of-blocks model."""
    ivs = _BlockIntervalSet(BLOCK)
    model: set[int] = set()
    for blocks in batches:
        addrs = np.unique(np.asarray(blocks, dtype=np.int64) * BLOCK)
        ivs.add(addrs)
        model.update(int(b) for b in blocks)
    probe_addrs = np.asarray(probes, dtype=np.int64) * BLOCK
    expected = np.array([int(p) in model for p in probes])
    np.testing.assert_array_equal(ivs.contains(probe_addrs), expected)
    # ``touches`` additionally accepts the block-contiguous continuation
    # one past an interval's end.
    touch_expected = np.array(
        [int(p) in model or int(p) - 1 in model for p in probes]
    )
    np.testing.assert_array_equal(
        ivs.touches_batch(probe_addrs), touch_expected
    )
    for p, want in zip(probes, touch_expected):
        assert ivs.touches(p * BLOCK) == want
    assert ivs.blocks == len(model)
    if model:
        lo, hi = ivs.extent
        assert lo == min(model) * BLOCK
        assert hi == (max(model) + 1) * BLOCK


def test_block_interval_set_split():
    ivs = _BlockIntervalSet(BLOCK)
    ivs.add(np.array([0, 64, 128, 320, 384], dtype=np.int64))
    below, above = ivs.split(128)
    assert below.blocks == 2 and above.blocks == 3
    assert below.contains(np.array([0, 64])).all()
    assert not below.contains(np.array([128]))[0]
    assert above.contains(np.array([128, 320, 384])).all()
    assert not above.touches(64)


# -- fuzzed oracle identity -------------------------------------------------

def random_trace(rng: np.random.Generator, n: int, pool: int):
    """An adversarial trace: random addresses, random R/W, dup-friendly."""
    addresses = (
        rng.integers(0, pool, size=n) * BLOCK + (1 << 20)
    ).astype(np.int64)
    is_write = rng.random(n) < rng.uniform(0.2, 0.8)
    cycles = np.cumsum(rng.integers(0, 9, size=n)).astype(np.int64)
    return cycles, addresses, is_write


def chunk_edges(rng: np.random.Generator, n: int) -> list[int]:
    k = int(rng.integers(0, 6))
    cuts = sorted(int(rng.integers(0, n + 1)) for _ in range(k))
    return [0] + cuts + [n]


def feed_chunked(tracker, arrays, edges) -> list[int]:
    got: list[int] = []
    for s, e in zip(edges[:-1], edges[1:]):
        if s == e:
            continue
        res = tracker.feed(*(a[s:e] for a in arrays))
        if res:
            got += res
    return got


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_fuzz_raw_tracker_identity(seed):
    rng = np.random.default_rng(seed)
    cycles, addresses, is_write = random_trace(
        rng, int(rng.integers(1, 300)), int(rng.integers(1, 40))
    )
    edges = chunk_edges(rng, len(addresses))
    # min_support=1 is the naive rule the oracle runs event by event.
    vec = RobustRawBoundaryTracker(min_support=1)
    got = feed_chunked(vec, (cycles, addresses, is_write), edges)
    ref = raw_boundaries_reference(addresses, is_write)
    assert [0] + got == ref == vec.boundaries
    assert vec.boundary_cycles == [int(cycles[i]) for i in ref]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_fuzz_boundary_tracker_identity(seed):
    rng = np.random.default_rng(seed)
    cycles, addresses, is_write = random_trace(
        rng, int(rng.integers(1, 300)), int(rng.integers(1, 40))
    )
    edges = chunk_edges(rng, len(addresses))
    vec = BoundaryTracker()
    got = feed_chunked(vec, (is_write,), edges)
    ref = layer_boundaries_reference(
        addresses, is_write, BLOCK, "output-stationary"
    )
    assert [0] + got == ref == vec.boundaries


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_fuzz_dataflow_tracker_identity(seed):
    rng = np.random.default_rng(seed)
    cycles, addresses, is_write = random_trace(
        rng, int(rng.integers(1, 300)), int(rng.integers(1, 40))
    )
    edges = chunk_edges(rng, len(addresses))
    vec = DataflowBoundaryTracker(BLOCK)
    got = feed_chunked(vec, (addresses, is_write), edges)
    ref = layer_boundaries_reference(
        addresses, is_write, BLOCK, "weight-stationary"
    )
    assert [0] + got == ref == vec.boundaries


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000))
def test_fuzz_robust_tracker_identity(seed):
    rng = np.random.default_rng(seed)
    cycles, addresses, is_write = random_trace(
        rng, int(rng.integers(1, 300)), int(rng.integers(1, 25))
    )
    edges = chunk_edges(rng, len(addresses))
    min_support = int(rng.integers(1, 4))
    kwargs = dict(
        min_support=min_support,
        expiry=int(rng.integers(min_support, 60)),
        refractory=int(rng.integers(0, 40)),
        producer_refractory=int(rng.choice([0, int(rng.integers(0, 40))])),
    )
    vec = RobustRawBoundaryTracker(**kwargs)
    got = feed_chunked(vec, (cycles, addresses, is_write), edges)
    ref = robust_boundaries_reference(cycles, addresses, is_write, **kwargs)
    assert [0] + got == ref[0] == vec.boundaries
    assert ref[1] == vec.boundary_cycles
