"""The count oracle: the sparse fast path must equal the dense reference.

The weight attack's validity rests entirely on this equivalence — the
sparse oracle is an optimisation of the simulator, not a shortcut
around it.  The dense oracle lives in :mod:`repro.reference`.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import ConfigError, SimulationError
from repro.accel import AcceleratorConfig, AcceleratorSim, PruningConfig
from repro.accel.oracle import SparseStageOracle
from repro.nn.shapes import PoolSpec
from repro.nn.stages import StagedNetworkBuilder
from repro.nn.spec import LayerGeometry
from repro.reference import DenseStageOracle

from tests.conftest import build_conv_stage, pruned_session


CONFIGS = [
    dict(pool=None),
    dict(pool=PoolSpec(2, 2, 0)),
    dict(pool=PoolSpec(3, 2, 0)),
    dict(pool=PoolSpec(2, 2, 0), pool_kind="avg"),
    dict(pool=PoolSpec(3, 2, 1), pool_kind="avg"),
    dict(pool=PoolSpec(3, 3, 0), s=2, f=4, w=14),
    dict(pool=None, s=3, f=4, w=13, p=1),
]


@pytest.mark.parametrize("cfg", CONFIGS)
def test_sparse_equals_dense(rng, cfg):
    staged, _, _, _ = build_conv_stage(seed=5, **cfg)
    dense = DenseStageOracle(staged, "conv1")
    sparse = SparseStageOracle(staged, "conv1")
    c_max, h, w = dense.input_shape
    for _ in range(40):
        n_px = int(rng.integers(1, 4))
        pixels = []
        seen = set()
        while len(pixels) < n_px:
            px = (
                int(rng.integers(0, c_max)),
                int(rng.integers(0, h)),
                int(rng.integers(0, w)),
            )
            if px not in seen:
                seen.add(px)
                pixels.append(px)
        values = rng.normal(size=n_px) * 5
        np.testing.assert_array_equal(
            dense.nnz(pixels, values), sparse.nnz(pixels, values)
        )


def test_oracle_matches_full_simulator(rng):
    """The oracle counts equal the pruned simulator's per-plane writes."""
    staged, _, _, _ = build_conv_stage(seed=9, pool=PoolSpec(2, 2, 0))
    sparse = SparseStageOracle(staged, "conv1")
    sim = AcceleratorSim(
        staged, AcceleratorConfig(pruning=PruningConfig(enabled=True))
    )
    for trial in range(5):
        x = np.zeros((2, 12, 12))
        px = (int(rng.integers(0, 2)), int(rng.integers(0, 12)), int(rng.integers(0, 12)))
        val = float(rng.normal() * 3)
        x[px] = val
        result = sim.run(x[None])
        np.testing.assert_array_equal(
            result.nnz["conv1"], sparse.nnz([px], [val])
        )


def test_per_filter_batch_equals_individual(rng):
    staged, _, _, _ = build_conv_stage(seed=4, pool=PoolSpec(3, 2, 0))
    dense = DenseStageOracle(staged, "conv1")
    sparse = SparseStageOracle(staged, "conv1")
    pixels = [(0, 2, 3), (1, 5, 5)]
    values = rng.normal(size=(2, dense.d_ofm)) * 4
    batch = sparse.nnz_per_filter(pixels, values)
    reference = dense.nnz_per_filter(pixels, values)
    np.testing.assert_array_equal(batch, reference)


def test_query_accounting(rng):
    """Runs are counted once, on the session ledger; the oracle keeps none."""
    staged, _, _, _ = build_conv_stage(seed=4)
    session = pruned_session(staged)
    session.query([(0, 0, 0)], [1.0])
    assert session.ledger.channel_queries == 1
    values = np.arange(2.0, 2.0 + session.d_ofm)[None]  # one run per filter
    session.query_per_filter([[(0, 0, 0)]], [values])
    assert session.ledger.channel_queries == 1 + session.d_ofm
    assert not hasattr(SparseStageOracle(staged, "conv1"), "queries")


def test_one_run_forms_are_batch_rows(rng):
    staged, _, _, _ = build_conv_stage(seed=4, pool=PoolSpec(3, 2, 0))
    sparse = SparseStageOracle(staged, "conv1")
    pixels = [(0, 2, 3), (1, 5, 5)]
    values = rng.normal(size=(2, sparse.d_ofm)) * 4
    batch = sparse.nnz_batch([tuple(pixels)] * sparse.d_ofm, list(values.T))
    np.testing.assert_array_equal(sparse.nnz(pixels, values[:, 0]), batch[0])
    np.testing.assert_array_equal(
        sparse.nnz_per_filter(pixels, values), batch.diagonal()
    )


def test_pixel_validation(rng):
    staged, _, _, _ = build_conv_stage()
    oracle = SparseStageOracle(staged, "conv1")
    with pytest.raises(ConfigError):
        oracle.nnz([(0, 50, 0)], [1.0])
    with pytest.raises(ConfigError):
        oracle.nnz([(0, 0, 0), (0, 0, 0)], [1.0, 2.0])
    with pytest.raises(ConfigError):
        oracle.nnz([(0, 0, 0)], [1.0, 2.0])


def test_set_threshold_changes_counts(rng):
    staged, _, weights, biases = build_conv_stage(
        relu_threshold=0.0, bias_sign=1.0
    )
    oracle = SparseStageOracle(staged, "conv1")
    base_low = oracle.nnz([(0, 0, 0)], [0.0])
    oracle.set_threshold(float(biases.max()) + 1.0)
    base_high = oracle.nnz([(0, 0, 0)], [0.0])
    assert base_low.sum() > 0
    assert base_high.sum() == 0


def test_set_threshold_requires_tunable_relu():
    staged, _, _, _ = build_conv_stage(relu_threshold=None)
    oracle = SparseStageOracle(staged, "conv1")
    with pytest.raises(ConfigError):
        oracle.set_threshold(1.0)


def test_threshold_affects_dense_and_sparse_identically(rng):
    staged, _, _, _ = build_conv_stage(
        relu_threshold=0.0, pool=PoolSpec(2, 2, 0), seed=13
    )
    dense = DenseStageOracle(staged, "conv1")
    sparse = SparseStageOracle(staged, "conv1")
    sparse.set_threshold(0.4)
    dense_counts = dense.nnz([(0, 3, 3)], [2.0])  # dense sees the same layer
    sparse_counts = sparse.nnz([(0, 3, 3)], [2.0])
    np.testing.assert_array_equal(dense_counts, sparse_counts)


def test_oracle_rejects_non_conv_stage():
    b = StagedNetworkBuilder("x", (2, 8, 8))
    b.add_conv("c1", LayerGeometry.from_conv(8, 2, 3, 3, 1, 0))
    b.add_fc("f1", 4, activation=False)
    staged = b.build()
    with pytest.raises(ConfigError):
        SparseStageOracle(staged, "f1")


def test_oracle_requires_activation():
    b = StagedNetworkBuilder("x", (2, 8, 8))
    b.add_conv(
        "c1", LayerGeometry.from_conv(8, 2, 3, 3, 1, 0), activation=False
    )
    staged = b.build()
    with pytest.raises(SimulationError):
        SparseStageOracle(staged, "c1")


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 10_000),
    f=st.integers(1, 4),
    s=st.integers(1, 3),
    pad=st.integers(0, 1),
    fp=st.integers(0, 3),
    kind=st.sampled_from(["max", "avg"]),
    threshold=st.sampled_from([None, 0.0, 0.6]),
    coords=st.lists(
        st.tuples(st.integers(0, 9), st.integers(0, 9)),
        min_size=1,
        max_size=4,
        unique=True,
    ),
    value=st.floats(-10, 10, allow_nan=False),
)
def test_sparse_dense_equivalence_property(
    seed, f, s, pad, fp, kind, threshold, coords, value
):
    """One multi-pattern sparse batch equals the dense layers row by row.

    Covers one- and two-pixel patterns mixed in one call, max, average
    and overlapping pools (pool stride below its window), conv strides
    above 1, a padded conv and a tuned threshold rectifier.
    """
    if s > f:
        return
    pool = PoolSpec(fp, max(1, fp - 1), 0) if fp >= 2 else None
    w = 10
    conv_out = (w + 2 * pad - f) // s + 1
    if pool and pool.f > conv_out:
        return
    staged, _, _, _ = build_conv_stage(
        w=w, c=1, d=4, f=f, s=s, p=pad, pool=pool, pool_kind=kind,
        relu_threshold=threshold, seed=seed,
    )
    dense = DenseStageOracle(staged, "conv1")
    sparse = SparseStageOracle(staged, "conv1")
    if threshold is not None:
        dense.set_threshold(threshold + 0.25)
        sparse.set_threshold(threshold + 0.25)
    pixels = [(0, i, j) for i, j in coords]
    np.testing.assert_array_equal(
        dense.nnz(pixels[:1], [value]), sparse.nnz(pixels[:1], [value])
    )
    patterns = [[px] for px in pixels] + [
        [a, b] for a, b in zip(pixels, pixels[1:] + pixels[:1]) if a != b
    ]
    rng = np.random.default_rng(seed)
    rows = [rng.normal(size=len(p)) * 5 for p in patterns]
    rows[0] = np.array([value])
    batch = sparse.nnz_batch(patterns, rows)
    np.testing.assert_array_equal(
        batch, np.stack([dense.nnz(p, v) for p, v in zip(patterns, rows)])
    )
