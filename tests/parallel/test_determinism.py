"""Bit-identity of every parallel attack path against its serial run.

The parallel layer's contract is that ``workers`` changes wall-clock
cost only: rankings and recovered ratio tensors must match the serial
results exactly, not approximately.
"""

from __future__ import annotations

import numpy as np

from repro.accel import AcceleratorSim
from repro.attacks.structure import run_structure_attack
from repro.attacks.structure.ranking import candidate_seed, rank_candidates
from repro.attacks.weights import AttackTarget, WeightAttack
from repro.data import make_dataset
from repro.nn.shapes import PoolSpec
from repro.nn.zoo import build_model
from tests.conftest import build_conv_stage, pruned_session


def test_weight_attack_sharded_bit_identical():
    staged, geom, _, _ = build_conv_stage(
        w=10, d=5, pool=PoolSpec(2, 2, 0), bias_sign=-1.0, seed=3
    )
    target = AttackTarget.from_geometry(geom)
    serial = WeightAttack(pruned_session(staged), target).run()
    parent = pruned_session(staged)
    sharded = WeightAttack(parent, target, workers=4).run()

    assert np.array_equal(serial.ratio_tensor(), sharded.ratio_tensor())
    assert (serial.status_tensor() == sharded.status_tensor()).all()
    assert [f.filter_index for f in sharded.filters] == list(range(geom.d_ofm))
    # The parent ledger holds the merged shard accounts.
    assert parent.ledger.channel_queries == sharded.queries
    assert sharded.queries > 0


def test_weight_attack_filter_range_restricts_output():
    staged, geom, _, _ = build_conv_stage(w=10, d=5, seed=3)
    target = AttackTarget.from_geometry(geom)
    full = WeightAttack(pruned_session(staged), target).run()
    shard = WeightAttack(
        pruned_session(staged), target, filter_range=(2, 4)
    ).run()
    assert [f.filter_index for f in shard.filters] == [2, 3]
    for f in shard.filters:
        assert np.array_equal(f.ratios, full.filters[f.filter_index].ratios)


def test_ranking_parallel_bit_identical():
    staged = build_model("lenet")
    result = run_structure_attack(AcceleratorSim(staged), tolerance=0.25)
    cands = result.candidates[:3]
    assert len(cands) >= 2
    ds = make_dataset(
        num_classes=10, image_size=28, channels=1,
        train_per_class=2, val_per_class=1, seed=0,
    )

    def rank(workers):
        ranked = rank_candidates(
            cands, ds, (1, 28, 28), 10, epochs=1, seed=5, workers=workers
        )
        return [(r.index, r.top1, r.top5, r.train_loss) for r in ranked]

    assert rank(None) == rank(4)


def test_candidate_seed_depends_only_on_pair():
    assert candidate_seed(5, 0) == candidate_seed(5, 0)
    assert candidate_seed(5, 0) != candidate_seed(5, 1)
    assert candidate_seed(5, 1) != candidate_seed(6, 1)
