"""Case study: weight recovery through merged pooling (paper Section 4).

Builds an AlexNet-CONV1-shaped layer (11x11 stride-4 filters + 3x3
stride-2 max pooling) with Deep-Compression-style sparse filters, runs
it on a zero-pruning accelerator, and recovers every weight/bias ratio
from nothing but non-zero write counts.  Also demonstrates the tunable
threshold extension that recovers the exact weights and biases, and the
aggregate-stream variant that only leaks the crossing multiset.

Usage::

    python examples/weight_attack_pooling.py [--filters 8] [--size 59] \
        [--workers 4]
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.accel import AcceleratorConfig, AcceleratorSim, PruningConfig
from repro.attacks.weights import (
    AttackTarget,
    ThresholdWeightAttack,
    WeightAttack,
    recover_crossing_multiset,
)
from repro.device import DeviceSession
from repro.nn.zoo import build_weight_victim


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--filters", type=int, default=8)
    parser.add_argument("--size", type=int, default=59)
    parser.add_argument("--workers", type=int, default=None,
                        help="shard the filter range over this many worker "
                             "processes (default: serial; ratios are "
                             "bit-identical at any worker count)")
    args = parser.parse_args()

    staged, geom, weights, biases = build_weight_victim(args.size, args.filters)
    print(f"victim conv1: {weights.shape} weights "
          f"({(weights == 0).mean():.0%} zeros), pool 3x3/2")

    sim = AcceleratorSim(
        staged, AcceleratorConfig(pruning=PruningConfig(enabled=True))
    )
    session = DeviceSession(sim, "conv1")
    target = AttackTarget.from_geometry(geom)

    print("\n[1] ratio attack (plain ReLU, per-plane write counts)")
    recovery = WeightAttack(session, target, workers=args.workers).run()
    err = recovery.max_ratio_error(weights, biases)
    print(f"    recovered {recovery.recovery_fraction():.1%} of weights in "
          f"{recovery.queries:,} queries "
          f"(cache hit rate {session.ledger.hit_rate:.0%})")
    print(f"    max |w/b| error: {err:.3e}  (paper bound 2^-10 = {2**-10:.3e})")
    zeros_found = (np.abs(recovery.ratio_tensor()) < 2**-20).sum()
    print(f"    zero weights identified (|w/b| < 2^-20): {zeros_found} "
          f"(true: {(weights == 0).sum()})")

    print("\n[2] threshold extension (exact weights and biases)")
    exact = ThresholdWeightAttack(session, target, t1=0.5, t2=1.5).run()
    print(f"    max |w| error: {exact.max_weight_error(weights):.3e}")
    print(f"    max |b| error: {exact.max_bias_error(biases):.3e}")

    print("\n[3] aggregate-stream device (defence-ish layout)")
    agg_sim = AcceleratorSim(
        staged,
        AcceleratorConfig(
            pruning=PruningConfig(enabled=True, granularity="aggregate")
        ),
    )
    agg_session = DeviceSession(agg_sim, "conv1")
    multiset = recover_crossing_multiset(agg_session, resolution=2048)
    print(f"    corner-pixel crossings leaked (unattributed): "
          f"{len(multiset.values())} of {args.filters} filters "
          f"in {agg_session.queries:,} batched queries")


if __name__ == "__main__":
    main()
