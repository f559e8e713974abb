"""Case study: reverse engineering AlexNet's structure (paper Section 3.2).

Reproduces the Table 4 experiment: run AlexNet on the simulated
accelerator, analyse one inference's memory trace, and enumerate the
layer configurations consistent with the observations.  Prints the
per-layer candidate tables next to the originals and the total
structure count (paper: 24).

Usage::

    python examples/structure_attack_alexnet.py [--tolerance 0.05] \
        [--dataflow row-stationary]

The victim's dataflow (loop order) is configurable; the attack is not
told which one runs — it identifies the schedule from one observation
and decodes the trace with the matching boundary rule.
"""

from __future__ import annotations

import argparse

from repro.accel import AcceleratorConfig, AcceleratorSim, available_dataflows
from repro.attacks.structure import PracticalityRules, run_structure_attack
from repro.device import DeviceSession
from repro.nn.spec import LayerGeometry
from repro.nn.zoo import build_alexnet
from repro.report import render_table


def describe(geom: LayerGeometry) -> tuple:
    pool = (
        f"{geom.f_pool}x{geom.f_pool}/{geom.s_pool}" if geom.has_pool else "-"
    )
    return (
        geom.w_ifm, geom.d_ifm, geom.w_ofm, geom.d_ofm,
        geom.f_conv, geom.s_conv, geom.p_conv, pool,
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tolerance", type=float, default=0.05,
                        help="timing filter tolerance (Algorithm 1 step 4)")
    parser.add_argument("--dataflow", choices=available_dataflows(),
                        default="output-stationary",
                        help="the victim accelerator's loop order")
    args = parser.parse_args()

    victim = build_alexnet()
    print(f"simulating one AlexNet inference (full scale, ~62M weights, "
          f"{args.dataflow} victim)...")
    session = DeviceSession(
        AcceleratorSim(victim, AcceleratorConfig(dataflow=args.dataflow))
    )
    result = run_structure_attack(
        session,
        tolerance=args.tolerance,
        rules=PracticalityRules(exact_pool_division=True),
        dataflow="auto",
    )
    print(f"dataflow identified from the trace: {result.dataflow}")
    print(f"trace: {result.ledger.trace_events:,} transactions; "
          f"{result.num_layers} layers detected "
          f"(5 CONV + 3 FC, as in the paper)\n")

    truth = victim.geometries()
    for i, obs in enumerate(result.analysis.layers):
        if obs.kind != "compute":
            continue
        per_layer = {}
        for cand in result.candidates:
            layer = cand.layers[i]
            if isinstance(layer.geometry, LayerGeometry):
                per_layer[layer.geometry] = None
        if not per_layer:
            continue  # FC layer
        print(f"layer {i} candidates "
              f"(true: CONV{i + 1}, duration {obs.duration:,} cycles):")
        rows = [describe(g) for g in per_layer]
        print(render_table(
            ["W_IFM", "D_IFM", "W_OFM", "D_OFM", "F", "S", "P", "pool"], rows
        ))
        marker = truth[i].canonical()
        hit = any(g.canonical() == marker for g in per_layer)
        print(f"  -> ground truth present: {hit}\n")

    print(f"total candidate structures: {result.count} (paper: 24)")
    print(f"attack cost: {result.ledger.summary()}")


if __name__ == "__main__":
    main()
