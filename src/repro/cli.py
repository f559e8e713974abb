"""Command-line interface: drive the simulator and the attacks.

Five subcommands cover the repo's story end to end::

    python -m repro simulate  --model lenet [--pruned] [--save-trace t.npz]
    python -m repro structure --model alexnet [--dataflow weight-stationary]
    python -m repro weights   [--filters 8] [--size 43] [--threshold]
    python -m repro clone     [--probes 80] [--epochs 15]
    python -m repro campaign  run|status|resume --dir DIR [--spec SPEC.json]

Every command targets the bundled simulator — there is no code here
that touches real hardware.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from repro.accel import (
    AcceleratorConfig,
    AcceleratorSim,
    PruningConfig,
    SpoolSink,
    StatsSink,
    TeeSink,
    TimingModel,
    available_dataflows,
)
from repro.attacks.clone import clone_model, prediction_agreement
from repro.attacks.fusion import FusedBoundaryRecovery, segment_power_trace
from repro.attacks.robust import (
    BoundaryRecovery,
    VotingChannel,
    boundary_cycles_from_trace,
    boundary_f1,
    calibrate_channel,
)
from repro.attacks.structure import (
    PracticalityRules,
    run_structure_attack,
)
from repro.attacks.weights import (
    AttackTarget,
    ThresholdWeightAttack,
    WeightAttack,
)
from repro.channel import ChannelModel
from repro.data import make_dataset
from repro.device import DeviceSession, QueryLedger
from repro.errors import ReproError
from repro.nn.shapes import PoolSpec
from repro.nn.spec import LayerGeometry
from repro.nn.stages import StagedNetworkBuilder
from repro.nn.zoo import MODEL_BUILDERS, build_model, build_weight_victim
from repro.power import PowerSink
from repro.report import render_table
from repro.report.traceviz import AccessPatternRaster, render_layer_timeline

__all__ = ["main"]


def _print_ledger(ledger: QueryLedger | None, label: str = "session") -> None:
    """The attack-cost account every attack command ends with."""
    if ledger is not None:
        print(f"\n[{label} ledger] {ledger.summary()}")


def _build_victim_model(args) -> "StagedNetworkBuilder":
    kwargs = {}
    if args.model in ("alexnet", "squeezenet") and args.width_scale is None:
        kwargs["width_scale"] = 0.25
        kwargs["num_classes"] = 100
    elif args.width_scale is not None:
        kwargs["width_scale"] = args.width_scale
    return build_model(args.model, **kwargs)


def cmd_simulate(args) -> int:
    staged = _build_victim_model(args)
    config = AcceleratorConfig(
        pruning=PruningConfig(enabled=args.pruned),
        timing=TimingModel(jitter=args.jitter),
        dataflow=args.dataflow,
    )
    sim = AcceleratorSim(staged, config)
    x = np.random.default_rng(args.seed).normal(
        size=(1, *staged.network.input_shape)
    )
    # Stream the trace: stats for extents/counts, a disk spool for the
    # two-pass renderer and export — never the whole trace in memory.
    stats = StatsSink()
    with SpoolSink() as spool:
        # Chain the power probe around the spool+stats tee: one pass
        # computes trace stats, the replay spool, and the power proxy.
        power = PowerSink(config.timing, inner=TeeSink(spool, stats))
        result = sim.run(x, sink=power)
        print(f"model: {staged.name}  stages: {len(staged.stages)}  "
              f"parameters: {staged.network.num_parameters:,}  "
              f"dataflow: {config.dataflow}")
        print(f"trace: {stats.events:,} transactions over "
              f"{result.total_cycles:,} cycles "
              f"({'pruned' if args.pruned else 'dense'} writes)\n")
        names = [w.name for w in result.windows]
        durations = [w.duration for w in result.windows]
        print(render_layer_timeline(names, durations))
        print()
        raster = AccessPatternRaster(
            stats.min_address, stats.max_address,
            stats.min_cycle, stats.max_cycle,
            rows=18, cols=72,
        )
        for span in spool.spans():
            raster.emit(span)
        trace = power.trace()
        raster.attach_power(trace)
        print(raster.render())
        print(f"\npower proxy: {trace.num_samples:,} samples @ "
              f"{trace.quantum} cycles/bin, total energy "
              f"{trace.total_energy:,}")
        if args.save_trace:
            spool.trace().save(args.save_trace)
            print(f"\ntrace saved to {args.save_trace}")
    return 0


def _power_segments(session: DeviceSession, seed: int):
    """One power observation and the power channel's own segmentation."""
    trace = session.observe_power(seed=seed)
    return trace, segment_power_trace(
        trace, stage_overhead=session.device.config.timing.stage_overhead
    )


def _clean_tap_f1(staged, dataflow: str, channel: ChannelModel):
    """Scores recovered boundaries (F1) against the clean-tap ground
    truth, for CLI diagnostics."""
    truth = boundary_cycles_from_trace(
        DeviceSession(
            AcceleratorSim(staged, AcceleratorConfig(dataflow=dataflow))
        )
        .observe_structure(seed=0).trace
    )
    tol = channel.latency_window + 50
    return lambda boundaries: boundary_f1(boundaries, truth, tol=tol).f1


def cmd_structure(args) -> int:
    staged = _build_victim_model(args)
    sim = AcceleratorSim(staged, AcceleratorConfig(dataflow=args.dataflow))
    channel = _channel_from_args(args)
    if args.fuse:
        # Memory+power fusion: each run is one inference observed on
        # both channels at once, so the default single run is the whole
        # observation budget.
        session = DeviceSession(sim, channel=channel)
        if channel.power_noisy:
            cal = calibrate_channel(session, power_runs=4)
            print(f"calibration: {cal.describe()}")
        result = FusedBoundaryRecovery(session, runs=args.runs).run()
        print(f"channel: {channel.describe()}")
        print(f"fused boundaries over {args.runs} run(s) "
              f"(confirm tol {result.confirm_tol} cycles): "
              f"{result.boundaries}")
        print(f"layers detected: {result.num_layers}")
        for k, (raw, edges) in enumerate(
            zip(result.raw_runs, result.power_runs)
        ):
            print(f"  run {k}: {len(raw)} RAW candidates, "
                  f"{len(edges)} power edges")
        f1 = _clean_tap_f1(staged, args.dataflow, channel)
        print(f"[diagnostic vs clean-tap ground truth] fused F1 "
              f"{f1(result.boundaries):.3f}")
        _print_ledger(session.ledger)
        return 0
    if args.power:
        # One-off power observation: report the power channel's own
        # layer segmentation before the memory-channel attack runs.
        psession = DeviceSession(
            AcceleratorSim(staged, AcceleratorConfig(dataflow=args.dataflow)),
            channel=channel,
        )
        trace, seg = _power_segments(psession, seed=0)
        print(f"power trace: {trace.num_samples:,} samples @ "
              f"{trace.quantum} cycles/bin; {seg.num_layers} segments, "
              f"edges at {seg.edges}")
        _print_ledger(psession.ledger, "power probe")
        print()
    if channel.trace_noisy:
        # The exact Section 3 pipeline assumes a perfect tap; under a
        # noisy channel run the consensus boundary recovery instead.
        session = DeviceSession(sim, channel=channel)
        runs = max(args.runs, 3)
        result = BoundaryRecovery(session, runs=runs, compare_naive=True).run()
        print(f"channel: {channel.describe()}")
        print(f"consensus boundaries over {runs} runs "
              f"(quorum {result.quorum}, tol {result.tol} cycles): "
              f"{result.boundaries}")
        print(f"layers detected: {result.num_layers}")
        f1 = _clean_tap_f1(staged, args.dataflow, channel)
        print(f"[diagnostic vs clean-tap ground truth] robust F1 "
              f"{f1(result.boundaries):.3f}; naive per-run F1 "
              f"{', '.join(f'{f1(n):.3f}' for n in result.naive_runs)}")
        _print_ledger(session.ledger)
        return 0
    rules = PracticalityRules(exact_pool_division=not args.loose_rules)
    # The attack does not get told the victim's schedule: it identifies
    # the dataflow from its first observation, then decodes that trace.
    result = run_structure_attack(
        sim, tolerance=args.tolerance, rules=rules, runs=args.runs,
        dataflow="auto",
    )
    print(f"dataflow identified: {result.dataflow}")
    print(f"layers detected: {len(result.boundaries)}")
    rows = [
        (l.index, l.kind, l.sources, str(l.size_ofm), str(l.size_fltr),
         f"{l.duration:,}")
        for l in result.analysis.layers
    ]
    print(render_table(
        ["layer", "kind", "reads-from", "SIZE_OFM", "SIZE_FLTR", "cycles"],
        rows,
    ))
    if result.module_roles:
        print(f"\nrepeated-module roles detected on "
              f"{len(result.module_roles)} layers (fire modules)")
    print(f"\ncandidate structures: {result.count}")
    for i, cand in enumerate(result.candidates[: args.show]):
        print(f"\ncandidate {i}:")
        print(cand.describe())
    _print_ledger(result.ledger)
    return 0


def cmd_weights(args) -> int:
    staged, geom, weights, biases = build_weight_victim(
        args.size, args.filters, args.seed
    )
    sim = AcceleratorSim(
        staged, AcceleratorConfig(pruning=PruningConfig(enabled=True))
    )
    channel = _channel_from_args(args)
    session = DeviceSession(sim, "conv1", channel=channel)
    attack_channel = _voted_channel(session, channel, args.repeats)
    target = AttackTarget.from_geometry(geom)
    print(f"victim conv layer: {weights.shape} "
          f"({(weights == 0).mean():.0%} zero weights), pool 3x3/2")
    if args.threshold:
        result = ThresholdWeightAttack(
            attack_channel, target, t1=0.0, t2=0.5
        ).run()
        print(f"threshold attack: resolved {result.resolved.mean():.1%}")
        print(f"max |w| error: {result.max_weight_error(weights):.3e}")
        print(f"max |b| error: {result.max_bias_error(biases):.3e}")
    else:
        result = WeightAttack(
            attack_channel, target, workers=args.workers
        ).run()
        print(f"ratio attack: resolved {result.recovery_fraction():.1%} "
              f"in {result.queries:,} queries")
        print(f"max |w/b| error: "
              f"{result.max_ratio_error(weights, biases):.3e} "
              f"(paper bound 2^-10 = {2**-10:.3e})")
    _print_ledger(session.ledger)
    return 0


def cmd_clone(args) -> int:
    rng = np.random.default_rng(args.seed)
    builder = StagedNetworkBuilder("victim", (1, 14, 14), relu_threshold=0.0)
    geom = LayerGeometry.from_conv(14, 1, 6, 3, 1, 0, pool=PoolSpec(2, 2, 0))
    builder.add_conv("conv1", geom)
    builder.add_fc("fc2", 10, activation=False)
    victim = builder.build()
    conv = victim.network.nodes["conv1/conv"].layer
    conv.weight.value[:] = rng.normal(size=conv.weight.value.shape)
    conv.bias.value[:] = -rng.uniform(0.2, 0.8, size=6)

    per_class = max(1, args.probes // 10)
    ds = make_dataset(
        num_classes=10, image_size=14, channels=1,
        train_per_class=per_class, val_per_class=max(1, per_class // 2),
        seed=args.seed,
    )
    channel = _channel_from_args(args)
    if channel.trace_noisy:
        print("note: the clone pipeline's structure phase needs a clean "
              "tap; trace noise applies to the counter channel session "
              "only (use `structure` for noisy-trace recovery)")
    if args.fuse or args.power:
        # Pre-clone structure cross-check on the dense device: fused
        # (or power-only) boundary recovery under the requested channel.
        psession = DeviceSession(
            AcceleratorSim(
                victim, AcceleratorConfig(dataflow=args.dataflow)
            ),
            channel=channel,
        )
        if args.fuse:
            fused = FusedBoundaryRecovery(psession, runs=1).run()
            print(f"fused structure pre-check: {fused.num_layers} "
                  f"layer(s) at {fused.boundaries}")
        else:
            _, seg = _power_segments(psession, seed=args.seed)
            print(f"power pre-check: {seg.num_layers} segment(s), "
                  f"edges at {seg.edges}")
        _print_ledger(psession.ledger, "pre-check")
    dense = DeviceSession(
        AcceleratorSim(victim, AcceleratorConfig(dataflow=args.dataflow))
    )
    pruned = DeviceSession(AcceleratorSim(
        victim,
        AcceleratorConfig(
            pruning=PruningConfig(enabled=True), dataflow=args.dataflow
        ),
    ), channel=channel)
    weight_channel = _voted_channel(pruned, channel, args.repeats)
    result = clone_model(
        dense, weight_channel, ds.train_images, distill_epochs=args.epochs,
        dataflow=args.dataflow,
    )
    stolen = result.network.network.nodes[
        f"{result.network.stages[0].name}/conv"
    ].layer
    weight_err = float(
        np.abs(stolen.weight.value - conv.weight.value).max()
    )
    print(f"structure candidates: {result.structure_candidates}")
    print(f"stolen conv1 max weight error: {weight_err:.3e}")
    print(f"channel queries: {result.channel_queries:,}; "
          f"labeling queries: {result.labeling_queries}")
    print("prediction agreement with victim: "
          f"{prediction_agreement(victim, result.network, ds.train_images):.1%} "
          f"(probe set), "
          f"{prediction_agreement(victim, result.network, ds.val_images):.1%} "
          f"(held out)")
    _print_ledger(result.structure_ledger, "structure session")
    _print_ledger(result.weight_ledger, "weight session")
    return 0


def cmd_campaign(args) -> int:
    import json
    from pathlib import Path

    from repro.campaign import Campaign
    from repro.report.summary import render_campaign_summary

    root = Path(args.dir)
    if args.action == "status":
        campaign = Campaign.load(root)
        status = campaign.status()
        print(json.dumps(status, indent=2, sort_keys=True))
        records = campaign.store.read_all()
        if records:
            print()
            print(render_campaign_summary(records))
        return 0

    # run / resume: both drive every pending job to completion; run may
    # first create the directory from a spec file.
    if args.action == "run" and not (root / "spec.json").exists():
        if not args.spec:
            print(
                f"no campaign at {root}; pass --spec to create one",
                file=sys.stderr,
            )
            return 2
        spec = json.loads(Path(args.spec).read_text())
        campaign = Campaign.create(spec, root)
    else:
        campaign = Campaign.load(root)
    status = campaign.run()
    done = status["by_status"].get("done", 0)
    print(json.dumps(status, indent=2, sort_keys=True))
    print(f"\ncampaign {status['name']}: {done}/{status['jobs']} jobs done; "
          f"results in {campaign.store.results_path}")
    return 0 if done == status["jobs"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DAC'18 CNN side-channel reverse engineering, reproduced.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a model on the accelerator")
    sim.add_argument("--model", choices=sorted(MODEL_BUILDERS), default="lenet")
    sim.add_argument("--width-scale", type=float, default=None)
    _add_dataflow_flag(sim)
    sim.add_argument("--pruned", action="store_true")
    sim.add_argument("--jitter", type=float, default=0.0)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--save-trace", default=None)
    sim.set_defaults(func=cmd_simulate)

    st = sub.add_parser("structure", help="run the Section 3 attack")
    st.add_argument("--model", choices=sorted(MODEL_BUILDERS), default="lenet")
    st.add_argument("--width-scale", type=float, default=None)
    _add_dataflow_flag(st)
    st.add_argument("--tolerance", type=float, default=0.1)
    st.add_argument("--runs", type=int, default=1)
    st.add_argument("--loose-rules", action="store_true")
    st.add_argument("--show", type=int, default=1,
                    help="candidates to print in full")
    _add_channel_flags(st)
    _add_power_flags(st)
    st.set_defaults(func=cmd_structure)

    wt = sub.add_parser("weights", help="run the Section 4 attack (demo victim)")
    wt.add_argument("--size", type=int, default=43)
    wt.add_argument("--filters", type=int, default=8)
    wt.add_argument("--threshold", action="store_true",
                    help="exact recovery via the tunable threshold")
    wt.add_argument("--seed", type=int, default=0)
    wt.add_argument("--repeats", type=int, default=0,
                    help="vote over this many repeated measurements per "
                         "query (0: auto — single-shot on a clean "
                         "channel, calibrated repeats on a noisy one)")
    wt.add_argument("--workers", type=int, default=None,
                    help="worker processes sharding the filters (default: "
                         "serial; -1 uses every core this process may run "
                         "on; results are bit-identical at any count)")
    _add_channel_flags(wt)
    wt.set_defaults(func=cmd_weights)

    cl = sub.add_parser("clone", help="duplicate a demo victim end to end")
    _add_dataflow_flag(cl)
    cl.add_argument("--probes", type=int, default=120)
    cl.add_argument("--epochs", type=int, default=20)
    cl.add_argument("--seed", type=int, default=4)
    cl.add_argument("--repeats", type=int, default=0,
                    help="vote over this many repeated measurements per "
                         "query in the weights phase (0: auto)")
    _add_channel_flags(cl)
    _add_power_flags(cl)
    cl.set_defaults(func=cmd_clone)

    cp = sub.add_parser(
        "campaign",
        help="resumable, metered attack campaigns (see repro.campaign)",
    )
    cp.add_argument("action", choices=("run", "status", "resume"),
                    help="run: create (with --spec) and/or execute "
                         "pending jobs; resume: finish an interrupted "
                         "campaign; status: job/quota/cache accounting")
    cp.add_argument("--dir", required=True,
                    help="campaign directory (spec, checkpoints, shared "
                         "cache, results.jsonl)")
    cp.add_argument("--spec", default=None,
                    help="campaign spec JSON file (only with 'run' on a "
                         "new directory)")
    cp.set_defaults(func=cmd_campaign)
    return parser


def _add_dataflow_flag(sub_parser: argparse.ArgumentParser) -> None:
    sub_parser.add_argument(
        "--dataflow", choices=available_dataflows(),
        default="output-stationary",
        help="the victim accelerator's loop order (default: "
             "output-stationary)",
    )


# (flag, ChannelModel field, type, help); each flag's default is the
# field's.  Flags keep their own dests (``args.channel_seed``), so none
# collides with a subcommand's ``--seed``.
_CHANNEL_FLAGS = (
    ("--channel-drop", "drop_rate", float,
     "per-event trace loss probability"),
    ("--channel-dup", "dup_rate", float,
     "per-event trace duplication probability"),
    ("--channel-gran", "probe_granularity", int,
     "probe address granularity in bytes (observed addresses are "
     "truncated to multiples of it)"),
    ("--channel-jitter", "cycle_sigma", float,
     "trace delivery-latency scale in cycles (reorders nearby events)"),
    ("--channel-sigma", "counter_sigma", float,
     "counter read-out noise std-dev"),
    ("--channel-quantum", "counter_quantum", int,
     "counter read-out quantisation step"),
    ("--channel-power-sigma", "power_sigma", float,
     "power-probe read-out noise std-dev"),
    ("--channel-power-quantum", "power_quantum", int,
     "power-probe read-out quantisation step"),
    ("--channel-seed", "seed", int, "noise stream seed"),
)


def _add_channel_flags(sub_parser: argparse.ArgumentParser) -> None:
    """Measurement-channel fidelity knobs (default: a perfect tap)."""
    grp = sub_parser.add_argument_group(
        "measurement channel",
        "imperfections of the attacker's probe (see repro.channel); "
        "all default to the ideal channel of the paper's threat model",
    )
    defaults = {f.name: f.default for f in dataclasses.fields(ChannelModel)}
    for flag, name, kind, help_text in _CHANNEL_FLAGS:
        grp.add_argument(flag, type=kind, default=defaults[name],
                         help=help_text)


def _add_power_flags(sub_parser: argparse.ArgumentParser) -> None:
    """Second-leak-surface knobs (see repro.power / repro.attacks.fusion)."""
    grp = sub_parser.add_argument_group(
        "power side channel",
        "observe the device's power rail alongside the memory bus",
    )
    grp.add_argument("--power", action="store_true",
                     help="observe a power-proxy trace and report its "
                          "layer segmentation")
    grp.add_argument("--fuse", action="store_true",
                     help="recover boundaries by memory+power fusion "
                          "(one tee'd inference per run; implies the "
                          "power probe)")


def _channel_from_args(args) -> ChannelModel:
    return ChannelModel(**{
        name: getattr(args, flag[2:].replace("-", "_"))
        for flag, name, _, _ in _CHANNEL_FLAGS
    })


def _voted_channel(session: DeviceSession, channel: ChannelModel, repeats):
    """Wrap the session for voting when its counter is noisy."""
    if not channel.counter_noisy and not repeats:
        return session
    cal = calibrate_channel(session, repeats=32)
    print(f"calibration: {cal.describe()}")
    return VotingChannel(
        session, repeats=repeats or 9, sigma=cal.counter_sigma
    )


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ReproError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
