"""Entry point: ``python -m benchmarks.perf [--quick] [--workers N]``.

Every bench is one row of :data:`ROWS`: a ``run(quick, workers)`` that
builds its victims, times its arms and makes the identity check, an
optional ``bound`` on the entry and the ``figures`` the throughput gate
compares.  Six rows share two timers: :func:`reference_vs_vectorised`
(synthesis, decode, power) and :func:`serial_vs_workers` (ranking,
weights, channel).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path
from typing import Any, Callable

import numpy as np

REPO_ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.accel import (  # noqa: E402
    AcceleratorConfig,
    AcceleratorSim,
    PruningConfig,
    SpoolSink,
    StatsSink,
)
from repro.accel.trace import MemoryTrace  # noqa: E402
from repro.attacks.robust import (  # noqa: E402
    BoundaryRecovery,
    VotingChannel,
    boundary_cycles_from_trace,
    boundary_f1,
    calibrate_channel,
)
from repro.attacks.structure import (  # noqa: E402
    StreamingTraceAnalyzer,
    analyse_trace,
    identify_dataflow,
    run_structure_attack,
)
from repro.attacks.structure.ranking import rank_candidates  # noqa: E402
from repro.attacks.weights import AttackTarget, WeightAttack  # noqa: E402
from repro.campaign import Campaign, JobCheckpoint  # noqa: E402
from repro.campaign.victims import build_victim  # noqa: E402
from repro.channel import ChannelModel  # noqa: E402
from repro.data import make_dataset  # noqa: E402
from repro.device import DeviceSession  # noqa: E402
from repro.nn.zoo import (  # noqa: E402
    build_alexnet,
    build_lenet,
    build_model,
    build_weight_victim,
)
from repro.parallel import available_cpus  # noqa: E402
from repro.power import PowerSink  # noqa: E402
from repro.reference import (  # noqa: E402
    decode_reference,
    power_reference,
    synthesize_reference,
)
from perfbench.worker import HostProbe  # noqa: E402

from .golden import (  # noqa: E402
    GOLDEN_DATAFLOW_SHA256,
    GOLDEN_LENET_POWER_SHA256,
    GOLDEN_LENET_SHA256,
    golden_model,
    span_stream_digest,
)

SKIP_SINGLE_CPU = "single-cpu-host"


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def _per_call_s(fn, min_s: float) -> tuple[float, Any]:
    """Seconds per call of ``fn`` and its last output, calling it until
    ``min_s`` has passed.

    A LeNet replay takes ~0.1 ms, where one timing is mostly timer and
    cache noise; each repetition averages over at least ``min_s``
    (``0`` times a single call).
    """
    calls = 0
    t0 = time.perf_counter()
    while True:
        out = fn()
        calls += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= min_s:
            return elapsed / calls, out


# -- shared timer: serial vs workers -------------------------------------------
def serial_vs_workers(run: Callable[[int], Any], same, workers: int,
                      **facts) -> dict:
    """Time ``run(1)`` then ``run(workers)``; ``same`` compares results.

    On a host with a single usable CPU the two process counts measure
    scheduler contention, not parallelism, so the speedup is nulled and
    the entry carries an explicit ``skipped`` marker instead of a fake
    figure.  Identity is asserted regardless: both arms always run.
    """
    serial_s, r1 = _timed(lambda: run(1))
    parallel_s, rn = _timed(lambda: run(workers))
    skipped = workers > 1 and available_cpus() == 1
    entry = {
        "wall_s": round(parallel_s, 4),
        "speedup": None if skipped else round(serial_s / parallel_s, 3),
        "workers": workers,
        "serial_wall_s": round(serial_s, 4),
        "identical": bool(same(r1, rn)),
        **facts,
    }
    if skipped:
        entry["skipped"] = SKIP_SINGLE_CPU
    return entry


# -- shared timer: reference vs vectorised ---------------------------------------
@dataclasses.dataclass
class Case:
    """One net's two arms.

    ``identical`` is the identity check made at setup on the full
    outputs (and against the pinned golden digest where there is one);
    ``same`` checks every timed call's output against that setup result.
    ``units`` is the work one call does; each is reported per second.
    """

    net: str
    reference: Callable[[], Any]
    vectorised: Callable[[], Any]
    identical: bool
    same: Callable[[Any], bool]
    units: dict[str, int]
    facts: dict = dataclasses.field(default_factory=dict)


def reference_vs_vectorised(cases: list[Case], reps: int, min_s: float,
                            flat: bool = False) -> dict:
    """Interleaved repetitions of every case's two arms.

    Speedups compare medians, so host noise hits both arms alike; the
    per-second figures use the fastest vectorised repetition, since
    contention on a shared host only ever adds time.  ``min_s`` is the
    averaging window per repetition (see :func:`_per_call_s`); ``flat``
    records a single case at the top of the entry.  Single-process: no
    single-CPU skip applies.
    """
    nets: dict[str, dict] = {}
    identical = True
    for case in cases:
        ref, vec = [], []
        for _ in range(reps):
            for arm, walls in ((case.reference, ref), (case.vectorised, vec)):
                wall, out = _per_call_s(arm, min_s)
                walls.append(wall)
                identical = identical and bool(case.same(out))
        identical = identical and case.identical
        ref_med, vec_med = statistics.median(ref), statistics.median(vec)
        nets[case.net] = record = {
            **case.units,
            **case.facts,
            "reference_wall_s": round(ref_med, 5),
            "vectorised_wall_s": round(vec_med, 5),
            "speedup": round(ref_med / vec_med, 3),
        }
        for unit, n in case.units.items():
            record[f"{unit}_per_second"] = round(n / min(vec))
            record[f"reference_{unit}_per_second"] = round(n / ref_med)
    ref_s = sum(n["reference_wall_s"] for n in nets.values())
    vec_s = sum(n["vectorised_wall_s"] for n in nets.values())
    entry = {
        "wall_s": round(vec_s, 4),
        "speedup": round(ref_s / vec_s, 3),
        "workers": 1,
        "serial_wall_s": round(ref_s, 4),
        "identical": identical,
        "best_speedup": max(n["speedup"] for n in nets.values()),
        "reps": reps,
    }
    if flat:
        (record,) = nets.values()
        entry.update(record)
    else:
        entry["nets"] = nets
    return entry


# -- rows: each is (quick, workers) -> entry ---------------------------------
def ranking(quick: bool, workers: int) -> dict:
    """Candidate ranking (a short training run per candidate), sharded."""
    result = run_structure_attack(
        AcceleratorSim(build_model("lenet")), tolerance=0.25
    )
    cands = result.candidates[: 3 if quick else 8]
    per_class = 2 if quick else 6
    ds = make_dataset(
        num_classes=10, image_size=28, channels=1,
        train_per_class=per_class, val_per_class=max(1, per_class // 2),
        seed=0,
    )

    def run(w):
        ranks = rank_candidates(
            cands, ds, (1, 28, 28), 10, epochs=1 if quick else 2, seed=7,
            workers=w,
        )
        return [(r.index, r.top1, r.top5, r.train_loss) for r in ranks]

    return serial_vs_workers(run, lambda a, b: a == b, workers)


def weights(quick: bool, workers: int) -> dict:
    """Weight recovery with the filters sharded over workers."""
    size, filters, f, s = (19, 4, 5, 2) if quick else (43, 8, 11, 4)
    staged, geom, _, _ = build_weight_victim(
        size, filters, filter_size=f, stride=s
    )
    target = AttackTarget.from_geometry(geom)

    def run(w):
        sim = AcceleratorSim(
            staged, AcceleratorConfig(pruning=PruningConfig(enabled=True))
        )
        return WeightAttack(DeviceSession(sim, "conv1"), target, workers=w).run()

    return serial_vs_workers(run, lambda a, b: (
        np.array_equal(a.ratio_tensor(), b.ratio_tensor())
        and (a.status_tensor() == b.status_tensor()).all()
    ), workers)


def synthesis(quick: bool, workers: int) -> dict:
    """Events/second of pure trace synthesis.

    ``replay`` re-synthesizes the last run's trace without a forward
    pass, so this isolates the span-emission hot path; the reference
    arm re-synthesizes the same run through the per-tile oracle.  Every
    timed call must end at the same cycle with the same stage windows.
    """
    nets = [("lenet", build_lenet), ("alexnet", build_alexnet)]
    if not quick:
        nets.append(("squeezenet", lambda: build_model("squeezenet")))
    cases = []
    for name, make in nets:
        staged = make()
        sim = AcceleratorSim(staged)
        run = sim.run(np.zeros((1, *staged.network.input_shape)))
        digest = span_stream_digest(run.trace)
        golden = GOLDEN_LENET_SHA256 if name == "lenet" else digest
        stats = StatsSink()
        sim.replay(stats)
        cases.append(Case(
            name,
            lambda sim=sim: synthesize_reference(sim, StatsSink()),
            lambda sim=sim: sim.replay(StatsSink()),
            span_stream_digest(synthesize_reference(sim).trace)
            == digest == golden,
            lambda r, run=run: (r.total_cycles, r.windows)
            == (run.total_cycles, run.windows),
            {"events": int(stats.events)},
        ))
    return reference_vs_vectorised(cases, reps=5 if quick else 11, min_s=0.05)


def decode(quick: bool, workers: int) -> dict:
    """Events/second of attack-side decoding of one AlexNet trace.

    The vectorised arm streams the trace in decode-sized chunks through
    :class:`StreamingTraceAnalyzer`; the reference arm decodes it whole.
    Every timed analysis must equal the first reference analysis.
    """
    chunk = 1 << 16
    obs = DeviceSession(AcceleratorSim(
        build_alexnet(), AcceleratorConfig(dataflow="output-stationary")
    )).observe_structure(seed=0)
    t = obs.trace

    def streamed():
        analyzer = StreamingTraceAnalyzer(
            obs.input_shape, obs.element_bytes, obs.block_bytes,
            dataflow="output-stationary",
        )
        for s in range(0, len(t), chunk):
            analyzer.feed(
                t.cycles[s:s + chunk],
                t.addresses[s:s + chunk],
                t.is_write[s:s + chunk],
            )
        return analyzer.finish(obs)

    def reference():
        return decode_reference(obs)[1]

    expected = reference()
    case = Case(
        "alexnet", reference, streamed, True, expected.__eq__,
        {"events": len(t)}, {"chunk_events": chunk},
    )
    return reference_vs_vectorised(
        [case], reps=3 if quick else 7, min_s=0.0, flat=True
    )


def power(quick: bool, workers: int) -> dict:
    """Power samples/second through :class:`~repro.power.PowerSink`.

    The vectorised arm replays the span stream into a fresh sink; the
    reference arm runs the per-event scalar oracle over the
    materialised trace.  Their traces must be bit-identical, on every
    timed call too.
    """
    cases = []
    for name, make in (
        ("lenet", build_lenet),
        ("alexnet", lambda: build_alexnet(width_scale=0.25, num_classes=100)),
    ):
        staged = make()
        sim = AcceleratorSim(staged)
        t = sim.run(np.zeros((1, *staged.network.input_shape))).trace

        def vectorised(sim=sim):
            sink = PowerSink(sim.config.timing)
            sim.replay(sink)
            return sink.trace()

        def reference(t=t, timing=sim.config.timing):
            return power_reference(t.cycles, t.addresses, t.is_write, timing)

        sink = PowerSink(sim.config.timing)
        sim.replay(sink)
        vec = sink.trace()
        golden = GOLDEN_LENET_POWER_SHA256 if name == "lenet" else vec.digest()
        cases.append(Case(
            name, reference, vectorised, vec.digest() == golden,
            lambda out, vec=vec: out.quantum == vec.quantum
            and np.array_equal(out.samples, vec.samples),
            {"events": int(sink.events), "samples": int(vec.num_samples)},
            {"quantum": int(vec.quantum),
             "total_energy": int(vec.total_energy)},
        ))
    return reference_vs_vectorised(cases, reps=5 if quick else 11, min_s=0.05)


DATAFLOWS = ("output-stationary", "weight-stationary", "row-stationary")
GOLDEN_MODELS = ("lenet", "alexnet", "squeezenet")


def dataflow_id(quick: bool, workers: int) -> dict:
    """Time the batch :func:`identify_dataflow` on one clean,
    digest-checked trace per golden victim x dataflow.

    In ``--quick`` mode the larger victims carry an explicit
    ``skipped`` marker rather than silently vanishing.
    """
    nets: dict[str, dict] = {}
    wall_total, correct, identical, cases = 0.0, 0, True, 0
    for m in GOLDEN_MODELS[:1] if quick else GOLDEN_MODELS:
        staged = golden_model(m)
        for df in DATAFLOWS:
            sim = AcceleratorSim(staged, AcceleratorConfig(dataflow=df))
            trace = sim.run(np.zeros((1, *staged.network.input_shape))).trace
            identical = identical and (
                span_stream_digest(trace) == GOLDEN_DATAFLOW_SHA256[(m, df)]
            )
            mem = sim.config.memory
            wall, sig = _timed(lambda: identify_dataflow(
                trace, staged.network.input_shape, mem.element_bytes,
                mem.block_bytes,
            ))
            wall_total += wall
            correct += sig.dataflow == df
            cases += 1
            nets.setdefault(m, {})[df] = {
                "identified": sig.dataflow,
                "events": len(trace),
                "wall_s": round(wall, 5),
                "events_per_second": round(len(trace) / wall) if wall else 0,
            }
    for m in GOLDEN_MODELS:
        nets.setdefault(m, {"skipped": "quick"})
    return {
        "wall_s": round(wall_total, 4),
        "workers": 1,
        "identical": identical,
        "nets": nets,
        "accuracy": round(correct / cases, 4),
        "cases": cases,
    }


def _traced(fn):
    """(wall seconds, tracemalloc peak bytes, result) for one arm."""
    tracemalloc.start()
    t0 = time.perf_counter()
    out = fn()
    wall = time.perf_counter() - t0
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return wall, peak, out


def memory(quick: bool, workers: int) -> dict:
    """Peak traced allocations: a saved full trace vs a spooled stream
    of the same inference; the analyses must match.

    Both simulate outside the traced region (model weights and compute
    transients are identical either way and would swamp the trace
    numbers).  ``materialize`` loads the whole trace and runs the batch
    ``analyse_trace``; ``stream`` replays spool chunks through
    ``StreamingTraceAnalyzer`` in O(chunk) memory.
    """
    if quick:
        make, budget = build_lenet, 128 << 10
    else:
        make, budget = (
            lambda: build_alexnet(width_scale=0.25, num_classes=100), 1 << 20
        )
    flush = budget // 4  # spool chunk size: leaves headroom for fold temps
    obs = DeviceSession(AcceleratorSim(make())).observe_structure(seed=3)
    session = DeviceSession(AcceleratorSim(make()))
    with SpoolSink(budget_bytes=flush) as spool, \
            tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        streamed_obs = session.observe_structure(seed=3, sink=spool)
        path = os.path.join(tmp, "trace.npz")
        obs.trace.save(path)
        events = len(obs.trace)
        obs = dataclasses.replace(obs, trace=None)

        def materialize():
            return analyse_trace(
                dataclasses.replace(obs, trace=MemoryTrace.load(path))
            )

        def stream():
            analyzer = StreamingTraceAnalyzer(
                session.image_shape, session.element_bytes,
                session.block_bytes,
            )
            for span in spool.spans():
                analyzer.emit(span)
            return analyzer.finish(streamed_obs)

        serial_s, peak_mat, batch = _traced(materialize)
        stream_s, peak_stream, streamed = _traced(stream)
    return {
        "wall_s": round(stream_s, 4),
        "speedup": round(serial_s / stream_s, 3),
        "workers": 1,
        "serial_wall_s": round(serial_s, 4),
        "identical": streamed == batch,
        "peak_materialize_bytes": int(peak_mat),
        "peak_streaming_bytes": int(peak_stream),
        "memory_ratio": round(peak_mat / peak_stream, 3),
        "budget_bytes": budget,
        "spool_flush_bytes": flush,
        "trace_events": events,
    }


def channel(quick: bool, workers: int) -> dict:
    """Robust attacks under two noise points.

    A noisy trace channel (drops, duplication, latency reordering)
    drives the consensus boundary recovery, scored against the clean
    tap; a noisy nnz counter drives the calibrated repeat-and-vote
    weight attack, whose voted ratios must match bit for bit at any
    worker count *and* equal the ideal-channel result.
    """
    net = build_model("lenet" if quick else "convnet")
    truth = boundary_cycles_from_trace(
        DeviceSession(AcceleratorSim(net)).observe_structure(seed=0).trace
    )
    trace_channel = ChannelModel(
        drop_rate=0.02, dup_rate=0.01, cycle_sigma=60.0, seed=11
    )
    noisy = DeviceSession(AcceleratorSim(net), channel=trace_channel)
    result = BoundaryRecovery(noisy, runs=3).run()
    f1 = boundary_f1(
        result.boundaries, truth, tol=trace_channel.latency_window + 50
    ).f1

    # A single input channel keeps the repeat-inflated query count small
    # enough for a smoke run (sigma 0.5 calibrates to ~60 repeats).
    size, filters = (8, 3) if quick else (10, 4)
    staged = build_victim({"conv": {
        "w": size, "d": filters, "seed": 5, "bias_sign": -1.0,
    }})
    target = AttackTarget.from_geometry(staged.geometries()[0])
    counter_channel = ChannelModel(counter_sigma=0.5, seed=3)
    steps = 18 if quick else 28

    def session(channel=None):
        sim = AcceleratorSim(
            staged, AcceleratorConfig(pruning=PruningConfig(enabled=True))
        )
        return DeviceSession(sim, "conv1", channel=channel)

    ideal = WeightAttack(
        session(), target, search_steps=steps
    ).run().ratio_tensor()

    def run(w):
        cal = calibrate_channel(session(counter_channel), repeats=32)
        voting = VotingChannel(session(counter_channel), sigma=cal.counter_sigma)
        return WeightAttack(
            voting, target, search_steps=steps, workers=w
        ).run().ratio_tensor()

    return serial_vs_workers(
        run, lambda a, b: np.array_equal(a, b) and np.array_equal(a, ideal),
        workers, structure_f1=round(f1, 4),
    )


def campaign(quick: bool, workers: int) -> dict:
    """One tiny campaign grid whose second cell duplicates the first.

    The duplicate cell must be answered entirely by the campaign's
    shared content-addressed cache, so the hit rate is structural.
    Five serial runs in fresh directories; ``results.jsonl`` must match
    byte for byte and jobs/minute comes from the fastest (~40 ms) one.
    """
    spec = {
        "name": "perf",
        "sweeps": [{
            "kind": "weight_recovery",
            "base": {
                "victim": {"conv": {"w": 6 if quick else 8, "d": 2, "seed": 9}},
                "device": {"pruning": True},
                "search_steps": 8 if quick else 12,
                "filters_per_step": 1,
            },
            "grid": {"mode": ["naive", "naive"]},
        }],
    }

    def run():
        root = Path(tempfile.mkdtemp(prefix="repro-perf-campaign-"))
        try:
            c = Campaign.create(spec, root / "campaign")
            c.run()
            text = (root / "campaign" / "results.jsonl").read_bytes()
            snaps = [
                snap for job in c.jobs
                for snap in JobCheckpoint.load(c.store.jobs_dir, job.job_id).ledgers
            ]
            shared = sum(s["shared_hits"] for s in snaps)
            lookups = sum(s["cache_hits"] + s["cache_misses"] for s in snaps)
            return text, len(c.jobs), shared, lookups
        finally:
            shutil.rmtree(root, ignore_errors=True)

    timed = [_timed(run) for _ in range(5)]
    wall = min(t for t, _ in timed)
    text, n_jobs, shared, lookups = timed[0][1]
    return {
        "wall_s": round(wall, 4),
        "workers": 1,
        "identical": all(out[0] == text for _, out in timed),
        "jobs": n_jobs,
        "jobs_per_minute": round(n_jobs / wall * 60, 2),
        "cache_hit_rate": round(shared / lookups if lookups else 0.0, 4),
        "shared_hits": int(shared),
        "probe_lookups": int(lookups),
    }


def _per_net(prefix: str, key: str) -> Callable[[dict], dict]:
    """Gated figures ``<prefix>:<net>``, read from each net's ``key``."""
    return lambda entry: {
        f"{prefix}:{net}": stats[key]
        for net, stats in entry.get("nets", {}).items() if key in stats
    }


def _no_figures(entry: dict) -> dict:
    return {}


@dataclasses.dataclass(frozen=True)
class Row:
    name: str  # the entry's key in BENCH_perf.json
    run: Callable[[bool, int], dict]  # (quick, workers) -> entry
    bound: Callable[[dict], bool] | None = None
    figures: Callable[[dict], dict] = _no_figures
    parallel: bool = False  # run ends in serial_vs_workers


ROWS: tuple[Row, ...] = (
    Row("ranking", ranking, parallel=True),
    Row("weights", weights, parallel=True),
    Row("events_per_second", synthesis,
        bound=lambda e: e["best_speedup"] >= 3.0,
        figures=_per_net("synthesis", "events_per_second")),
    Row("decode_events_per_second", decode,
        bound=lambda e: e["best_speedup"] >= 5.0,
        figures=lambda e: {"decode:alexnet": e["events_per_second"]}),
    Row("power", power,
        bound=lambda e: e["best_speedup"] >= 3.0,
        figures=_per_net("power", "samples_per_second")),
    Row("dataflow_id", dataflow_id, bound=lambda e: e["accuracy"] == 1.0),
    Row("memory", memory,
        bound=lambda e: e["peak_streaming_bytes"] < e["budget_bytes"]
        < e["peak_materialize_bytes"]),
    Row("channel", channel, bound=lambda e: e["structure_f1"] == 1.0,
        parallel=True),
    Row("campaign", campaign,
        bound=lambda e: e["cache_hit_rate"] > 0.0,
        figures=lambda e: {"campaign:jobs_per_minute": e["jobs_per_minute"]}),
)


def header(row: Row, workers: int) -> str:
    """The progress line printed before ``row`` runs; only rows that
    time a worker pool announce the comparison."""
    if row.parallel:
        return f"[{row.name}] workers=1 vs workers={workers} ..."
    return f"[{row.name}] ..."


def run_row(row: Row, workers: int, quick: bool) -> dict:
    entry = row.run(quick, workers)
    if row.bound is not None:
        entry["bounded"] = bool(row.bound(entry))
    return entry


REGRESSION_TOLERANCE = 0.7  # new throughput must be >= 70% of baseline


def gated_figures(results: dict) -> dict[str, float]:
    """Flat ``{figure: value}`` map of every row's gated figures."""
    figures: dict[str, float] = {}
    for row in ROWS:
        if row.name in results:
            figures.update(row.figures(results[row.name]))
    return figures


def check_throughput_regression(
    baseline: dict | None, results: dict, cpus: int,
    tolerance: float = REGRESSION_TOLERANCE,
) -> list[str]:
    """Compare throughput figures against the committed baseline.

    Each figure is compared in reference units: its throughput times
    ``_meta.ref_kernel_s``, the fastest time its run measured for
    perfbench's :class:`HostProbe` kernel (the unit of the end-to-end
    benchmark's ``wall_ref``).  That is the work done per kernel run, so
    the host's speed cancels out and a baseline recorded on one runner
    gates a run on another; both sides are best-of-N, since contention
    on a shared host only ever adds time.  Returns human-readable
    failure lines for every metric that dropped below ``tolerance`` x
    its baseline.  Skips (returning ``[]``, with a printed reason) when
    there is no trustworthy comparison to make: no baseline file, a
    baseline from a different ``--quick`` mode or without the unit, or
    a single-CPU host whose wall-clock figures measure scheduler
    contention as much as the code under test.
    """
    if cpus == 1:
        print(f"[gate] skipped ({SKIP_SINGLE_CPU}): throughput on a "
              "contended single CPU is not comparable")
        return []
    if not baseline:
        print("[gate] skipped: no committed baseline to compare against")
        return []
    if baseline.get("_meta", {}).get("quick") != results["_meta"]["quick"]:
        print("[gate] skipped: baseline was recorded at a different scale")
        return []
    if "ref_kernel_s" not in baseline["_meta"]:
        print("[gate] skipped: baseline predates the reference-kernel unit")
        return []
    old_unit = baseline["_meta"]["ref_kernel_s"]
    new_unit = results["_meta"]["ref_kernel_s"]
    old = gated_figures(baseline)
    new = gated_figures(results)
    failures = []
    for metric in sorted(old.keys() & new.keys()):
        old_ref = old[metric] * old_unit
        new_ref = new[metric] * new_unit
        floor = old_ref * tolerance
        status = "ok" if new_ref >= floor else "REGRESSED"
        print(f"[gate] {metric}: {old_ref:,.0f} -> {new_ref:,.0f} "
              f"per ref (floor {floor:,.0f}) {status}")
        if new_ref < floor:
            failures.append(
                f"{metric} regressed: {new_ref:,.0f} per ref < "
                f"{tolerance:.0%} of baseline {old_ref:,.0f} per ref"
            )
    return failures


def _write_profile(path: Path, quick: bool) -> None:
    """cProfile one vectorised inference + replay (CI artifact)."""
    import cProfile

    staged = build_model("lenet" if quick else "alexnet")
    sim = AcceleratorSim(staged)
    x = np.zeros((1, *staged.network.input_shape))
    profiler = cProfile.Profile()
    profiler.enable()
    sim.run(x, StatsSink())
    sim.replay(StatsSink())
    profiler.disable()
    profiler.dump_stats(path)
    print(f"wrote profile {path}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="benchmarks.perf", description=__doc__
    )
    parser.add_argument("--quick", action="store_true",
                        help="shrink every workload (CI smoke run)")
    parser.add_argument("--workers", type=int, default=None,
                        help="parallel arm's worker count "
                             "(default: all usable cores, minimum 2)")
    parser.add_argument("--output", type=Path,
                        default=REPO_ROOT / "BENCH_perf.json")
    parser.add_argument("--profile", type=Path, default=None,
                        help="also write a cProfile dump of one "
                             "simulator run (CI uploads it)")
    args = parser.parse_args(argv)

    baseline = None
    if args.output.exists():  # read before the new results overwrite it
        try:
            baseline = json.loads(args.output.read_text())
        except (OSError, json.JSONDecodeError):
            baseline = None

    cpus = available_cpus()
    workers = args.workers or max(2, cpus)
    # The gate's unit, sampled between rows (see the gate).
    probe = HostProbe()
    kernel_s = [probe.kernel()]
    results: dict[str, dict] = {}
    for row in ROWS:
        print(header(row, workers), flush=True)
        e = results[row.name] = run_row(row, workers, args.quick)
        kernel_s.append(probe.kernel())
        speedup = e.get("skipped") or (
            f"{e['speedup']:.2f}x" if "speedup" in e else "n/a"
        )
        print(f"  wall {e['wall_s']:.2f}s  speedup {speedup}  "
              f"identical={e['identical']}")
        if not e["identical"]:
            print(f"  ERROR: {row.name} arms diverged", file=sys.stderr)
            return 1
        if not e.get("bounded", True):
            print(f"  ERROR: {row.name} failed its bound: "
                  f"{json.dumps(e, default=str)}", file=sys.stderr)
            return 1

    results["_meta"] = {
        "cpu_count": os.cpu_count(),
        "effective_cpus": cpus,
        "python": platform.python_version(),
        "quick": args.quick,
        "ref_kernel_s": round(min(kernel_s), 6),
    }
    failures = check_throughput_regression(baseline, results, cpus)
    if failures:
        # The baseline stays as it was: overwriting it with the
        # regressed figures would let the next run pass against them.
        for line in failures:
            print(f"ERROR: {line}", file=sys.stderr)
        return 1
    args.output.write_text(json.dumps(results, indent=2) + "\n")
    print(f"\nwrote {args.output}")
    if args.profile is not None:
        _write_profile(args.profile, args.quick)
    return 0


if __name__ == "__main__":
    sys.exit(main())
