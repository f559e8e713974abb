"""Entry point: ``python -m benchmarks.perf [--quick] [--workers N]``."""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

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
from repro.attacks.structure import (  # noqa: E402
    StreamingTraceAnalyzer,
    analyse_trace,
    run_structure_attack,
)
from repro.attacks.structure.ranking import rank_candidates  # noqa: E402
from repro.attacks.weights import AttackTarget, WeightAttack  # noqa: E402
from repro.data import make_dataset  # noqa: E402
from repro.device import DeviceSession  # noqa: E402
from repro.nn.shapes import PoolSpec  # noqa: E402
from repro.nn.spec import LayerGeometry  # noqa: E402
from repro.nn.stages import StagedNetworkBuilder  # noqa: E402
from repro.nn.zoo import build_alexnet, build_lenet, build_model  # noqa: E402
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


def _timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def _per_call_s(fn, min_s: float = 0.05) -> float:
    """Seconds per call of ``fn``, calling it until ``min_s`` has passed.

    A LeNet replay takes ~0.1 ms, where one timing is mostly timer and
    cache noise; each repetition averages over at least ``min_s``.
    """
    calls = 0
    t0 = time.perf_counter()
    while True:
        fn()
        calls += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= min_s:
            return elapsed / calls


def effective_cpus() -> int:
    """CPUs this process may actually run on (affinity-aware)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


SKIP_SINGLE_CPU = "single-cpu-host"


def _entry(serial_s: float, parallel_s: float, workers: int,
           scale: str, identical: bool, multi_worker: bool = True) -> dict:
    """One bench record.

    ``multi_worker`` comparisons time two process counts against each
    other; on a host with a single effective CPU those numbers measure
    scheduler contention, not parallelism, so the speedup is nulled and
    the entry carries an explicit ``skipped`` marker instead of a fake
    figure.  Identity is asserted regardless — both arms always run.
    """
    entry = {
        "wall_s": round(parallel_s, 4),
        "speedup": round(serial_s / parallel_s, 3) if parallel_s else 0.0,
        "workers": workers,
        "scale": scale,
        "serial_wall_s": round(serial_s, 4),
        "identical": bool(identical),
    }
    if multi_worker and workers > 1 and effective_cpus() == 1:
        entry["speedup"] = None
        entry["skipped"] = SKIP_SINGLE_CPU
    return entry


# -- bench: candidate ranking ------------------------------------------------
def bench_ranking(workers: int, quick: bool, scale: str) -> dict:
    staged = build_model("lenet")
    result = run_structure_attack(AcceleratorSim(staged), tolerance=0.25)
    n_cands = 3 if quick else min(8, len(result.candidates))
    cands = result.candidates[:n_cands]
    per_class = 2 if quick else 6
    ds = make_dataset(
        num_classes=10, image_size=28, channels=1,
        train_per_class=per_class, val_per_class=max(1, per_class // 2),
        seed=0,
    )
    epochs = 1 if quick else 2

    def run(w):
        return rank_candidates(
            cands, ds, (1, 28, 28), 10, epochs=epochs, seed=7, workers=w
        )

    serial_s, r1 = _timed(lambda: run(1))
    parallel_s, rn = _timed(lambda: run(workers))
    identical = [
        (r.index, r.top1, r.top5, r.train_loss) for r in r1
    ] == [(r.index, r.top1, r.top5, r.train_loss) for r in rn]
    return _entry(serial_s, parallel_s, workers, scale, identical)


# -- bench: sharded weight recovery ------------------------------------------
def _weight_victim(size: int, filters: int, f: int = 11, s: int = 4,
                   seed: int = 0):
    rng = np.random.default_rng(seed)
    builder = StagedNetworkBuilder(
        "victim", (3, size, size), relu_threshold=0.0
    )
    geom = LayerGeometry.from_conv(
        size, 3, filters, f, s, 0, pool=PoolSpec(3, 2, 0)
    )
    builder.add_conv("conv1", geom)
    staged = builder.build()
    conv = staged.network.nodes["conv1/conv"].layer
    weights = rng.normal(size=conv.weight.value.shape) * 0.1
    weights[np.abs(weights) < 0.03] = 0.0
    conv.weight.value[:] = weights
    conv.bias.value[:] = -rng.uniform(0.05, 0.3, size=filters)
    return staged, geom


def bench_weights(workers: int, quick: bool, scale: str) -> dict:
    if quick:
        size, filters, f, s = 19, 4, 5, 2
    else:
        size, filters, f, s = 43, 8, 11, 4
    staged, geom = _weight_victim(size, filters, f=f, s=s)
    target = AttackTarget.from_geometry(geom)

    def run(w):
        sim = AcceleratorSim(
            staged, AcceleratorConfig(pruning=PruningConfig(enabled=True))
        )
        session = DeviceSession(sim, "conv1")
        return WeightAttack(session, target, workers=w).run()

    serial_s, r1 = _timed(lambda: run(1))
    parallel_s, rn = _timed(lambda: run(workers))
    identical = np.array_equal(r1.ratio_tensor(), rn.ratio_tensor()) and (
        r1.status_tensor() == rn.status_tensor()
    ).all()
    return _entry(serial_s, parallel_s, workers, scale, identical)


# -- bench: trace-synthesis throughput (reference vs vectorised) ---------------
def bench_throughput(workers: int, quick: bool, scale: str) -> dict:
    """Events/second of pure trace synthesis, reference vs vectorised.

    ``replay`` re-synthesizes the last run's trace without a forward
    pass, so this isolates the span-emission hot path; the reference
    arm re-synthesizes the same run through the per-tile oracle
    (:func:`repro.reference.synthesize_reference`).  Both must produce
    bit-identical streams (and LeNet must match the pinned golden
    digest); the vectorised path must clear the 3x bar on at least one
    net.  Speedups compare medians over interleaved repetitions so
    host noise hits both arms alike; ``events_per_second`` (the gated
    figure) uses the fastest repetition, since contention on a shared
    host only ever adds time.  This is a single-process bench —
    no single-CPU skip applies.
    """
    reps = 5 if quick else 11
    nets = [("lenet", build_lenet), ("alexnet", build_alexnet)]
    if not quick:
        nets.append(("squeezenet", lambda: build_model("squeezenet")))
    per_net: dict[str, dict] = {}
    identical = True
    golden_match = True
    best_speedup = 0.0
    for name, make in nets:
        staged = make()
        vec = AcceleratorSim(staged)
        x = np.zeros((1, *staged.network.input_shape))
        vec_digest = span_stream_digest(vec.run(x).trace)
        ref_digest = span_stream_digest(synthesize_reference(vec).trace)
        identical = identical and ref_digest == vec_digest
        if name == "lenet":
            golden_match = vec_digest == GOLDEN_LENET_SHA256
        stats = StatsSink()
        vec.replay(stats)
        ref_walls, vec_walls = [], []
        for _ in range(reps):
            ref_walls.append(
                _per_call_s(lambda: synthesize_reference(vec, StatsSink()))
            )
            vec_walls.append(_per_call_s(lambda: vec.replay(StatsSink())))
        ref_med = statistics.median(ref_walls)
        vec_med = statistics.median(vec_walls)
        speedup = ref_med / vec_med if vec_med else 0.0
        best_speedup = max(best_speedup, speedup)
        per_net[name] = {
            "events": int(stats.events),
            "reference_wall_s": round(ref_med, 5),
            "vectorised_wall_s": round(vec_med, 5),
            "speedup": round(speedup, 3),
            "events_per_second": round(stats.events / min(vec_walls))
            if vec_med else 0,
        }
    entry = _entry(
        sum(n["reference_wall_s"] for n in per_net.values()),
        sum(n["vectorised_wall_s"] for n in per_net.values()),
        1, scale, identical and golden_match, multi_worker=False,
    )
    entry.update(
        nets=per_net,
        golden_match=golden_match,
        threshold=3.0,
        bounded=best_speedup >= 3.0,
        reps=reps,
    )
    return entry


# -- bench: decode throughput (reference vs vectorised analyzers) --------------
def bench_decode(workers: int, quick: bool, scale: str) -> dict:
    """Events/second of attack-side decoding, reference vs vectorised.

    Materialises one AlexNet trace (the scale the 100x synthesis/decode
    gap was measured at), then streams it in decode-sized chunks through
    :class:`StreamingTraceAnalyzer`; the reference arm decodes the
    whole trace with :func:`repro.reference.decode_reference`.  The
    analyses must be bit-identical — the vectorised decoders' only
    licence to exist — and the vectorised arm must clear the 5x bar.  Timings
    are medians over interleaved repetitions so host noise hits both
    arms alike; ``events_per_second`` uses the fastest repetition.
    Single-process bench — no single-CPU skip applies.
    """
    reps = 3 if quick else 7
    chunk = 1 << 16
    staged = build_alexnet()
    obs = DeviceSession(
        AcceleratorSim(
            staged, AcceleratorConfig(dataflow="output-stationary")
        )
    ).observe_structure(seed=0)
    t = obs.trace

    def run():
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

    ref_walls, vec_walls, analyses = [], [], []
    for _ in range(reps):
        wall, out = _timed(lambda: decode_reference(obs)[1])
        ref_walls.append(wall)
        analyses.append(out)
        wall, out = _timed(run)
        vec_walls.append(wall)
        analyses.append(out)
    identical = all(a == analyses[0] for a in analyses[1:])
    ref_med = statistics.median(ref_walls)
    vec_med = statistics.median(vec_walls)
    speedup = ref_med / vec_med if vec_med else 0.0
    entry = _entry(
        ref_med, vec_med, 1, scale, identical, multi_worker=False
    )
    entry.update(
        events=len(t),
        chunk_events=chunk,
        reference_wall_s=round(ref_med, 5),
        vectorised_wall_s=round(vec_med, 5),
        events_per_second=round(len(t) / min(vec_walls)) if vec_med else 0,
        reference_events_per_second=round(len(t) / ref_med)
        if ref_med else 0,
        threshold=5.0,
        bounded=speedup >= 5.0,
        reps=reps,
    )
    return entry


# -- bench: power-proxy synthesis (reference vs vectorised PowerSink) ----------
def bench_power(workers: int, quick: bool, scale: str) -> dict:
    """Power samples/second through PowerSink, reference vs vectorised.

    Replays materialised span streams through a fresh
    :class:`~repro.power.PowerSink` (the SWAR-vectorised
    :meth:`~repro.power.PowerModel.event_energy`) without a forward
    pass, so this isolates the power accumulation hot path; the
    reference arm runs the per-event scalar oracle
    (:func:`repro.reference.power_reference`) over the materialised
    trace.  Both must produce bit-identical traces (and LeNet must
    match the pinned golden power digest); the vectorised arm must
    clear the 3x bar on at least one net.
    Speedups compare medians over interleaved repetitions; the per-second
    figures use the fastest repetition.  Single-process
    bench — no single-CPU skip applies.
    """
    from repro.power import PowerSink

    reps = 5 if quick else 11
    nets = [
        ("lenet", build_lenet),
        ("alexnet", lambda: build_alexnet(width_scale=0.25,
                                          num_classes=100)),
    ]
    per_net: dict[str, dict] = {}
    identical = True
    golden_match = True
    best_speedup = 0.0
    for name, make in nets:
        staged = make()
        sim = AcceleratorSim(staged)
        x = np.zeros((1, *staged.network.input_shape))
        t = sim.run(x).trace

        def run():
            sink = PowerSink(sim.config.timing)
            sim.replay(sink)
            return sink

        def run_reference():
            return power_reference(
                t.cycles, t.addresses, t.is_write, sim.config.timing
            )

        vec = run()
        vec_trace, ref_trace = vec.trace(), run_reference()
        identical = identical and (
            vec_trace.quantum == ref_trace.quantum
            and np.array_equal(vec_trace.samples, ref_trace.samples)
        )
        if name == "lenet":
            golden_match = vec_trace.digest() == GOLDEN_LENET_POWER_SHA256
        ref_walls, vec_walls = [], []
        for _ in range(reps):
            ref_walls.append(_per_call_s(run_reference))
            vec_walls.append(_per_call_s(run))
        ref_med = statistics.median(ref_walls)
        vec_med = statistics.median(vec_walls)
        speedup = ref_med / vec_med if vec_med else 0.0
        best_speedup = max(best_speedup, speedup)
        per_net[name] = {
            "events": int(vec.events),
            "samples": int(vec_trace.num_samples),
            "quantum": int(vec_trace.quantum),
            "total_energy": int(vec_trace.total_energy),
            "reference_wall_s": round(ref_med, 5),
            "vectorised_wall_s": round(vec_med, 5),
            "speedup": round(speedup, 3),
            "samples_per_second": round(
                vec_trace.num_samples / min(vec_walls)
            ) if vec_med else 0,
            "events_per_second": round(vec.events / min(vec_walls))
            if vec_med else 0,
        }
    entry = _entry(
        sum(n["reference_wall_s"] for n in per_net.values()),
        sum(n["vectorised_wall_s"] for n in per_net.values()),
        1, scale, identical and golden_match, multi_worker=False,
    )
    entry.update(
        nets=per_net,
        golden_match=golden_match,
        threshold=3.0,
        bounded=best_speedup >= 3.0,
        reps=reps,
    )
    return entry


# -- bench: dataflow identification --------------------------------------------
def bench_dataflow_id(workers: int, quick: bool, scale: str) -> dict:
    """Dataflow identification accuracy + identifier throughput.

    Synthesises one clean trace per golden victim × dataflow (each
    asserted against its pinned digest in ``golden.py``), then times
    the batch :func:`identify_dataflow` pass over it.  ``identical``
    carries the digest assertions; ``bounded`` demands 100%
    identification accuracy.  Single-process bench — no single-CPU
    skip applies; in ``--quick`` mode the larger victims carry an
    explicit ``skipped`` marker rather than silently vanishing.
    """
    from repro.attacks.structure import identify_dataflow

    dataflows = ("output-stationary", "weight-stationary", "row-stationary")
    all_models = ("lenet", "alexnet", "squeezenet")
    models = ("lenet",) if quick else all_models
    per_model: dict[str, dict] = {
        m: {"skipped": "quick"} for m in all_models if m not in models
    }
    correct = total = 0
    digests_ok = True
    wall_total = 0.0
    for m in models:
        staged = golden_model(m)
        shape = staged.network.input_shape
        per_df: dict[str, dict] = {}
        for df in dataflows:
            sim = AcceleratorSim(staged, AcceleratorConfig(dataflow=df))
            x = np.zeros((1, *shape))
            trace = sim.run(x).trace
            digests_ok = digests_ok and (
                span_stream_digest(trace) == GOLDEN_DATAFLOW_SHA256[(m, df)]
            )
            mem = sim.config.memory
            wall, sig = _timed(lambda: identify_dataflow(
                trace, shape, mem.element_bytes, mem.block_bytes
            ))
            wall_total += wall
            total += 1
            correct += sig.dataflow == df
            per_df[df] = {
                "identified": sig.dataflow,
                "events": len(trace),
                "wall_s": round(wall, 5),
                "events_per_second": round(len(trace) / wall) if wall else 0,
            }
        per_model[m] = per_df
    accuracy = correct / total if total else 0.0
    entry = _entry(
        wall_total, wall_total, 1, scale, digests_ok, multi_worker=False
    )
    entry.update(
        nets=per_model,
        accuracy=round(accuracy, 4),
        cases=total,
        bounded=accuracy == 1.0,
    )
    return entry


# -- bench: trace memory footprint (materialize vs spool+stream) --------------
def _traced(fn):
    """(wall seconds, tracemalloc peak bytes, result) for one arm."""
    tracemalloc.start()
    t0 = time.perf_counter()
    out = fn()
    wall = time.perf_counter() - t0
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return wall, peak, out


def bench_memory(workers: int, quick: bool, scale: str) -> dict:
    """Peak traced allocations: full-trace analysis vs the spooled stream.

    Both arms share one untraced simulation phase (model weights and
    compute transients are identical either way and would swamp the
    trace numbers); ``tracemalloc`` then covers only the trace path.
    The serial arm holds the whole materialised trace and runs the
    batch ``analyse_trace``; the parallel-slot arm replays spool chunks
    through ``StreamingTraceAnalyzer`` in O(chunk) memory.  Both must
    produce the same ``TraceAnalysis`` bit for bit, and the streaming
    peak must stay under the configured streaming budget.
    """
    import dataclasses

    from repro.accel.trace import MemoryTrace

    if quick:
        make, budget = build_lenet, 128 << 10
    else:
        make, budget = (
            lambda: build_alexnet(width_scale=0.25, num_classes=100),
            1 << 20,
        )
    flush = budget // 4  # spool chunk size: leaves headroom for fold temps

    # Untraced phase: simulate once per arm, trace path not yet running.
    obs = DeviceSession(AcceleratorSim(make())).observe_structure(seed=3)
    n_events = len(obs.trace)
    spool_session = DeviceSession(AcceleratorSim(make()))
    with SpoolSink(budget_bytes=flush) as spool, \
            tempfile.TemporaryDirectory(prefix="repro-bench-") as tmp:
        streamed_obs = spool_session.observe_structure(seed=3, sink=spool)
        path = os.path.join(tmp, "trace.npz")
        obs.trace.save(path)
        obs_sans_trace = dataclasses.replace(obs, trace=None)
        del obs

        def run_materialize():
            loaded = MemoryTrace.load(path)
            return analyse_trace(
                dataclasses.replace(obs_sans_trace, trace=loaded)
            )

        def run_streaming():
            analyzer = StreamingTraceAnalyzer(
                spool_session.image_shape,
                spool_session.element_bytes,
                spool_session.block_bytes,
            )
            for sp in spool.spans():
                analyzer.emit(sp)
            return analyzer.finish(streamed_obs)

        serial_s, peak_mat, batch = _traced(run_materialize)
        stream_s, peak_stream, streamed = _traced(run_streaming)

    entry = _entry(
        serial_s, stream_s, workers, scale, streamed == batch,
        multi_worker=False,
    )
    entry.update(
        peak_materialize_bytes=int(peak_mat),
        peak_streaming_bytes=int(peak_stream),
        budget_bytes=budget,
        spool_flush_bytes=flush,
        trace_events=int(n_events),
        memory_ratio=round(peak_mat / peak_stream, 3) if peak_stream else 0.0,
        bounded=bool(peak_stream < budget < peak_mat),
    )
    return entry


# -- bench: noisy-channel attack smoke ----------------------------------------
def bench_channel(workers: int, quick: bool, scale: str) -> dict:
    """Channel-ablation smoke: robust attacks under two noise points.

    Point one is a noisy trace channel (drops, duplication, latency
    reordering) driving the consensus boundary recovery on a tiny
    ConvNet; point two is a noisy nnz counter driving the calibrated
    repeat-and-vote weight attack, serial vs sharded.  ``identical``
    asserts the parallel-determinism contract extends to noise: the
    voted ratios match bit for bit at any worker count *and* equal the
    ideal-channel result.
    """
    from repro.attacks.robust import (
        BoundaryRecovery,
        VotingChannel,
        boundary_cycles_from_trace,
        boundary_f1,
        calibrate_channel,
    )
    from repro.channel import ChannelModel

    # Trace-noise point: boundary recovery must stay exact.
    net = build_model("convnet" if not quick else "lenet")
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

    # Counter-noise point: voted weight attack, workers=1 vs workers=N.
    # Single input channel keeps the repeat-inflated query count small
    # enough for a smoke run (sigma 0.5 calibrates to ~60 repeats).
    size, filters = (8, 3) if quick else (10, 4)
    rng = np.random.default_rng(5)
    builder = StagedNetworkBuilder("victim", (1, size, size), relu_threshold=0.0)
    geom = LayerGeometry.from_conv(size, 1, filters, 3, 1, 0, pool=None)
    builder.add_conv("conv1", geom)
    staged = builder.build()
    conv = staged.network.nodes["conv1/conv"].layer
    w0 = rng.normal(size=conv.weight.value.shape)
    w0[np.abs(w0) < 0.15] = 0.0
    conv.weight.value[:] = w0
    conv.bias.value[:] = -rng.uniform(0.3, 1.2, size=filters)
    target = AttackTarget.from_geometry(geom)
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

    serial_s, r1 = _timed(lambda: run(1))
    parallel_s, rn = _timed(lambda: run(workers))
    identical = np.array_equal(r1, rn) and np.array_equal(r1, ideal)
    entry = _entry(serial_s, parallel_s, workers, scale, identical)
    entry.update(structure_f1=round(f1, 4), bounded=f1 == 1.0)
    return entry


# -- bench: campaign throughput + shared cache reuse ---------------------------
def bench_campaign(workers: int, quick: bool, scale: str) -> dict:
    """Campaign throughput: jobs/minute and campaign-wide cache reuse.

    Runs one tiny grid with a duplicated cell five times, each time in
    a fresh directory (campaigns run their jobs serially).  The
    duplicate cell must be answered entirely by the campaign's shared
    content-addressed cache, so the hit-rate is structural, not
    incidental; ``identical`` asserts the runs' ``results.jsonl`` match
    byte for byte.  ``jobs/minute`` of the fastest run (one run takes
    ~40 ms) feeds the throughput-regression gate.
    """
    import shutil

    from repro.campaign import Campaign, JobCheckpoint

    base = {
        "victim": {"conv": {"w": 6 if quick else 8, "d": 2, "seed": 9}},
        "device": {"pruning": True},
        "search_steps": 8 if quick else 12,
        "filters_per_step": 1,
    }
    spec = {
        "name": "perf",
        "sweeps": [{
            "kind": "weight_recovery",
            "base": base,
            "grid": {"mode": ["naive", "naive"]},
        }],
    }

    def run():
        root = Path(tempfile.mkdtemp(prefix="repro-perf-campaign-"))
        try:
            campaign = Campaign.create(spec, root / "campaign")
            campaign.run()
            text = (root / "campaign" / "results.jsonl").read_bytes()
            shared = lookups = 0
            for job in campaign.jobs:
                ckpt = JobCheckpoint.load(campaign.store.jobs_dir, job.job_id)
                for snap in ckpt.ledgers:
                    shared += snap["shared_hits"]
                    lookups += snap["cache_hits"] + snap["cache_misses"]
            return text, len(campaign.jobs), shared, lookups
        finally:
            shutil.rmtree(root, ignore_errors=True)

    timed = [_timed(run) for _ in range(5)]
    serial_s = min(wall for wall, _ in timed)
    r1, n_jobs, shared, lookups = timed[0][1]
    identical = all(out[0] == r1 for _, out in timed)
    hit_rate = shared / lookups if lookups else 0.0
    entry = _entry(
        serial_s, serial_s, 1, scale, identical, multi_worker=False
    )
    entry.update(
        jobs=n_jobs,
        jobs_per_minute=round(n_jobs / serial_s * 60, 2)
        if serial_s else 0.0,
        cache_hit_rate=round(hit_rate, 4),
        shared_hits=int(shared),
        probe_lookups=int(lookups),
        bounded=hit_rate > 0.0,
    )
    return entry


BENCHES = {
    "ranking": bench_ranking,
    "weights": bench_weights,
    "events_per_second": bench_throughput,
    "decode_events_per_second": bench_decode,
    "power": bench_power,
    "dataflow_id": bench_dataflow_id,
    "memory": bench_memory,
    "channel": bench_channel,
    "campaign": bench_campaign,
}


REGRESSION_TOLERANCE = 0.7  # new throughput must be >= 70% of baseline


def _throughput_figures(results: dict) -> dict[str, int]:
    """Flat {metric: events/second} map of the throughput entries."""
    figures: dict[str, int] = {}
    synth = results.get("events_per_second", {})
    for net, stats in synth.get("nets", {}).items():
        if "events_per_second" in stats:
            figures[f"synthesis:{net}"] = stats["events_per_second"]
    decode = results.get("decode_events_per_second", {})
    if "events_per_second" in decode:
        figures["decode:alexnet"] = decode["events_per_second"]
    power = results.get("power", {})
    for net, stats in power.get("nets", {}).items():
        if "samples_per_second" in stats:
            figures[f"power:{net}"] = stats["samples_per_second"]
    campaign = results.get("campaign", {})
    if "jobs_per_minute" in campaign:
        figures["campaign:jobs_per_minute"] = campaign["jobs_per_minute"]
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
    old = _throughput_figures(baseline)
    new = _throughput_figures(results)
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
                             "(default: all cores, minimum 2)")
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

    workers = args.workers or max(2, os.cpu_count() or 1)
    scale = "small" if args.quick else os.environ.get(
        "REPRO_BENCH_SCALE", "small"
    )
    effective = effective_cpus()

    # The gate's unit, sampled between benches (see the gate).
    probe = HostProbe()
    kernel_s = [probe.kernel()]
    results: dict[str, dict] = {}
    for name, bench in BENCHES.items():
        print(f"[{name}] workers=1 vs workers={workers} ...", flush=True)
        results[name] = bench(workers, args.quick, scale)
        kernel_s.append(probe.kernel())
        e = results[name]
        speedup = (f"{e['speedup']:.2f}x" if e["speedup"] is not None
                   else f"skipped ({e['skipped']})")
        print(f"  serial {e['serial_wall_s']:.2f}s  parallel "
              f"{e['wall_s']:.2f}s  speedup {speedup}  "
              f"identical={e['identical']}")
        if not e["identical"]:
            print(f"  ERROR: {name} parallel result diverged", file=sys.stderr)
            return 1
        if not e.get("bounded", True):
            print(f"  ERROR: {name} failed its bound: "
                  f"{json.dumps(e, default=str)}", file=sys.stderr)
            return 1

    results["_meta"] = {
        "cpu_count": os.cpu_count(),
        "effective_cpus": effective,
        "python": platform.python_version(),
        "quick": args.quick,
        "ref_kernel_s": round(min(kernel_s), 6),
    }
    failures = check_throughput_regression(baseline, results, effective)
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
