"""End-to-end attack benchmark: one workload per invocation.

    python3 perfbench/run.py --workload structure|weights|noisy_campaign
        [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root (the package is imported from ``src/``).
With ``--trace 0`` the workload runs in ``SETUPS`` fresh interpreters
one after another; each pays the full set-up (imports, victim/device
build, one untimed warm-up pass) and then runs timed passes for an
equal share of ``S`` seconds.  ``setup_s`` is the median set-up and
``wall_ref`` the median over all their passes of the pass's wall time
in units of the reference kernel sampled during it (see ``worker.py``).  With ``--trace 1`` one interpreter runs untraced
passes and then traced ones, and reports the per-layer breakdown of
:mod:`perfbench.layers`.

Human-readable figures go to stdout first; the last stdout line is the
JSON result.  Spans of a traced run are written to
``.perfbench_out/spans-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench.layers import LAYERS  # noqa: E402

WORKLOADS = ("structure", "weights", "noisy_campaign")
# Fresh interpreters per measured run, each paying the full set-up.
SETUPS = 3
DEADLINE_S = 170
MB = float(1 << 20)
REFUSED_ENV = ("REPRO_BENCH_SCALE", "REPRO_CAMPAIGN_KILL")

E2E_UNITS = {
    "setup_s": "s",
    "wall_ref": "ref",
    "peak_rss_mb": "MB",
    "device_inferences": "count",
    "device_runs": "count",
    "trace_mb": "MB",
    "attack_pass_frac": "ratio",
}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


# Workers still running, killed if the run is cut short.
_CHILDREN: list[subprocess.Popen] = []


def _spawn(args, mode: str, seconds: float, workdir: Path, spans=None):
    """Start one worker; returns (set-up seconds, report dict)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    env["TMPDIR"] = str(workdir / "tmp")
    # One hash layout for every worker: dict and set behaviour then does
    # not differ from one process to the next.
    env["PYTHONHASHSEED"] = "0"
    cmd = [
        sys.executable, "-m", "perfbench.worker",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(seconds), "--mode", mode,
        "--workdir", str(workdir),
    ]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    began = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            text=True)
    _CHILDREN.append(proc)
    try:
        setup = None
        last = ""
        for line in proc.stdout:
            if setup is None and line.strip() == "READY":
                setup = time.perf_counter() - began
            elif line.strip():
                last = line
        code = proc.wait()
    finally:
        _CHILDREN.remove(proc)
        proc.stdout.close()
    if code != 0 or setup is None:
        raise BenchError(f"worker exited with code {code}")
    return setup, json.loads(last)


def _on_deadline(signum, frame):
    raise BenchError(f"run exceeded {DEADLINE_S} s")


def _stop_children() -> None:
    for proc in list(_CHILDREN):
        proc.kill()
        proc.wait()


def _totals(passes: list[dict]) -> tuple[dict, list[str]]:
    """The per-pass totals, which every pass must repeat exactly."""
    first = passes[0]["totals"]
    errors = [
        f"pass {k} totals differ: {p['totals']} != {first}"
        for k, p in enumerate(passes) if p["totals"] != first
    ]
    return first, errors


def _verdicts(passes: list[dict]) -> tuple[int, int, list[str]]:
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    errors = sorted({e for p in passes for e in p["errors"]})
    return attempted, failed, errors


def _quartiles(values: list[float]) -> str:
    if len(values) < 2:
        return f"{values[0]:.4f}"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"q1 {q1:.4f}  median {q2:.4f}  q3 {q3:.4f}"


def measure(args, workdir: Path) -> dict:
    setups, passes, rss = [], [], []
    host = None
    for _ in range(SETUPS):
        setup, report = _spawn(args, "measure", args.seconds / SETUPS,
                               workdir)
        setups.append(setup)
        passes += report["passes"]
        rss.append(report["peak_rss_mb"])
        host = report["host"]
    totals, errors = _totals(passes)
    attempted, failed, attack_errors = _verdicts(passes)
    walls = [p["wall_s"] for p in passes]
    norm = [p["wall_ref"] for p in passes]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_ref": statistics.median(norm),
        "peak_rss_mb": statistics.median(rss),
        "device_inferences": totals["inferences"],
        "device_runs": totals["inferences"] + totals["channel_queries"],
        "trace_mb": totals["trace_bytes"] / MB,
        "attack_pass_frac": 1.0 - failed / attempted,
    }
    print(f"host: {json.dumps(host)}")
    print(f"setup_s            {metrics['setup_s']:10.4f} s      "
          f"median of {len(setups)} fresh processes "
          f"({', '.join(f'{s:.3f}' for s in setups)})")
    print(f"wall_s             {statistics.median(walls):10.4f} s      "
          f"median of {len(walls)} passes ({_quartiles(walls)})")
    print(f"wall_ref           {metrics['wall_ref']:10.4f} ref    "
          f"median of pass / in-pass probe ({_quartiles(norm)}; "
          f"{sum(p['samples'] for p in passes)} probe samples)")
    print(f"peak_rss_mb        {metrics['peak_rss_mb']:10.1f} MB     "
          f"median over processes")
    print(f"device_inferences  {totals['inferences']:10d} count/pass")
    print(f"device_queries     {totals['channel_queries']:10d} count/pass")
    print(f"device_runs        {metrics['device_runs']:10d} count/pass "
          f"(inferences + queries)")
    print(f"trace_mb           {metrics['trace_mb']:10.4f} MB/pass")
    print(f"store_mb           {totals.get('store_bytes', 0) / MB:10.4f} "
          f"MB/pass")
    if "fused_f1" in totals:
        print(f"fused_f1           {totals['fused_f1']}  boundary F1 of "
              f"each fused cell (checked, not gated)")
    print(f"attack_fail_frac   {failed / attempted:10.4f} ratio  "
          f"({failed}/{attempted} attacks)")
    return _result(metrics, attempted, failed, errors + attack_errors)


def _layer_metrics(breakdown: dict, totals: dict, overhead: float) -> dict:
    self_s = breakdown["self_s"]
    calls = breakdown["calls"]
    counts = breakdown["counts"]
    lookups = totals["cache_hits"] + totals["cache_misses"]
    events = counts.get("accel.events", 0.0)
    synth = self_s.get("accel.synth_s", 0.0)
    gets = calls.get("device.shared_get_s", 0.0)
    recovered = totals.get("weights_recovered", 0)
    derived = {
        "accel.events": events,
        "accel.events_per_s": events / synth if synth else 0.0,
        "accel.oracle_calls": calls.get("accel.oracle_s", 0.0),
        "structure.candidates": totals.get("candidates", 0),
        "device.lookups": lookups,
        "device.lru_hit_ratio": (
            (totals["cache_hits"] - totals["shared_hits"]) / lookups
            if lookups else 0.0
        ),
        "device.queries": totals["channel_queries"],
        "weights.queries_per_weight": (
            totals["channel_queries"] / recovered if recovered else 0.0
        ),
        "power.samples": totals["power_samples"],
        "device.shared_hit_ratio": (
            counts.get("device.shared_hits", 0.0) / gets if gets else 0.0
        ),
        "campaign.store_mb": totals.get("store_bytes", 0) / MB,
        "trace.unattributed_s": self_s.get("unattributed", 0.0),
        "trace.pass_s": breakdown["pass_s"],
        "trace.overhead_s": overhead,
    }
    out = {}
    for layer in LAYERS:
        value = (
            self_s.get(layer.name, 0.0) if layer.targets
            else derived[layer.name]
        )
        out[layer.name] = value
    return out


def trace(args, workdir: Path) -> dict:
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    spans = out_dir / f"spans-{args.workload}.json"
    _, report = _spawn(args, "trace", args.seconds, workdir, spans)
    untraced, traced = report["untraced"], report["passes"]
    totals, errors = _totals(untraced + traced)
    attempted, failed, attack_errors = _verdicts(untraced + traced)
    overhead = (
        statistics.median(p["wall_s"] for p in traced)
        - statistics.median(p["wall_s"] for p in untraced)
    )
    breakdown = report["breakdown"]
    values = _layer_metrics(breakdown, totals, overhead)
    pass_s = breakdown["pass_s"]
    timed = [
        (name, values[name]) for name in
        [layer.name for layer in LAYERS if layer.targets]
        + ["trace.unattributed_s"]
    ]
    print(f"host: {json.dumps(report['host'])}")
    print(f"traced passes: {breakdown['passes']}  untraced passes: "
          f"{len(untraced)}  spans: {breakdown['spans']} -> {spans.name}")
    print(f"{'layer self time':28s} {'s/pass':>10s} {'share':>7s}")
    for name, value in sorted(timed, key=lambda kv: -kv[1]):
        print(f"{name:28s} {value:10.4f} {value / pass_s:7.1%}")
    print(f"{'sum of self times':28s} {sum(v for _, v in timed):10.4f}")
    print(f"{'traced pass (trace.pass_s)':28s} {pass_s:10.4f}")
    print(f"{'tracing overhead':28s} {overhead:10.4f}")
    for layer in LAYERS:
        if not layer.targets and layer.unit != "s":
            print(f"{layer.name:28s} {values[layer.name]:14.4f} {layer.unit}")
    units = {layer.name: layer.unit for layer in LAYERS}
    return _result(values, attempted, failed, errors + attack_errors, units)


def _result(metrics: dict, attempted: int, failed: int, errors: list[str],
            units: dict | None = None) -> dict:
    units = units or E2E_UNITS
    for line in errors:
        print(f"FAILED {line}")
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in metrics.items()
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    refused = [name for name in REFUSED_ENV if os.environ.get(name)]
    if refused:
        print(f"refusing to run with {', '.join(refused)} set",
              file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no package source at {ROOT / 'src'}", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench_work" / f"run-{os.getpid()}"
    (workdir / "tmp").mkdir(parents=True)
    signal.signal(signal.SIGALRM, _on_deadline)
    signal.alarm(DEADLINE_S)
    try:
        print(f"perfbench: workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}")
        result = (trace if args.trace else measure)(args, workdir)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        signal.alarm(0)
        _stop_children()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
