"""One fresh interpreter running one workload; started by ``run.py``.

``python -m perfbench.worker --workload W --seed N --seconds S
--mode measure|trace --workdir DIR [--spans FILE]``

Set-up (imports, victim/device build, one untimed warm-up pass) ends
with a ``READY`` line on stdout, which the parent times.  Then:

* ``measure``: timed passes until ``S`` seconds have elapsed (at
  least one);
* ``trace``: passes without the probe or spans for ``S/2`` seconds,
  then the span wrappers are installed and traced passes run for
  ``S/2`` seconds; the spans are written to ``FILE``.

:class:`HostProbe` samples a fixed reference kernel independent of the
package right before a pass, every 0.75 s while it runs and right after
it; a pass's ``wall_ref`` is its wall time in units of that kernel, so
the host's speed during the pass cancels out.

The last stdout line is one JSON object with every pass's wall time,
probe readings, verdicts and totals.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path


class HostProbe:
    """Samples the host's speed while a pass runs.

    Every ``INTERVAL`` seconds of wall time a timer signal runs a fixed
    reference kernel between two bytecodes of the pass and records how
    long it took.  On a shared machine the host's speed drifts by tens
    of percent within seconds, so only samples taken during the pass
    itself track it.

    The kernel (~80 ms on a 2.1 GHz Xeon core) is roughly the mix of an
    attack pass: interpreter work on tuple-keyed dicts, small numpy
    calls, memory-bound numpy (a 32 MB stream, a random gather, a sort)
    and a BLAS product.  Its buffers are allocated and touched up front,
    so a sample never pays for page faults, and the collector is paused
    while it runs, so the workload's heap does not leak into a sample.
    The kernel is part of the benchmark's definition: editing it
    changes every ``wall_ref``.
    """

    INTERVAL = 0.75

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self.big = rng.normal(size=4_000_000)
        self.tmp = np.ones_like(self.big)
        self.idx = rng.integers(0, len(self.big), size=1_000_000)
        self.gathered = np.ones(len(self.idx))
        self.keys = rng.integers(0, 1 << 40, size=1_000_000)
        self.sorted = self.keys.copy()
        self.rows = [rng.normal(size=16) for _ in range(64)]
        self.a = rng.normal(size=(96, 363))
        self.b = rng.normal(size=(363, 729))
        self.ab = np.ones((96, 729))
        self.samples: list[float] = []
        self._previous = None

    def kernel(self) -> float:
        import gc

        import numpy as np

        paused = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            table: dict = {}
            for i in range(120_000):
                key = ((i * 7919) & 1023, i & 7)
                table[key] = table.get(key, 0) + 1
            for i in range(6_000):
                row = self.rows[i & 63]
                float(np.abs(row).max()) + int(np.count_nonzero(row > 0))
            np.add(self.big, 1.0, out=self.tmp)
            np.multiply(self.tmp, 0.5, out=self.tmp)
            np.take(self.big, self.idx, out=self.gathered)
            np.copyto(self.sorted, self.keys)
            self.sorted.sort()
            np.matmul(self.a, self.b, out=self.ab)
            return time.perf_counter() - t0
        finally:
            if paused:
                gc.enable()

    def _tick(self, signum, frame) -> None:
        self.samples.append(self.kernel())

    def __enter__(self) -> "HostProbe":
        import signal

        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        import signal

        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)


def _timed_passes(
    workload, seconds: float, on_pass=None, probe: bool = True
) -> list[dict]:
    """Run passes until ``seconds`` elapse; time ``attack()`` only.

    With the probe, the kernel is also sampled right before and right
    after the pass; ``wall_s`` is the pass's wall time minus the samples
    taken inside it and ``wall_ref`` that time in units of the median
    sample.  Traced runs go without it, so no sample lands in a span.
    """
    host = HostProbe() if probe else None
    passes = []
    began = time.perf_counter()
    while not passes or time.perf_counter() - began < seconds:
        if on_pass is not None:
            on_pass(len(passes))
        samples: list[float] = []
        wall_ref = None
        if host is not None:
            before = host.kernel()
            with host:
                t0 = time.perf_counter()
                raw = workload.attack()
                wall = time.perf_counter() - t0
            wall -= sum(host.samples)
            samples = [before, *host.samples, host.kernel()]
            wall_ref = wall / statistics.median(samples)
        else:
            t0 = time.perf_counter()
            raw = workload.attack()
            wall = time.perf_counter() - t0
        outcome = workload.check(raw)
        passes.append({
            "wall_s": wall,
            "wall_ref": wall_ref,
            "samples": len(samples),
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "errors": outcome.errors,
            "totals": outcome.totals,
        })
    return passes


def _traced_passes(workload, seconds: float, spans_path: Path) -> dict:
    from perfbench.layers import LAYERS, PASS_SPAN, span_targets
    from perfbench.spans import Instrumentation, SpanRecorder, pass_breakdown

    recorder = SpanRecorder()

    def count_events(rec, result):
        rec.count("accel.events", sum(
            w.num_reads + w.num_writes for w in result.windows
        ))

    def count_shared_hits(rec, result):
        if result is not None:
            rec.count("device.shared_hits")

    hooks = {
        "repro.accel.simulator:AcceleratorSim.run": count_events,
        "repro.accel.simulator:AcceleratorSim.replay": count_events,
    }
    for layer in LAYERS:
        if layer.name == "device.shared_get_s":
            hooks.update(dict.fromkeys(layer.targets, count_shared_hits))
    targets = span_targets()
    instrumentation = Instrumentation(recorder)
    instrumentation.install(targets, hooks)
    # The attack call itself is the pass's root span.
    attack = workload.attack
    workload.attack = recorder.wrap(PASS_SPAN, attack)

    def begin(index: int) -> None:
        recorder.pass_id = index

    try:
        passes = _timed_passes(workload, seconds, begin, probe=False)
    finally:
        workload.attack = attack
        instrumentation.uninstall()
    recorder.dump(spans_path)
    layer_of = {t.split(":")[1]: name for t, name in targets.items()}
    breakdown = pass_breakdown(recorder, layer_of, PASS_SPAN)
    npass = breakdown["passes"]
    counts: dict[str, float] = {}
    for (_, name), value in recorder.counts.items():
        counts[name] = counts.get(name, 0.0) + value / npass
    breakdown["counts"] = counts
    breakdown["spans"] = len(recorder)
    return {"passes": passes, "breakdown": breakdown}


def _blas_threads() -> int | None:
    """Threads the loaded OpenBLAS will use, read from the library."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line}
    except OSError:
        return None
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def host_facts() -> dict:
    import platform

    import numpy as np

    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.worker")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("measure", "trace"),
                        required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    if args.mode == "trace" and not args.spans:
        parser.error("--mode trace needs --spans")
    workdir = Path(args.workdir)

    # -- set-up: imports, victim/device build, one warm-up pass --------
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, workdir)
    workload.check(workload.attack())
    print("READY", flush=True)
    # Peak RSS over imports, build and one full pass (ru_maxrss: KiB).
    report: dict = {
        "host": host_facts(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024,
    }
    if args.mode == "measure":
        report["passes"] = _timed_passes(workload, args.seconds)
    else:
        report["untraced"] = _timed_passes(
            workload, args.seconds / 2, probe=False
        )
        report.update(_traced_passes(
            workload, args.seconds / 2, Path(args.spans)
        ))
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
