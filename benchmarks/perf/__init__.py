"""Persistent kernel and parallel-layer benchmarks.

``python -m benchmarks.perf`` times the two sharded attack loops
(candidate ranking, sharded weight recovery) at ``workers = 1`` and
``workers = N`` and verifies the parallel results are bit-identical to
the serial ones; it also times the vectorised trace kernels against
their reference oracles, the streaming memory footprint, the noisy
channel and campaign throughput.  It writes ``BENCH_perf.json`` at the
repo root — only when the throughput gate passes, so a regressed run
never becomes the next run's baseline.

Schema (one entry per bench name)::

    {
      "<bench>": {
        "wall_s":   <parallel wall-clock seconds>,
        "speedup":  <serial_wall_s / wall_s>,
        "workers":  <N>,
        "scale":    "small" | "paper",
        "serial_wall_s": <workers=1 wall-clock seconds>,
        "identical": <parallel output bit-identical to serial>
      },
      "_meta": {"cpu_count": ..., "effective_cpus": ..., "python": ...}
    }

Speedups are honest wall-clock measurements: on a single-CPU host the
process pool cannot beat the serial loop and the recorded speedup will
hover around 1.0 — the ``_meta`` block records the CPU budget so the
numbers can be read in context.

Flags: ``--quick`` shrinks every workload (CI smoke), ``--workers N``
sets the parallel arm (default: all cores, minimum 2 so the pool
machinery is always exercised), ``--output PATH`` redirects the JSON.
"""
