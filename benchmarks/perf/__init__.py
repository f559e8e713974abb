"""Persistent kernel and parallel-layer benchmarks.

``python -m benchmarks.perf`` runs one table of rows (``ROWS`` in
``__main__``).  Ranking, sharded weight recovery and the noisy-channel
smoke run at ``workers = 1`` and ``workers = N`` and must return
bit-identical results; trace synthesis, decode and the power proxy time
their vectorised paths against the reference oracles; the dataflow
identifier, the streaming memory footprint and campaign throughput have
rows of their own.  It writes ``BENCH_perf.json`` at the repo root,
only when every identity check, bound and the throughput gate pass, so
a regressed run never becomes the next run's baseline.

Schema (one entry per row; rows add their own fields)::

    {
      "ranking": {
        "wall_s":   <workers=N wall-clock seconds>,
        "speedup":  <serial_wall_s / wall_s, null on a single-CPU host>,
        "workers":  <N>,
        "serial_wall_s": <workers=1 wall-clock seconds>,
        "identical": <workers=N output bit-identical to workers=1>
      },
      "events_per_second": {
        "wall_s": ..., "speedup": ..., "workers": 1, "serial_wall_s": ...,
        "identical": <outputs and golden digests match, every timed call
                      included>,
        "best_speedup": ..., "reps": ..., "bounded": <best_speedup >= 3>,
        "nets": {"<net>": {"events": ..., "reference_wall_s": ...,
                           "vectorised_wall_s": ..., "speedup": ...,
                           "events_per_second": ...,
                           "reference_events_per_second": ...}}
      },
      "_meta": {"cpu_count": ..., "effective_cpus": ..., "python": ...,
                "quick": ..., "ref_kernel_s": ...}
    }

Speedups are honest wall-clock measurements: on a host with a single
usable CPU the multi-worker rows null their speedup and carry
``"skipped": "single-cpu-host"`` instead.

Flags: ``--quick`` shrinks every workload (CI smoke), ``--workers N``
sets the parallel arm (default: all usable cores, minimum 2 so the pool
machinery is always exercised), ``--output PATH`` redirects the JSON
and ``--profile PATH`` writes a cProfile dump of one simulator run.
"""
