"""repro: reverse engineering CNNs through side-channel information leaks.

A full reproduction of Hua, Zhang and Suh (DAC 2018).  The package is
organised by subsystem:

* :mod:`repro.nn` — from-scratch numpy CNN framework (layers, DAG
  networks, training) plus the model zoo (LeNet, ConvNet, AlexNet,
  SqueezeNet).
* :mod:`repro.data` — synthetic image classification datasets standing
  in for the paper's ImageNet workloads.
* :mod:`repro.accel` — cycle-approximate tiled CNN inference accelerator
  simulator that emits the off-chip memory trace (address, R/W, cycle)
  an adversary can observe, with optional dynamic zero pruning.
* :mod:`repro.attacks.structure` — the Section 3 attack: recover the
  network structure from memory access patterns and timing.
* :mod:`repro.attacks.weights` — the Section 4 attack: recover weight/bias
  ratios (and, with a tunable threshold, exact weights) from the zero
  pruning side channel.
* :mod:`repro.defenses` — ORAM-style obfuscation and OFM write padding
  countermeasures with overhead accounting.
* :mod:`repro.report` — plain-text tables/series used by the benchmark
  harness to regenerate the paper's tables and figures.
"""

from repro.errors import (
    AttackError,
    ConfigError,
    GraphError,
    ReproError,
    ShapeError,
    SimulationError,
    SolverError,
    ThreatModelViolation,
    TraceError,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "ReproError",
    "ShapeError",
    "GraphError",
    "ConfigError",
    "SimulationError",
    "TraceError",
    "ThreatModelViolation",
    "AttackError",
    "SolverError",
]
