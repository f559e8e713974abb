"""Deterministic victim / device / channel construction from job params.

Every campaign job describes its victim declaratively so any process —
the first run, a resume days later — rebuilds exactly the same device.
Two victim families cover the repo's experiments:

* ``{"model": "lenet", ...}`` — a zoo model
  (:func:`repro.nn.zoo.build_model` keyword arguments pass through);
* ``{"conv": {...}}`` — a one-stage synthetic conv victim with seeded
  random weights, the shape every weight-recovery experiment uses, and
  optionally an FC classifier head (what a clone job needs).

The builders are pure functions of the spec dicts (seeded RNG only),
which is what lets the shared query cache's device fingerprint match
across sessions: same spec, same parameter bytes, same fingerprint.
It is also what lets one campaign run build each victim once
(:class:`VictimMemo`).  A misspelled key is an error, never a silent
default.
"""

from __future__ import annotations

from dataclasses import fields

import numpy as np

from repro.accel import AcceleratorConfig, AcceleratorSim, PruningConfig
from repro.campaign.spec import canonical_json
from repro.channel import ChannelModel
from repro.device import DeviceSession, SharedQueryCache, device_fingerprint
from repro.errors import ConfigError
from repro.nn.shapes import PoolSpec
from repro.nn.spec import LayerGeometry
from repro.nn.stages import StagedNetwork, StagedNetworkBuilder
from repro.nn.zoo import build_model

__all__ = [
    "VictimMemo",
    "build_channel",
    "build_conv_victim",
    "build_device",
    "build_victim",
    "job_session",
]


_CONV_KEYS = (
    "w", "c", "d", "f", "s", "p", "pool", "relu_threshold", "seed",
    "zero_fraction", "bias_low", "bias_high", "bias_sign", "fc",
)
_DEVICE_KEYS = ("pruning", "granularity", "dataflow")
# ``spawn_key`` is fork-tree lineage (ChannelModel.spawn), not a setting.
_CHANNEL_KEYS = tuple(
    field.name for field in fields(ChannelModel) if field.name != "spawn_key"
)


def _check_keys(kind: str, spec: dict, accepted: tuple[str, ...]) -> None:
    unknown = sorted(set(spec) - set(accepted))
    if unknown:
        raise ConfigError(
            f"unknown {kind} spec key(s) {unknown}; accepted: "
            f"{', '.join(accepted)}"
        )


def build_conv_victim(spec: dict) -> StagedNetwork:
    """One-stage conv victim with seeded random weights.

    Keys (all optional unless noted): ``w`` image width (required),
    ``c`` input channels, ``d`` filters, ``f``/``s``/``p`` conv shape,
    ``pool`` as ``[f, s, p]`` or absent, ``relu_threshold``, ``seed``,
    ``zero_fraction`` (weights with ``|w|`` below it are zeroed),
    ``bias_low``/``bias_high`` (uniform magnitude range),
    ``bias_sign`` (``-1.0``/``1.0``; absent draws signs randomly) and
    ``fc`` (classes of an FC head after the conv stage, its weights
    drawn from the same seed after the conv's; absent: no head).
    """
    _check_keys("conv victim", spec, _CONV_KEYS)
    if "w" not in spec:
        raise ConfigError(f"conv victim spec needs 'w': {spec!r}")
    w = int(spec["w"])
    c = int(spec.get("c", 1))
    d = int(spec.get("d", 3))
    f = int(spec.get("f", 3))
    s = int(spec.get("s", 1))
    p = int(spec.get("p", 0))
    pool = spec.get("pool")
    pool_spec = PoolSpec(*[int(v) for v in pool]) if pool else None
    relu_threshold = spec.get("relu_threshold", 0.0)
    rng = np.random.default_rng(int(spec.get("seed", 5)))
    builder = StagedNetworkBuilder(
        "victim",
        (c, w, w),
        None if relu_threshold is None else float(relu_threshold),
    )
    geom = LayerGeometry.from_conv(w, c, d, f, s, p, pool=pool_spec)
    builder.add_conv("conv1", geom)
    fc = spec.get("fc")
    if fc is not None:
        builder.add_fc("fc2", int(fc), activation=False)
    staged = builder.build()
    conv = staged.network.nodes["conv1/conv"].layer
    weights = rng.normal(size=conv.weight.value.shape)
    weights[np.abs(weights) < float(spec.get("zero_fraction", 0.15))] = 0.0
    conv.weight.value[:] = weights
    magnitude = rng.uniform(
        float(spec.get("bias_low", 0.3)),
        float(spec.get("bias_high", 1.2)),
        size=d,
    )
    sign = spec.get("bias_sign")
    if sign is None:
        conv.bias.value[:] = magnitude * rng.choice([-1.0, 1.0], size=d)
    else:
        conv.bias.value[:] = magnitude * float(sign)
    if fc is not None:
        head = staged.network.nodes["fc2/fc"].layer
        scale = np.sqrt(2.0 / head.in_features)  # Linear's own init scale
        head.weight.value[:] = rng.normal(
            0.0, scale, size=head.weight.value.shape
        )
    return staged


def build_victim(spec: dict) -> StagedNetwork:
    """Build the victim network a job names."""
    if "conv" in spec:
        return build_conv_victim(dict(spec["conv"]))
    if "model" in spec:
        kwargs = {k: v for k, v in spec.items() if k != "model"}
        return build_model(str(spec["model"]), **kwargs)
    raise ConfigError(f"victim spec needs 'model' or 'conv': {spec!r}")


def build_device(
    victim: StagedNetwork, device_spec: dict | None
) -> AcceleratorSim:
    """Build the deployed accelerator for one job."""
    spec = dict(device_spec or {})
    _check_keys("device", spec, _DEVICE_KEYS)
    pruning = PruningConfig(
        enabled=bool(spec.get("pruning", False)),
        granularity=str(spec.get("granularity", "plane")),
    )
    config = AcceleratorConfig(
        pruning=pruning,
        dataflow=str(spec.get("dataflow", "output-stationary")),
    )
    return AcceleratorSim(victim, config)


def build_channel(channel_spec: dict | None) -> ChannelModel:
    """Build the measurement channel for one job (ideal when absent)."""
    if not channel_spec:
        return ChannelModel.ideal()
    spec = dict(channel_spec)
    _check_keys("channel", spec, _CHANNEL_KEYS)
    granularity = spec.get("probe_granularity")
    return ChannelModel(
        drop_rate=float(spec.get("drop_rate", 0.0)),
        dup_rate=float(spec.get("dup_rate", 0.0)),
        probe_granularity=None if granularity is None else int(granularity),
        cycle_sigma=float(spec.get("cycle_sigma", 0.0)),
        counter_sigma=float(spec.get("counter_sigma", 0.0)),
        counter_quantum=int(spec.get("counter_quantum", 1)),
        power_sigma=float(spec.get("power_sigma", 0.0)),
        power_quantum=int(spec.get("power_quantum", 1)),
        seed=int(spec.get("seed", 0)),
    )


class VictimMemo:
    """Every victim one campaign run builds, built once per spec.

    A victim is a pure function of its spec, so the jobs of one run
    that name the same spec share one :class:`StagedNetwork`, and the
    devices built on it share one :func:`device_fingerprint` per
    (victim, device) spec pair.  Each job still gets its own
    :class:`AcceleratorSim`: the simulator's run counter seeds its
    timing jitter, so a shared one would change every later job's
    traces.  Jobs that tune the victim's activation threshold (clone)
    build their own victim.  A memo lives for one ``Campaign.run``.
    """

    def __init__(self) -> None:
        self.victims: dict[str, StagedNetwork] = {}
        self.fingerprints: dict[str, str] = {}

    def victim(self, spec: dict) -> StagedNetwork:
        key = canonical_json(spec)
        if key not in self.victims:
            self.victims[key] = build_victim(dict(spec))
        return self.victims[key]

    def device(
        self, victim_spec: dict, device_spec: dict | None
    ) -> tuple[AcceleratorSim, str]:
        """A fresh accelerator on the memoised victim, and its fingerprint."""
        sim = build_device(self.victim(victim_spec), device_spec)
        key = canonical_json([victim_spec, device_spec or {}])
        if key not in self.fingerprints:
            self.fingerprints[key] = device_fingerprint(sim)
        return sim, self.fingerprints[key]


def job_session(
    params: dict,
    *,
    victims: VictimMemo | None = None,
    shared_cache: SharedQueryCache | None = None,
    max_queries: int | None = None,
    max_inferences: int | None = None,
    max_trace_bytes: int | None = None,
) -> DeviceSession:
    """The metered session for one job's main channel.

    ``params`` carries ``victim`` (required), ``device`` and
    ``channel`` sub-specs; quota-derived budgets arrive as the
    ``max_*`` keywords and land on the session's hard-budget ledger.
    The victim comes from ``victims`` (a fresh memo when absent).
    """
    sim, fingerprint = (victims or VictimMemo()).device(
        params["victim"], params.get("device")
    )
    stage = params.get("stage")
    return DeviceSession(
        sim,
        None if stage is None else str(stage),
        channel=build_channel(params.get("channel")),
        shared_cache=shared_cache,
        fingerprint=fingerprint,
        max_queries=max_queries,
        max_inferences=max_inferences,
        max_trace_bytes=max_trace_bytes,
    )
