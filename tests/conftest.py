"""Shared test helpers: victim builders, gradient checking."""

from __future__ import annotations

import numpy as np
import pytest

from repro.accel import (
    AcceleratorConfig,
    AcceleratorSim,
    PruningConfig,
)
from repro.device import DeviceSession
from repro.nn.graph import Network
from repro.nn.shapes import PoolSpec
from repro.nn.spec import LayerGeometry
from repro.nn.stages import StagedNetwork, StagedNetworkBuilder


def build_conv_stage(
    w: int = 12,
    c: int = 2,
    d: int = 6,
    f: int = 3,
    s: int = 1,
    p: int = 0,
    pool: PoolSpec | None = None,
    pool_kind: str = "max",
    relu_threshold: float | None = None,
    seed: int = 7,
    bias_sign: float | None = None,
    zero_fraction: float = 0.15,
) -> tuple[StagedNetwork, LayerGeometry, np.ndarray, np.ndarray]:
    """One-stage victim network with controlled random weights.

    Returns (staged_net, geometry, weights, biases).
    """
    rng = np.random.default_rng(seed)
    builder = StagedNetworkBuilder("victim", (c, w, w), relu_threshold)
    geom = LayerGeometry.from_conv(w, c, d, f, s, p, pool=pool)
    builder.add_conv("conv1", geom, pool_kind=pool_kind)
    staged = builder.build()
    conv = staged.network.nodes["conv1/conv"].layer
    weights = rng.normal(size=conv.weight.value.shape)
    weights[np.abs(weights) < zero_fraction] = 0.0
    conv.weight.value[:] = weights
    biases = rng.uniform(0.3, 1.2, size=d)
    if bias_sign is None:
        biases *= rng.choice([-1.0, 1.0], size=d)
    else:
        biases *= bias_sign
    conv.bias.value[:] = biases
    return staged, geom, weights, biases


def observe_structure(sim, x=None, seed: int = 0):
    """Structure observation via the sanctioned session path.

    Wraps the device in a throwaway :class:`DeviceSession` and returns a
    materialised observation — the shape most tests want.
    """
    return DeviceSession(sim).observe_structure(x, seed=seed)


def pruned_session(
    staged: StagedNetwork,
    stage: str = "conv1",
    granularity: str = "plane",
    **session_kwargs,
) -> DeviceSession:
    sim = AcceleratorSim(
        staged,
        AcceleratorConfig(
            pruning=PruningConfig(enabled=True, granularity=granularity)
        ),
    )
    return DeviceSession(sim, stage, **session_kwargs)


def numeric_gradient(fn, x: np.ndarray, eps: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function of an array."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for k in range(flat.size):
        orig = flat[k]
        flat[k] = orig + eps
        hi = fn()
        flat[k] = orig - eps
        lo = fn()
        flat[k] = orig
        gflat[k] = (hi - lo) / (2 * eps)
    return grad


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0)


@pytest.fixture
def forwards(monkeypatch) -> list[Network]:
    """Every ``Network.forward`` call made during the test, in order
    (the network each call ran)."""
    calls: list[Network] = []
    forward = Network.forward

    def counting(self, x):
        calls.append(self)
        return forward(self, x)

    monkeypatch.setattr(Network, "forward", counting)
    return calls
