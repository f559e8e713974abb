"""The demo victim of the Section 4 weight attack (``repro weights``)."""

from __future__ import annotations

import numpy as np

from repro.nn.shapes import PoolSpec
from repro.nn.spec import LayerGeometry
from repro.nn.stages import StagedNetwork, StagedNetworkBuilder

__all__ = ["build_weight_victim"]


def build_weight_victim(
    size: int, filters: int, seed: int = 0, filter_size: int = 11,
    stride: int = 4,
) -> tuple[StagedNetwork, LayerGeometry, np.ndarray, np.ndarray]:
    """One conv stage (AlexNet CONV1's 11x11/4 by default) + 3x3/2 max
    pool on ``(3, size, size)`` inputs, with Deep-Compression-style
    sparse weights (~30% zeros) and negative biases.

    Returns ``(staged, geometry, weights, biases)``.
    """
    rng = np.random.default_rng(seed)
    builder = StagedNetworkBuilder("victim", (3, size, size), relu_threshold=0.0)
    geom = LayerGeometry.from_conv(
        size, 3, filters, filter_size, stride, 0, pool=PoolSpec(3, 2, 0)
    )
    builder.add_conv("conv1", geom)
    staged = builder.build()
    conv = staged.network.nodes["conv1/conv"].layer
    weights = rng.normal(size=conv.weight.value.shape) * 0.1
    weights[np.abs(weights) < 0.03] = 0.0
    conv.weight.value[:] = weights
    conv.bias.value[:] = -rng.uniform(0.05, 0.3, size=filters)
    return staged, geom, weights, conv.bias.value.copy()
