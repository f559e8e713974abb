"""Model zoo: the four networks of the paper's Table 3.

Beside them, :func:`build_weight_victim` builds the one-stage demo
victim of the Section 4 weight attack.

Each builder returns a :class:`~repro.nn.stages.StagedNetwork` whose
stage decomposition is what the accelerator simulator executes; the
ground-truth geometries are available both per model
(``*_geometries()``) and via ``StagedNetwork.geometries()``.
"""

from __future__ import annotations

from typing import Callable

from repro.errors import ConfigError
from repro.nn.stages import StagedNetwork
from repro.nn.zoo.alexnet import ALEXNET_FC_WIDTHS, alexnet_geometries, build_alexnet
from repro.nn.zoo.convnet import build_convnet, convnet_geometries
from repro.nn.zoo.lenet import build_lenet, lenet_geometries
from repro.nn.zoo.squeezenet import (
    SQUEEZENET_FIRES,
    FireSpec,
    build_squeezenet,
    squeezenet_conv1_geometry,
)
from repro.nn.zoo.weight_victim import build_weight_victim

__all__ = [
    "build_lenet",
    "build_convnet",
    "build_alexnet",
    "build_squeezenet",
    "lenet_geometries",
    "convnet_geometries",
    "alexnet_geometries",
    "squeezenet_conv1_geometry",
    "ALEXNET_FC_WIDTHS",
    "SQUEEZENET_FIRES",
    "FireSpec",
    "MODEL_BUILDERS",
    "build_model",
    "build_weight_victim",
]

MODEL_BUILDERS: dict[str, Callable[..., StagedNetwork]] = {
    "lenet": build_lenet,
    "convnet": build_convnet,
    "alexnet": build_alexnet,
    "squeezenet": build_squeezenet,
}


def build_model(name: str, **kwargs) -> StagedNetwork:
    """Build a zoo model by name (``lenet | convnet | alexnet | squeezenet``)."""
    try:
        builder = MODEL_BUILDERS[name]
    except KeyError:
        raise ConfigError(
            f"unknown model {name!r}; choose from {sorted(MODEL_BUILDERS)}"
        ) from None
    return builder(**kwargs)
