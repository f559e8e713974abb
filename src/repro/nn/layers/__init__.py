"""Layer library: conv, pooling, linear, activations, combiners."""

from repro.nn.layers.activations import (
    Dropout,
    Flatten,
    ReLU,
    Softmax,
    ThresholdReLU,
)
from repro.nn.layers.base import Layer, Parameter
from repro.nn.layers.combine import Concat, ElementwiseAdd, MultiInputLayer
from repro.nn.layers.conv import Conv2D, col2im, im2col
from repro.nn.layers.linear import Linear
from repro.nn.layers.pool import AvgPool2D, MaxPool2D

__all__ = [
    "Layer",
    "Parameter",
    "Conv2D",
    "im2col",
    "col2im",
    "Linear",
    "ReLU",
    "ThresholdReLU",
    "Softmax",
    "Dropout",
    "Flatten",
    "MaxPool2D",
    "AvgPool2D",
    "Concat",
    "ElementwiseAdd",
    "MultiInputLayer",
]
