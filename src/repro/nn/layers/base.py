"""Layer base classes and the parameter container.

The framework is intentionally small: layers are stateful objects with
``forward``/``backward`` methods over numpy arrays in NCHW layout.  There
is no autograd tape — each layer caches what its own backward pass needs.
That keeps the simulator side (which only ever runs forward) free of any
bookkeeping overhead, while the training side (candidate ranking for
Figures 4 and 5) gets exact gradients.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np


__all__ = ["Parameter", "Layer"]


class Parameter:
    """A learnable tensor and its gradient accumulator."""

    __slots__ = ("name", "value", "grad")

    def __init__(self, name: str, value: np.ndarray):
        self.name = name
        self.value = np.ascontiguousarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)

    @property
    def size(self) -> int:
        """Number of scalar elements in the parameter tensor."""
        return int(self.value.size)

    def zero_grad(self) -> None:
        self.grad.fill(0.0)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Parameter({self.name!r}, shape={self.value.shape})"


class Layer:
    """Base class of all layers.

    Sub-classes implement :meth:`forward` and :meth:`backward`; layers with
    learnable state override :meth:`parameters`.  ``training`` toggles
    behaviours such as dropout masking; ``grad_enabled`` toggles whether
    :meth:`forward` retains the intermediates its backward pass would
    need.  Inference-only holders (the accelerator simulator, the stage
    oracles, the attacks' hypothesis evaluations) switch it off so a
    forward pass allocates nothing beyond its output.
    """

    def __init__(self) -> None:
        self.training = False
        self.grad_enabled = True

    # -- interface -----------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def parameters(self) -> Iterable[Parameter]:
        return ()

    # -- helpers -------------------------------------------------------
    def train(self, mode: bool = True) -> "Layer":
        self.training = mode
        return self

    def eval(self) -> "Layer":
        return self.train(False)

    def requires_grad_(self, flag: bool = True) -> "Layer":
        """Enable/disable backward-pass caching in :meth:`forward`."""
        self.grad_enabled = flag
        return self

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)

    @property
    def num_parameters(self) -> int:
        return sum(p.size for p in self.parameters())

