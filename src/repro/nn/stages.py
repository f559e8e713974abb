"""Staged networks: the accelerator's view of a CNN.

A hardware CNN accelerator fuses convolution, activation and pooling into
one *stage*: the fused intermediate results live in on-chip buffers and
never reach DRAM (paper Section 3.1 — "these three operations are often
merged and performed together as a single layer ... the internal outputs
of these three operations are invisible to the adversary").  Only each
stage's input feature maps, filter weights and final output feature map
touch off-chip memory.

:class:`StagedNetwork` pairs a runnable :class:`~repro.nn.graph.Network`
with its stage decomposition, and :class:`StagedNetworkBuilder` is the
one construction path used by both the model zoo (ground truth) and the
attack's candidate reconstruction — so simulator and attacker definitions
can never drift apart.

Stage kinds:

* ``conv`` — Conv2D + ReLU (+ optional Max/AvgPool2D), one filter tensor.
* ``fc``   — (optional Flatten) + Linear (+ optional ReLU/Dropout).
* ``eltwise`` — element-wise addition of two OFMs (bypass merge); reads
  both operands from DRAM, writes the sum (the Caffe/TensorFlow strategy
  the paper assumes).
* ``concat`` — depth concatenation; reads all operands, writes combined.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from repro.errors import GraphError, ShapeError
from repro.nn.graph import INPUT, Network
from repro.nn.layers.activations import Dropout, Flatten, ReLU, ThresholdReLU
from repro.nn.layers.combine import Concat, ElementwiseAdd
from repro.nn.layers.conv import Conv2D
from repro.nn.layers.linear import Linear
from repro.nn.layers.pool import AvgPool2D, MaxPool2D
from repro.nn.spec import FCGeometry, LayerGeometry

__all__ = ["Stage", "StagedNetwork", "StagedNetworkBuilder"]

STAGE_KINDS = ("conv", "fc", "eltwise", "concat")


@dataclass(frozen=True)
class Stage:
    """One accelerator-visible layer.

    Attributes:
        name: stage name (e.g. ``"conv1"``).
        kind: one of ``conv | fc | eltwise | concat``.
        node_names: graph nodes fused into this stage, execution order.
        input_stages: names of stages (or ``"input"``) whose OFMs this
            stage reads from DRAM.
        geometry: structural parameters (None for eltwise/concat).
    """

    name: str
    kind: str
    node_names: tuple[str, ...]
    input_stages: tuple[str, ...]
    geometry: LayerGeometry | FCGeometry | None = None

    @property
    def output_node(self) -> str:
        return self.node_names[-1]


@dataclass
class StagedNetwork:
    """A network plus its accelerator stage decomposition."""

    network: Network
    stages: list[Stage] = field(default_factory=list)

    @property
    def name(self) -> str:
        return self.network.name

    @cached_property
    def shapes(self) -> dict[str, tuple[int, ...]]:
        """Per-node activation shapes (sans batch dim).

        One probe forward pass (:meth:`Network.infer_shapes`) per staged
        network: the stages are fixed at build, so every simulator built
        over this network shares the result.
        """
        return self.network.infer_shapes()

    def stage(self, name: str) -> Stage:
        for s in self.stages:
            if s.name == name:
                return s
        raise GraphError(f"no stage named {name!r}")

    def conv_stages(self) -> list[Stage]:
        return [s for s in self.stages if s.kind == "conv"]

    def fc_stages(self) -> list[Stage]:
        return [s for s in self.stages if s.kind == "fc"]

    def geometries(self) -> list[LayerGeometry]:
        """Ground-truth conv geometries in execution order."""
        return [s.geometry for s in self.conv_stages()]  # type: ignore[misc]


class StagedNetworkBuilder:
    """Incrementally build a :class:`StagedNetwork`.

    Tracks each stage's output channel count and width so wiring errors
    (depth mismatches between consecutive layers) fail fast at build time
    rather than mid-simulation.
    """

    def __init__(
        self,
        name: str,
        input_shape: tuple[int, int, int],
        relu_threshold: float | None = None,
    ):
        if len(input_shape) != 3:
            raise ShapeError(f"input shape must be (C, H, W), got {input_shape}")
        c, h, w = input_shape
        if h != w:
            raise ShapeError(f"feature maps must be square, got {h}x{w}")
        self.net = Network(name, input_shape)
        self.stages: list[Stage] = []
        self.relu_threshold = relu_threshold
        # (depth, width) of every stage output; FC outputs use width 0.
        self._shape: dict[str, tuple[int, int]] = {INPUT: (c, w)}

    # -- internals -------------------------------------------------------
    def _resolve(self, input_stage: str | None) -> str:
        if input_stage is not None:
            return input_stage
        return self.stages[-1].name if self.stages else INPUT

    def _out_node(self, stage_name: str) -> str:
        if stage_name == INPUT:
            return INPUT
        return self.stage_by_name(stage_name).output_node

    def stage_by_name(self, name: str) -> Stage:
        for s in self.stages:
            if s.name == name:
                return s
        raise GraphError(f"no stage named {name!r}")

    def _make_relu(self):
        if self.relu_threshold is None:
            return ReLU()
        return ThresholdReLU(self.relu_threshold)

    # -- stage constructors ------------------------------------------------
    def add_conv(
        self,
        name: str,
        geometry: LayerGeometry,
        input_stage: str | None = None,
        activation: bool = True,
        pool_kind: str = "max",
    ) -> "StagedNetworkBuilder":
        """Add a merged CONV(+ReLU)(+POOL) stage."""
        geometry.validate()
        src = self._resolve(input_stage)
        depth, width = self._shape[src]
        if depth != geometry.d_ifm:
            raise ShapeError(
                f"stage {name!r}: input depth {depth} != geometry d_ifm "
                f"{geometry.d_ifm}"
            )
        if width != geometry.w_ifm:
            raise ShapeError(
                f"stage {name!r}: input width {width} != geometry w_ifm "
                f"{geometry.w_ifm}"
            )
        nodes: list[str] = []
        conv = Conv2D(
            geometry.d_ifm,
            geometry.d_ofm,
            geometry.f_conv,
            geometry.s_conv,
            geometry.p_conv,
            name=f"{name}/conv",
        )
        self.net.add(f"{name}/conv", conv, self._out_node(src))
        nodes.append(f"{name}/conv")
        if activation:
            self.net.add(f"{name}/relu", self._make_relu())
            nodes.append(f"{name}/relu")
        if geometry.has_pool:
            pool_cls = {"max": MaxPool2D, "avg": AvgPool2D}.get(pool_kind)
            if pool_cls is None:
                raise GraphError(f"unknown pool kind {pool_kind!r}")
            self.net.add(
                f"{name}/pool",
                pool_cls(geometry.f_pool, geometry.s_pool, geometry.p_pool),
            )
            nodes.append(f"{name}/pool")
        self.stages.append(
            Stage(name, "conv", tuple(nodes), (src,), geometry)
        )
        self._shape[name] = (geometry.d_ofm, geometry.w_ofm)
        return self

    def add_fc(
        self,
        name: str,
        out_features: int,
        input_stage: str | None = None,
        activation: bool = True,
        dropout: float = 0.0,
    ) -> "StagedNetworkBuilder":
        """Add a fully connected stage; flattens spatial input if needed."""
        src = self._resolve(input_stage)
        depth, width = self._shape[src]
        in_features = depth * width * width if width else depth
        nodes: list[str] = []
        prev = self._out_node(src)
        if width:  # spatial input needs flattening first
            self.net.add(f"{name}/flatten", Flatten(), prev)
            nodes.append(f"{name}/flatten")
            prev = f"{name}/flatten"
        self.net.add(
            f"{name}/fc",
            Linear(in_features, out_features, name=f"{name}/fc"),
            prev,
        )
        nodes.append(f"{name}/fc")
        if activation:
            self.net.add(f"{name}/relu", self._make_relu())
            nodes.append(f"{name}/relu")
        if dropout > 0.0:
            self.net.add(f"{name}/dropout", Dropout(dropout))
            nodes.append(f"{name}/dropout")
        self.stages.append(
            Stage(
                name,
                "fc",
                tuple(nodes),
                (src,),
                FCGeometry(in_features, out_features),
            )
        )
        self._shape[name] = (out_features, 0)
        return self

    def add_eltwise(
        self, name: str, input_stages: list[str]
    ) -> "StagedNetworkBuilder":
        """Add a bypass merge (element-wise add of two or more OFMs)."""
        shapes = {self._shape[s] for s in input_stages}
        if len(shapes) != 1:
            raise ShapeError(
                f"eltwise {name!r}: input shapes disagree: "
                f"{[self._shape[s] for s in input_stages]}"
            )
        self.net.add(
            f"{name}/add",
            ElementwiseAdd(),
            [self._out_node(s) for s in input_stages],
        )
        self.stages.append(
            Stage(name, "eltwise", (f"{name}/add",), tuple(input_stages))
        )
        self._shape[name] = next(iter(shapes))
        return self

    def add_concat(
        self, name: str, input_stages: list[str]
    ) -> "StagedNetworkBuilder":
        """Add a depth concatenation of two or more OFMs."""
        widths = {self._shape[s][1] for s in input_stages}
        if len(widths) != 1:
            raise ShapeError(
                f"concat {name!r}: input widths disagree: "
                f"{[self._shape[s] for s in input_stages]}"
            )
        self.net.add(
            f"{name}/concat",
            Concat(),
            [self._out_node(s) for s in input_stages],
        )
        self.stages.append(
            Stage(name, "concat", (f"{name}/concat",), tuple(input_stages))
        )
        total_depth = sum(self._shape[s][0] for s in input_stages)
        self._shape[name] = (total_depth, next(iter(widths)))
        return self

    def output_shape(self, stage_name: str | None = None) -> tuple[int, int]:
        """(depth, width) of a stage output (defaults to the last stage)."""
        return self._shape[self._resolve(stage_name)]

    def build(self) -> StagedNetwork:
        if not self.stages:
            raise GraphError("cannot build an empty network")
        return StagedNetwork(network=self.net, stages=list(self.stages))
