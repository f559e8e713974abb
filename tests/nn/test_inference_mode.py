"""grad_enabled: forward passes on inference-only paths retain nothing."""

from __future__ import annotations

import numpy as np
import pytest

from repro.accel import AcceleratorConfig, AcceleratorSim, PruningConfig
from repro.errors import ShapeError
from repro.nn.layers.conv import Conv2D
from repro.nn.zoo import build_model
from repro.reference import dense_session
from tests.conftest import build_conv_stage


def test_conv_forward_caches_by_default():
    conv = Conv2D(2, 3, 3)
    conv.forward(np.zeros((1, 2, 8, 8)))
    assert conv._cache is not None


def test_conv_forward_without_grad_retains_nothing():
    conv = Conv2D(2, 3, 3).requires_grad_(False)
    out = conv.forward(np.zeros((1, 2, 8, 8)))
    assert conv._cache is None
    with pytest.raises(ShapeError):
        conv.backward(np.zeros_like(out))


def test_requires_grad_toggle_restores_backward():
    conv = Conv2D(2, 3, 3)
    x = np.random.default_rng(0).normal(size=(1, 2, 8, 8))
    conv.requires_grad_(False).forward(x)
    conv.requires_grad_(True)
    out = conv.forward(x)
    conv.backward(np.ones_like(out))  # cache present again
    assert np.abs(conv.weight.grad).sum() > 0


def test_simulator_marks_network_inference_only():
    staged = build_model("lenet")
    sim = AcceleratorSim(staged)
    sim.run(np.zeros((1, *staged.network.input_shape)))
    convs = [
        layer
        for _, layer in staged.network.layers()
        if isinstance(layer, Conv2D)
    ]
    assert convs and all(c._cache is None for c in convs)
    assert all(not c.grad_enabled for c in convs)


def test_session_channel_queries_retain_no_cols():
    staged, _, _, _ = build_conv_stage(w=10, d=4)
    sim = AcceleratorSim(
        staged, AcceleratorConfig(pruning=PruningConfig(enabled=True))
    )
    session = dense_session(sim, "conv1")
    session.query([(0, 0, 0)], [1.0])
    conv = staged.network.nodes["conv1/conv"].layer
    assert conv._cache is None


def test_trainer_reenables_caching():
    from repro.nn.optim import SGD
    from repro.nn.train import Trainer

    staged = build_model("lenet")
    AcceleratorSim(staged)  # marks the network inference-only
    net = staged.network
    trainer = Trainer(net, SGD(net.parameters(), lr=0.01), batch_size=2)
    images = np.random.default_rng(0).normal(size=(4, *net.input_shape))
    labels = np.array([0, 1, 2, 3])
    trainer.train_epoch(images, labels)  # must not raise backward-before-forward
    convs = [l for _, l in net.layers() if isinstance(l, Conv2D)]
    assert all(c.grad_enabled for c in convs)
