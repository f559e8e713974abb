"""Model zoo: the four networks of Table 3 build and run correctly."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.nn.zoo import (
    MODEL_BUILDERS,
    alexnet_geometries,
    build_alexnet,
    build_convnet,
    build_lenet,
    build_model,
    build_squeezenet,
    build_weight_victim,
    convnet_geometries,
    lenet_geometries,
    squeezenet_conv1_geometry,
)


def test_lenet_forward_and_structure(rng):
    sn = build_lenet()
    out = sn.network.forward(rng.normal(size=(2, 1, 28, 28)))
    assert out.shape == (2, 10)
    assert len(sn.stages) == 4  # paper: LeNet has 4 layers
    assert [s.kind for s in sn.stages] == ["conv", "conv", "fc", "fc"]
    for g in lenet_geometries():
        g.validate()


def test_convnet_forward_and_structure(rng):
    sn = build_convnet()
    out = sn.network.forward(rng.normal(size=(2, 3, 32, 32)))
    assert out.shape == (2, 10)
    assert len(sn.stages) == 4
    # Every conv geometry respects the paper's Eq. (5): F <= W/2.
    for g in convnet_geometries():
        assert g.f_conv <= g.w_ifm // 2


def test_alexnet_geometry_matches_table4_originals():
    geoms = alexnet_geometries()
    assert [g.w_ifm for g in geoms] == [227, 27, 13, 13, 13]
    assert [g.w_ofm for g in geoms] == [27, 13, 13, 13, 6]
    assert [g.d_ofm for g in geoms] == [96, 256, 384, 384, 256]
    assert [g.f_conv for g in geoms] == [11, 5, 3, 3, 3]
    assert [g.has_pool for g in geoms] == [True, True, False, False, True]


def test_alexnet_parameter_count_full_scale():
    sn = build_alexnet()
    # Single-tower AlexNet has ~62M parameters.
    assert 60_000_000 < sn.network.num_parameters < 65_000_000
    assert len(sn.stages) == 8  # paper: 8 layers


def test_alexnet_scaled_forward(rng):
    sn = build_alexnet(num_classes=7, width_scale=0.1)
    out = sn.network.forward(rng.normal(size=(1, 3, 227, 227)))
    assert out.shape == (1, 7)


def test_squeezenet_structure(rng):
    sn = build_squeezenet(num_classes=10, width_scale=0.25)
    out = sn.network.forward(rng.normal(size=(1, 3, 227, 227)))
    assert out.shape == (1, 10)
    kinds = [s.kind for s in sn.stages]
    assert kinds.count("concat") == 8  # eight fire modules
    assert kinds.count("eltwise") == 3  # three bypass paths (paper 3.2)
    assert kinds.count("conv") == 26  # conv1 + 8 fires x 3 + conv10
    conv1 = squeezenet_conv1_geometry()
    assert (conv1.w_ifm, conv1.w_ofm, conv1.f_conv) == (227, 55, 7)


def test_squeezenet_fire_widths(rng):
    sn = build_squeezenet(num_classes=10, width_scale=0.25)
    shapes = sn.network.infer_shapes()
    # Pooling merged into fire4/fire8 expands: widths 55 -> 27 -> 13 -> 1.
    assert shapes["fire2/concat/concat"][1:] == (55, 55)
    assert shapes["fire4/concat/concat"][1:] == (27, 27)
    assert shapes["fire8/concat/concat"][1:] == (13, 13)
    assert shapes["conv10/pool"][1:] == (1, 1)


def test_build_model_registry(rng):
    assert set(MODEL_BUILDERS) == {"lenet", "convnet", "alexnet", "squeezenet"}
    sn = build_model("lenet")
    assert sn.name == "lenet"
    with pytest.raises(ConfigError):
        build_model("resnet")


def test_width_scale_validation():
    with pytest.raises(ConfigError):
        build_lenet(width_scale=0.0)
    with pytest.raises(ConfigError):
        build_lenet(num_classes=1)


def test_zoo_ground_truth_geometries_consistent():
    for name, builder in MODEL_BUILDERS.items():
        kwargs = {"width_scale": 0.25} if name in ("alexnet", "squeezenet") else {}
        sn = builder(**kwargs)
        for stage in sn.conv_stages():
            stage.geometry.validate()


@pytest.mark.parametrize("filters", [2, 8])
def test_weight_victim_matches_the_demo_victim_draws(filters):
    """Same RNG draws as the `repro weights` demo victim it replaced
    (kept verbatim in the benchmark-owned perfbench.workloads)."""
    from perfbench.workloads import _demo_weight_victim

    staged, geom, weights, biases = build_weight_victim(43, filters, 0)
    _, ref_geom, ref_weights, ref_biases = _demo_weight_victim(43, filters, 0)
    assert geom == ref_geom
    assert np.array_equal(weights, ref_weights)
    assert np.array_equal(biases, ref_biases)
    conv = staged.network.nodes["conv1/conv"].layer
    assert np.array_equal(conv.weight.value, weights)
    assert np.array_equal(conv.bias.value, biases)


def test_weight_victim_takes_filter_size_and_stride():
    _, geom, weights, _ = build_weight_victim(19, 4, filter_size=5, stride=2)
    assert (geom.f_conv, geom.s_conv) == (5, 2)
    assert weights.shape == (4, 3, 5, 5)
