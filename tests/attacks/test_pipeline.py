"""End-to-end structure search: chaining, counting, module constraints."""

from __future__ import annotations

import pytest

from repro.accel import AcceleratorConfig, AcceleratorSim
from repro.attacks.structure.trace_analysis import INPUT_SOURCE
from repro.errors import SolverError

from tests.conftest import observe_structure
from repro.attacks.structure import (
    DeviceKnowledge,
    PracticalityRules,
    StructureSearch,
    analyse_trace,
    detect_fire_modules,
    run_structure_attack,
)
from repro.nn.zoo import build_convnet, build_lenet, build_squeezenet

TOL = 0.25
EXACT = PracticalityRules(exact_pool_division=True)


def search_for(staged, **kwargs):
    sim = AcceleratorSim(staged)
    ana = analyse_trace(observe_structure(sim, seed=1))
    return StructureSearch(
        ana, DeviceKnowledge.from_timing(sim.config.timing), **kwargs
    ), staged


def truth_in(staged, structures) -> bool:
    truth = tuple(g.canonical() for g in staged.geometries())
    return any(
        tuple(g.canonical() for g in s.conv_geometries()) == truth
        for s in structures
    )


def test_lenet_enumeration_contains_truth():
    search, staged = search_for(build_lenet(), tolerance=TOL, rules=EXACT)
    structures = search.enumerate()
    assert truth_in(staged, structures)
    assert search.count() == len(structures)
    # Paper Table 3 reports 9 possible LeNet structures.
    assert len(structures) == 9


def test_lenet_structures_all_chain_correctly():
    search, _ = search_for(build_lenet(), tolerance=TOL, rules=EXACT)
    for s in search.enumerate():
        geoms = s.conv_geometries()
        # Consecutive conv layers agree on shapes (Algorithm 1 step 5).
        for a, b in zip(geoms, geoms[1:]):
            assert (a.w_ofm, a.d_ofm) == (b.w_ifm, b.d_ifm)
        # Last layer is an FC classifier with 10 outputs.
        last = s.layers[-1]
        assert last.kind == "fc"
        assert last.geometry.out_features == 10


def test_convnet_enumeration_contains_truth():
    search, staged = search_for(build_convnet(), tolerance=0.1)
    structures = search.enumerate()
    assert truth_in(staged, structures)


def test_count_matches_enumerate_on_dag():
    staged = build_squeezenet(num_classes=10, width_scale=0.25)
    sim = AcceleratorSim(staged)
    ana = analyse_trace(observe_structure(sim, seed=1))
    roles = detect_fire_modules(ana)
    search = StructureSearch(
        ana, DeviceKnowledge.from_timing(sim.config.timing),
        tolerance=0.05, module_roles=roles, rules=EXACT,
    )
    structures = search.enumerate()
    assert search.count() == len(structures)
    assert len(structures) >= 1


def test_module_roles_reduce_count():
    staged = build_squeezenet(num_classes=10, width_scale=0.25)
    sim = AcceleratorSim(staged)
    ana = analyse_trace(observe_structure(sim, seed=1))
    dev = DeviceKnowledge.from_timing(sim.config.timing)
    roles = detect_fire_modules(ana)
    assert len(roles) == 24  # 8 fires x 3 conv roles
    with_roles = StructureSearch(
        ana, dev, tolerance=0.05, module_roles=roles, rules=EXACT
    ).count()
    without = StructureSearch(ana, dev, tolerance=0.05, rules=EXACT).count()
    assert 1 <= with_roles < without


def test_fire_roles_grouping():
    staged = build_squeezenet(num_classes=10, width_scale=0.25)
    sim = AcceleratorSim(staged)
    ana = analyse_trace(observe_structure(sim, seed=1))
    roles = detect_fire_modules(ana)
    names = set(roles.values())
    assert "fire/squeeze" in names
    # Pooled expands (fire4/fire8) are separated from unpooled ones.
    assert any(n.endswith("+pool") for n in names)
    assert detect_fire_modules(
        analyse_trace(observe_structure(AcceleratorSim(build_lenet()), seed=1))
    ) == {}


def test_run_structure_attack_orchestration():
    sim = AcceleratorSim(build_lenet())
    result = run_structure_attack(sim, tolerance=TOL, rules=EXACT)
    assert result.num_layers == 4
    assert result.count == len(result.candidates) == 9
    assert result.module_roles == {}


def test_candidate_describe_readable():
    sim = AcceleratorSim(build_lenet())
    result = run_structure_attack(sim, tolerance=TOL, rules=EXACT)
    text = result.candidates[0].describe()
    assert "conv" in text and "fc" in text


def plain_dfs(search: StructureSearch) -> list[tuple]:
    """Every structure by depth-first search over all options, dead
    subtrees included: the order :meth:`StructureSearch.enumerate`
    must reproduce."""
    n = search.analysis.num_layers
    found: list[tuple] = []

    def walk(index, frontier, micro, prefix):
        if index == n:
            found.append(tuple(prefix))
            return
        for cand, out, new_micro in search._candidates_at(
            index, frontier, micro
        ):
            walk(
                index + 1, search._step_frontier(index, frontier, out),
                new_micro, prefix + [cand],
            )

    walk(0, {INPUT_SOURCE: search._input_state}, {}, [])
    return found


def search_on(staged, dataflow):
    sim = AcceleratorSim(staged, AcceleratorConfig(dataflow=dataflow))
    ana = analyse_trace(observe_structure(sim), dataflow=dataflow)
    return StructureSearch(
        ana, DeviceKnowledge.from_timing(sim.config.timing),
        tolerance=0.1, module_roles=detect_fire_modules(ana), rules=EXACT,
    )


@pytest.mark.parametrize(
    "model, dataflow",
    [
        ("lenet", "output-stationary"),
        ("lenet", "weight-stationary"),
        ("lenet", "row-stationary"),
        ("squeezenet", "output-stationary"),
    ],
)
def test_enumerate_matches_plain_dfs(model, dataflow):
    staged = (
        build_lenet() if model == "lenet"
        else build_squeezenet(num_classes=100, width_scale=0.25)
    )
    search = search_on(staged, dataflow)
    if model == "squeezenet":
        assert search.module_roles  # fire-module role constraints apply
    # enumerate() runs count() itself when it has not run yet.
    structures = search.enumerate()
    expected = plain_dfs(search)
    assert [s.layers for s in structures] == expected
    assert search.count() == len(expected) >= 1


def test_enumerate_limit_raises_past_the_count():
    search = search_on(build_lenet(), "row-stationary")
    count = search.count()
    assert count > 1
    assert len(search.enumerate(limit=count)) == count
    with pytest.raises(SolverError):
        search.enumerate(limit=count - 1)
