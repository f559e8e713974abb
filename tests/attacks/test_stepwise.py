"""Stepwise runners recover bit-identically to an uninterrupted run.

Every checkpointable attack (:class:`StructureAttack`,
:class:`BoundaryRecovery`, :class:`FusedBoundaryRecovery`,
:class:`SteppedWeightAttack`, :class:`CloneAttack`) is a
:class:`~repro.attacks.stepped.Stepped` runner resumed by the one loop
in :mod:`repro.attacks.stepped`.  These tests drive each plan the way a
campaign would — state JSON round-tripped after every step, fresh
device sessions mid-plan to simulate a kill — and assert the products
are byte-for-byte equal to the all-steps ``.run()`` path.  Steps
outside a runner's plan are rejected up front.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.accel import AcceleratorSim
from repro.attacks.clone import CloneAttack, clone_model
from repro.attacks.robust import BoundaryRecovery
from repro.attacks.structure.attack import StructureAttack, run_structure_attack
from repro.attacks.structure.trace_analysis import analysis_to_dict
from repro.attacks.weights.recovery import SteppedWeightAttack, WeightAttack
from repro.attacks.weights.target import AttackTarget
from repro.attacks.fusion import FusedBoundaryRecovery
from repro.channel import ChannelModel
from repro.data import make_dataset
from repro.device import DeviceSession
from repro.errors import ConfigError

from tests.attacks.test_clone import build_victim
from tests.conftest import build_conv_stage, pruned_session


def roundtrip(state: dict) -> dict:
    """A campaign checkpoint: the state must survive JSON exactly."""
    return json.loads(json.dumps(state, sort_keys=True))


def test_structure_stepwise_resume_bit_identical():
    staged, _, _, _ = build_conv_stage(w=10, d=4)

    monolith = run_structure_attack(
        DeviceSession(AcceleratorSim(staged)), runs=2, dataflow="auto"
    )

    # Stepwise, with a fresh session (a new process after a kill) and a
    # JSON round-trip of the checkpoint between every pair of steps.
    state: dict = {}
    attack = StructureAttack(
        DeviceSession(AcceleratorSim(staged)), runs=2, dataflow="auto"
    )
    plan = attack.steps()
    assert plan == ["observe:0", "observe:1", "enumerate"]
    for name in plan:
        attack = StructureAttack(
            DeviceSession(AcceleratorSim(staged)), runs=2, dataflow="auto"
        )
        state = roundtrip(attack.run_step(name, state))
    stepped = attack.result(state)

    assert analysis_to_dict(stepped.analysis) == analysis_to_dict(
        monolith.analysis
    )
    assert stepped.count == monolith.count
    assert stepped.dataflow == monolith.dataflow
    assert [c.layers[0].geometry for c in stepped.candidates] == [
        c.layers[0].geometry for c in monolith.candidates
    ]


def test_structure_auto_resume_after_observe_0_bit_identical():
    """Killed right after observe:0 under ``dataflow="auto"``: that step
    identified the dataflow from its own trace and checkpointed it, and a
    fresh session finishes the plan bit-identically."""
    staged, _, _, _ = build_conv_stage(w=10, d=4)

    def fresh():
        return StructureAttack(
            DeviceSession(AcceleratorSim(staged)), runs=2, dataflow="auto"
        )

    monolith = fresh().run()
    state = roundtrip(fresh().run_step("observe:0", {}))
    assert state["dataflow"] == monolith.dataflow
    state["steps_done"] = ["observe:0"]
    attack = fresh()
    resumed = attack.run(roundtrip(state))

    assert analysis_to_dict(resumed.analysis) == analysis_to_dict(
        monolith.analysis
    )
    assert resumed.boundaries == monolith.boundaries
    assert resumed.count == monolith.count
    assert resumed.dataflow == monolith.dataflow
    assert [c.layers for c in resumed.candidates] == [
        c.layers for c in monolith.candidates
    ]
    # The resumed session ran only the remaining observation.
    assert attack.session.ledger.inferences == 1


def test_structure_run_skips_done_steps():
    staged, _, _, _ = build_conv_stage(w=10, d=4)

    def fresh():
        return StructureAttack(DeviceSession(AcceleratorSim(staged)))

    state = roundtrip(fresh().run_step("observe:0", {}))
    state["steps_done"] = ["observe:0"]
    resumed = fresh().run(state)
    monolith = run_structure_attack(DeviceSession(AcceleratorSim(staged)))
    assert analysis_to_dict(resumed.analysis) == analysis_to_dict(
        monolith.analysis
    )


def test_boundary_recovery_stepwise_resume_bit_identical():
    staged, _, _, _ = build_conv_stage(w=12, d=6)
    channel = ChannelModel(drop_rate=0.05, dup_rate=0.02, seed=7)

    def fresh():
        return DeviceSession(AcceleratorSim(staged), channel=channel)

    monolith = BoundaryRecovery(fresh(), runs=3, compare_naive=True).run()

    state: dict = {}
    for name in ["run:0", "run:1"]:
        state = roundtrip(
            BoundaryRecovery(fresh(), runs=3, compare_naive=True).run_step(
                name, state
            )
        )
    # Kill here; the resume replays only the remaining plan entries.
    state["steps_done"] = ["run:0", "run:1"]
    resumed = BoundaryRecovery(fresh(), runs=3, compare_naive=True).run(state)

    assert resumed.boundaries == monolith.boundaries
    assert resumed.runs == monolith.runs
    assert resumed.naive_runs == monolith.naive_runs
    assert resumed.quorum == monolith.quorum


def test_weight_attack_stepwise_resume_bit_identical():
    staged, geom, _, _ = build_conv_stage(
        w=8, d=5, pool=None, bias_sign=1.0
    )
    target = AttackTarget.from_geometry(geom)
    channel = ChannelModel(counter_sigma=0.5, seed=3)

    def fresh():
        return pruned_session(staged, channel=channel)

    monolith = WeightAttack(fresh(), target, search_steps=24).run()

    stepped_attack = SteppedWeightAttack(
        fresh(), target, search_steps=24, filters_per_step=2
    )
    plan = stepped_attack.steps()
    assert plan == ["filters:0:2", "filters:2:4", "filters:4:5"]
    state: dict = {}
    for name in plan[:2]:
        state = roundtrip(stepped_attack.run_step(name, state))
    # Kill after two chunks; a fresh session finishes the last one.
    state["steps_done"] = plan[:2]
    stepped_attack = SteppedWeightAttack(
        fresh(), target, search_steps=24, filters_per_step=2
    )
    stepped = stepped_attack.run(state)

    assert np.array_equal(monolith.ratio_tensor(), stepped.ratio_tensor())
    assert np.array_equal(monolith.status_tensor(), stepped.status_tensor())
    assert [f.bias_positive for f in monolith.filters] == [
        f.bias_positive for f in stepped.filters
    ]


def test_clone_stepwise_resume_bit_identical():
    victim, _, _ = build_victim(d=4)
    ds = make_dataset(
        num_classes=10, image_size=14, channels=1,
        train_per_class=4, val_per_class=2, seed=3,
    )

    def sessions():
        from repro.accel import AcceleratorConfig, PruningConfig

        dense = AcceleratorSim(victim)
        pruned = AcceleratorSim(
            victim, AcceleratorConfig(pruning=PruningConfig(enabled=True))
        )
        return dense, pruned

    dense, pruned = sessions()
    monolith = clone_model(dense, pruned, ds.train_images, distill_epochs=2)

    def fresh_attack():
        dense, pruned = sessions()
        return CloneAttack(dense, pruned, ds.train_images, distill_epochs=2)

    attack = fresh_attack()
    plan = attack.steps()
    assert plan[-3:] == ["steal", "label", "distill"]
    state: dict = {}
    done: list[str] = []
    for name in plan:
        if name == "label":
            # Kill between steal and label: everything after resumes in
            # a new process against fresh sessions.
            state["steps_done"] = list(done)
            state = roundtrip(state)
            attack = fresh_attack()
            stepped = attack.run(state)
            break
        state = attack.run_step(name, state)
        done.append(name)

    assert stepped.geometry == monolith.geometry
    assert stepped.structure_candidates == monolith.structure_candidates
    assert (
        stepped.weights_resolved_fraction == monolith.weights_resolved_fraction
    )
    assert stepped.channel_queries == monolith.channel_queries
    # The distilled clone is parameter-for-parameter identical.
    mono_params = {
        p.name: p.value for p in monolith.network.network.parameters()
    }
    step_params = {
        p.name: p.value for p in stepped.network.network.parameters()
    }
    assert mono_params.keys() == step_params.keys()
    for name, value in mono_params.items():
        np.testing.assert_array_equal(value, step_params[name], err_msg=name)


_STAGED, _GEOM, _, _ = build_conv_stage(w=8, d=3, pool=None)


def _session():
    return DeviceSession(AcceleratorSim(_STAGED))


@pytest.mark.parametrize(
    "build, name",
    [
        (lambda: StructureAttack(_session()), "observe:x"),
        (lambda: StructureAttack(_session(), runs=1), "observe:7"),
        (lambda: BoundaryRecovery(_session(), runs=3), "run:9"),
        (lambda: FusedBoundaryRecovery(_session(), 1), "run:1"),
        (
            lambda: SteppedWeightAttack(
                _session(),
                AttackTarget.from_geometry(_GEOM),
                filters_per_step=2,
            ),
            "filters:0:3",
        ),
        (
            lambda: CloneAttack(
                _session(),
                _session(),
                np.zeros((2, *_STAGED.network.input_shape)),
            ),
            "structure:observe:1",
        ),
    ],
    ids=["structure", "structure-run", "boundary", "fused", "weights", "clone"],
)
def test_steps_outside_the_plan_are_rejected(build, name):
    runner = build()
    with pytest.raises(ConfigError) as info:
        runner.run_step(name, {})
    message = str(info.value)
    assert type(runner).__name__ in message
    assert repr(name) in message
    assert str(runner.steps()) in message
