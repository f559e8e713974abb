"""Settings no program varies are constants, not parameters.

Each name below was once a keyword parameter that only tests set; the
value every program used is now a constant or is derived from the
session, channel or datasheet.  A parameter coming back would reopen a
code path no program runs.
"""

from __future__ import annotations

import ast
import importlib
import inspect
from pathlib import Path

import pytest

import repro
import repro.report
from repro.accel.trace import TraceSink
from repro.attacks.fusion import FusedBoundaryRecovery
from repro.attacks.robust import (
    BoundaryRecovery,
    VotingChannel,
    calibrate_channel,
    required_repeats,
    vote_confidence,
)
from repro.attacks.structure import StructureAttack, average_analyses
from repro.attacks.weights import (
    SteppedWeightAttack,
    WeightAttack,
    recover_crossing_multiset,
    recover_positive_biases,
)
from repro.device import DeviceSession, SharedQueryCache

BOUNDARY = ("min_support", "expiry", "refractory", "quorum", "tol", "seed")

REMOVED = [
    (VotingChannel, ("confidence", "max_repeats", "statistic")),
    (required_repeats, ("delta", "statistic")),
    (vote_confidence, ("delta", "statistic")),
    (BoundaryRecovery, BOUNDARY),
    (
        FusedBoundaryRecovery,
        BOUNDARY + ("confirm_tol", "stage_overhead", "max_power_segments"),
    ),
    (StructureAttack, ("use_modular_assumption", "enumerate_limit")),
    (WeightAttack, ("max_resolution_rounds",)),
    (SteppedWeightAttack, ("max_resolution_rounds",)),
    (average_analyses, ("mode",)),
    (calibrate_channel, ("runs",)),
    (DeviceSession, ("input_range",)),
    (SharedQueryCache, ("max_trace_events",)),
    (recover_crossing_multiset, ("pixel", "refine_steps")),
    (recover_positive_biases, ("t_max", "steps")),
]


@pytest.mark.parametrize(
    "target, names", REMOVED, ids=[t.__name__ for t, _ in REMOVED]
)
def test_removed_parameters_stay_removed(target, names):
    params = inspect.signature(target).parameters
    assert not set(names) & set(params)


def test_voting_sigma_is_required():
    sigma = inspect.signature(VotingChannel).parameters["sigma"]
    assert sigma.default is inspect.Parameter.empty


def test_unreferenced_public_names_are_gone():
    assert not hasattr(repro, "SearchError")
    assert not hasattr(repro.report, "load_jsonl")


def test_trace_sink_is_emit_and_close():
    members = {
        name
        for name, value in vars(TraceSink).items()
        if callable(value) and not name.startswith("_")
    }
    assert members == {"emit", "close"}


def test_no_class_defines_begin_stage():
    offenders = []
    for path in sorted(Path(repro.__file__).parent.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(
                isinstance(item, ast.FunctionDef) and item.name == "begin_stage"
                for item in node.body
            ):
                offenders.append(f"{path.name}:{node.name}")
    assert offenders == []


@pytest.mark.parametrize(
    "module",
    [
        "repro.accel",
        "repro.accel.sinks",
        "repro.attacks.structure",
        "repro.attacks.structure.trace_analysis",
        "repro.attacks.robust",
        "repro.attacks.robust.structure",
    ],
)
def test_naive_tracker_and_stage_stats_are_gone(module):
    mod = importlib.import_module(module)
    for name in ("RawBoundaryTracker", "RawBoundaryCycleSink", "StageStats"):
        assert not hasattr(mod, name), (module, name)
