"""Span recording and self-time arithmetic of the traced run.

Run from the repository root:
``PYTHONPATH=src python -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from perfbench.layers import LAYERS, PASS_SPAN, span_targets
from perfbench.spans import (
    Instrumentation,
    SpanRecorder,
    pass_breakdown,
    self_times,
)

ROOT = Path(__file__).resolve().parents[2]


class FakeClock:
    """Each reading advances time by the next scripted step."""

    def __init__(self, steps):
        self.steps = iter(steps)
        self.now = 0.0

    def __call__(self) -> float:
        self.now += next(self.steps)
        return self.now


def test_self_time_subtracts_direct_children_only():
    # root [0,10] > a [1,4] > a1 [2,3];  root > b [5,9]
    starts = np.array([0.0, 1.0, 2.0, 5.0])
    ends = np.array([10.0, 4.0, 3.0, 9.0])
    parents = np.array([-1, 0, 1, 0])
    np.testing.assert_allclose(
        self_times(starts, ends, parents), [3.0, 2.0, 1.0, 4.0]
    )


def test_self_times_of_a_tree_sum_to_its_roots():
    rng = np.random.default_rng(0)
    # A random call tree built from a stack, as the recorder builds it.
    rec = SpanRecorder(clock=FakeClock(rng.uniform(0.1, 1.0, size=400)))
    rec.pass_id = 0
    root = rec.open("pass")
    stack = [root]
    for _ in range(99):
        if len(stack) > 1 and rng.random() < 0.5:
            rec.close(stack.pop())
        else:
            stack.append(rec.open("work"))
    while stack:
        rec.close(stack.pop())
    starts, ends, parents, _ = rec.arrays()
    own = self_times(starts, ends, parents)
    assert (own > 0).all()
    assert own.sum() == pytest.approx(ends[root] - starts[root])


def test_pass_breakdown_attributes_self_time_per_layer():
    # Clock readings: pass opens at 1, a opens 2, b opens 4, b closes 7,
    # a closes 8, a opens 9, a closes 10, pass closes 12.
    rec = SpanRecorder(clock=FakeClock([1, 1, 2, 3, 1, 1, 1, 2]))

    def leaf():
        return "leaf"

    def outer(nested):
        return nested() if nested else None

    traced_b = rec.wrap("B.leaf", leaf)
    traced_a = rec.wrap("A.outer", outer)
    run = rec.wrap(PASS_SPAN, lambda: (traced_a(traced_b), traced_a(None)))
    rec.pass_id = 0
    run()
    out = pass_breakdown(
        rec, {"A.outer": "layer.a", "B.leaf": "layer.b"}, PASS_SPAN
    )
    assert out["passes"] == 1
    assert out["pass_s"] == 11.0
    assert out["self_s"] == {
        "unattributed": 4.0, "layer.a": 4.0, "layer.b": 3.0,
    }
    assert sum(out["self_s"].values()) == out["pass_s"]
    assert out["calls"] == {"unattributed": 1, "layer.a": 2, "layer.b": 1}


def test_spans_outside_every_pass_are_left_out():
    rec = SpanRecorder(clock=FakeClock([1, 1, 1, 1, 5, 5]))
    work = rec.wrap("W.run", lambda: None)
    rec.wrap(PASS_SPAN, work)()
    work()  # e.g. a result check calling into the package after the pass
    out = pass_breakdown(rec, {"W.run": "w"}, PASS_SPAN)
    assert out["self_s"] == {"unattributed": 2.0, "w": 1.0}
    assert out["calls"] == {"unattributed": 1, "w": 1}
    assert sum(out["self_s"].values()) == out["pass_s"]


def test_nested_calls_of_one_layer_count_once():
    rec = SpanRecorder(clock=FakeClock([1] * 8))

    def inner():
        return 1

    traced_inner = rec.wrap("L.inner", inner)
    traced_outer = rec.wrap("L.outer", lambda: traced_inner())
    rec.wrap(PASS_SPAN, traced_outer)()
    out = pass_breakdown(rec, {"L.inner": "l", "L.outer": "l"}, PASS_SPAN)
    assert out["calls"]["l"] == 1
    assert out["self_s"]["l"] + out["self_s"]["unattributed"] == out["pass_s"]


def test_pass_breakdown_averages_over_passes():
    rec = SpanRecorder(clock=FakeClock([1, 1, 1, 1, 1, 3, 3, 3]))
    work = rec.wrap("W.run", lambda: None)
    run = rec.wrap(PASS_SPAN, work)
    for pass_id in range(2):
        rec.pass_id = pass_id
        run()
    out = pass_breakdown(rec, {"W.run": "w"}, PASS_SPAN)
    # pass 0: 3 s, 1 s in w; pass 1: 9 s, 3 s in w.
    assert out["passes"] == 2
    assert out["pass_s"] == 6.0
    assert out["self_s"] == {"unattributed": 4.0, "w": 2.0}


def test_a_raising_call_still_closes_its_span():
    rec = SpanRecorder(clock=FakeClock([1, 2]))

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        rec.wrap("X.boom", boom)()
    assert rec.ends == [3.0] and rec._stack == []


def test_dump_round_trips(tmp_path):
    rec = SpanRecorder(clock=FakeClock([1, 1, 1, 1]))
    rec.pass_id = 0
    rec.wrap(PASS_SPAN, rec.wrap("A.f", lambda: rec.count("n", 5)))()
    path = tmp_path / "spans.json"
    rec.dump(path)
    doc = json.loads(path.read_text())
    assert [doc["names"][i] for i in doc["name"]] == [PASS_SPAN, "A.f"]
    assert doc["parent"] == [-1, 0]
    assert doc["counts"] == [[0, "n", 5]]


def _toy_modules():
    base = types.ModuleType("toybench_base")

    class Base:
        def step(self):
            return "base"

    class Child(Base):
        def step(self):
            return "child:" + super().step()

    class Quiet(Base):
        pass

    def helper(x):
        return x + 1

    base.Base, base.Child, base.Quiet, base.helper = Base, Child, Quiet, helper
    user = types.ModuleType("toybench_user")
    user.helper = helper
    return base, user


def test_instrumentation_wraps_overrides_and_rebinds_functions(monkeypatch):
    base, user = _toy_modules()
    monkeypatch.setitem(sys.modules, base.__name__, base)
    monkeypatch.setitem(sys.modules, user.__name__, user)
    rec = SpanRecorder()
    inst = Instrumentation(rec, scopes=("toybench",))
    inst.install(["toybench_base:Base.step", "toybench_base:helper"])
    assert base.Child().step() == "child:base"
    assert base.Quiet().step() == "base"
    assert user.helper(1) == 2
    assert rec.names == ["Base.step", "Base.step", "Base.step", "helper"]
    assert rec.parents == [-1, 0, -1, -1]
    inst.uninstall()
    base.Child().step()
    user.helper(1)
    assert len(rec) == 4
    assert user.helper is base.helper


def test_instrumentation_rejects_a_missing_entry_point(monkeypatch):
    base, _ = _toy_modules()
    monkeypatch.setitem(sys.modules, base.__name__, base)
    inst = Instrumentation(SpanRecorder(), scopes=("toybench",))
    with pytest.raises(AttributeError):
        inst.install(["toybench_base:Base.missing"])


def test_every_layer_entry_point_exists():
    """The table's targets resolve against the package as it stands."""
    pytest.importorskip("repro")
    inst = Instrumentation(SpanRecorder())
    try:
        inst.install(span_targets())
    finally:
        inst.uninstall()


def test_benchmark_json_matches_the_code():
    from perfbench.run import E2E_UNITS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == E2E_UNITS
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (layer.name, layer.unit) for layer in LAYERS
    ]
    names = [w["name"] for w in spec["workloads"]]
    for layer in LAYERS:
        assert {layer.exercised, layer.bypassed} <= set(names)
        assert set(layer.moves) <= set(E2E_UNITS)
