"""Span recording around the package's public entry points.

The benchmark's traced run wraps each entry point named in
:mod:`perfbench.layers` from outside the package: the wrapper records
one span per call (name, start, end, parent span, pass id) into an
in-memory :class:`SpanRecorder`.  Nothing in ``src/`` knows about it,
and the untraced runs never install a wrapper.

A layer's self time is the duration of its spans minus the time their
child spans cover.  Because every traced pass is itself a root span,
the self times of all spans in a pass sum exactly to the pass's
duration; the root's own self time is the unattributed remainder.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections.abc import Callable, Iterable

import numpy as np

__all__ = [
    "SpanRecorder",
    "Instrumentation",
    "self_times",
    "pass_breakdown",
]


class SpanRecorder:
    """Spans kept in memory as parallel columns, one row per call."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.passes: list[int] = []
        self.counts: dict[tuple[int, str], float] = {}
        self.pass_id = -1
        self._stack: list[int] = []

    def __len__(self) -> int:
        return len(self.starts)

    def open(self, name: str) -> int:
        idx = len(self.starts)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.passes.append(self.pass_id)
        self.ends.append(float("nan"))
        self._stack.append(idx)
        # Read the clock last so the bookkeeping above stays outside
        # the span (it is charged to the parent's self time instead).
        self.starts.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = self.clock()
        top = self._stack.pop()
        if top != idx:
            raise RuntimeError(f"span {idx} closed while {top} was open")

    def count(self, name: str, n: float = 1) -> None:
        """Add ``n`` to a per-pass counter recorded at a span boundary."""
        key = (self.pass_id, name)
        self.counts[key] = self.counts.get(key, 0) + n

    def wrap(
        self,
        name: str,
        fn: Callable,
        on_result: Callable[["SpanRecorder", object], None] | None = None,
    ) -> Callable:
        """``fn`` with every call recorded as a span called ``name``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        return (
            np.asarray(self.starts, dtype=float),
            np.asarray(self.ends, dtype=float),
            np.asarray(self.parents, dtype=np.int64),
            np.asarray(self.passes, dtype=np.int64),
        )

    def dump(self, path) -> None:
        """Write every span and counter as one columnar JSON document."""
        table = sorted(set(self.names))
        index = {name: i for i, name in enumerate(table)}
        doc = {
            "names": table,
            "name": [index[n] for n in self.names],
            "start": self.starts,
            "end": self.ends,
            "parent": self.parents,
            "pass": self.passes,
            "counts": [
                [pass_id, name, value]
                for (pass_id, name), value in sorted(self.counts.items())
            ],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh)


def self_times(
    starts: np.ndarray, ends: np.ndarray, parents: np.ndarray
) -> np.ndarray:
    """Each span's duration minus the summed durations of its children.

    Spans come from a single call stack, so children of one parent never
    overlap and always lie inside it.
    """
    durations = ends - starts
    covered = np.zeros_like(durations)
    nested = parents >= 0
    np.add.at(covered, parents[nested], durations[nested])
    return durations - covered


def pass_breakdown(
    recorder: SpanRecorder,
    layer_of: dict[str, str],
    root: str,
) -> dict:
    """Mean per-pass self time per layer, over every recorded pass.

    ``layer_of`` maps span names to layer names; spans named ``root``
    are the passes themselves and their self time is reported as
    ``"unattributed"``.  Spans outside every pass (calls made while
    checking a pass's results, say) are left out.  Also returns the
    mean pass time, the pass count, and per layer the mean number of
    *outermost* calls (calls whose parent span belongs to another
    layer).
    """
    starts, ends, parents, _ = recorder.arrays()
    names = recorder.names
    own = self_times(starts, ends, parents)
    # Parents precede their children, so one forward sweep finds each
    # span's outermost ancestor.
    top = list(range(len(names)))
    for i, p in enumerate(parents):
        if p >= 0:
            top[i] = top[p]
    roots = [i for i, n in enumerate(names) if n == root and parents[i] < 0]
    if not roots:
        raise ValueError(f"no {root!r} spans recorded")
    npass = len(roots)
    layer = ["unattributed" if n == root else layer_of[n] for n in names]
    self_s: dict[str, float] = {}
    calls: dict[str, float] = {}
    for i, name in enumerate(layer):
        if names[top[i]] != root:
            continue
        self_s[name] = self_s.get(name, 0.0) + float(own[i])
        p = parents[i]
        if p < 0 or layer[p] != name:
            calls[name] = calls.get(name, 0.0) + 1
    pass_s = float(sum(ends[i] - starts[i] for i in roots)) / npass
    return {
        "passes": npass,
        "pass_s": pass_s,
        "self_s": {k: v / npass for k, v in self_s.items()},
        "calls": {k: v / npass for k, v in calls.items()},
    }


def _resolve(target: str):
    module_name, qualname = target.split(":")
    obj = importlib.import_module(module_name)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


def _subclasses(cls: type) -> Iterable[type]:
    yield cls
    for sub in cls.__subclasses__():
        yield from _subclasses(sub)


class Instrumentation:
    """Installs (and removes) span wrappers on named entry points.

    A method target ``"mod:Class.meth"`` wraps the method on ``Class``
    and on every loaded subclass that overrides it, all under the span
    name ``"Class.meth"``.  A function target ``"mod:func"`` replaces
    every binding of that function object in the loaded modules whose
    names start with one of ``scopes``, so callers that imported it by
    name see the wrapper too.
    """

    def __init__(
        self,
        recorder: SpanRecorder,
        scopes: tuple[str, ...] = ("repro", "perfbench"),
    ) -> None:
        self.recorder = recorder
        self.scopes = scopes
        self._undo: list[tuple[object, str, object]] = []

    def install(
        self,
        targets: Iterable[str],
        on_result: dict[str, Callable] | None = None,
    ) -> None:
        hooks = on_result or {}
        for target in targets:
            qualname = target.split(":")[1]
            hook = hooks.get(target)
            if "." in qualname:
                owner, attr = target.rsplit(".", 1)
                self._wrap_method(_resolve(owner), attr, qualname, hook)
            else:
                self._wrap_function(_resolve(target), qualname, hook)

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _wrap_method(self, cls: type, attr: str, name: str, hook) -> None:
        wrapped = 0
        for sub in _subclasses(cls):
            if attr not in sub.__dict__:
                continue
            raw = sub.__dict__[attr]
            if isinstance(raw, staticmethod):
                value = staticmethod(
                    self.recorder.wrap(name, raw.__func__, hook)
                )
            else:
                value = self.recorder.wrap(name, raw, hook)
            self._set(sub, attr, value)
            wrapped += 1
        if not wrapped:
            raise AttributeError(f"{cls.__name__} defines no {attr!r}")

    def _wrap_function(self, fn: Callable, name: str, hook) -> None:
        traced = self.recorder.wrap(name, fn, hook)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not mod_name.startswith(self.scopes):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, traced)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
