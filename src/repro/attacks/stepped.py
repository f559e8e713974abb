"""The one step/resume loop behind every checkpointable attack.

A :class:`Stepped` runner is a deterministic plan of named steps
(:meth:`~Stepped.steps`), each run against a JSON-serialisable state
dict (:meth:`~Stepped.run_step`), plus the product assembled from a
completed state (:meth:`~Stepped.result`).  :func:`drive` is the only
loop that walks a plan from a cursor of done steps: :meth:`Stepped.run`
keeps the cursor in ``state["steps_done"]``, the campaign coordinator
keeps it in the job checkpoint.  Every step pins its own noise stream
(run index or content key), so a plan resumed at any cursor against a
fresh session reproduces the uninterrupted result bit for bit.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable

from repro.errors import ConfigError

__all__ = ["Stepped", "SubPlan", "drive"]


class Stepped(ABC):
    """A checkpointable runner: a step plan threaded through a state dict."""

    @abstractmethod
    def steps(self) -> list[str]:
        """The deterministic step plan."""

    @abstractmethod
    def run_step(self, name: str, state: dict | None = None) -> dict:
        """Execute one named step, returning the updated state dict.

        The input state is not mutated; callers persist the returned
        dict before moving to the next step.
        """

    @abstractmethod
    def result(self, state: dict):
        """Assemble the final product from a completed state."""

    def _begin_step(self, name: str, state: dict | None) -> dict:
        """A copy of ``state`` for step ``name``, which must be planned."""
        plan = self.steps()
        if name not in plan:
            raise ConfigError(
                f"{type(self).__name__} has no step {name!r}; "
                f"its plan is {plan}"
            )
        return dict(state or {})

    def run(self, state: dict | None = None):
        """Drive every remaining step in order and assemble the result.

        ``state`` may carry a partial checkpoint; steps recorded in its
        ``"steps_done"`` list are skipped (their products are already in
        the state), which is the resume path.
        """
        state = dict(state or {})
        done = list(state.get("steps_done", []))

        def mark(name: str, new_state: dict) -> None:
            new_state["steps_done"] = list(done)

        return self.result(drive(self, state, done, mark))


def drive(
    runner: Stepped,
    state: dict,
    done: list[str],
    on_step: Callable[[str, dict], None],
) -> dict:
    """Run the steps of ``runner``'s plan missing from ``done``.

    Each step runs in plan order, is appended to ``done`` and is then
    reported as ``on_step(name, state)`` — where a caller persists its
    checkpoint.  Returns the final state.
    """
    for name in runner.steps():
        if name in done:
            continue
        state = runner.run_step(name, state)
        done.append(name)
        on_step(name, state)
    return state


class SubPlan(Stepped):
    """A runner's plan nested inside a parent plan under ``key``.

    Step ``f"{key}:{name}"`` runs the child's step ``name`` on the
    child's own state, kept at ``state[key]``; the result is the
    child's, assembled from that nested state.
    """

    def __init__(self, key: str, runner: Stepped) -> None:
        self.key = key
        self.runner = runner

    def steps(self) -> list[str]:
        return [f"{self.key}:{name}" for name in self.runner.steps()]

    def run_step(self, name: str, state: dict | None = None) -> dict:
        state = self._begin_step(name, state)
        state[self.key] = self.runner.run_step(
            name[len(self.key) + 1 :], state.get(self.key, {})
        )
        return state

    def result(self, state: dict):
        return self.runner.result(dict(state.get(self.key, {})))
