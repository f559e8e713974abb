"""There is one step/resume loop: :func:`repro.attacks.stepped.drive`.

Every checkpointable runner inherits ``run()`` from
:class:`~repro.attacks.stepped.Stepped`, and the campaign coordinator
drives jobs through :func:`~repro.attacks.stepped.drive`.  A copied
loop has to track which steps are done, so the cursor's name may appear
only in :mod:`repro.attacks.stepped` and in the checkpoint format that
persists it.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.attacks.clone import CloneAttack
from repro.attacks.fusion import FusedBoundaryRecovery
from repro.attacks.robust import BoundaryRecovery
from repro.attacks.stepped import Stepped
from repro.attacks.structure import StructureAttack
from repro.attacks.weights import SteppedWeightAttack

REPRO_DIR = Path(__file__).resolve().parents[2] / "src" / "repro"
CURSOR_OWNERS = ("attacks/stepped.py", "campaign/checkpoint.py")


def test_step_cursor_lives_in_the_stepped_module_only():
    holders = [
        path.relative_to(REPRO_DIR).as_posix()
        for path in sorted(REPRO_DIR.rglob("*.py"))
        if "steps_done" in path.read_text()
    ]
    assert holders and set(holders) <= set(CURSOR_OWNERS), (
        f"steps_done bookkeeping outside repro.attacks.stepped: {holders}"
    )


@pytest.mark.parametrize(
    "runner",
    [
        StructureAttack,
        BoundaryRecovery,
        FusedBoundaryRecovery,
        SteppedWeightAttack,
        CloneAttack,
    ],
)
def test_runners_inherit_the_one_run(runner):
    assert issubclass(runner, Stepped)
    assert runner.run is Stepped.run
