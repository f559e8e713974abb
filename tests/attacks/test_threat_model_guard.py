"""Attacks may speak to the victim only through ``repro.device``.

The session layer is the one sanctioned attacker/device boundary.  An
attack module importing the simulator or oracle internals would be
assuming observations the paper's Table 1 never grants, and would dodge
the session's query accounting.  This test freezes the import direction,
and keeps production code off the test oracles in ``repro.reference``.
"""

from __future__ import annotations

import ast
from pathlib import Path

REPRO_DIR = Path(__file__).resolve().parents[2] / "src" / "repro"
ATTACKS_DIR = REPRO_DIR / "attacks"

# Device internals: trace emission, count oracles, sink implementations.
FORBIDDEN = (
    "repro.accel",  # the bare package re-exports the simulator
    "repro.accel.simulator",
    "repro.accel.oracle",
    "repro.accel.sinks",
    "repro.accel.pruning",
    "repro.power.sink",  # the device-side power tap
)
# Public datasheet knowledge the structure attack is allowed to hold.
ALLOWED = ("repro.accel.timing",)


def imported_modules(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module


def test_attacks_import_only_the_device_boundary():
    assert ATTACKS_DIR.is_dir()
    offenders: dict[str, list[str]] = {}
    for path in sorted(ATTACKS_DIR.rglob("*.py")):
        bad = [
            mod
            for mod in imported_modules(path)
            if mod in FORBIDDEN and mod not in ALLOWED
        ]
        if bad:
            offenders[str(path.relative_to(ATTACKS_DIR))] = bad
    assert not offenders, (
        "attack modules must query the victim through repro.device, not "
        f"accelerator internals: {offenders}"
    )


def test_production_never_imports_the_oracles():
    oracle = REPRO_DIR / "reference.py"
    assert oracle.is_file()
    offenders = [
        str(path.relative_to(REPRO_DIR))
        for path in sorted(REPRO_DIR.rglob("*.py"))
        if path != oracle
        and any(
            mod == "repro.reference" or mod.startswith("repro.reference.")
            for mod in imported_modules(path)
        )
    ]
    assert not offenders, (
        f"repro.reference holds test oracles only; imported by {offenders}"
    )


def test_one_count_oracle():
    """Sessions build the sparse count oracle only: no backend parameter,
    no CLI flag, and the dense oracle exists only as a reference."""
    import inspect

    import pytest

    from repro.cli import build_parser
    from repro.device import DeviceSession

    assert "backend" not in inspect.signature(DeviceSession).parameters
    parser = build_parser()
    parser.parse_args(["weights"])
    with pytest.raises(SystemExit):
        parser.parse_args(["weights", "--backend", "dense-sim"])
    defining = [
        path.relative_to(REPRO_DIR).as_posix()
        for path in sorted(REPRO_DIR.rglob("*.py"))
        if any(
            isinstance(node, ast.ClassDef) and node.name == "DenseStageOracle"
            for node in ast.walk(ast.parse(path.read_text()))
        )
    ]
    assert defining == ["reference.py"]
