"""Worker processes are reached only where they were measured to pay.

``repro.parallel`` shards exactly two loops: candidate ranking and the
weight attack's filter range (DESIGN.md §11 has the timings).  Parallel
enumeration and parallel campaigns measured slower than serial and were
deleted; this test keeps them from growing back, by import direction
and by the CLI surface.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.cli import build_parser

REPRO_DIR = Path(__file__).resolve().parents[2] / "src" / "repro"
PARALLEL_USERS = ("attacks/structure/ranking.py", "attacks/weights/recovery.py")


def imported_modules(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module
            # ``from repro import parallel`` names the module as an alias.
            for alias in node.names:
                yield f"{node.module}.{alias.name}"


def _importers(prefix: str) -> list[str]:
    return [
        path.relative_to(REPRO_DIR).as_posix()
        for path in sorted(REPRO_DIR.rglob("*.py"))
        if any(
            mod == prefix or mod.startswith(prefix + ".")
            for mod in imported_modules(path)
        )
    ]


def test_parallel_is_imported_only_by_the_two_measured_loops():
    assert sorted(_importers("repro.parallel")) == sorted(PARALLEL_USERS)


def test_multiprocessing_stays_inside_repro_parallel():
    assert _importers("multiprocessing") == ["parallel.py"]


@pytest.mark.parametrize("command", ["structure", "clone", "campaign"])
def test_only_weights_takes_workers(command):
    parser = build_parser()
    extra = ["run", "--dir", "x"] if command == "campaign" else []
    parser.parse_args([command, *extra])  # the command itself parses
    with pytest.raises(SystemExit):
        parser.parse_args([command, *extra, "--workers", "2"])
    assert parser.parse_args(["weights", "--workers", "2"]).workers == 2
