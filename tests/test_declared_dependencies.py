"""Every third-party package the code imports must be a declared dependency.

A clean ``pip install -e ".[test]"`` has to be enough to run tier-1, so an
import of an undeclared package (even one inside a function, or in a test)
is a packaging bug.  This parses ``src/``, ``tests/`` and ``benchmarks/``
with :mod:`ast` — nothing is imported — and checks each imported top-level
name against the standard library, the first-party packages and the
``dependencies`` / ``[test]`` lists of ``pyproject.toml``.
"""

from __future__ import annotations

import ast
import re
import sys
from pathlib import Path

import pytest

tomllib = pytest.importorskip("tomllib")  # Python 3.11+

REPO_ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "tests", "benchmarks")
FIRST_PARTY = {"repro", "helpers"}


def _declared() -> set:
    project = tomllib.loads((REPO_ROOT / "pyproject.toml").read_text())["project"]
    requirements = project["dependencies"] + project["optional-dependencies"]["test"]
    # "pytest-benchmark>=4" -> "pytest_benchmark" (the import-name spelling).
    return {
        re.match(r"[A-Za-z0-9_.-]+", requirement).group(0).lower().replace("-", "_")
        for requirement in requirements
    }


def _imported_top_levels(path: Path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def test_every_third_party_import_is_declared():
    allowed = set(sys.stdlib_module_names) | FIRST_PARTY | _declared()
    undeclared = [
        f"{path.relative_to(REPO_ROOT)}:{lineno}: {name}"
        for directory in SCANNED
        for path in sorted((REPO_ROOT / directory).rglob("*.py"))
        for lineno, name in _imported_top_levels(path)
        if name not in allowed
    ]
    assert not undeclared, "undeclared third-party imports:\n" + "\n".join(undeclared)
