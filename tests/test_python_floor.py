"""The package must parse under the oldest Python that pyproject.toml allows.

`ast.parse(..., feature_version=...)` rejects most grammar added after the
floor (``except*``, for one); it is a guard, not a full 3.10 interpreter.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "factfilter").glob("*.py"))
FLOOR = (3, 10)


def test_floor_matches_pyproject():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    match = re.search(r'requires-python\s*=\s*">=(\d+)\.(\d+)"', pyproject)
    assert match is not None
    assert (int(match.group(1)), int(match.group(2))) == FLOOR


@pytest.mark.parametrize("path", SOURCES, ids=[p.name for p in SOURCES])
def test_source_parses_at_floor(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=FLOOR)
