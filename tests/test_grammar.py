"""Every Python file of the project parses under the Python 3.10 grammar.

The package declares ``requires-python = ">=3.10"`` and CI runs a 3.10 leg,
but an interpreter of the newest version would accept syntax that 3.10
rejects (``except*``, PEP 695 type parameters, a ``type`` statement).  This
test parses each ``.py`` file under ``src/``, ``tests/`` and ``perfbench/``
with ``ast.parse(..., feature_version=(3, 10))``.  It checks the grammar
only: a standard-library function, keyword argument or module that 3.10 lacks
still passes here, and only a run on a 3.10 interpreter would catch it.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(path for top in ("src", "tests", "perfbench") for path in (ROOT / top).rglob("*.py"))


def test_sources_found():
    assert any(path.name == "cli.py" for path in SOURCES) and any(path.name == "run.py" for path in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=[str(path.relative_to(ROOT)) for path in SOURCES])
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
