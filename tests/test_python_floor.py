"""The repository's Python files parse under the oldest supported grammar.

pyproject.toml declares `requires-python = ">=3.10"`. `ast.parse` with
`feature_version=(3, 10)` rejects syntax newer than 3.10 (`except*`, PEP 695
type parameters, and so on) on any newer interpreter. It checks grammar only:
a call to a library function that 3.10 lacks still passes.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FILES = sorted(
    path.relative_to(ROOT)
    for folder in ("src", "tests", "perfbench", "scripts")
    for path in (ROOT / folder).rglob("*.py")
)


def test_every_folder_has_files():
    assert {path.parts[0] for path in FILES} == {"src", "tests", "perfbench", "scripts"}


@pytest.mark.parametrize("path", FILES, ids=str)
def test_parses_as_python_3_10(path):
    source = (ROOT / path).read_text(encoding="utf-8")
    ast.parse(source, filename=str(path), feature_version=(3, 10))
