"""The package's source parses as the oldest Python that pyproject.toml allows.

Only one interpreter may be at hand, so this is a best-effort guard:
``ast.parse`` with ``feature_version`` rejects most newer grammar, such as
``except*`` or a ``type`` statement, but not newer library behaviour, such
as regular-expression syntax that ``re`` accepts only from a later version.
"""

import ast
from pathlib import Path

import pytest

import sparsepoly

# requires-python in pyproject.toml
OLDEST_PYTHON = (3, 10)

SOURCES = sorted(Path(sparsepoly.__file__).resolve().parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_source_parses_as_oldest_python(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=OLDEST_PYTHON)
