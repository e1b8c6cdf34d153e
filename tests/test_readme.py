"""README examples: every fenced ``python`` block with a prompt runs as a doctest."""

import doctest
import re
from pathlib import Path

import pytest

import sparsepoly

README = Path(__file__).resolve().parent.parent / "README.md"
_BLOCK = re.compile(r"^```python\n(.*?)^```", re.M | re.S)
_FLAGS = doctest.ELLIPSIS | doctest.NORMALIZE_WHITESPACE
_TEXT = README.read_text(encoding="utf-8")
# (line number, text) of each fenced python block that holds ``>>>``.
_BLOCKS = [
    (_TEXT.count("\n", 0, m.start()) + 1, m.group(1))
    for m in _BLOCK.finditer(_TEXT)
    if ">>>" in m.group(1)
]


def test_the_readme_has_examples():
    assert len(_BLOCKS) >= 4


@pytest.mark.parametrize("line, block", _BLOCKS, ids=[f"line {n}" for n, _ in _BLOCKS])
def test_readme_example(line, block):
    # Later blocks read on from the quick start, which imports the package as sp.
    test = doctest.DocTestParser().get_doctest(
        block, {"sp": sparsepoly}, f"README.md:{line}", str(README), line
    )
    runner = doctest.DocTestRunner(optionflags=_FLAGS)
    runner.run(test)
    result = runner.summarize(verbose=False)
    assert result.failed == 0, f"{result.failed} of {result.attempted} examples failed"
