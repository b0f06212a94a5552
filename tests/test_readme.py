"""The README's Python examples run against the current package."""

import pathlib
import re

import pytest

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
BLOCKS = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{k}" for k in range(len(BLOCKS))])
def test_readme_block_runs(source, capsys):
    exec(compile(source, str(README), "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out
