"""The README's examples run against the current package.

Every ``python`` block runs as is; the Quick start ``sh`` block runs
command by command through ``synpa.cli.main`` in an empty directory,
with ``\\`` continuations joined and globs expanded as a shell would.
"""

import glob
import pathlib
import re
import shlex

import pytest

from synpa.cli import main

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.M | re.S)
QUICK_START = re.search(r"^## Quick start.*?^```sh\n(.*?)^```", TEXT, re.M | re.S).group(1)


def test_readme_has_python_examples():
    assert BLOCKS


@pytest.mark.parametrize("source", BLOCKS, ids=[f"block{k}" for k in range(len(BLOCKS))])
def test_readme_block_runs(source, capsys):
    exec(compile(source, str(README), "exec"), {"__name__": "readme"})
    assert capsys.readouterr().out


def _expand(word: str) -> list[str]:
    if not any(c in word for c in "*?["):
        return [word]
    matches = sorted(glob.glob(word))
    assert matches, f"glob {word!r} matches nothing"
    return matches


def test_readme_quick_start_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = [
        shlex.split(line, comments=True)
        for line in QUICK_START.replace("\\\n", " ").splitlines()
    ]
    commands = [words for words in commands if words]
    assert len(commands) >= 5
    for words in commands:
        assert words[0] == "synpa", words
        argv = [arg for word in words[1:] for arg in _expand(word)]
        assert main(argv) == 0, (argv, capsys.readouterr().err)
