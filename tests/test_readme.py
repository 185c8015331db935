"""The README's examples run as written and print what they say."""

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from cfii.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(
    encoding="utf-8")
_NUMBER = re.compile(r"-?\d+(?:\.(\d+))?")


def _blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README, re.M | re.S)


def _bash_lines(program):
    return [shlex.split(line, comments=True)
            for block in _blocks("bash") for line in block.splitlines()
            if line.startswith(program + " ")]


def test_library_quick_start():
    (block,) = _blocks("python")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(block, {})
    printed = out.getvalue().splitlines()
    # each print's comment states its values, before any parenthesis
    claims = [line.partition("#")[2].partition("(")[0]
              for line in block.splitlines() if line.startswith("print(")]
    assert len(printed) == len(claims) == 3
    checked = 0
    for text, claim in zip(printed, claims):
        values = [float(v) for v in text.split()]
        stated = list(_NUMBER.finditer(claim))
        assert len(values) == len(stated)
        for value, match in zip(values, stated):
            half_unit = 0.5 * 10.0 ** -len(match.group(1) or "")
            assert abs(value - float(match.group())) <= half_unit
            checked += 1
    assert checked == 4


@pytest.mark.parametrize("argv", [line[1:] for line in _bash_lines("cfii")],
                         ids=" ".join)
def test_command_line_example(argv, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for _, payload, redirect, path in _bash_lines("echo"):
        assert redirect == ">"
        Path(path).write_text(payload, encoding="utf-8")
    assert main(argv) == 0
    rows = [line for line in capsys.readouterr().out.splitlines()
            if not line.startswith("#")]
    assert len(rows) >= 2  # a header and at least one data row
