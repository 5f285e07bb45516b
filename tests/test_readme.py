"""README's code runs as written: its Python block, and each `nfmimo` line of its shell blocks."""

import pathlib
import re
import shlex

import pytest

from nfmimo.cli import EXIT_OK, main

README = (pathlib.Path(__file__).parents[1] / "README.md").read_text()


def blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```", README, flags=re.MULTILINE | re.DOTALL)


def test_python_block_runs(capsys):
    (code,) = blocks("python")
    exec(compile(code, "README.md", "exec"), {})


# the arguments after `nfmimo` on each such line, without its trailing comment
CLI_ARGV = [
    shlex.split(line, comments=True)[1:]
    for block in blocks("sh")
    for line in block.splitlines()
    if line.startswith("nfmimo ")
]


def test_cli_lines_are_found():
    assert CLI_ARGV


@pytest.mark.parametrize("argv", CLI_ARGV, ids=" ".join)
def test_cli_line_exits_zero(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == EXIT_OK, capsys.readouterr().err
