"""README.md's CLI examples run as written, from the repository root."""

import os
import re
import shlex

import pytest

from simpca import cli

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)


def _readme_commands():
    """The arguments of every ``simpca ...`` line in README.md's sh blocks,
    continuation lines joined."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as fh:
        text = fh.read()
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", text, re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] == ["simpca"]:
                commands.append(words[1:])
    return commands


COMMANDS = _readme_commands()


def _run(argv, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    assert cli.main(argv) == 0
    return capsys.readouterr().out


def test_readme_has_its_cli_examples():
    assert [argv[0] for argv in COMMANDS] == ["pca", "simpca", "simpca", "rotate"]


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda argv: "-".join(argv[:1] + argv[-2:]))
def test_readme_example_exits_zero(argv, monkeypatch, capsys):
    assert _run(argv, monkeypatch, capsys)


def test_readme_forward_example_gives_its_stated_result(monkeypatch, capsys):
    # "the first sparse component comes out as agriculture alone, explaining
    # ~81% of total variance"
    (argv,) = [argv for argv in COMMANDS if "forward" in argv]
    rows = [line.split("\t") for line in _run(argv, monkeypatch, capsys).splitlines()]
    summary = [row for row in rows if row[:2] == ["comp1", "pspca"]]
    variables = [row[1] for row in rows if row[0] == "comp1" and row[1] != "pspca"]
    assert variables == ["agriculture"]
    assert round(float(summary[0][3])) == 81
