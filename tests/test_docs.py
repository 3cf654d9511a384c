"""README examples run as written, and the public names resolve."""

import json
import re
import shlex
from pathlib import Path

import pytest

import knotquiver
from knotquiver.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def fenced_block(heading, lang):
    """The first ```lang block after a line that starts with heading."""
    start = README.index("\n" + heading)
    match = re.compile(r"```%s\n(.*?)```" % lang, re.DOTALL).search(README, start)
    return match.group(1)


def command_lines():
    text = fenced_block("## Command line", "sh").replace("\\\n", " ")
    return [line for line in text.splitlines() if line.startswith("knotquiver ")]


def test_readme_command_block_is_found():
    verbs = {line.split()[1] for line in command_lines()}
    assert verbs == {"check", "homset", "cocycle-invariant", "quiver", "invariants", "batch"}


@pytest.mark.parametrize("line", command_lines(), ids=lambda line: line.split()[1])
def test_readme_command_line_runs(line, tmp_path, monkeypatch, capsys):
    table = json.loads(fenced_block("**Algebra JSON**", "json"))
    (tmp_path / "my_algebra.json").write_text(json.dumps(table))
    monkeypatch.chdir(tmp_path)
    code = main(shlex.split(line)[1:])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    assert captured.out or (tmp_path / "quiver.json").exists()


def test_readme_library_quick_start_runs(capsys):
    exec(fenced_block("## Library quick start", "python"), {})
    assert capsys.readouterr().out.strip()


def test_public_names_resolve_once():
    names = knotquiver.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(knotquiver, name) is not None
