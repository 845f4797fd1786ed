"""The README's examples run as written: every command of the CLI tour
exits 0, and the library quick start prints the values its comments give."""

from __future__ import annotations

import contextlib
import io
import re
import shlex
from pathlib import Path

from posetsat.cli import run

README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")


def _block(heading: str, lang: str) -> list[str]:
    """Lines of the first ``lang`` code block under the ``## heading``."""
    section = README.split(f"## {heading}\n", 1)[1]
    return section.split(f"```{lang}\n", 1)[1].split("```", 1)[0].splitlines()


def _tour_commands() -> list[list[str]]:
    """argv of each ``posetsat`` line of the CLI tour, without its comment
    or a pipe into another program. ``verify --suite paper`` is left out:
    the acceptance tests run the battery against its golden file."""
    commands = []
    for line in _block("CLI tour", "sh"):
        argv = shlex.split(line.split("|", 1)[0], comments=True)
        if argv[:1] == ["posetsat"] and argv[1:] != ["verify", "--suite", "paper"]:
            commands.append(argv[1:])
    return commands


def test_tour_is_found():
    assert len(_tour_commands()) == 9


def test_cli_tour_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for argv in _tour_commands():  # in order: the first writes fam.txt
        assert run(argv) == 0, argv
        capsys.readouterr()


def test_library_quick_start_prints_its_comments():
    lines = _block("Library quick start", "python")
    expected = [m.group(1) for m in map(re.compile(r"print\(.*\)\s*#\s*([^,\s]+)").match, lines) if m]
    assert expected == ["True", "13"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec("\n".join(lines), {})
    assert out.getvalue().split() == expected
