import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

SAMPLE = '''"""Module docstring,
over two lines."""

from __future__ import annotations

# a comment


def f(x):  # code with a trailing comment
    """One-line docstring."""
    text = """a string that is a value,
    so its lines are code"""
    return (x,
            text)
'''


def test_counts_code_only(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE)
    # the import, the def, the two lines of the assigned string and the
    # two lines of the return
    assert code_lines.code_lines(path) == 6


def test_main_totals_a_directory(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SAMPLE)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"     7  {tmp_path} (total)"
