"""``tools/logical_lines.py`` counts code lines, not docstrings, comments or blanks."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "logical_lines.py"
spec = importlib.util.spec_from_file_location("logical_lines", TOOL)
logical_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(logical_lines)

SOURCE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment counts as code


class Box:
    """Class docstring."""

    size = (1,
            2)


def area(r):
    # a comment line
    text = """a string
    that spans lines"""
    """Not first in the body, so not a docstring."""
    return math.pi * r * r
'''


def test_counts_code_lines_only():
    # import, class, size over 2 lines, def, text over 2 lines, the bare
    # string, return
    assert logical_lines.logical_lines(SOURCE) == 9


def test_counts_every_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\n\n# note\n")
    (tmp_path / "b.py").write_text('"""Doc."""\ny = 2\nz = 3\n')
    assert logical_lines.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split() == ["1", "a.py", "2", "b.py", "3", "total"]


def test_counts_modules_of_subpackages_by_relative_path(tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\n")
    (tmp_path / "cases").mkdir()
    (tmp_path / "cases" / "__init__.py").write_text("import json\n\n\ndef load():\n    pass\n")
    assert logical_lines.main([str(tmp_path)]) == 0
    out = capsys.readouterr().out.split()
    assert out == ["1", "a.py", "3", "cases/__init__.py", "4", "total"]
