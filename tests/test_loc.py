"""Tests of tools/loc.py, the count of a module's lines of code."""

from __future__ import annotations

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("loc", ROOT / "tools" / "loc.py")
loc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(loc)

SOURCE = '''"""A module docstring
over two lines."""

# a comment
import math  # a trailing comment


class Shape:
    """A class docstring."""

    sides = (
        3,
    )

    def area(self):
        """A method docstring,

        over three lines.
        """
        text = """a string that is not a docstring
        counts on each of its lines"""
        return math.pi, text


def bare():
    return 1
'''


def test_counts_code_lines_without_docstrings_comments_or_blank_lines(tmp_path, capsys):
    # import, class, sides (3 lines), def area, text (2 lines), return, def bare, return
    assert loc.code_lines(SOURCE) == 11
    path = tmp_path / "module.py"
    path.write_text(SOURCE)
    assert loc.main([str(path), str(path)]) == 0
    assert capsys.readouterr().out.split() == ["11", str(path), "11", str(path), "22", "total"]
