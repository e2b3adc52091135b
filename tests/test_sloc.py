"""scripts/sloc.py, whose counts the project quotes for src/: which lines
count as code, and that the printed total is the sum of its modules."""

import importlib.util
import pathlib

import pytest

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "sloc.py"
_spec = importlib.util.spec_from_file_location("sloc", SCRIPT)
sloc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(sloc)

# Every code line ends in "# code"; no other line is code.
FIXTURE = '''\
"""Module docstring,
over two lines."""

# a comment line
   # an indented comment line

import os  # code


class Thing:  # code
    """Class docstring."""

    label = "not a docstring"  # code

    def method(self):  # code
        """Method docstring,
        over two lines.
        """
        return os.path.join(  # code
            "a",  # code
            "b",  # code
        )  # code


async def run():  # code
    """Async function docstring."""
    x = 1  # code
    """Not first in its body, so code."""  # code
    return x  # code
'''


def test_fixture_counts_exactly_its_code_lines():
    assert sloc.code_lines(FIXTURE) == FIXTURE.count("# code") == 12


@pytest.mark.parametrize("source,count", [
    ('"""Module docstring."""\n', 0),
    ('class A:\n    """Class docstring."""\n', 1),
    ('def f():\n    """Function docstring."""\n    return 1\n', 2),
    ('async def f():\n    """Function docstring."""\n', 1),
], ids=["module", "class", "function", "async-function"])
def test_docstrings_are_not_counted(source, count):
    assert sloc.code_lines(source) == count


def test_comment_and_blank_lines_are_not_counted():
    assert sloc.code_lines("# comment\n\n    \n\t\nx = 1\n    # indented comment\n") == 1


def test_a_code_line_with_a_trailing_comment_counts_once():
    assert sloc.code_lines("x = 1  # comment\n") == 1
    assert sloc.code_lines("x = 1  # comment\ny = 2\n") == 2


def test_a_multiline_expression_counts_each_line():
    assert sloc.code_lines("x = f(\n    1,\n    2,\n)\n") == 4
    assert sloc.code_lines("x = 1 + \\\n    2\n") == 2


def test_a_string_that_is_not_a_docstring_is_counted():
    assert sloc.code_lines('x = "text"\n') == 1
    assert sloc.code_lines('x = 1\n"""After a statement."""\n') == 2
    assert sloc.code_lines('x = """one\ntwo\nthree"""\n') == 3
    assert sloc.code_lines('def f():\n    x = 1\n    """Second in its body."""\n') == 3


def test_printed_total_is_the_sum_of_the_modules(tmp_path, capsys):
    modules = {"a.py": FIXTURE, "pkg/b.py": "x = 1\n\ny = [\n    2,\n]\n", "pkg/c.py": ""}
    for name, text in modules.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(text, encoding="utf-8")
    (tmp_path / "pkg" / "__pycache__").mkdir()
    (tmp_path / "pkg" / "__pycache__" / "d.py").write_text("skipped = 1\n", encoding="utf-8")
    (tmp_path / "notes.txt").write_text("not = 'python'\n", encoding="utf-8")
    assert sloc.main([str(tmp_path)]) == 0
    lines = [line.split() for line in capsys.readouterr().out.splitlines()]
    counts = {name: int(count) for count, name in lines[:-1]}
    assert counts == {"a.py": 12, "pkg/b.py": 4, "pkg/c.py": 0}
    assert lines[-1] == [str(sum(counts.values())), "total"]
