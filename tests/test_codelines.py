"""``tools/codelines.py``, the size count that simplicity changes quote: blank,
comment and docstring lines do not count, and a statement spread over several
lines counts each of them."""

import importlib.util
import pathlib
import subprocess
import sys
import textwrap

import pytest

TOOL = pathlib.Path(__file__).resolve().parents[1] / "tools" / "codelines.py"
spec = importlib.util.spec_from_file_location("codelines", TOOL)
codelines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(codelines)


def count(src: str) -> int:
    return codelines.code_lines(textwrap.dedent(src))


def test_blank_comment_and_docstring_lines_do_not_count():
    assert count('''
        """A module docstring
        over two lines."""

        # a comment

        def f(x):
            """A function docstring."""
            # another comment
            return x    # a trailing comment leaves the line code


        class C:
            """A class docstring,
            over two lines."""
            y = 1
        ''') == 4


def test_each_line_of_a_multi_line_statement_counts():
    assert count('''
        total = f(1,
                  2,
                  3)
        text = """a string that is
        no docstring"""
        ''') == 5


def test_main_prints_one_count_per_file_then_the_total(tmp_path, capsys):
    one, two = tmp_path / "one.py", tmp_path / "two.py"
    one.write_text("x = 1\n\n# note\n")
    two.write_text('"""Doc."""\ny = (1,\n     2)\n')
    codelines.main([str(one), str(two)])
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["1", "2", "3"]
    assert lines[-1].endswith("code lines in total")


def run_tool(*args):
    return subprocess.run([sys.executable, str(TOOL), *args], capture_output=True, text=True)


@pytest.mark.parametrize("args", [(), ("src",), ("missing.py",)],
                         ids=["no-path", "directory", "missing"])
def test_no_path_or_a_path_that_is_no_file_prints_the_usage_and_exits_2(args):
    done = run_tool(*(str(TOOL.parents[1] / arg) for arg in args))
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr.startswith("usage: python tools/codelines.py ")


def test_files_exit_0(tmp_path):
    one = tmp_path / "one.py"
    one.write_text("x = 1\n")
    done = run_tool(str(one))
    assert done.returncode == 0 and done.stdout.splitlines()[-1].split()[0] == "1"
