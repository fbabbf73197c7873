"""``tools/codelines.py``, the size count that simplicity changes quote: blank,
comment and docstring lines do not count, and a statement spread over several
lines counts each of them."""

import importlib.util
import pathlib
import textwrap

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
