"""Count the code lines of Python source files.

Code lines leave out blank, comment and docstring lines, so a deleted comment
does not count as simpler code. Prints one count per file, then the total:

    python tools/codelines.py src/relex/*.py
"""

import ast
import io
import os
import sys
import tokenize

NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def code_lines(src: str) -> int:
    """The number of lines of ``src`` that hold code other than a docstring."""
    code = {line for tok in tokenize.generate_tokens(io.StringIO(src).readline)
            if tok.type not in NOT_CODE for line in range(tok.start[0], tok.end[0] + 1)}
    for node in ast.walk(ast.parse(src)):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant) \
                and isinstance(node.value.value, str):
            code -= set(range(node.lineno, node.end_lineno + 1))
    return len(code)


def main(paths) -> int:
    """Print the counts of the files ``paths`` and return 0; with no path, or
    a path that is not a file, print the usage line and return 2."""
    if not paths or not all(os.path.isfile(path) for path in paths):
        print("usage: python tools/codelines.py FILE.py [FILE.py ...]", file=sys.stderr)
        return 2
    total = 0
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            count = code_lines(fh.read())
        total += count
        print(f"{count:8d} {path}")
    print(f"{total:8d} code lines in total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
