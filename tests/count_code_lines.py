"""Counts the code lines of each module of src/sbo and their total.

A code line is a line that holds a token of code: blank lines, comments and
docstrings (a string that stands alone as a statement) do not count, and a
statement spread over several lines counts each of them.

pytest does not collect this file. Run from the repository root:

    python tests/count_code_lines.py
"""

import ast
import io
import pathlib
import sys
import tokenize

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "sbo"

_NOT_CODE = (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER)


def code_lines(source: str) -> int:
    """The number of code lines of a module's source."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            docstrings.update(range(node.lineno, node.end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def main() -> int:
    total = 0
    for path in sorted(SRC.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.name:16} {count:5}")
    print(f"{'total':16} {total:5}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
