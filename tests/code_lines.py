"""Count the code lines of the ladderdet package, per module and in total.

    python tests/code_lines.py [PACKAGE_DIR]

A code line is a line that holds part of a token other than a comment, a
line break or an indent, and is not part of a docstring: the string that
opens a module, class or function body.  A string token spread over
several lines counts each of them.  PACKAGE_DIR defaults to the
``src/ladderdet`` of the checkout that holds this file.  The count is
reported, not checked: this script asserts nothing.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
    tokenize.ENDMARKER, tokenize.ENCODING,
}
BODIES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(text: str) -> set[int]:
    """The line numbers of every docstring in the source text."""
    lines = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, BODIES) and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    """The number of code lines in the source text."""
    skip = docstring_lines(text)
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def main(argv: list[str]) -> None:
    package = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "ladderdet"
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{path.name:<16} {count:>6}")
    print(f"{'total':<16} {total:>6}")


if __name__ == "__main__":
    main(sys.argv[1:])
