"""Count the lines of code in each module of ``src/relialloc``, subpackages included.

A line counts when it holds a token of code: blank lines, comment-only
lines and the lines of docstrings (of modules, classes and functions) do
not. This is the size figure CHANGES.md reports for each change.

    python tools/logical_lines.py [PACKAGE_DIR]
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIPPED = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
DEFAULT_PACKAGE = Path(__file__).resolve().parent.parent / "src" / "relialloc"


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def logical_lines(source: str) -> int:
    """Lines of ``source`` holding a code token outside any docstring."""
    skip = docstring_lines(ast.parse(source))
    counted = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in SKIPPED:
            continue
        for line in range(token.start[0], token.end[0] + 1):
            if line not in skip:
                counted.add(line)
    return len(counted)


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else DEFAULT_PACKAGE
    total = 0
    for path in sorted(package.rglob("*.py")):
        count = logical_lines(path.read_text())
        total += count
        print(f"{count:6d}  {path.relative_to(package).as_posix()}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
