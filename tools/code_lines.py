"""Count the code lines of each module of a package.

    python tools/code_lines.py [PACKAGE_DIR]

A code line is a line that holds a token outside comments and docstrings:
blank lines, comment lines and the lines of a module, class or function
docstring do not count; every line that a multi-line expression or a
non-docstring string spans does.  PACKAGE_DIR defaults to this checkout's
``src/inpaintlab``.  Prints one ``count  module`` line per ``.py`` file,
sorted by name, then the total.  Exit code 2 when PACKAGE_DIR is not a
directory.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
NON_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold a token outside comments
    and docstrings."""
    docstrings = _docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NON_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) > 1:
        print("usage: python tools/code_lines.py [PACKAGE_DIR]", file=sys.stderr)
        return 2
    package = Path(args[0]) if args else ROOT / "src" / "inpaintlab"
    if not package.is_dir():
        print(f"not a directory: {package}", file=sys.stderr)
        return 2
    total = 0
    for path in sorted(package.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
