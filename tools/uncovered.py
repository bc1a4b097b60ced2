"""List the statements of the package that a pytest run never executes.

    python tools/uncovered.py [PYTEST_ARG ...]

Runs pytest in this process, with the arguments given, under a line tracer
(``sys.settrace`` and ``threading.settrace``) that records only the lines
of ``src/inpaintlab``.  Then prints every statement (an AST ``stmt`` node,
docstrings excluded) none of whose lines ran, as ``path:line: source``
with the path from the checkout's root, then a count and pytest's exit
code.  A statement spans its decorators and all its lines, so a compound
statement counts as run when its body ran.

Code that runs only in a child process, such as the entry point that a
test starts with ``subprocess``, is reported as never executed.  Tests
that measure time or memory can fail under the tracer, so the exit code
is 0 whatever pytest's was.  No package outside the standard library and
pytest is needed.
"""

from __future__ import annotations

import ast
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "inpaintlab"
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def statement_spans(source: str) -> list[tuple[int, int]]:
    """The (first, last) lines of every statement of ``source``, decorators
    included and docstrings excluded, in source order."""
    docstrings, spans = set(), []
    # breadth first: a docstring's owner is visited before the docstring
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            docstrings.add(node.body[0])
        if isinstance(node, ast.stmt) and node not in docstrings:
            decorators = getattr(node, "decorator_list", [])
            spans.append((min([node.lineno] + [d.lineno for d in decorators]), node.end_lineno))
    return sorted(spans)


def run_traced(pytest_args: list[str], files: set[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code, and the lines of ``files`` (absolute paths) that ran."""
    ran: dict[str, set[int]] = {name: set() for name in files}

    def trace(frame, event, arg):
        lines = ran.get(frame.f_code.co_filename)
        if lines is None:
            return None

        def trace_lines(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return trace_lines

        return trace_lines

    previous = sys.gettrace()
    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(pytest_args)
    finally:
        sys.settrace(previous)
        threading.settrace(None)
    return int(code), ran


def main(argv: list[str] | None = None, package: Path = PACKAGE) -> int:
    args = sys.argv[1:] if argv is None else argv
    package = package.resolve()
    paths = sorted(package.glob("*.py"))
    sys.path.insert(0, str(package.parent))  # this package, not an installed one
    code, ran = run_traced(args, {str(path) for path in paths})
    missed = 0
    for path in paths:
        source = path.read_text()
        lines = source.splitlines()
        for first, last in statement_spans(source):
            if ran[str(path)].isdisjoint(range(first, last + 1)):
                missed += 1
                print(f"{path.relative_to(package.parent.parent)}:{first}: "
                      f"{lines[first - 1].strip()}")
    print(f"{missed} statements never ran")
    print(f"pytest exit code {code}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
