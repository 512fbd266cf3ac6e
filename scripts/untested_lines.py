#!/usr/bin/env python3
"""Statements of ``src/fracdelay`` that no test executes, with no coverage
package: the test suite runs under ``sys.settrace``, and every module's
statement lines (from its AST, docstrings left out, kept only where the
compiled module has code on that line) are compared with the lines the
suite executed.

Prints per module the statement count, the untested count and the untested
lines (consecutive untested statements as ranges), then a total.  Tracing
slows the suite by several times, so its wall-time gates may fail; the
pytest exit status is printed and does not stop the report.  Child
processes (the CLI tests start some) are not traced.

Example:
    python scripts/untested_lines.py                     # the tier-1 suite
    python scripts/untested_lines.py -q tests/test_system.py
"""

import ast
import os
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "fracdelay"


def statement_lines(path: Path) -> set:
    """First lines of the module's statements that compile to code."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    docstrings = set()
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef)) and body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)):
            docstrings.add(body[0].lineno)
    stmts = {node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.stmt)} - docstrings
    code_lines = set()
    stack = [compile(source, str(path), "exec")]
    while stack:
        code = stack.pop()
        code_lines.update(line for _, _, line in code.co_lines()
                          if line is not None)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return stmts & code_lines


def ranges(lines, missing) -> str:
    """``missing`` as ranges over the sorted statement ``lines``."""
    runs, run = [], []
    for line in sorted(lines):
        if line in missing:
            run.append(line)
        elif run:
            runs.append(run)
            run = []
    if run:
        runs.append(run)
    return ", ".join(str(r[0]) if len(r) == 1 else f"{r[0]}-{r[-1]}"
                     for r in runs)


def main() -> int:
    import pytest

    args = sys.argv[1:] or ["-q", "--continue-on-collection-errors",
                            "-p", "no:cacheprovider", str(ROOT / "tests")]
    prefix = str(PACKAGE) + "/"
    executed = {}
    traced = {}

    def local(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_trace(frame, event, arg):
        code = frame.f_code
        hit = traced.get(code)
        if hit is None:
            hit = traced[code] = code.co_filename.startswith(prefix)
        if not hit:
            return None
        executed.setdefault(code.co_filename, set()).add(frame.f_lineno)
        return local

    # the suite's CLI tests start ``python -m fracdelay`` child processes
    src = str(ROOT / "src")
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))
    t0 = time.monotonic()
    threading.settrace(global_trace)
    sys.settrace(global_trace)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    elapsed = time.monotonic() - t0

    total = untested = 0
    print(f"\npytest exit status {int(status)}, {elapsed:.0f} s under trace")
    for path in sorted(PACKAGE.glob("*.py")):
        lines = statement_lines(path)
        missing = lines - executed.get(str(path), set())
        total += len(lines)
        untested += len(missing)
        listed = f": {ranges(lines, missing)}" if missing else ""
        print(f"{path.name}: {len(missing)} of {len(lines)} statements "
              f"untested{listed}")
    print(f"total: {untested} of {total} statements untested "
          f"({100.0 * untested / max(total, 1):.1f}%)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
