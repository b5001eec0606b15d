"""List the lines of ``src/qtherm`` that the Tier-1 suite never runs.

    python3 tools/unexecuted_lines.py [PYTEST_ARGS ...]

Run from the repository root.  ``coverage`` is not a dependency, so the suite
runs in this process under ``sys.settrace`` (and ``threading.settrace``),
which records each line executed in a file under ``src/qtherm``.  A line
counts as executable when it starts a statement (docstrings excluded) and
the compiled file maps bytecode to it.  The script prints every executable
line that never ran, as ``path:line: source``, then the totals per file and
overall, and exits with pytest's exit code.

Tests that run the CLI in a subprocess are not traced, so a line that only
they reach is listed as never run.  Under the trace the suite runs about
1.7 times slower (about 42 s for Tier-1 on a 2-CPU VM).
"""

from __future__ import annotations

import ast
import os
import sys
import threading
import types
from collections import defaultdict

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src", "qtherm")


def executable_lines(path: str) -> set[int]:
    """First lines of the statements of ``path`` that compile to bytecode."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    starts = {node.lineno for node in ast.walk(ast.parse(text)) if isinstance(node, ast.stmt)
              and not (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                       and isinstance(node.value.value, str))}
    with_code, stack = set(), [compile(text, path, "exec")]
    while stack:
        code = stack.pop()
        with_code.update(line for _, _, line in code.co_lines() if line is not None)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return starts & with_code


def main(argv: list[str]) -> int:
    import pytest

    hits: dict[str, set[int]] = defaultdict(set)
    prefix = SRC + os.sep

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, event, arg):
        # called on each new frame: trace the lines of the package's frames only
        return local if frame.f_code.co_filename.startswith(prefix) else None

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", *argv])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    totals = []
    for dirpath, _, files in sorted(os.walk(SRC)):
        for name in sorted(f for f in files if f.endswith(".py")):
            path = os.path.join(dirpath, name)
            lines = executable_lines(path)
            missed = sorted(lines - hits.get(path, set()))
            with open(path, encoding="utf-8") as fh:
                source = fh.read().splitlines()
            rel = os.path.relpath(path, ROOT)
            for line in missed:
                print(f"{rel}:{line}: {source[line - 1].strip()}")
            totals.append((rel, len(missed), len(lines)))
    print()
    for rel, missed, lines in totals:
        print(f"{rel}: {missed} of {lines} executable lines never ran")
    print(f"total: {sum(t[1] for t in totals)} of {sum(t[2] for t in totals)} executable "
          f"lines never ran")
    return int(code)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
