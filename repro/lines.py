"""Lines of ``src/dpcp`` that no Tier-1 test runs.

Runs the Tier-1 command in this process under a line tracer limited to
``src/dpcp``, then prints each executable line that no test reached, as
``path:line: source``.  A module's executable lines are those of its code
objects, compiled from the source here; docstrings are left out.  Lines
reached only in a subprocess (the installed ``dpcp`` command) count as
not reached.  It edits no source file.  Tracing makes the suite about five
times slower than untraced.

    python repro/lines.py                       # the whole Tier-1 suite
    python repro/lines.py tests/test_cli.py     # extra arguments go to pytest

It exits with pytest's status.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "dpcp"


def executable_lines(path: Path) -> set:
    """Every line that a code object compiled from ``path`` starts,
    less the lines of docstrings."""
    source = path.read_text()
    lines = set()
    stack = [compile(source, str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _start, _end, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    for node in ast.walk(ast.parse(source)):
        body = getattr(node, "body", None)
        if (
            isinstance(body, list)
            and body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            lines.difference_update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def main(argv=None) -> int:
    prefix = str(PACKAGE) + os.sep
    reached: dict = {}  # file name -> set of lines

    def local(frame, event, _arg):
        if event == "line":
            reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, _arg):
        name = frame.f_code.co_filename
        if not name.startswith(prefix):
            return None
        reached.setdefault(name, set()).add(frame.f_lineno)
        return local

    os.chdir(ROOT)
    sys.path.insert(0, str(ROOT / "src"))
    args = ["-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(args + list(sys.argv[1:] if argv is None else argv))
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text().splitlines()
        for line in sorted(executable_lines(path) - reached.get(str(path), set())):
            print(f"{path.relative_to(ROOT)}:{line}: {text[line - 1].strip()}")
            missed += 1
    print(f"{missed} executable lines of src/dpcp not reached")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
