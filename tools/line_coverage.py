"""List the source lines of ``src/osc2c`` that the tier-1 tests never run.

Usage, from the root of a checkout::

    python tools/line_coverage.py

It runs the tier-1 suite in this process under a ``sys.settrace`` tracer
and prints, for each module, the lines that the compiled code could run
(those ``code.co_lines`` maps an instruction to, nested code included)
but that no traced frame reached, each with its source text.  It needs
only pytest, which the tests need anyway.  ``tests/test_collector.py`` is
left out: its assertions count garbage-collector cycles, and the tracer's
own frames and records disturb them.

The report gates nothing.  The exit status is the test run's, so a test
that fails under the tracer shows.
"""

from __future__ import annotations

import os
import sys
import threading
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "osc2c")
LEFT_OUT = ["tests/test_collector.py"]


def runnable_lines(path: str) -> set[int]:
    """Every line some instruction of the module's code maps to."""
    with open(path, encoding="utf-8") as handle:
        code = compile(handle.read(), path, "exec")
    lines: set[int] = set()
    stack = [code]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def run_traced(paths: set[str]) -> tuple[int, dict[str, set[int]]]:
    """Run tier-1 under the tracer; return its exit status and the lines run."""
    import pytest

    ran: dict[str, set[int]] = defaultdict(set)

    def local(frame, event, arg):
        ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def tracer(frame, event, arg):
        if frame.f_code.co_filename not in paths:
            return None
        ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    sys.path.insert(0, os.path.join(ROOT, "src"))
    args = ["-q", "-p", "no:cacheprovider", os.path.join(ROOT, "tests")]
    args += [f"--ignore={os.path.join(ROOT, p)}" for p in LEFT_OUT]
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), ran


def main() -> int:
    modules = sorted(os.path.join(PACKAGE, name) for name in os.listdir(PACKAGE)
                     if name.endswith(".py"))
    status, ran = run_traced(set(modules))
    print(f"\nLines of src/osc2c that tier-1 never runs "
          f"(left out: {', '.join(LEFT_OUT)}):")
    total_missed = total = 0
    for path in modules:
        runnable = runnable_lines(path)
        missed = sorted(runnable - ran[path])
        total_missed += len(missed)
        total += len(runnable)
        name = os.path.relpath(path, ROOT)
        print(f"{name}: {len(missed)} of {len(runnable)} lines never run")
        with open(path, encoding="utf-8") as handle:
            source = handle.read().splitlines()
        for line in missed:
            print(f"  {line:5d}  {source[line - 1].strip()}")
    print(f"total: {total_missed} of {total} lines never run")
    return status


if __name__ == "__main__":
    sys.exit(main())
