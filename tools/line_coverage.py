"""Fail unless the tier-1 tests run every source line of ``src/osc2c``.

Usage, from the root of a checkout::

    python tools/line_coverage.py

It runs the tier-1 suite in this process under a ``sys.settrace`` tracer
and prints, for each module, the lines that the compiled code could run
(those ``code.co_lines`` maps an instruction to, nested code included)
but that no traced frame reached, each with its source text.  It needs
only pytest, which the tests need anyway.  ``tests/test_collector.py`` is
left out: its assertions count garbage-collector cycles, and the tracer's
own frames and records disturb them.  So are the property tests
(``-m "not hypothesis"``): their inputs are drawn afresh on each run, so
a line that only a lucky draw reaches would pass the gate on one run and
fail it on the next.  Every line must be reached by a plain test; tier-1
itself still runs every property.

A few lines cannot run under the tracer by design; ``EXCLUSIONS`` names
them by file and source text, each with its reason, and the report marks
them.  The exit status is 1 when a test fails or a line outside the
exclusions never runs, and 0 otherwise.
"""

from __future__ import annotations

import os
import sys
import threading
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "osc2c")
LEFT_OUT = ["tests/test_collector.py"]

# (module, source text) -> why tier-1 never runs it.  The text is that of
# the line, stripped, after the stripped lines before it, one per "\n"; None
# excludes the whole module.
EXCLUSIONS = {
    ("__main__.py", None):
        "the `python -m osc2c` entry point; the tests call cli.main",
    ("cli.py", 'if __name__ == "__main__":\nsys.exit(main())'):
        "the script entry point; the tests call main",
    ("diagnostics.py",
     "if not gc.isenabled():\nreturn stage(*args, **kwargs)"):
        "collector_paused's return for a caller that disabled the "
        "collector; only tests/test_collector.py runs it",
}


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
    args = ["-q", "-p", "no:cacheprovider", "-m", "not hypothesis",
            os.path.join(ROOT, "tests")]
    args += [f"--ignore={os.path.join(ROOT, p)}" for p in LEFT_OUT]
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(args)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), ran


def exclusion(module: str, source: list[str], line: int) -> str | None:
    """The reason a never-run line is excluded, or None."""
    for (name, text), reason in EXCLUSIONS.items():
        if name != module:
            continue
        if text is None:
            return reason
        want = text.split("\n")
        start = line - len(want)
        if start >= 0 and [row.strip() for row in source[start:line]] == want:
            return reason
    return None


def main() -> int:
    modules = sorted(os.path.join(PACKAGE, name) for name in os.listdir(PACKAGE)
                     if name.endswith(".py"))
    status, ran = run_traced(set(modules))
    print(f"\nLines of src/osc2c that tier-1 never runs "
          f"(left out: {', '.join(LEFT_OUT)} and the property tests):")
    total_missed = total = 0
    reasons: dict[str, str] = {}
    unexcused = []
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
            reason = exclusion(os.path.basename(path), source, line)
            if reason is None:
                unexcused.append(f"{name}:{line}")
                mark = ""
            else:
                reasons[name] = reason
                mark = "  (excluded)"
            print(f"  {line:5d}  {source[line - 1].strip()}{mark}")
    print(f"total: {total_missed} of {total} lines never run")
    print("excluded:")
    for name, reason in reasons.items():
        print(f"  {name}: {reason}")
    if unexcused:
        print(f"FAIL: {len(unexcused)} lines outside the exclusions never "
              f"run: {', '.join(unexcused)}")
    if status != 0:
        print(f"FAIL: the tests exited {status}")
    return 1 if unexcused or status != 0 else 0


if __name__ == "__main__":
    sys.exit(main())
