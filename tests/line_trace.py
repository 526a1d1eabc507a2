"""List the lines of `src/prooforge` that the test suite never executes.

Run from anywhere as ``python3 tests/line_trace.py``.

The trace uses the standard library only. It sets `sys.settrace` and
`threading.settrace` before `prooforge` is imported, runs pytest in this
process on the whole of `tests/`, and records every line
executed in a frame whose file lies under `src/prooforge`, on every thread.
A file's executable lines are those `co_lines()` gives for its module code
object and every code object nested in it. Each one that no test ran is
printed as ``file:line: text``. The exit status is 1 if any of them is not
in `ALLOWLIST`, else pytest's own status.

Lines that a subprocess runs are not seen. The trace is slower than the
plain suite, so it is kept out of it; `tests/test_line_trace.py` checks in
the suite that each allowlist entry names a line that still exists.
"""

import os
import sys
import threading

TESTS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TESTS), "src")
PACKAGE = os.path.join(SRC, "prooforge")

#: The whole suite, with Hypothesis's examples drawn from one seed, so the
#: lines the trace finds are the same from run to run.
DEFAULT_ARGS = ["-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", TESTS]

#: Lines no test may reach, keyed by file (relative to `src/prooforge`) and
#: stripped line text, each with the reason it cannot be reached in a test.
ALLOWLIST: dict = {}


def executable_lines(code) -> set:
    """Every line number `code` or a code object nested in it executes."""
    lines = {line for _start, _end, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= executable_lines(const)
    return lines


def main() -> int:
    executed: dict = {}
    prefix = PACKAGE + os.sep

    def local(frame, event, _arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def trace(frame, _event, _arg):
        path = frame.f_code.co_filename
        if not path.startswith(prefix):
            return None
        executed.setdefault(path, set())
        return local

    sys.path.insert(0, SRC)
    sys.path.insert(0, TESTS)
    import pytest

    threading.settrace(trace)
    sys.settrace(trace)
    try:
        status = pytest.main(DEFAULT_ARGS)
    finally:
        sys.settrace(None)
        threading.settrace(None)

    missed = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        text = source.splitlines()
        ran = executed.get(path, set())
        for line in sorted(executable_lines(compile(source, path, "exec")) - ran):
            stripped = text[line - 1].strip()
            allowed = (name, stripped) in ALLOWLIST
            missed += not allowed
            note = "  [allowed]" if allowed else ""
            print(f"src/prooforge/{name}:{line}: {stripped}{note}")
    print(f"{missed} executable line(s) of src/prooforge not run by the tests")
    return 1 if missed else int(status)


if __name__ == "__main__":
    sys.exit(main())
