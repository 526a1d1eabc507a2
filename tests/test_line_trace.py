"""`tests/line_trace.py`, the line trace of the suite, kept honest in the
suite itself: each allowlist entry names a line that still exists, so a
stale entry fails here and not only in the slow trace, and the executable
lines it checks include those of nested code."""

from pathlib import Path

import pytest

from line_trace import ALLOWLIST, PACKAGE, executable_lines


def stale_entries(allowlist) -> list:
    """Each entry of `allowlist` that names no file of `src/prooforge`, no
    line text that file holds, or gives no reason."""
    stale = []
    for (name, text), reason in allowlist.items():
        path = Path(PACKAGE) / name
        if not path.is_file():
            stale.append(f"{name} is not a file of src/prooforge")
        elif text not in {line.strip() for line in path.read_text(encoding="utf-8").splitlines()}:
            stale.append(f"{name} has no line {text!r}")
        elif not reason.strip():
            stale.append(f"{name}: {text!r} gives no reason")
    return stale


def test_every_allowlist_entry_names_a_line_that_exists():
    assert stale_entries(ALLOWLIST) == []


@pytest.mark.parametrize(
    "entry, problem",
    [
        ((("gone.py", "pass"), "why"), "gone.py is not a file of src/prooforge"),
        ((("cli.py", "no such line"), "why"), "cli.py has no line 'no such line'"),
        ((("cli.py", "import sys"), " "), "cli.py: 'import sys' gives no reason"),
    ],
    ids=["file", "line", "reason"],
)
def test_a_stale_entry_is_found(entry, problem):
    key, reason = entry
    assert stale_entries({key: reason}) == [problem]


def test_the_executable_lines_include_nested_code():
    source = "def f():\n    def g():\n        return 1\n\n    return g\n"
    assert executable_lines(compile(source, "nested.py", "exec")) == {1, 2, 3, 5}
