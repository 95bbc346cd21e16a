"""List the lines of src/combisphere that no test runs.

The standard library's sys.settrace records each line of the package that
runs while pytest runs the suite in this process; after pytest's report,
the lines that the package's code objects hold and that never ran are
printed as ``file:line: source``, one a line.  Run from the checkout root:

    python tests/line_coverage.py [--expect FILE] [pytest arguments, the whole suite if none]

With ``--expect FILE`` the listing is checked against FILE, which keeps the
lines known to go unrun as ``file: source`` lines, keyed by the stripped
source text rather than by line number, so that edits elsewhere in a file
do not stale it.  The script then exits 1 if a line outside FILE goes
unrun, naming it, and notes the entries of FILE that now run.  Lines of
FILE that are empty or start with ``#`` are skipped.

A function's ``def`` line counts as run when the function is defined.
Subprocesses are not traced, so ``__main__.py`` and the ``__main__``
guards are listed, and so are ``TYPE_CHECKING`` imports.  The tracer
slows the suite about threefold, so a test with a wall-clock bound may
fail under it; the listing is printed either way.
"""

from __future__ import annotations

import sys
from collections import Counter
from pathlib import Path
from types import CodeType, FrameType

import pytest

CHECKOUT = Path(__file__).resolve().parents[1]
PACKAGE = CHECKOUT / "src" / "combisphere"


def executable_lines(path: Path) -> set[int]:
    """The lines of path's code objects, less each function's first line,
    which runs as the definition in the enclosing code."""
    lines: set[int] = set()
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        # a module starts on line 0
        first = code.co_firstlineno if code.co_name != "<module>" else 0
        lines.update(line for _, _, line in code.co_lines() if line and line != first)
        stack.extend(c for c in code.co_consts if isinstance(c, CodeType))
    return lines


def run_traced(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """pytest's exit code on args, and the package lines run, by file.  The
    package must not be imported before, or its import-time lines are lost."""
    prefix = str(PACKAGE)
    ran: dict[str, set[int]] = {}

    def local(frame: FrameType, event: str, arg: object):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def calls(frame: FrameType, event: str, arg: object):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        ran.setdefault(filename, set())
        return local

    sys.settrace(calls)  # nothing in the suite starts a thread
    try:
        code = pytest.main(args)
    finally:
        sys.settrace(None)
    return int(code), ran


def read_expected(path: Path) -> Counter[str]:
    """The ``file: source`` entries of an expect file, with their counts."""
    lines = path.read_text(encoding="utf-8").splitlines()
    return Counter(line for line in lines if line.strip() and not line.startswith("#"))


def main(argv: list[str]) -> int:
    expected: Counter[str] | None = None
    if argv[:1] == ["--expect"]:
        expected, argv = read_expected(Path(argv[1])), argv[2:]
    code, ran = run_traced(["-q", "-p", "no:cacheprovider", *(argv or [str(CHECKOUT)])])
    unrun: Counter[str] = Counter()
    unexpected: list[str] = []
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        name = path.relative_to(CHECKOUT)
        for line in sorted(executable_lines(path) - ran.get(str(path), set())):
            key = f"{name}: {source[line - 1].strip()}"
            unrun[key] += 1
            print(f"{name}:{line}: {source[line - 1].strip()}")
            if expected is not None and unrun[key] > expected[key]:
                unexpected.append(f"{name}:{line}")
    print(f"pytest exit code {code}", file=sys.stderr)
    if expected is None:
        return 0
    for key in sorted(expected - unrun):
        print(f"now run, so drop it from the expect file: {key}", file=sys.stderr)
    for where in unexpected:
        print(f"unrun and not expected: {where}", file=sys.stderr)
    return 1 if unexpected else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
