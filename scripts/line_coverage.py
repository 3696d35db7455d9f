"""Run the test suite under a line tracer and print each line of the package that no test executed.

    python3 scripts/line_coverage.py [ROOT]

ROOT is the checkout whose ``src/`` is imported and whose ``tests/`` run
(default: this one), so two checkouts can be compared.  A line counts as
executable when the compiler gives it bytecode (``co_lines`` of the
module's code objects), so docstrings, comments and blank lines never
show.  Tests that start a fresh interpreter are not traced.  The output
is one ``path:line: source`` per line no test ran, then a count per
module.  The trace makes the suite many times slower.
"""

from __future__ import annotations

import argparse
import os
import sys
import threading
from pathlib import Path


def executable_lines(path: Path) -> set:
    """Line numbers of ``path`` that some code object of it maps bytecode to."""
    out, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        out.update(line for _, _, line in code.co_lines() if line is not None)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return out


def traced_run(package: Path, tests: Path) -> tuple[int, dict]:
    """Run pytest with a tracer that records, per file of ``package``, the lines executed."""
    import pytest

    prefix = str(package) + os.sep
    hit: dict = {}
    local_of: dict = {}  # one local tracer per file

    def local_for(lines: set):
        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    def tracer(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(prefix):
            return None
        if path not in local_of:
            local_of[path] = local_for(hit.setdefault(path, set()))
        hit[path].add(frame.f_lineno)
        return local_of[path]

    sys.settrace(tracer)
    threading.settrace(tracer)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(tests)])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return status, hit


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("root", type=Path, nargs="?", default=Path(__file__).resolve().parent.parent)
    args = ap.parse_args(argv)
    root = args.root.resolve()
    package = root / "src" / "cohdiff"
    sys.path.insert(0, str(root / "src"))
    os.chdir(root)
    status, hit = traced_run(package, root / "tests")
    counts = []
    for path in sorted(package.glob("*.py")):
        source = path.read_text().splitlines()
        missed = sorted(executable_lines(path) - hit.get(str(path), set()))
        for line in missed:
            print(f"{path.relative_to(root)}:{line}: {source[line - 1].strip()}")
        counts.append(f"{path.relative_to(root)}: {len(missed)} lines not run")
    print("\n".join(counts))
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
