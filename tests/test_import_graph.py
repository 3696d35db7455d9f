"""The package root re-exports nothing, so a module loads only what it imports itself."""

import os
import subprocess
import sys

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

PROBE = """
import sys
import cohdiff
import cohdiff.lawcheck
print(sorted(n for n in ("cohdiff.calculus", "cohdiff.denot") if n in sys.modules))
print("typecheck" in dir(cohdiff))
"""


def test_law_checker_does_not_load_the_calculus():
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == ["[]", "False"]
