"""The package root re-exports nothing, so a module loads only what it imports itself.

The law registry and the calculus load apart: ``import cohdiff.lawcheck``
loads no calculus, and ``cli`` imports ``lawcheck`` only inside
``check-laws``.
"""

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


CLI_PROBE = """
import sys
from click.testing import CliRunner
import cohdiff.cli
print("cohdiff.lawcheck" in sys.modules)
r = CliRunner().invoke(cohdiff.cli.main, ["typecheck", sys.argv[1]])
print(r.exit_code, r.output.strip(), "cohdiff.lawcheck" in sys.modules)
r = CliRunner().invoke(cohdiff.cli.main, ["check-laws", "--only", "i-comonoid", "--model", "coh", "--trials", "1"])
print(r.exit_code, r.output.splitlines()[-1], "cohdiff.lawcheck" in sys.modules)
"""


def test_cli_loads_the_law_registry_only_for_check_laws():
    env = dict(os.environ, PYTHONPATH=SRC)
    demo = os.path.join(os.path.dirname(__file__), os.pardir, "demos", "beta.cdl")
    cmd = [sys.executable, "-c", CLI_PROBE, demo]
    out = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True)
    assert out.stdout.splitlines() == ["False", "0 nat False", "0 1/1 law checks passed True"]
