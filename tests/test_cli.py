"""The command-line surface: batch commands, exit codes, determinism."""

import json
import os
import re
import subprocess
import sys

import pytest
from click.testing import CliRunner

from cohdiff import lawcheck
from cohdiff.cli import main

HERE = os.path.dirname(__file__)
SRC = os.path.join(HERE, os.pardir, "src")
DEMOS = os.path.join(HERE, os.pardir, "demos")
GOLDEN = os.path.join(HERE, "golden")


def run(*args):
    return CliRunner().invoke(main, list(args))


def demo_path(name):
    return os.path.join(DEMOS, name)


def test_check_laws_single_law():
    r = run("check-laws", "--only", "d-local", "--trials", "2", "--model", "coh")
    assert r.exit_code == 0, r.output
    assert "PASS coh  d-local" in r.output
    assert "1/1 law checks passed" in r.output


def test_check_laws_reports_are_byte_identical_per_seed():
    args = ("check-laws", "--only", "sum-com", "--trials", "3", "--seed", "9")
    assert run(*args).output == run(*args).output


@pytest.mark.parametrize("seed", [0, 7])
def test_check_laws_matches_golden_output(seed):
    """The full registry report is pinned byte for byte (all models, 100 trials, budget 3)."""
    r = CliRunner().invoke(main, ["check-laws", "--seed", str(seed)])
    assert r.exit_code == 0, r.output
    with open(os.path.join(GOLDEN, f"check-laws-seed{seed}.txt"), "rb") as fh:
        assert r.stdout_bytes == fh.read()


@pytest.mark.parametrize("hash_seed", ["1", "12345"])
@pytest.mark.parametrize("model", ["coh", "nucs", "rel"])
def test_law_verdicts_do_not_depend_on_hashing(model, hash_seed):
    """Atoms and spaces hash by identity, strings by PYTHONHASHSEED: neither may reach a verdict.

    Each model runs alone in a fresh process, so the image caches it
    shares with the other kinds in a full run start cold.
    """
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=SRC)
    cmd = [sys.executable, "-m", "cohdiff.cli", "check-laws", "--seed", "7", "--model", model]
    out = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True).stdout
    with open(os.path.join(GOLDEN, "check-laws-seed7.txt")) as fh:
        want = [line for line in fh.read().splitlines() if line.split()[1] == model]
    passed = sum(line.startswith("PASS") for line in want)
    assert out.splitlines() == want + [f"{passed}/{len(want)} law checks passed"]


def test_check_laws_reports_a_failing_law_with_its_witness(monkeypatch):
    monkeypatch.setitem(lawcheck.REGISTRY, "d-local", (lambda ctx: (False, "forced failure"), ()))
    r = run("check-laws", "--only", "d-local", "--model", "coh")
    assert r.exit_code == 1
    assert r.output == (
        "FAIL coh  d-local                  trials=1  [forced failure]\n"
        "0/1 law checks passed\n"
    )


def test_check_laws_unknown_law_is_usage_error():
    r = run("check-laws", "--only", "no-such-law")
    assert r.exit_code == 2


def test_check_laws_unknown_model_is_usage_error():
    r = run("check-laws", "--model", "wat")
    assert r.exit_code == 2


def test_check_laws_writes_summary(tmp_path):
    out = tmp_path / "summary.json"
    r = run(
        "check-laws", "--only", "d-local", "--trials", "2",
        "--model", "coh", "--summary", str(out),
    )
    assert r.exit_code == 0
    data = json.loads(out.read_text())
    assert data["results"][0]["name"] == "d-local"
    assert data["results"][0]["ok"] is True
    assert 1 <= data["results"][0]["instances"] <= 2
    # COH draws are their own webs, so each instance is decided on its own
    assert data["results"][0]["webs"] == data["results"][0]["instances"]


def test_typecheck_demo():
    r = run("typecheck", demo_path("identity-derivative.cdl"))
    assert r.exit_code == 0
    assert r.output.strip() == "D nat => D nat"


def test_typecheck_reports_type_errors(tmp_path):
    f = tmp_path / "bad.cdl"
    f.write_text("\\x:nat. \\y:nat. x + y\n")
    r = run("typecheck", str(f))
    assert r.exit_code == 1


def test_typecheck_prints_the_sum_error_text(tmp_path):
    f = tmp_path / "sum.cdl"
    f.write_text("\\x:nat. \\y:nat. x + y\n")
    r = run("typecheck", str(f))
    assert r.exit_code == 1
    assert r.stderr == "type error: sum not typeable: x + y\n"


def test_typecheck_prints_types_in_the_input_syntax(tmp_path):
    f = tmp_path / "mismatch.cdl"
    f.write_text("(\\x:nat. x) (iota0 1)\n")
    r = run("typecheck", str(f))
    assert r.exit_code == 1
    assert r.stderr == "type error: argument type D nat does not match nat\n"


@pytest.mark.parametrize("command", ["reduce", "eval"])
def test_reduce_and_eval_refuse_ill_typed_terms(tmp_path, command):
    f = tmp_path / "bad.cdl"
    f.write_text("succ (\\x:nat. x)\n")
    r = run(command, str(f))
    assert (r.exit_code, r.stdout) == (1, "")
    assert r.stderr == "type error: argument type nat => nat does not match nat\n"


def test_reduce_reports_running_out_of_fuel(tmp_path):
    f = tmp_path / "loop.cdl"
    f.write_text("fix (\\x:nat. x)\n")
    r = run("reduce", str(f), "--fuel", "1")
    assert (r.exit_code, r.stdout) == (1, "")
    assert r.stderr == "no normal form within 1 steps\n"


def test_eval_unknown_kind_is_usage_error():
    r = run("eval", demo_path("beta.cdl"), "--kind", "wat")
    assert r.exit_code == 2
    assert "unknown kind 'wat'" in r.output


@pytest.mark.parametrize("command", ["typecheck", "reduce", "eval"])
def test_parse_errors_are_usage_errors(tmp_path, command):
    # `0[?]` is how to_text prints an unannotated zero, and it does not parse
    f = tmp_path / "zeros.cdl"
    f.write_text("0[?] + 0[?]\n")
    r = run(command, str(f))
    assert r.exit_code == 2, r.output
    assert f"{f}: bad character '?'" in r.output


@pytest.mark.parametrize("command", ["typecheck", "reduce", "eval"])
def test_an_operator_depth_must_be_a_numeral(tmp_path, command):
    f = tmp_path / "depth.cdl"
    f.write_text("pi0^x 1\n")
    r = run(command, str(f))
    assert r.exit_code == 2, r.output
    assert f"{f}: expected a depth, got 'x' at position 4 in 'pi0^x 1'" in r.output


def test_a_parse_error_in_a_file_of_several_lines_names_its_line_and_column(tmp_path):
    f = tmp_path / "lines.cdl"
    f.write_text("# a demo\n(\\x:nat.\n   x) pi0^y 1  # depth\n")
    r = run("typecheck", str(f))
    assert r.exit_code == 2, r.output
    assert f"{f}: expected a depth, got 'y' at line 3, column 11 in '   x) pi0^y 1  # depth'\n" in r.output


def test_a_parse_error_at_the_end_of_a_file_quotes_its_last_line_with_its_comment(tmp_path):
    f = tmp_path / "open.cdl"
    f.write_text("# only\n(\\x:nat. x\n# trailing comment\n")
    r = run("typecheck", str(f))
    assert r.exit_code == 2, r.output
    assert f"{f}: expected ')' at line 3, column 19 in '# trailing comment'\n" in r.output


def test_reduce_beta_demo():
    r = run("reduce", demo_path("beta.cdl"))
    assert r.exit_code == 0
    assert r.output.strip() == "3"


def test_reduce_trace_shows_intermediate_terms():
    r = run("reduce", demo_path("beta.cdl"), "--trace")
    lines = r.output.strip().splitlines()
    assert len(lines) >= 2
    assert lines[-1] == "3"


def test_eval_numeral():
    r = run("eval", demo_path("beta.cdl"), "--kind", "rel")
    assert r.exit_code == 0
    assert r.output.strip() == "3"
    assert r.stderr == ""


def test_eval_notes_an_empty_denotation(tmp_path):
    """8 lies above --nmax 3, so the denotation is empty: stdout stays empty, stderr says why."""
    f = tmp_path / "succ.cdl"
    f.write_text("(\\x:nat. succ x) 7\n")
    r = run("eval", str(f), "--nmax", "3")
    assert (r.exit_code, r.stdout) == (0, "")
    assert "empty denotation at --nmax 3 --budget 3" in r.stderr
    r = run("eval", str(f), "--nmax", "9")
    assert (r.exit_code, r.stdout, r.stderr) == (0, "8\n", "")


def test_eval_shows_only_points_within_the_budget(tmp_path):
    """Each point of the identity on nat holds a multiset of degree 1: none is shown at --budget 0."""
    f = tmp_path / "id.cdl"
    f.write_text("\\x:nat. x\n")
    r = run("eval", str(f), "--budget", "0")
    assert (r.exit_code, r.stdout) == (0, "")
    assert "empty denotation at --nmax 3 --budget 0" in r.stderr
    r = run("eval", str(f), "--budget", "1")
    assert (r.exit_code, r.stderr) == (0, "")
    assert r.stdout.splitlines() == ["([0],0)", "([1],1)", "([2],2)", "([3],3)"]


def test_derive_linear_demo():
    r = run("derive", demo_path("linear.rel"))
    assert r.exit_code == 0
    assert r.output.splitlines() == ["[0·a] ↦ 0·b", "[1·a] ↦ 1·b"]


def test_derive_monomial_demo_keeps_cross_term():
    r = run("derive", demo_path("monomial.rel"))
    assert r.exit_code == 0
    assert "[0·a,1·a] ↦ 1·b" in r.output


@pytest.mark.parametrize(
    "line, why",
    [
        ("[zzz] -> c", "not a morphism"),  # zzz is outside the web of E
        ("[a,b] -> c", "not a morphism"),  # a and b are incoherent, so [a,b] is not in !E
        ("[a] c", "line 5: expected"),  # no arrow
        ("space G kind=wat atoms{a}", "bad or missing kind"),
        ("source Q", "unknown space 'Q'"),
        ("space G kind=coh atoms{a c} scoh{(a,c}", "expected ')'"),
        # removed connectives and malformed or mixed-kind spaces
        ("source E (+) F", "bad character '+'"),
        ("source ~E", "bad character '~'"),
        ("space G kind=coh atoms{c} scho{(c,c)}", "unknown or repeated block 'scho'"),
        ("space G kind=coh atoms{c} atoms{d}", "unknown or repeated block 'atoms'"),
        ("space G kind=coh kind=nucs atoms{c}", "repeated kind="),
        ("space G kind=coh atoms{c d} sincoh{(c,d)}", "kind=coh takes no sincoh"),
        ("space G kind=rel atoms{c d} scoh{(c,d)}", "kind=rel takes no relation block"),
        ("space G kind=coh atoms{c c}", "repeated atom"),
        ("space G kind=coh atoms{c} scoh{(c,z)}", "outside the web"),
        ("space G kind=coh atoms{c} scoh{(z,z)}", "outside the web"),  # a diagonal pair is checked too
        ("space G kind=coh atoms{a c", "block 'atoms' has no closing '}'"),
        ("space S kind=coh atoms{c}", "S names the summability functor"),
        ("space E&F kind=coh atoms{c}", "bad space name 'E&F'"),
        ("space G kind=nucs atoms{c}\nsource E & G", "& joins a coh space to a nucs space"),
        ("space G kind=nucs atoms{c}\ntarget G", "source is coh but target is nucs"),
    ],
)
def test_derive_rejects_bad_relation_files(tmp_path, line, why):
    f = tmp_path / "s.rel"
    f.write_text(
        "space E kind=coh atoms{a b}\nspace F kind=coh atoms{c}\n"
        f"source E\ntarget F\n{line}\n"
    )
    r = run("derive", str(f))
    assert r.exit_code == 2
    assert f"{f}: " in r.output and why in r.output


def test_derive_needs_source_and_target(tmp_path):
    f = tmp_path / "s.rel"
    f.write_text("space E kind=coh atoms{a}\n[a] -> a\n")
    r = run("derive", str(f))
    assert r.exit_code == 2
    assert f"{f}: needs `source` and `target` lines" in r.output


@pytest.mark.parametrize(
    "args",
    [
        ("check-laws", "--only", "d-local", "--model", "coh", "--trials", "0"),
        ("check-laws", "--only", "d-local", "--model", "coh", "--budget", "-1"),
        ("check-laws", "--only", "d-chain-der", "--model", "coh", "--budget", "0"),
        ("eval", demo_path("beta.cdl"), "--budget", "-1"),
        ("eval", demo_path("beta.cdl"), "--nmax", "-1"),
        ("derive", demo_path("linear.rel"), "--budget", "-1"),
        ("reduce", demo_path("beta.cdl"), "--fuel", "0"),
    ],
    ids=lambda args: f"{args[0]} {args[-2]}={args[-1]}",
)
def test_out_of_range_counts_are_usage_errors(args):
    """No vacuous pass, no traceback, no false "no normal form"."""
    r = run(*args)
    assert r.exit_code == 2, r.output


def test_derive_taylor_contrast(tmp_path):
    """The square [a,a] ↦ b keeps its first-order cross term in NUCS and loses it in COH."""
    nucs = run("derive", demo_path("monomial.rel"))
    f = tmp_path / "monomial-coh.rel"
    with open(demo_path("monomial.rel")) as fh:
        f.write_text(re.sub(r" scoh\{[^}]*\}", "", fh.read()).replace("kind=nucs", "kind=coh"))
    coh = run("derive", str(f))
    assert (nucs.exit_code, coh.exit_code) == (0, 0)
    assert "[0·a,1·a] ↦ 1·b" in nucs.output
    assert coh.output == "[0·a,0·a] ↦ 0·b\n"


def test_missing_file_is_usage_error():
    r = run("reduce", "no-such-file.cdl")
    assert r.exit_code == 2
