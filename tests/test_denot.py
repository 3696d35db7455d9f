"""The denotational oracle: interpreting terms as webs of points."""

import hashlib
import os
import subprocess
import sys

import pytest

import cohdiff.calculus as cal
from cohdiff import denot, differential, lawcheck
from cohdiff.calculus import normalize, parse, step
from cohdiff.corpus import SHOWCASE, make_corpus
from cohdiff.denot import SemEnv, interp_closed, interp_type, nat_atom, soundness_check
from cohdiff.lawcheck import MapCtx, run_check
from cohdiff.maps import PointMap
from cohdiff.spaces import SFun, enumerate_web
from cohdiff.web_core import Budget, Tag, atom_to_text

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")
SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")

SEM = SemEnv(kind="coh", nmax=3, budget=Budget(3))


def den(src, sem=SEM):
    return interp_closed(parse(src), sem)


def points(src, sem=SEM):
    return {b for _, b in den(src, sem)}


def test_numeral_denotes_its_point():
    assert points("2") == {nat_atom(2)}


def test_succ_application():
    assert points("succ 1") == {nat_atom(2)}
    # nmax truncation: succ 3 falls off the finite nat web
    assert points("succ 3") == set()


def test_zero_denotes_empty():
    assert points("0[nat]") == set()


def test_interp_type_of_dnat_is_sfun():
    t = interp_type(cal.parse_type("D nat"), SEM)
    assert isinstance(t, SFun)
    assert len(enumerate_web(t, SEM.budget)) == 8  # two tags × four numerals


def test_injection_tags_points():
    d0 = points("iota0^0 2")
    d1 = points("iota1^0 2")
    assert {x.index for x in d0} == {0}
    assert {x.index for x in d1} == {1}
    assert {x.inner for x in d0} == {nat_atom(2)}


def test_if0_denotation():
    assert points("if0 0 1 2") == {nat_atom(1)}
    assert points("if0 2 1 2") == {nat_atom(2)}


def test_fix_by_kleene_iteration():
    assert points("fix (\\x:nat. 5)") == set() or points("fix (\\x:nat. 5)") == {
        nat_atom(5)
    }
    # 5 > nmax, so use a small constant instead
    assert points("fix (\\x:nat. 2)") == {nat_atom(2)}


def test_beta_preserves_denotation():
    m = parse("(\\x:nat. succ x) 1")
    n = parse("2")
    ok, info = soundness_check(m, n, SEM)
    assert ok, info


def test_soundness_check_flags_wrong_reduct():
    ok, info = soundness_check(parse("succ 1"), parse("1"), SEM)
    assert not ok and "denotations differ" in info


def test_soundness_check_flags_type_mismatch():
    ok, info = soundness_check(parse("1"), parse("iota0^0 1"), SEM)
    assert not ok and "types differ" in info


def test_soundness_check_flags_an_ill_typed_term():
    ok, info = soundness_check(parse("succ (\\x:nat. x)"), parse("1"), SEM)
    assert not ok
    assert info == "typing failed: argument type nat => nat does not match nat"


def test_derivative_of_identity_denotes_identity():
    lhs = den("D (\\x:nat. x)")
    rhs = den("\\y:D nat. y")
    assert lhs == rhs


# Duplicating a function argument needs intermediate multisets one
# degree deeper than the result, so the broad-corpus checks run with a
# slightly wider semantic window than the per-rule ones.
WIDE = SemEnv(kind="coh", nmax=3, budget=Budget(4, 500000))


def test_every_step_on_showcase_is_sound():
    for src in SHOWCASE:
        m = parse(src)
        n = step(m)
        if n is None:
            continue
        ok, info = soundness_check(m, n, WIDE)
        assert ok, f"{src}: {info}"


def test_full_normalization_is_sound_on_small_corpus():
    for m, _t in make_corpus(seed=2, count=40):
        try:
            n = normalize(m, fuel=60)
        except cal.FuelExhausted:
            continue
        ok, info = soundness_check(m, n, WIDE)
        assert ok, f"{cal.to_text(m)}: {info}"


def corpus_den_matches_golden() -> bool:
    """One line per model and term of make_corpus(0, 200): a digest of its sorted denotation."""
    terms = make_corpus(seed=0, count=200)
    lines = []
    for kind in ("coh", "nucs", "rel"):
        sem = SemEnv(kind=kind, nmax=3, budget=Budget(3))
        for i, (m, _t) in enumerate(terms):
            text = "\n".join(sorted(f"{atom_to_text(a)}|{atom_to_text(b)}" for a, b in interp_closed(m, sem)))
            lines.append(f"{kind}\t{i}\t{hashlib.sha256(text.encode()).hexdigest()[:16]}\n")
    with open(os.path.join(GOLDEN, "corpus-den-0-200.txt")) as fh:
        return lines == fh.readlines()


def test_corpus_denotations_match_golden():
    assert corpus_den_matches_golden()


@pytest.mark.parametrize("kind", ["coh", "nucs", "rel"])
def test_memo_changes_no_denotation_and_outlives_no_call(monkeypatch, kind):
    """Oracle: interp_closed's per-call memo changes no graph of make_corpus(0, 200), and
    once a call returns nothing holds its term.  The last term names x under two contexts,
    which the corpus does not: a memo keyed on the subterm alone fails on it."""
    sem = SemEnv(kind=kind, nmax=3, budget=Budget(3))
    terms = [m for m, _t in make_corpus(seed=0, count=200)] + [parse("(\\x:nat. x) ((\\x:nat. \\y:nat. x) 0 1)")]
    refs = [sys.getrefcount(m) for m in terms]
    memoized = [interp_closed(m, sem) for m in terms]
    # D's clause types its body, and calculus's bounded tables may keep that body's summands
    cal._NORMAL_FORMS.clear()
    cal._parts_outcome.cache_clear()
    assert [sys.getrefcount(m) for m in terms] == refs
    real = denot.interp_term  # with the memo patched out, every call starts from an empty one
    monkeypatch.setattr(denot, "interp_term", lambda m, ctx, sem, memo: real(m, ctx, sem, {}))
    assert [interp_closed(m, sem) for m in terms] == memoized


def test_every_constructor_has_a_clause_in_each_dispatch_table():
    """Typing, reduction and interpretation each dispatch through a table with every constructor;
    a value that is not a term is refused by each walk."""
    for table in (cal._TYPING, cal._HEAD_STEPS, denot._CLAUSES):
        assert set(table) == set(cal._SUBTERMS)
    with pytest.raises(cal.TypeError_, match="not a term: 3"):
        cal.typecheck(3)
    with pytest.raises(TypeError, match="not a term: 3"):
        cal.to_text(3)
    with pytest.raises(TypeError, match="not a term: 3"):
        cal.dlet("x", cal.Var("x"), 3)
    with pytest.raises(TypeError, match="no interpretation clause for 3"):
        denot.interp_term(3, (), SEM, {})


CORPUS_DEN_SCRIPT = """
import hashlib

from cohdiff.corpus import make_corpus
from cohdiff.denot import SemEnv, interp_closed
from cohdiff.web_core import Budget, atom_to_text

terms = make_corpus(seed=0, count=200)
for kind in ("coh", "nucs", "rel"):
    sem = SemEnv(kind=kind, nmax=3, budget=Budget(3))
    for i, (m, _t) in enumerate(terms):
        text = "\\n".join(sorted(f"{atom_to_text(a)}|{atom_to_text(b)}" for a, b in interp_closed(m, sem)))
        print(f"{kind}\\t{i}\\t{hashlib.sha256(text.encode()).hexdigest()[:16]}")
"""


@pytest.mark.parametrize("hash_seed", ["1", "12345"])
def test_corpus_denotations_do_not_depend_on_hashing(hash_seed):
    """Terms, types and variable names hash by PYTHONHASHSEED: the golden must hold under any seed."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=SRC)
    cmd = [sys.executable, "-c", CORPUS_DEN_SCRIPT]
    out = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True).stdout
    with open(os.path.join(GOLDEN, "corpus-den-0-200.txt")) as fh:
        assert out == fh.read()


# -- the corpus soundness pass sees the structural maps ---------------------

# Terms of make_corpus(0, 400) whose 60-step reduct differs in COH at
# nmax 3 and budget 3: all are truncation artifacts (numerals above
# nmax, or a multiset of degree 4).
TRUNCATED = [11, 16, 144, 165]


def unsound_terms():
    sem = SemEnv(kind="coh", nmax=3, budget=Budget(3))
    out = []
    for i, (m, _t) in enumerate(make_corpus(seed=0, count=400)):
        n = m
        for _ in range(60):
            nxt = step(n)
            if nxt is None:
                break
            n = nxt
        if not soundness_check(m, n, sem)[0]:
            out.append(i)
    return out


def test_corpus_soundness_baseline():
    assert unsound_terms() == TRUNCATED


def _drop_increments(dpartial):
    """A ∂ that loses its increment image: only the (0, values) pairs survive."""

    def mutant(E):
        base = dpartial(E)

        def at(bound):
            base_at = base.at(bound)
            return lambda m: [x for x in base_at(m) if x.index == 0]

        return PointMap(base.src, base.tgt, at)

    return mutant


def test_dpartial_without_increments_is_flagged_by_corpus_and_registry(monkeypatch):
    mutant = _drop_increments(differential.dpartial)
    monkeypatch.setattr(lawcheck, "dpartial", mutant)
    assert not run_check("d-chain-der", MapCtx("coh", Budget(3)), seed=0, trials=20).ok
    monkeypatch.setattr(differential, "dpartial", mutant)
    assert set(unsound_terms()) > set(TRUNCATED)


def test_theta_keeping_the_1_1_case_is_flagged_by_corpus(monkeypatch):
    monkeypatch.setattr(denot, "theta_image", lambda a: (Tag(a.index | a.inner.index, a.inner.inner),))
    assert set(unsound_terms()) > set(TRUNCATED)


@pytest.mark.parametrize(
    "name, mutant",
    [
        ("proj_image", lambda i, a: (a.inner,)),  # π that ignores its index
        ("inj_image", lambda i, a: (Tag(0, a),)),  # ι that always tags 0
        ("flip_image", lambda a: (a,)),  # c as the identity
    ],
)
def test_tag_operator_mutants_are_flagged_by_corpus(monkeypatch, name, mutant):
    """Each mutant of a tag operator's point function, where denot reads it, is caught by the corpus.

    The π and ι mutants make reducts unsound.  c as the identity leaves
    the reducts of make_corpus(0, 400) sound; the golden denotations
    catch it.
    """
    monkeypatch.setattr(denot, name, mutant)
    if name == "flip_image":
        assert not corpus_den_matches_golden()
    else:
        assert set(unsound_terms()) > set(TRUNCATED)
