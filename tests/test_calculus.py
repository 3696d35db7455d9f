"""Typing, reduction and syntax of the differential λ-calculus."""

import os

import pytest

import cohdiff.calculus as cal
from cohdiff.calculus import (
    ParseError,
    TypeError_,
    alpha_eq,
    normalize,
    parse,
    parse_type,
    step,
    to_text,
    ty_to_text,
    typecheck,
)
from cohdiff.corpus import SHOWCASE, make_corpus
from cohdiff.denot import SemEnv, interp_closed
from cohdiff.web_core import Budget, atom_to_text

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def ty(s):
    return parse_type(s)


def has_type(src, tysrc):
    return typecheck(parse(src)) == ty(tysrc)


# -- parsing ---------------------------------------------------------------


def test_parse_round_trip_on_showcase():
    for src in SHOWCASE:
        m = parse(src)
        assert parse(to_text(m)) == m


def test_parse_rejects_garbage():
    for bad in ["(", "\\x. x", "pi2^0 x", "x +", "0["]:
        with pytest.raises(ParseError):
            parse(bad)


def test_parse_precedence():
    m = parse("f x + g y")
    assert isinstance(m, cal.Plus)
    assert isinstance(m.left, cal.App)


# -- typing ----------------------------------------------------------------


def test_numerals_and_succ():
    assert has_type("3", "nat")
    assert has_type("succ 3", "nat")
    assert has_type("\\x:nat. succ x", "nat => nat")


def test_general_sum_rule_is_absent():
    """x + y for distinct variables is not typeable: sums only exist
    through the two projection schemata."""
    with pytest.raises(TypeError_):
        typecheck(parse("\\x:nat. \\y:nat. x + y"))
    with pytest.raises(TypeError_):
        typecheck(parse("\\x:nat. x + x"))


def test_projection_sum_schema_types():
    # pi0 M + pi1 M : A  when  M : D A
    assert has_type("\\x:D nat. pi0^0 x + pi1^0 x", "D nat => nat")
    # the swapped-depth schema
    assert has_type(
        "\\x:D D nat. pi1^0 (pi0^0 x) + pi0^0 (pi1^0 x)", "D D nat => nat"
    )


def test_sum_schema_rejects_mismatched_bodies():
    with pytest.raises(TypeError_):
        typecheck(parse("\\x:D nat. \\y:D nat. pi0^0 x + pi1^0 y"))


def test_zero_absorption_typing():
    assert has_type("\\x:nat. x + 0[nat]", "nat => nat")
    with pytest.raises(TypeError_):
        typecheck(parse("\\x:nat. x + 0[D nat]"))


def test_injections_and_sigma():
    assert has_type("iota0^0 2", "D nat")
    assert has_type("iota1^0 2", "D nat")
    assert has_type("\\x:D D nat. sigma^0 x", "D D nat => D nat")
    assert has_type("\\x:D D nat. c^0 x", "D D nat => D D nat")


def test_dterm_types():
    assert has_type("D (\\x:nat. x)", "D nat => D nat")
    assert has_type("D (\\x:nat. succ x)", "D nat => D nat")
    with pytest.raises(TypeError_):
        typecheck(parse("D 3"))


def test_if0_and_fix():
    assert has_type("if0 0 1 2", "nat")
    assert has_type("fix (\\x:nat. 5)", "nat")
    with pytest.raises(TypeError_):
        typecheck(parse("if0 (\\x:nat. x) 1 2"))


# -- reduction -------------------------------------------------------------


def norm(src, fuel=200):
    return normalize(parse(src), fuel=fuel)


def test_beta():
    assert norm("(\\x:nat. succ x) 2") == parse("3")


def test_derivative_of_identity_is_identity():
    got = norm("D (\\x:nat. x)")
    assert alpha_eq(got, parse("\\y:D nat. y"))


def test_projection_of_injection():
    assert norm("pi0^0 (iota0^0 2)") == parse("2")
    assert norm("pi1^0 (iota0^0 2)") == parse("0[nat]")


def test_if0_branches():
    assert norm("if0 0 1 2") == parse("1")
    assert norm("if0 3 1 2") == parse("2")


def test_fix_unfolds_to_constant():
    assert norm("fix (\\x:nat. 5)") == parse("5")


def test_derivative_application_preserves_type():
    m = parse("(D (\\x:nat. succ x)) (iota1^0 2)")
    t = typecheck(m)
    assert t == ty("D nat")
    while True:
        n = step(m)
        if n is None:
            break
        assert typecheck(n) == t
        m = n


def test_sum_reduces_by_components():
    m = parse("pi0^0 (iota0^0 2) + pi1^0 (iota0^0 2)")
    typecheck(m)
    got = normalize(m, fuel=100)
    # sums are never silently collapsed; the zero summand stays
    assert got == parse("2 + 0[nat]")


def test_linear_step_collapses_zero_function():
    # application is linear in its function position: 0 M ⇝ 0
    m = parse("0[nat => nat] 1")
    n = step(m)
    assert n == parse("0[nat]")
    # but not in its argument position
    assert step(parse("succ 0[nat]")) is None


def test_step_is_deterministic():
    m = parse("(\\x:nat. succ x) ((\\y:nat. y) 1)")
    seen = set()
    while m is not None:
        assert m not in seen  # no cycles
        seen.add(m)
        m = step(m)


# -- subject reduction over a generated corpus ------------------------------


def test_subject_reduction_on_corpus():
    corpus = make_corpus(seed=0, count=200)
    assert len(corpus) == 200
    checked = 0
    for m, t in corpus:
        assert typecheck(m) == t
        cur = m
        for _ in range(40):
            nxt = step(cur)
            if nxt is None:
                break
            assert typecheck(nxt) == t, to_text(cur)
            cur = nxt
            checked += 1
    assert checked > 200  # the corpus actually reduces


def test_showcase_terms_typecheck():
    for src in SHOWCASE:
        typecheck(parse(src))


# -- reduction has no history -----------------------------------------------


def reduce_corpus(terms, order):
    """index -> (normal form, its type, its COH denotation), reducing in the given order.

    Each term takes at most 60 steps, as in the corpus benchmark.
    """
    sem = SemEnv(kind="coh", nmax=3, budget=Budget(3, 20000))
    out = {}
    for i in order:
        m = terms[i][0]
        for _ in range(60):
            n = step(m)
            if n is None:
                break
            m = n
        den = sorted(f"{atom_to_text(a)}|{atom_to_text(b)}" for a, b in interp_closed(m, sem))
        out[i] = (to_text(m), ty_to_text(typecheck(m)), den)
    return out


def test_corpus_is_history_free():
    """Binder names depend on the term alone, not on what the process reduced before it."""
    terms = make_corpus(seed=0, count=400)
    forward = reduce_corpus(terms, range(len(terms)))
    backward = reduce_corpus(terms, reversed(range(len(terms))))
    assert [i for i in forward if forward[i] != backward[i]] == []


def test_corpus_normal_forms_match_golden():
    terms = make_corpus(seed=0, count=200)
    got = reduce_corpus(terms, range(len(terms)))
    lines = [f"{i}\t{nf}\t{ty}\n" for i, (nf, ty, _) in sorted(got.items())]
    with open(os.path.join(GOLDEN, "corpus-nf-0-200.txt")) as fh:
        assert lines == fh.readlines()
