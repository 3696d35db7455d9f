"""The denotational oracle: interpreting terms as webs of points."""

import cohdiff.calculus as cal
from cohdiff.calculus import normalize, parse, step
from cohdiff.corpus import SHOWCASE, make_corpus
from cohdiff.denot import SemEnv, interp_closed, interp_type, nat_atom, soundness_check
from cohdiff.spaces import SFun, enumerate_web
from cohdiff.web_core import Budget

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
