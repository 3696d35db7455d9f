"""Typing, reduction and syntax of the differential λ-calculus."""

import gc
import os
import subprocess
import sys
import tracemalloc

import pytest

import cohdiff.calculus as cal
from cohdiff.calculus import (
    FuelExhausted,
    Nat,
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
SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


def ty(s):
    return parse_type(s)


def has_type(src, tysrc):
    return typecheck(parse(src)) == ty(tysrc)


# -- parsing ---------------------------------------------------------------


def test_parse_round_trip_on_showcase():
    for src in SHOWCASE:
        m = parse(src)
        assert parse(to_text(m)) == m
    # and on every corpus term, each reduct of it within 60 steps, and their types
    terms = [n for path in corpus_trajectories(400) for n in path]
    assert len(terms) == 3792
    assert [n for n in terms if parse(to_text(n)) != n] == []
    types = {typecheck(n) for n in terms}
    assert [t for t in types if parse_type(ty_to_text(t)) != t] == []


def test_parse_rejects_garbage():
    for bad in ["(", "\\x. x", "pi2^0 x", "x +", "0["]:
        with pytest.raises(ParseError):
            parse(bad)
    with pytest.raises(ParseError, match="bad type token 'foo'"):
        parse("\\x:foo. x")
    with pytest.raises(ParseError, match="trailing tokens at '\\)'"):
        parse("x )")
    with pytest.raises(ParseError, match="trailing tokens at 'nat'"):
        parse_type("nat nat")


def test_a_comment_is_whitespace_to_the_end_of_its_line():
    """No word of a comment is read as a token, at the end of the text either."""
    assert parse("1 # 2") == parse("1")
    assert parse("(\\x:nat. # D x\n x) 1 #") == parse("(\\x:nat. x) 1")
    assert parse_type("nat # => nat") == parse_type("nat")
    with pytest.raises(ParseError, match="unexpected end of input at position 8 in '# only 1'"):
        parse("# only 1")


@pytest.mark.parametrize("binder", ["(", "1", "+", "succ", "pi0", "D"])
def test_a_binder_must_be_a_variable(binder):
    with pytest.raises(ParseError) as e:
        parse(f"\\{binder}:nat. 1")
    assert str(e.value).startswith(f"expected a variable, got {binder!r} at position 1 in")


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
    # beyond depth 0, and on arrow types, where the layers sit on the codomain
    assert has_type("\\f:nat => D D nat. pi1^1 f", "(nat => D D nat) => nat => D nat")
    assert has_type("\\f:nat => D nat. iota0^1 f", "(nat => D nat) => nat => D D nat")
    assert has_type("\\x:D D D nat. c^1 x", "D D D nat => D D D nat")
    assert has_type("\\x:D D D nat. sigma^1 x", "D D D nat => D D nat")


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


SUM_OF_ZEROS = "(pi1 (iota0 1)) + (pi1 (iota0 (\\x:nat. x)))"
SUM_WITHOUT_NORMAL_FORM = "(pi0 (iota0 (fix (\\x:nat. x)))) + (pi1 (iota0 1))"


@pytest.mark.parametrize(
    "term, error",
    [
        ("x", "unbound variable x"),
        (cal.Zero(), "unannotated 0"),
        ("1 2", "applying a non-function: 1 : nat"),
        ("succ (\\x:nat. x)", "argument type nat => nat does not match nat"),
        ("D 3", "D of a non-function type nat"),
        ("pi0 1", "pi0^0 needs depth >= 1, got nat"),
        ("iota0^1 1", "iota0^1 needs depth >= 1, got nat"),
        ("sigma 1", "sigma^0 needs depth >= 2, got nat"),
        ("c 1", "c^0 needs depth >= 2, got nat"),
        ("\\x:D D nat. sigma^1 x", "sigma^1 needs depth >= 3, got D D nat"),
        ("\\f:nat => D nat. pi0^1 f", "pi0^1 needs depth >= 2, got nat => D nat"),
        ("iota1^2 (iota0 1)", "iota1^2 needs depth >= 2, got D nat"),
        ("c^1 (iota0^1 (iota0 1))", "c^1 needs depth >= 3, got D D nat"),
        ("fix 1", "fix needs A => A, got nat"),
        ("if0 (\\x:nat. x) 1 2", "if0 condition must be nat, got nat => nat"),
        ("if0 0 1 (\\x:nat. x)", "if0 branches disagree: nat vs nat => nat"),
        (3, "not a term: 3"),
        ("(pi0 (iota0 1)) + (pi1 (iota0 (\\x:nat. x)))", "0 annotated nat => nat summed with nat"),
        (SUM_OF_ZEROS, f"sum of zeros needs one annotation: {SUM_OF_ZEROS}"),
        (SUM_WITHOUT_NORMAL_FORM, f"sum not typeable: {SUM_WITHOUT_NORMAL_FORM}"),
        # a summand that does not type, so the normal-form fallback gives up
        ("pi0 (iota1 x) + y", "sum not typeable: (pi0 (iota1 x)) + y"),
        # two λs that do not factor into one: binder types differ, or a capturing binder
        ("(\\x:nat. x) + (\\x:D nat. x)", "sum not typeable: (\\x:nat. x) + (\\x:D nat. x)"),
        ("(\\x:nat. y) + (\\y:nat. x)", "sum not typeable: (\\x:nat. y) + (\\y:nat. x)"),
    ],
)
def test_every_typing_rejection_is_reached(term, error):
    """Each rejection of the typing rules, with its text; the sums typed through
    normal forms are typed twice, so a cached error repeats its text."""
    m = parse(term) if isinstance(term, str) else term
    for _ in range(2 if isinstance(m, cal.Plus) else 1):
        with pytest.raises(TypeError_) as e:
            typecheck(m)
        assert str(e.value) == error


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
    m = parse("pi1 (iota0 y)")
    assert step(m) == normalize(m) == cal.Zero(None)  # y is unbound: no type to annotate with
    assert normalize(m, env={"y": Nat(0)}) == parse("0[nat]")  # normal forms key on the environment


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


def test_substitution_renames_a_capturing_binder():
    assert cal.subst(parse("\\y:nat. x"), "x", cal.Var("y")) == parse("\\y_0:nat. y")
    assert cal.fresh("y", {"y", "y_0"}) == "y_1"


def test_alpha_equivalence_under_binders():
    assert alpha_eq(parse("\\x:nat. x"), parse("\\y:nat. y"))
    assert not alpha_eq(parse("\\x:nat. \\y:nat. x"), parse("\\x:nat. \\y:nat. y"))
    assert not alpha_eq(parse("\\x:nat. x"), parse("\\x:D nat. x"))  # binder types differ


def test_sum_of_projected_functions_types():
    assert typecheck(parse("pi0 (\\x:nat. iota0 x) + pi1 (\\y:nat. iota0 y)")) == ty("nat => nat")


def test_derivative_through_fix_keeps_its_type():
    m = parse("D (\\x:nat. fix (\\z:nat. x))")
    n = step(m)
    assert n is not None and typecheck(n) == typecheck(m) == ty("D nat => D nat")


def test_derivative_of_a_shadowing_lambda_is_constant():
    """D under a λ that rebinds the differentiated variable: the body is constant in it."""
    m = step(parse(r"D (\x:nat. \x:nat. x)"))
    assert m == parse(r"\y:D nat. iota0 (\x:nat. x)")
    assert typecheck(m) == ty("D nat => D (nat => nat)")


def test_derivative_through_an_ill_typed_fix_is_undefined():
    """dlet cannot type a fix body with an unbound variable; step then reduces inside the D."""
    with pytest.raises(cal.DletUndefined, match="cannot type fix body"):
        cal.dlet("x", cal.Var("y"), parse(r"fix (\y:nat. z)"), {"x": Nat(0)})
    m = parse(r"D (\x:nat. fix (\y:nat. z))")
    assert step(m) == parse(r"D (\x:nat. (\y:nat. z) (fix (\y:nat. z)))")


def test_sum_of_an_unfolded_sigma_types_by_folding_it_back():
    """The sum normalizes to pi0 (pi0 x) + pi1 (pi0 x) + pi0 (pi1 x), which no schema
    types until ``_parts_type`` folds the three back into pi0 (sigma x) + pi1 (sigma x)."""
    m = parse(r"\x:D D nat. pi0 (pi0 x) + pi1 (sigma x)")
    assert typecheck(m) == ty("D D nat => nat")


def test_derivative_through_if0_does_not_step():
    """The linear substitution is undefined through if0: the derivative is stuck, not an error."""
    assert step(parse("D (\\x:nat. if0 x 1 2)")) is None


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


# -- sum typing and normal forms are shared across calls, exactly and boundedly --


def reducts(m, steps=60):
    """The terms m reduces to within the corpus benchmark's 60 steps."""
    out = []
    for _ in range(steps):
        m = step(m)
        if m is None:
            break
        out.append(m)
    return out


def outcome(m):
    """typecheck's type for m, or the text of its type error."""
    try:
        return typecheck(m)
    except TypeError_ as e:
        return str(e)


def cache_sizes():
    """The sizes of the parts memo and of normalize's table."""
    return [cal._parts_outcome.cache_info().currsize, len(cal._NORMAL_FORMS)]


def clear_caches():
    cal._parts_outcome.cache_clear()
    cal._NORMAL_FORMS.clear()


def test_memo_types_each_sum_once_per_call(monkeypatch):
    """Corpus term 1530's reducts, from empty tables: successive reducts share their
    sums' normal forms.  A table per typecheck call took 6,354 typing rules and 840
    normalizations; no table at all took 372,078 typing rules and normalized 371,580
    summands."""
    m, t = make_corpus(seed=0, count=1600)[1530]
    rs = reducts(m)
    clear_caches()
    counts = {"_ty": 0, "normalize": 0}
    for name in counts:
        def counting(*args, name=name, fn=getattr(cal, name), **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(cal, name, counting)
    for r in rs:
        assert typecheck(r) == t, to_text(r)
    assert len(rs) == 30
    assert counts["_ty"] <= 1_000
    assert counts["normalize"] <= 200


def test_memo_keys_on_the_environment():
    # the sum s, typed through normal forms, is met under x : D D nat, then under x : D nat
    s = "pi0 ((\\y:D nat. y) x) + pi1 x"
    assert has_type(f"(\\f:D nat => nat. \\x:D D nat. {s}) (\\x:D nat. {s})", "D D nat => D nat")


FUELS = (1, 2, 3, 5, 8, 13, 40)


def corpus_trajectories(count=400):
    """Each term of make_corpus(0, count) with its reducts."""
    return [[m, *reducts(m)] for m, _ in make_corpus(seed=0, count=count)]


def walk_by_steps(m, fuel=1000, env=None):
    """normalize without its table: fuel steps at most, each by step."""
    for _ in range(fuel):
        n = step(m, env)
        if n is None:
            return m
        m = n
    raise FuelExhausted(f"no normal form within {fuel} steps: {to_text(m)}")


def nf_outcome(m, fuel, walker=normalize):
    """walker's normal form for m within fuel, or the text of its FuelExhausted."""
    try:
        return walker(m, fuel=fuel)
    except FuelExhausted as e:
        return str(e)


def test_memo_agrees_with_unmemoized_typing(monkeypatch):
    """Oracle: the parts memo changes no type and no error text on corpus reducts."""
    terms = [r for path in corpus_trajectories() for r in path]
    cached = [outcome(r) for r in terms]
    monkeypatch.setattr(cal, "_parts_outcome", cal._parts_outcome.__wrapped__)
    assert [outcome(r) for r in terms] == cached
    assert len(terms) > 2000


def test_memo_agrees_with_unmemoized_typing_with_the_table_empty(monkeypatch):
    """The oracle holds with normalize's table unread too, and that table alone changes no outcome."""
    terms = [r for path in corpus_trajectories() for r in path]
    cached = [outcome(r) for r in terms]
    with monkeypatch.context() as mp:
        mp.setattr(cal, "normalize", walk_by_steps)
        assert [outcome(r) for r in terms] == cached
    monkeypatch.setattr(cal, "normalize", walk_by_steps)
    monkeypatch.setattr(cal, "_parts_outcome", cal._parts_outcome.__wrapped__)
    assert [outcome(r) for r in terms] == cached


def test_normal_form_table_is_fuel_exact():
    """Oracle: the table changes no normal form and no FuelExhausted message, at any fuel,
    whether the fuels come in rising or in falling order."""
    cases = [(r, fuel) for path in corpus_trajectories() for r in path for fuel in FUELS]
    want = [nf_outcome(r, fuel, walk_by_steps) for r, fuel in cases]
    for order in (range(len(cases)), reversed(range(len(cases)))):
        clear_caches()
        got = {i: nf_outcome(*cases[i]) for i in order}
        assert [i for i in got if got[i] != want[i]] == []
    assert len(cases) > 20_000


SUM_BY_NORMAL_FORMS = "pi0 (iota0 1) + pi1 ((\\x:D nat. x) (iota0 1))"


@pytest.mark.parametrize("error, stored", [(RecursionError, False), (FuelExhausted, True)])
def test_only_depth_independent_failures_are_stored(monkeypatch, error, stored):
    """A summand walk that runs out of fuel is a fact about the summand, kept in normalize's
    table and read back as the sum's type error; a RecursionError depends on the stack depth,
    so it reaches typecheck's caller and is kept nowhere."""
    m = parse(f"succ ({SUM_BY_NORMAL_FORMS})")
    clear_caches()
    calls = []

    def failing(n, env=None):
        calls.append(n)
        if error is RecursionError:
            raise error
        return n  # a walk that never reaches a normal form

    with monkeypatch.context() as mp:
        mp.setattr(cal, "step", failing)
        per_call = []
        for _ in range(2):
            with pytest.raises(TypeError_ if stored else RecursionError):
                typecheck(m)
            per_call.append(len(calls) - sum(per_call))
        assert cache_sizes() == [0, int(stored)]
        assert per_call == ([300, 0] if stored else [1, 1])  # a stored failure is read, not recomputed
    clear_caches()  # the stored failure is the patched step's, not the summand's
    assert typecheck(m) == Nat(0)


def test_walk_that_absorbs_a_recursion_error_stores_nothing(monkeypatch):
    """No walk absorbs a RecursionError: one met while typing a reduct reaches
    normalize's caller, and neither table keeps anything."""
    m = parse(f"pi1 (iota0 ({SUM_BY_NORMAL_FORMS}))")  # steps to a zero annotated with the sum's type
    walk = cal.normalize  # the real one: only the nested calls below meet the patch
    clear_caches()

    def failing(*args, **kwargs):
        raise RecursionError

    with monkeypatch.context() as mp:
        mp.setattr(cal, "normalize", failing)
        with pytest.raises(RecursionError):
            walk(m)
    assert cache_sizes() == [0, 0]
    assert normalize(m) == cal.Zero(Nat(0))
    assert all(cache_sizes())


def test_normal_form_table_stays_bounded():
    """Two typing passes over the corpus reducts: both tables stay within their caps, memory stays flat.

    The reducts of 400 terms reach only about 200 distinct sets of normal-form parts, so the
    parts memo is filled from 1600."""
    terms = [r for path in corpus_trajectories(1600) for r in path]
    caps = [cal._parts_outcome.cache_info().maxsize, cal._NORMAL_FORMS_CAP]
    assert caps == [256, 1024]
    clear_caches()
    gc.collect()
    tracemalloc.start()
    try:
        traced = [tracemalloc.get_traced_memory()[0]]
        for _ in range(2):
            for r in terms:
                outcome(r)
                assert all(size <= cap for size, cap in zip(cache_sizes(), caps))
            gc.collect()
            traced.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    assert cache_sizes() == caps
    before, first, second = traced
    assert first - before <= 1_000_000  # the full tables
    assert second - first <= 50_000


CORPUS_NF_SCRIPT = """
from cohdiff.calculus import step, to_text, ty_to_text, typecheck
from cohdiff.corpus import make_corpus

for i, (m, _) in enumerate(make_corpus(seed=0, count=200)):
    for _ in range(60):
        n = step(m)
        if n is None:
            break
        m = n
        typecheck(m)
    print(f"{i}\\t{to_text(m)}\\t{ty_to_text(typecheck(m))}")
"""


@pytest.mark.parametrize("hash_seed", ["1", "12345"])
def test_corpus_normal_forms_do_not_depend_on_hashing(hash_seed):
    """Reduce and type every reduct, as the corpus benchmark does; no output may depend on the hash seed."""
    env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=SRC)
    cmd = [sys.executable, "-c", CORPUS_NF_SCRIPT]
    out = subprocess.run(cmd, env=env, capture_output=True, text=True, check=True).stdout
    with open(os.path.join(GOLDEN, "corpus-nf-0-200.txt")) as fh:
        assert out == fh.read()


# -- representation --------------------------------------------------------


def test_constructors_with_equal_fields_are_unequal():
    x, y = cal.Var("x"), cal.Var("y")
    assert cal.App(x, y) != cal.Plus(x, y)
    assert Nat(0) != cal.Num(0)
    assert cal.DTerm(x) != cal.Fix(x)
    assert cal.SigmaT(0, x) != cal.CTerm(0, x)
    assert cal.Proj(0, 0, x) != cal.Inj(0, 0, x)
    assert len({cal.App(x, y), cal.Plus(x, y), Nat(0), cal.Num(0)}) == 4


def test_defaults_fill_trailing_fields():
    assert cal.Zero() == cal.Zero(None)
    assert Nat() == Nat(0)


def test_terms_and_types_are_immutable():
    m = parse("\\x:nat. x")
    with pytest.raises(AttributeError):
        m.var = "y"
    with pytest.raises(AttributeError):
        m.extra = 1
    with pytest.raises(AttributeError):
        m.ty.depth = 1


def test_hashing_a_deep_term_calls_no_python_code():
    m = cal.Var("x")
    for _ in range(1000):
        m = cal.DTerm(m)
    twin = cal.DTerm(m.body)
    calls = []
    sys.setprofile(lambda frame, event, arg: calls.append(frame.f_code.co_name) if event == "call" else None)
    try:
        hash(m)
        same = m == twin
    finally:
        sys.setprofile(None)
    assert same and calls == []


def test_types_print_in_the_input_syntax():
    for src in ["nat", "D D nat", "(nat => D nat) => nat", "nat => nat => D nat"]:
        t = ty(src)
        assert repr(t) == str(t) == src
        assert parse_type(repr(t)) == t


# -- reduction has no history -----------------------------------------------


def reduce_corpus(terms, order):
    """index -> (normal form, its type, its COH denotation), reducing in the given order.

    Each term takes at most 60 steps, as in the corpus benchmark.
    """
    sem = SemEnv(kind="coh", nmax=3, budget=Budget(3))
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
