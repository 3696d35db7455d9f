"""Multisets, atoms and raw relations."""

import gc
import weakref
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from cohdiff import web_core
from cohdiff.calculus import parse, parse_type
from cohdiff.spaces import Bang, BaseSpace, SFun, Tensor, With, enumerate_web, parse_space_expr
from cohdiff.web_core import (
    STAR,
    AtomParseError,
    Base,
    Budget,
    Multiset,
    Pair,
    Rel,
    Tag,
    atom_from_text,
    atom_key,
    atom_to_text,
    degree,
    rel_compose,
    rel_from_text,
    rel_to_text,
    within_budget,
)

a, b, c = Base("a"), Base("b"), Base("c")


def test_multiset_equality_ignores_order():
    assert Multiset.of([a, b, a]) == Multiset.of([b, a, a])
    assert Multiset.of([a, b, a]) != Multiset.of([a, b])


def test_multiset_sum_matches_counter():
    # independent oracle: collections.Counter addition
    m = Multiset.of([a, a, b])
    n = Multiset.of([b, c])
    got = Counter(dict((m + n).entries))
    want = Counter(dict(m.entries)) + Counter(dict(n.entries))
    assert got == want


def test_multiset_subtraction():
    m = Multiset.of([a, a, b])
    assert m - Multiset.of([a]) == Multiset.of([a, b])
    with pytest.raises(ValueError, match="went negative"):
        Multiset.of([a]) - Multiset.of([a, a])


def test_support():
    assert set(Multiset.of([a, a, b]).support) == {a, b}
    assert Multiset.of([]).support == ()


atoms = st.deferred(
    lambda: st.one_of(
        st.sampled_from([a, b, c]),
        st.builds(Pair, atoms, atoms),
        st.builds(Tag, st.integers(0, 1), atoms),
        st.builds(lambda xs: Multiset.of(xs), st.lists(atoms, max_size=3)),
    )
)


@given(atoms)
def test_atom_text_round_trip(x):
    assert atom_from_text(atom_to_text(x)) is x


def test_equal_atoms_are_one_object():
    assert Base("a") is Base("a")
    assert Pair(Tag(0, a), Multiset.of([b])) is Pair(Tag(0, a), Multiset.of([b]))
    assert Multiset.of([a, b]) is Multiset.of([b, a])
    assert Pair(a, b) is not Pair(b, a)


@given(st.lists(atoms, max_size=5).flatmap(lambda xs: st.tuples(st.just(xs), st.permutations(xs))))
def test_mset_of_any_permutation_is_one_object(xs_ys):
    xs, ys = xs_ys
    assert Multiset.of(xs) is Multiset.of(ys)


@pytest.mark.parametrize(
    "value, attr",
    [
        (a, "sym"),
        (Tag(0, a), "inner"),
        (Pair(a, b), "left"),
        (Multiset.of([a]), "support"),
        (Multiset.of([a]), "entries"),
    ],
    ids=repr,
)
def test_interned_values_are_immutable(value, attr):
    with pytest.raises(AttributeError):
        setattr(value, attr, b)
    with pytest.raises(AttributeError):
        delattr(value, attr)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert not hasattr(value, "__dict__")


def test_dropped_atoms_leave_the_table():
    """The table holds its atoms weakly, so it never outgrows the live atoms.

    ``atom_key``'s lru_cache keeps the atoms it has keyed alive, so it
    is cleared before each count.
    """

    def build():
        x = Base("built-here")
        m = Multiset.of([x, Pair(x, STAR), x])
        return [weakref.ref(v) for v in (x, Tag(1, x), Pair(x, STAR), m)]

    atom_key.cache_clear()
    gc.collect()
    before = len(web_core._TABLE)
    refs = build()
    atom_key.cache_clear()
    gc.collect()
    assert all(r() is None for r in refs)
    assert len(web_core._TABLE) == before


@pytest.fixture
def atom_key_calls(monkeypatch):
    """Count the calls into ``atom_key`` made through ``web_core``'s global."""
    calls = []

    def counting(x):
        calls.append(x)
        return atom_key(x)

    monkeypatch.setattr(web_core, "atom_key", counting)
    return calls


def test_building_an_existing_multiset_makes_no_atom_key_call(atom_key_calls):
    """A hit is a table lookup on the count map: no sort, so no ``atom_key``."""
    m = Multiset.of([a, b, a, Pair(a, b), Multiset.of([c])])
    n = Multiset.of([b, c])
    total, empty = m + n, Multiset()
    atom_key_calls.clear()
    built = [
        Multiset.of([Multiset.of([c]), a, Pair(a, b), b, a]),
        Multiset.from_counts([(b, 1), (Pair(a, b), 1), (a, 2), (Multiset.of([c]), 1)]),
        Multiset.from_counts(dict(reversed(m.entries))),
        Multiset(tuple(reversed(m.entries))),
        n + m,
        total - n,
        m - m,
        Multiset(),
    ]
    assert built == [m, m, m, m, total, m, empty, empty]
    assert atom_key_calls == []
    Multiset.of([Base("new-here"), a])  # a miss sorts, so the counter does see it
    assert atom_key_calls


def test_subtraction_hands_on_no_zero_count(monkeypatch):
    """``-`` drops an entry that reaches 0, so only the miss path meets counts ≤ 0."""
    seen = []
    from_counts = Multiset.from_counts
    monkeypatch.setattr(Multiset, "from_counts", staticmethod(lambda counts: seen.append(dict(counts)) or from_counts(counts)))
    m = Multiset.of([a, a, b])
    assert m - Multiset.of([a, b]) is Multiset.of([a])
    assert m - m is Multiset()
    assert seen and all(n > 0 for counts in seen for n in counts.values())


def test_zero_and_negative_counts_give_the_canonical_object():
    assert Multiset.from_counts([(a, 1), (a, -1), (b, 1)]) is Multiset.of([b])
    assert Multiset.from_counts({a: 0, b: 1, c: -2}) is Multiset.of([b])
    assert Multiset.from_counts({a: 0}) is Multiset()
    m = Multiset.of([a, b, b])
    assert m - m is Multiset()
    assert Multiset(((b, 2), (a, 1))) is m
    assert m.entries == ((a, 1), (b, 2))
    keys = [k for k in list(web_core._TABLE) if isinstance(k, frozenset)]
    assert keys and all(n > 0 for k in keys for _, n in k)


@given(st.lists(st.tuples(atoms, st.integers(-2, 3)), max_size=6))
def test_from_counts_sums_and_drops_like_counter(pairs):
    """Oracle: ``Counter`` sums the pairs; the multiset keeps its positive counts."""
    want = Counter()
    for x, n in pairs:
        want[x] += n
    got = Multiset.from_counts(pairs)
    assert got is Multiset.of(list((+want).elements()))
    assert got is Multiset(reversed(pairs))
    assert [x for x, _ in got.entries] == sorted(got.support, key=atom_key)


def test_a_stale_callback_never_evicts_a_live_object():
    """A dead ref whose key a new object has taken leaves that object's entry alone."""

    class Gone:
        pass

    x = Base("re-created")
    key = (Base, "re-created")
    live = web_core._TABLE[key]
    before = len(web_core._TABLE)
    gone = Gone()
    stale = web_core._Ref(gone, live.__callback__)
    stale.key = key
    del gone  # the stale ref dies now, and its callback runs
    assert stale() is None
    assert web_core._TABLE[key] is live
    assert Base("re-created") is x
    assert len(web_core._TABLE) == before
    del x
    gc.collect()
    assert key not in web_core._TABLE
    assert len(web_core._TABLE) == before - 1


@pytest.mark.parametrize(
    "build",
    [
        lambda: Pair("a", STAR),
        lambda: Pair(STAR, 3),
        lambda: Tag(0, 3),
        lambda: Base(3),
        lambda: Multiset.of(["a"]),
        lambda: Multiset(((a, 1), ("a", 1))),
        lambda: atom_key(5),
        lambda: degree(5),
        lambda: within_budget(5, 3),
        lambda: atom_to_text(5),
    ],
    ids=["pair-left", "pair-right", "tag", "base", "mset-atom", "mset-of", "atom_key", "degree", "within_budget", "atom_to_text"],
)
def test_non_atoms_are_rejected(build):
    with pytest.raises(TypeError):
        build()


def test_tag_index_is_0_or_1():
    with pytest.raises(ValueError):
        Tag(2, a)


@given(st.lists(atoms, max_size=4))
def test_degree_of_mset_sums_elements(xs):
    assert degree(Multiset.of(xs)) == sum(degree(x) for x in xs) + len(xs)


def test_degree_base_cases():
    assert degree(a) == 0
    assert degree(Pair(a, b)) == 0
    assert degree(Tag(1, a)) == 0
    assert degree(Multiset.of([a, b])) == 2
    assert degree(Multiset.of([Multiset.of([a])])) == 2


def test_atom_text_accepts_star_and_blanks():
    assert atom_from_text("*") is STAR
    assert atom_from_text(" ( a , b ) ") is Pair(a, b)


@pytest.mark.parametrize(
    "text, error",
    [
        ("(a,", "expected an atom at position 3 in '(a,'"),
        ("a b", "trailing input at position 2 in 'a b'"),
    ],
)
def test_atom_text_errors_name_their_position(text, error):
    with pytest.raises(AtomParseError) as e:
        atom_from_text(text)
    assert str(e.value) == error


def _space_expr(text):
    E = BaseSpace("coh", (a,))
    return parse_space_expr(text, {"E": E, "F": E})


@pytest.mark.parametrize(
    "read, text, error",
    [
        (atom_from_text, "(a;b)", "bad character ';' at position 2 in '(a;b)'"),
        (atom_from_text, "[a, b ", "expected ']' at position 6 in '[a, b '"),
        (atom_from_text, "(a,b) c", "trailing input at position 6 in '(a,b) c'"),
        (_space_expr, "E $ F", "bad character '$' at position 2 in 'E $ F'"),
        (_space_expr, "E (x) ", "unexpected end of input at position 6 in 'E (x) '"),
        (_space_expr, "!E F", "trailing tokens at 'F' at position 3 in '!E F'"),
        (parse, "0[?]", "bad character '?' at position 2 in '0[?]'"),
        (parse, "f x +  ", "unexpected end of input at position 7 in 'f x +  '"),
        (parse, "(f x) )", "trailing tokens at ')' at position 6 in '(f x) )'"),
        (parse_type, "nat => D", "unexpected end of input at position 8 in 'nat => D'"),
        (parse_type, "nat nat", "trailing tokens at 'nat' at position 4 in 'nat nat'"),
        # a text of several lines names the line and column, and quotes that line only
        (parse, "(f\n  ?)", "bad character '?' at line 2, column 3 in '  ?)'"),
        (parse, "f x\n+  ", "unexpected end of input at line 2, column 4 in '+  '"),
    ],
)
def test_parse_errors_name_their_position(read, text, error):
    """Atoms, space expressions, terms and types report where their text went wrong."""
    with pytest.raises(ValueError) as e:
        read(text)
    assert str(e.value) == error


def _degree_by_recursion(x):
    """degree as first written: entries plus the degrees of the elements, through tags and pairs."""
    if isinstance(x, Base):
        return 0
    if isinstance(x, Tag):
        return _degree_by_recursion(x.inner)
    if isinstance(x, Pair):
        return _degree_by_recursion(x.left) + _degree_by_recursion(x.right)
    return len(x) + sum(n * _degree_by_recursion(y) for y, n in x.entries)


def _within_budget_by_recursion(x, d):
    """within_budget as first written: each multiset nested in x is tested on its own."""
    if isinstance(x, Base):
        return True
    if isinstance(x, Tag):
        return _within_budget_by_recursion(x.inner, d)
    if isinstance(x, Pair):
        return _within_budget_by_recursion(x.left, d) and _within_budget_by_recursion(x.right, d)
    return _degree_by_recursion(x) <= d and all(_within_budget_by_recursion(y, d) for y, _ in x.entries)


@pytest.mark.parametrize("kind, sizes", [("coh", (48, 185, 344, 96)), ("rel", (48, 185, 480, 96))])
def test_within_budget_agrees_with_recursion_into_multisets(kind, sizes):
    """A multiset within the bound bounds every multiset nested in it, under tags and pairs too.

    So ``peak`` is the least bound the recursion accepts, and ``deg`` is
    the recursive degree.
    """
    X = BaseSpace(kind, (a, b), scoh={(a, b)} if kind == "coh" else ())
    webs = [Bang(Bang(X)), Bang(Tensor(X, Bang(X))), Bang(With(SFun(X), Bang(X))), SFun(Bang(Bang(X)))]
    atoms = [enumerate_web(E, Budget(5)) for E in webs]
    assert tuple(map(len, atoms)) == sizes
    for x in (x for web in atoms for x in web):
        assert x.deg == _degree_by_recursion(x) == degree(x), x
        assert x.peak == min(d for d in range(6) if _within_budget_by_recursion(x, d)), x
        for d in range(6):
            assert within_budget(x, d) == _within_budget_by_recursion(x, d), (x, d)


def test_within_budget():
    assert within_budget(Multiset.of([a, a, b]), 3)
    assert not within_budget(Multiset.of([a, a, b]), 2)
    # pair components are budgeted separately, not added together
    assert within_budget(Pair(Multiset.of([a, a]), Multiset.of([b, b])), 2)
    assert not within_budget(Pair(Multiset.of([a]), Multiset.of([b, b])), 1)


def test_rel_compose_matches_naive():
    r = Rel(frozenset({(a, b), (a, c), (b, c)}))
    s = Rel(frozenset({(b, a), (c, c)}))
    got = rel_compose(r, s).pairs
    want = {(x, z) for x, y in r.pairs for y2, z in s.pairs if y == y2}
    assert got == frozenset(want)


def test_rel_text_round_trip():
    r = Rel(frozenset({(Multiset.of([a, a]), b), (Multiset.of([]), c)}))
    assert rel_from_text(rel_to_text(r)).pairs == r.pairs


def test_rel_to_text_is_sorted():
    r = Rel(frozenset({(b, a), (a, b)}))
    lines = rel_to_text(r).splitlines()
    assert lines == sorted(lines)


@pytest.mark.parametrize("bounds", [(-1,), (3, -1)])
def test_negative_budget_bounds_are_rejected(bounds):
    with pytest.raises(ValueError, match="nonnegative"):
        Budget(*bounds)


def test_budget_is_hashable_and_frozen():
    assert Budget(3, 100) == Budget(3, 100)
    assert len({Budget(3, 100), Budget(3, 100), Budget(2, 100)}) == 2
