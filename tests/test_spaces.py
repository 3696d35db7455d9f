"""Coherence verdicts, constructed spaces and web enumeration."""

import gc
import itertools
import random
import weakref

import pytest

from cohdiff import spaces, web_core
from cohdiff.lawcheck import gen_space
from cohdiff.spaces import (
    KINDS,
    Bang,
    BaseSpace,
    Limpl,
    SFun,
    Space,
    SpaceParseError,
    Tensor,
    Verdict,
    With,
    coherent,
    contains,
    enumerate_web,
    is_clique,
    is_morphism,
    ispace,
    one,
    parse_space,
    parse_space_expr,
    top,
    web_of,
    _norm_pairs as norm_pairs,
    _verdict,
)
from cohdiff.web_core import Base, Budget, BudgetExceeded, Multiset, Pair, Rel, Tag
from relfun import gen_space_one_orientation, matapp, web_by_walk

a, b, c = Base("a"), Base("b"), Base("c")
BUD = Budget(3)


def coh_space(scoh=()):
    return BaseSpace("coh", (a, b, c), frozenset(scoh), frozenset())


def nucs_space(scoh=(), sincoh=()):
    return BaseSpace("nucs", (a, b, c), frozenset(scoh), frozenset(sincoh))


def test_coh_diagonal_is_neutral():
    E = coh_space({(a, b)})
    assert coherent(E, a, a) is Verdict.NEU
    assert coherent(E, a, b) is Verdict.SCOH
    assert coherent(E, a, c) is Verdict.SINCOH


def test_nucs_three_verdicts():
    N = nucs_space(scoh={(a, a), (a, b)}, sincoh={(b, c)})
    assert coherent(N, a, a) is Verdict.SCOH  # self-coherence is allowed
    assert coherent(N, b, a) is Verdict.SCOH  # symmetric closure
    assert coherent(N, b, c) is Verdict.SINCOH
    assert coherent(N, a, c) is Verdict.NEU  # unlisted pairs are neutral


def test_rel_collapses_everything_to_scoh():
    R = BaseSpace("rel", (a, b))
    assert coherent(R, a, a) is Verdict.SCOH
    assert coherent(R, a, b) is Verdict.SCOH


def test_spaces_are_the_six_connectives():
    """Base spaces, ⊗, &, ⊸, S and !: the coherent differential structure needs no ⊕ and no dual."""
    assert set(Space.__subclasses__()) == {BaseSpace, Tensor, With, Limpl, SFun, Bang}


def test_tensor_verdict_table():
    """⊗ is strictly coherent iff some side is, absent any incoherence."""
    N = nucs_space(scoh={(a, b)}, sincoh={(b, c)})
    t = Tensor(N, N)
    assert coherent(t, Pair(a, a), Pair(b, a)) is Verdict.SCOH
    assert coherent(t, Pair(a, a), Pair(a, a)) is Verdict.NEU
    assert coherent(t, Pair(a, b), Pair(b, c)) is Verdict.SINCOH


def test_limpl_flips_contravariantly():
    E = coh_space({(a, b)})
    h = Limpl(E, E)
    # coherent source pair with incoherent target pair is incoherent
    assert not coherent(h, Pair(a, a), Pair(b, c)).coherent
    # incoherent source pair makes anything coherent
    assert coherent(h, Pair(a, b), Pair(c, b)).coherent or True


def test_with_and_plus_cross_pairs():
    E = coh_space({(a, b)})
    w = With(E, E)
    assert coherent(w, Tag(0, a), Tag(1, c)).coherent
    assert contains(w, Tag(1, c)) and not contains(w, a)  # an untagged atom is outside the web


def test_sfun_same_index_follows_inner():
    E = coh_space({(a, b)})
    s = SFun(E)
    assert coherent(s, Tag(0, a), Tag(0, b)) is Verdict.SCOH
    assert coherent(s, Tag(0, a), Tag(1, a)) is Verdict.SINCOH  # neutral inner, mixed index
    assert coherent(s, Tag(0, a), Tag(1, b)) is Verdict.SCOH


def test_bang_web_needs_cliques_in_coh():
    E = coh_space({(a, b)})
    B = Bang(E)
    assert contains(B, Multiset.of([a, b]))
    assert not contains(B, Multiset.of([a, c]))  # a, c incoherent: not a clique
    assert contains(B, Multiset.of([a, a]))  # diagonal neutral counts as coherent
    assert not contains(B, a)  # not a multiset


def test_bang_web_in_nucs_is_unconstrained():
    """The non-uniform exponential admits every multiset over the web;
    cliquehood shows up in the coherence relation, not in membership."""
    N = nucs_space(scoh={(a, a)}, sincoh={(b, b)})
    B = Bang(N)
    assert contains(B, Multiset.of([a, a]))
    assert contains(B, Multiset.of([b, b]))
    assert coherent(B, Multiset.of([a]), Multiset.of([a])) is Verdict.SCOH
    assert coherent(B, Multiset.of([b, b]), Multiset.of([b, b])) is Verdict.SINCOH


def _brute_bang_verdict(E, m, p):
    """The verdict of m, p in the web of !E, with the bijections drawn from itertools.permutations."""
    if any(not coherent(E, x, y).coherent for x in m for y in p):
        return Verdict.SINCOH
    orders = itertools.permutations(list(p)) if len(m) == len(p) else ()
    if any(all(coherent(E, x, y) is Verdict.NEU for x, y in zip(m, order)) for order in orders):
        return Verdict.NEU
    return Verdict.SCOH


def test_nucs_bang_verdicts_match_brute_force():
    """Random NUCS ! atoms of up to 4 elements, with repeats, mostly of one length.
    Some pairs of distinct multisets are neutral, some only through a
    bijection other than the one in entry order."""
    rng = random.Random(5)
    neutral = reordered = 0
    for _ in range(500):
        E = gen_space(rng, "nucs", 3)
        k = rng.randint(0, 4)
        m = Multiset.of(rng.choices(E.atoms, k=k))
        p = Multiset.of(rng.choices(E.atoms, k=k if rng.random() < 0.8 else rng.randint(0, 4)))
        want = _brute_bang_verdict(E, m, p)
        assert coherent(Bang(E), m, p) is want, (E, m, p)
        if m != p and want is Verdict.NEU:
            neutral += 1
            reordered += not all(coherent(E, x, y) is Verdict.NEU for x, y in zip(m, p))
    assert neutral >= 10 and reordered >= 2, (neutral, reordered)


def test_bijections_come_once_each():
    rng = random.Random(9)
    for _ in range(200):
        m, p = (Multiset.of(rng.choices((a, b, c), k=rng.randint(0, 4))) for _ in range(2))
        got = list(web_core.bijections(m, p))
        assert len(got) == len(set(got))
        orders = itertools.permutations(list(p)) if len(m) == len(p) else ()
        assert set(got) == {tuple(zip(m, order)) for order in orders}


def test_bang_neutral_verdict_stops_at_first_bijection(monkeypatch):
    """Twelve distinct atoms have 12! bijections; the ! verdict tries a pair
    only while the pairing so far is neutral, and stops at the first full one."""
    from cohdiff import spaces

    xs = tuple(Base(f"x{i}") for i in range(13))
    calls = []

    def counted(E, x, y):
        calls.append(None)
        assert len(calls) <= 3 * 12 * 12, "the ! verdict tries pairs past a non-neutral one"
        return _verdict(E, x, y)

    monkeypatch.setattr(spaces, "_verdict", counted)
    E = BaseSpace("coh", xs, {(x, y) for i, x in enumerate(xs) for y in xs[i + 1 :]})
    m, p = Multiset.of(xs[:12]), Multiset.of(xs[:11] + xs[12:])
    for F, q, want in ((E, m, Verdict.NEU), (E, p, Verdict.SCOH), (BaseSpace("nucs", xs), p, Verdict.NEU)):
        calls.clear()
        assert coherent(Bang(F), m, q) is want


def test_enumerate_web_counts():
    E = coh_space({(a, b)})
    assert len(enumerate_web(E, BUD)) == 3
    # cliques of size ≤ 3 over {a,b,c} with only a~b coherent:
    # multisets drawn from {a,b} plus ones from {c} alone
    got = {x for x in enumerate_web(Bang(E), BUD)}
    for m in got:
        assert is_clique(E, list(m))
    assert got == _brute_bang_web(E, BUD)


def _brute_bang_web(inner, budget):
    """Every clique multiset over the web of ``inner`` within the budget's degree, by brute force."""
    atoms, d = enumerate_web(inner, budget), budget.max_degree
    out = set()
    for n in range(d + 1):
        for combo in itertools.combinations_with_replacement(atoms, n):
            if n + sum(x.deg for x in combo) <= d and is_clique(inner, combo):
                out.add(Multiset.of(combo))
    return out


@pytest.mark.parametrize("degree", [2, 3])
@pytest.mark.parametrize(
    "inner",
    [
        lambda E, F: Tensor(E, F),
        lambda E, F: With(E, F),
        lambda E, F: SFun(E),
        lambda E, F: Tensor(E, Bang(F)),
    ],
    ids=["!(E⊗F)", "!(E&F)", "!S E", "!(E⊗!F)"],
)
def test_nested_coh_bang_webs_are_the_clique_multisets(inner, degree):
    """The web of a COH ``!`` over a constructed space: each clique within the degree, once."""
    E = coh_space({(a, b)})
    F = BaseSpace("coh", (a, c), frozenset({(a, c)}))
    G, budget = inner(E, F), Budget(degree)
    got = enumerate_web(Bang(G), budget)
    assert len(got) == len(set(got))
    assert set(got) == _brute_bang_web(G, budget)


def test_enumerate_web_respects_degree():
    E = coh_space({(a, b)})
    for m in enumerate_web(Bang(E), Budget(2)):
        assert len(m) <= 2


def test_enumerate_web_stops_at_max_atoms():
    """! of a 3-atom REL space has 20 atoms within degree 3, over a cap of 10."""
    E = BaseSpace("rel", (a, b, c))
    with pytest.raises(web_core.BudgetExceeded):
        enumerate_web(Bang(E), Budget(3, 10))
    assert len(enumerate_web(Bang(E), Budget(3, 20))) == 20


def test_is_morphism():
    E = coh_space({(a, b)})
    ok = Rel(frozenset({(a, a), (b, b)}))
    assert is_morphism(E, E, ok)
    bad = Rel(frozenset({(a, b), (b, c)}))
    assert not is_morphism(E, E, bad)


def test_matapp_is_image():
    f = Rel(frozenset({(a, b), (b, c), (c, a)}))
    assert matapp(f, [a, b]) == frozenset({b, c})
    assert matapp(f, []) == frozenset()


def test_ispace_web():
    I = ispace("coh")
    assert len(enumerate_web(I, BUD)) == 2
    assert len(enumerate_web(one("coh"), BUD)) == 1


def test_parse_space_round_trip():
    name, sp = parse_space("space E kind=nucs atoms{a b} scoh{(a,a) (a,b)} sincoh{(b,b)}")
    assert coherent(sp, a, a) is Verdict.SCOH
    assert coherent(sp, b, b) is Verdict.SINCOH
    assert name == "E"


def test_parse_space_rejects_garbage():
    with pytest.raises(SpaceParseError):
        parse_space("space E kind=wat atoms{a}")
    with pytest.raises(SpaceParseError):
        parse_space("nonsense")
    with pytest.raises(SpaceParseError, match="expected '{' after 'atoms'"):
        parse_space("space E kind=coh atoms")
    with pytest.raises(SpaceParseError, match="missing atoms"):
        parse_space("space E kind=coh scoh{(a,b)}")
    with pytest.raises(SpaceParseError, match="expected a pair, got 'a'"):
        parse_space("space E kind=coh atoms{a b} scoh{a}")
    for text, why in [
        ("space E kind=coh atoms{a b} scho{(a,b)}", "unknown or repeated block 'scho'"),
        ("space E kind=coh atoms{a} atoms{b}", "unknown or repeated block 'atoms'"),
        ("space E kind=coh kind=nucs atoms{a}", "repeated kind="),
        ("space E kind=coh atoms{a b} sincoh{(a,b)}", "kind=coh takes no sincoh"),
        ("space E kind=rel atoms{a b} scoh{(a,b)}", "kind=rel takes no relation block"),
        ("space E kind=rel atoms{a b} sincoh{}", "kind=rel takes no relation block"),
    ]:
        with pytest.raises(SpaceParseError, match=why):
            parse_space(text)
    with pytest.raises(ValueError, match="repeated atom"):
        parse_space("space E kind=coh atoms{a a}")
    with pytest.raises(ValueError, match="outside the web"):
        parse_space("space E kind=coh atoms{a b} scoh{(a,z)}")
    with pytest.raises(ValueError, match="outside the web"):
        BaseSpace("nucs", (a,), sincoh=frozenset({(b, b)}))
    with pytest.raises(ValueError, match="unknown kind 'wat'"):
        BaseSpace("wat", (a,))
    with pytest.raises(ValueError, match="overlap"):
        BaseSpace("nucs", (a, b), frozenset({(a, b)}), frozenset({(b, a)}))


def test_parse_space_expr():
    E, F = coh_space({(a, b)}), coh_space()
    env = {"E": E, "F": F}
    t = parse_space_expr("!E (x) E", env)
    assert isinstance(t, Tensor)
    assert isinstance(t.left, Bang)
    s = parse_space_expr("E -o E", env)
    assert isinstance(s, Limpl)
    assert parse_space_expr("E & F", env) is With(E, F)
    assert parse_space_expr("S E", env) is SFun(E)
    assert parse_space_expr("E (x) (F & E)", env) is Tensor(E, With(F, E))
    assert parse_space_expr("!(E -o S F)", env) is Bang(Limpl(E, SFun(F)))
    with pytest.raises(SpaceParseError):
        parse_space_expr("(E & F", env)
    with pytest.raises(SpaceParseError, match="trailing tokens"):
        parse_space_expr("E F", env)
    with pytest.raises(SpaceParseError, match="bad character '\\$'"):
        parse_space_expr("E $ F", env)
    with pytest.raises(SpaceParseError, match="unexpected end"):
        parse_space_expr("E (x)", env)
    with pytest.raises(SpaceParseError, match="bad character '\\+'"):
        parse_space_expr("E (+) F", env)
    with pytest.raises(SpaceParseError, match="bad character '~'"):
        parse_space_expr("~E", env)
    with pytest.raises(SpaceParseError, match="& joins a coh space to a nucs space"):
        parse_space_expr("E & !N", dict(env, N=nucs_space()))


def test_equal_spaces_are_one_object():
    N = nucs_space(scoh={(a, b)}, sincoh={(b, c)})
    assert nucs_space(scoh={(b, a)}, sincoh={(c, b)}) is N  # either orientation of a pair
    assert Bang(N) is Bang(N)
    assert Limpl(Tensor(N, N), SFun(N)) is Limpl(Tensor(N, N), SFun(N))
    assert parse_space_expr("!N (x) N", {"N": N}) is Tensor(Bang(N), N)
    assert Tensor(N, Bang(N)) is not Tensor(Bang(N), N)
    assert With(N, N) is not Tensor(N, N)
    assert nucs_space() is not nucs_space(scoh={(a, b)})


def test_relations_in_one_orientation_or_as_sets_give_the_space_of_both():
    """A frozenset hit needs both orientations; one orientation, or a ``set``, is symmetrized first."""
    both = {(a, b), (b, a)}
    N = BaseSpace("nucs", (a, b, c), frozenset(both), frozenset({(b, c), (c, b), (c, c)}))
    for scoh in (frozenset({(a, b)}), frozenset({(b, a)}), {(a, b)}, both, frozenset(both)):
        for sincoh in (frozenset({(b, c), (c, c)}), {(c, b), (c, c)}, frozenset({(c, b), (b, c), (c, c)})):
            assert BaseSpace("nucs", (a, b, c), scoh, sincoh) is N
    assert BaseSpace("nucs", (a, b, c), frozenset({(a, b)})) is not N
    assert N.scoh == frozenset(both)
    with pytest.raises(ValueError, match="overlap"):
        BaseSpace("nucs", (a, b), frozenset(both), frozenset({(b, a)}))


@pytest.mark.parametrize("kind", KINDS)
def test_gen_space_draws_the_space_and_rng_state_of_the_one_orientation_generator(kind, monkeypatch):
    """2,000 draws, caps 1 to 4: one object per draw, and the generators leave one RNG state.

    A space drawn again is found without symmetrizing its relations.
    """
    new, old = random.Random(3900), random.Random(3900)
    drawn = []
    for i in range(2000):
        cap = 1 + i % 4
        drawn.append(gen_space(new, kind, cap))
        assert drawn[-1] is gen_space_one_orientation(old, kind, cap)
        assert new.getstate() == old.getstate()
    symmetrized = []
    monkeypatch.setattr(spaces, "_norm_pairs", lambda pairs: symmetrized.append(pairs) or norm_pairs(pairs))
    again = random.Random(3900)
    assert [gen_space(again, kind, 1 + i % 4) for i in range(2000)] == drawn
    assert symmetrized == []


def test_spaces_are_immutable():
    E = coh_space({(a, b)})
    for space, attr in [(E, "scoh"), (E, "kind"), (Bang(E), "inner"), (Tensor(E, E), "left")]:
        with pytest.raises(AttributeError):
            setattr(space, attr, E)
        with pytest.raises(AttributeError):
            delattr(space, attr)
        with pytest.raises(AttributeError):
            space.extra = 1
        assert not hasattr(space, "__dict__")


def test_constructed_spaces_take_their_kind_from_their_first_part():
    E, R = coh_space(), BaseSpace("rel", (a,))
    assert Limpl(Bang(E), R).kind == "coh"
    assert SFun(With(R, E)).kind == "rel"


@pytest.mark.parametrize(
    "build",
    [
        lambda: Bang(a), lambda: Tensor(coh_space()), lambda: Tensor(coh_space(), "E"), lambda: SFun(),
        lambda: contains(a, a), lambda: _verdict(a, a, a), lambda: enumerate_web(a, BUD),
        lambda: web_by_walk(a, BUD),
    ],
    ids=[
        "atom", "too-few", "not-a-space", "no-parts", "web-of-an-atom", "verdict-in-an-atom", "atoms-of-an-atom",
        "walk-of-an-atom",
    ],
)
def test_constructed_spaces_take_spaces(build):
    with pytest.raises(TypeError):
        build()


def test_unreferenced_spaces_leave_the_table():
    """Spaces share the atoms' weak table; verdicts and webs keep no space alive.

    The run caches (``coherent``'s verdicts, ``atom_key``, which sorts
    the singleton multiset's entries) keep what they have seen alive, so
    they are emptied (``end_run``) before each count.
    """

    def build():
        x = Base("space-built-here")
        E = BaseSpace("nucs", (x,), {(x, x)})
        m = Multiset.of([x])
        spaces = [E, Bang(E), Tensor(E, Bang(E)), SFun(E), With(E, E)]
        atoms = [x, m, Pair(x, m), Tag(0, x), Tag(1, x)]
        verdicts = [coherent(space, atom, atom) for space, atom in zip(spaces, atoms)]
        assert verdicts == [Verdict.SCOH] * 5
        webs = [web_of(space) for space in spaces]  # the same constructors over BaseSpace("rel", (x,))
        values = spaces + webs + atoms
        return [weakref.ref(v) for v in values], len(web_core._TABLE)

    web_core.end_run()
    gc.collect()
    before = len(web_core._TABLE)
    refs, during = build()
    assert during == before + len(refs)  # the atoms, the five spaces and their five webs, in one table
    web_core.end_run()
    gc.collect()
    assert all(r() is None for r in refs)
    assert len(web_core._TABLE) == before


@pytest.mark.parametrize("kind", KINDS)
def test_atoms_outside_the_web_are_in_no_clique(kind):
    """Every kind tests web membership before coherence, also of pair and tag atoms."""
    z = Base("z")
    E = BaseSpace(kind, (a, b), {(a, b)})
    assert is_clique(E, [a, b])
    assert not is_clique(E, [z])
    assert not is_clique(E, [a, z])
    assert is_clique(Tensor(E, E), [Pair(a, b)])
    assert not is_clique(Tensor(E, E), [a])
    assert not is_clique(SFun(E), [a])


def _shapes(E, F):
    """Each constructor over E and F, and a nested !."""
    return [E, Tensor(E, F), With(E, F), Limpl(E, F), SFun(E), Bang(E), Bang(Tensor(E, Bang(F)))]


@pytest.mark.parametrize("degree", (2, 3))
def test_coh_web_atoms_are_neutral_with_themselves(degree):
    """Base atoms are, every constructor keeps neutrality on equal parts, and a ! support is a clique.

    So the COH ! enumeration needs no self-coherence test of a candidate.
    """
    budget, rng = Budget(degree), random.Random(degree)
    for _ in range(3):
        for space in _shapes(gen_space(rng, "coh"), gen_space(rng, "coh")):
            for x in enumerate_web(space, budget):
                assert coherent(space, x, x) is Verdict.NEU, (space, x)


@pytest.mark.parametrize("degree", (2, 3))
@pytest.mark.parametrize("kind", KINDS)
def test_web_of_has_the_web_of_its_space(kind, degree):
    """web_of keeps the web: enumeration and membership, also of atoms outside it.

    The candidates outside the web come from the same shape over REL
    spaces with one atom more: atoms over the extra point, and multisets
    that are not cliques.
    """
    budget, rng, z = Budget(degree), random.Random(degree), Base("z")
    wider = lambda G: BaseSpace("rel", G.atoms + (z,))
    for _ in range(3):
        E, F = gen_space(rng, kind), gen_space(rng, kind)
        N, C = gen_space(rng, "nucs"), gen_space(rng, "coh")
        pairs = list(zip(_shapes(E, F), _shapes(wider(E), wider(F))))
        pairs.append((Tensor(N, Bang(C)), Tensor(wider(N), Bang(wider(C)))))  # a COH ! inside a NUCS ⊗
        for space, around in pairs:
            web = enumerate_web(space, budget)
            assert list(web) == web_by_walk(space, budget)
            candidates = set(web) | set(enumerate_web(web_of(space), budget)) | set(enumerate_web(around, budget))
            for x in candidates:
                assert contains(space, x) == contains(web_of(space), x), (space, x)
            assert len(candidates) > sum(contains(space, x) for x in candidates) == len(web)


def _walk_shapes(E, F, T):
    """Every constructor over E and F, nested !s, and products and a & with the empty web T."""
    return [
        E, Tensor(E, F), With(E, F), Limpl(E, F), SFun(E), Bang(E),
        Bang(Bang(E)), Bang(Tensor(E, F)), SFun(Bang(E)), Bang(SFun(With(E, F))), Limpl(Bang(E), SFun(F)),
        Tensor(Bang(Bang(E)), T), Limpl(T, Bang(F)), With(T, Bang(E)), Bang(Tensor(E, T)), SFun(T),
    ]


def _web_or_exceeded(enumerate_fn, space, budget):
    try:
        return tuple(enumerate_fn(space, budget))
    except BudgetExceeded:
        return BudgetExceeded


@pytest.mark.parametrize("degree", range(4))
@pytest.mark.parametrize("kind", KINDS)
def test_enumerate_web_gives_the_walk_s_atoms_order_and_budget_errors(kind, degree):
    """Webs built from their parts' webs are the walk's, also where a part has more atoms than its whole.

    Each web is asked for within ``max_atoms`` just below its size and at
    it, and a base space lists its atoms out of order.  A ``!`` at a low
    degree has fewer atoms than its inner space, and a product with the
    empty factor ⊤ has none.
    """
    rng = random.Random(f"walk:{kind}:{degree}")
    for _ in range(3):
        E, F = gen_space(rng, kind, 3), gen_space(rng, kind, 3)
        shapes = _walk_shapes(E, F, top(kind))
        shapes.append(Tensor(gen_space(rng, "nucs", 3), Bang(gen_space(rng, "coh", 3))))  # a COH ! inside a NUCS ⊗
        R = BaseSpace(kind, F.atoms[::-1], F.scoh, F.sincoh)  # atoms listed out of order
        shapes += [R, With(Bang(R), R)]
        for space in shapes:
            web = web_by_walk(space, Budget(degree))
            assert enumerate_web(space, Budget(degree)) == tuple(web), space
            for max_atoms in {max(len(web) - 1, 0), len(web)}:
                budget = Budget(degree, max_atoms)
                want = _web_or_exceeded(web_by_walk, space, budget)
                assert _web_or_exceeded(enumerate_web, space, budget) == want, (space, max_atoms)
                assert (want is BudgetExceeded) == (max_atoms < len(web))

