"""The differential ∂, its !-coalgebra form ∂̄, and the Kleisli derivative D̂."""

import random

from cohdiff import differential, spaces, web_core
from cohdiff.calculus import Arrow, DTerm, Nat
from cohdiff.corpus import make_corpus
from cohdiff.denot import SemEnv, add_s, interp_closed, interp_type
from cohdiff.differential import (
    dbar,
    dhat,
    dpartial,
    dpartial_via_dbar,
)
from cohdiff.lawcheck import gen_morphism, gen_space
from cohdiff.spaces import Bang, BaseSpace, SFun, enumerate_web, is_clique
from cohdiff.web_core import Base, Budget, Multiset, Pair, Rel, Tag, rel_compose
from relfun import fun_apply, local_derivative, matapp

a, b = Base("a"), Base("b")
BUD = Budget(3)


def tag0(x):
    return Tag(0, x)


def tag1(x):
    return Tag(1, x)


def test_dbar_degree_3_exact():
    """∂̄ = {(0, k·[0]) : k ≤ 3} ∪ {(1, k·[0] + [1]) : k ≤ 2} exactly."""
    got = dbar(3).pairs
    z, o = tag0(Base("*")), tag1(Base("*"))
    want = frozenset(
        {(z, Multiset.of([z] * k)) for k in range(4)}
        | {(o, Multiset.of([z] * k + [o])) for k in range(3)}
    )
    assert got == want


def test_dbar_excludes_two_increments():
    o = tag1(Base("*"))
    for x, m in dbar(6).pairs:
        assert sum(n for y, n in m.entries if y == o) <= 1


def test_dpartial_single_point_four_pairs():
    """On E = {a}, within degree 2, ∂ is exactly four pairs."""
    E = BaseSpace("coh", (a,))
    got = dpartial(E).materialize(Budget(2)).pairs
    want = frozenset(
        {
            (Multiset.of([]), tag0(Multiset.of([]))),
            (Multiset.of([tag0(a)]), tag0(Multiset.of([a]))),
            (Multiset.of([tag0(a), tag0(a)]), tag0(Multiset.of([a, a]))),
            (Multiset.of([tag1(a)]), tag1(Multiset.of([a]))),
        }
    )
    assert got == want


def test_dpartial_uniformity_proviso():
    """COH has no pair for an increment at an already-used point; NUCS does."""
    probe = Multiset.of([tag0(a), tag1(a)])
    out = (probe, tag1(Multiset.of([a, a])))
    Ec = BaseSpace("coh", (a,))
    En = BaseSpace("nucs", (a,), frozenset({(a, a)}))
    assert out not in dpartial(Ec).materialize(BUD).pairs
    assert out in dpartial(En).materialize(BUD).pairs


def test_no_coh_atom_of_bang_se_holds_a_value_and_its_increment():
    """0·a and 1·a are strictly incoherent in SE, so in COH no atom of !SE
    holds both, and ∂ needs no uniformity case of its own."""
    rng = random.Random(0)
    for _ in range(20):
        E = gen_space(rng, "coh", 4)
        for m in enumerate_web(Bang(SFun(E)), BUD):
            values = {t.inner for t in m if t.index == 0}
            assert not any(t.index == 1 and t.inner in values for t in m), m


def test_dpartial_agrees_with_dbar_route():
    """Two independent constructions of ∂ coincide on random spaces."""
    rng = random.Random(5)
    for kind in ("coh", "nucs", "rel"):
        for _ in range(10):
            E = gen_space(rng, kind, 3)
            lhs = dpartial(E).materialize(BUD)
            rhs = dpartial_via_dbar(E).materialize(BUD)
            assert lhs.pairs == rhs.pairs, kind


def test_spaces_with_one_web_share_its_enumeration_and_dpartial_image():
    """Coherence does not decide a NUCS or REL web, so spaces over the same
    atoms share !E's enumeration and ∂'s image; a COH ! keeps cliques only."""
    nucs = (
        BaseSpace("nucs", (a, b), {(a, a)}, {(a, b)}),
        BaseSpace("nucs", (a, b), {(a, b)}, {(b, b)}),
        BaseSpace("rel", (a, b)),
    )
    coh = (BaseSpace("coh", (a, b), {(a, b)}), BaseSpace("coh", (a, b)))
    spaces._enumerate_cached.cache_clear()
    differential._dpartial_image.cache_clear()
    m = Multiset.of([tag0(a), tag1(b)])
    webs = {tuple(enumerate_web(Bang(E), BUD)) for E in nucs}
    images = {tuple(dpartial(E).at(3)(m)) for E in nucs}
    assert len(webs) == 1 and images == {(tag1(Multiset.of([a, b])),)}
    assert spaces._enumerate_cached.cache_info().misses == 1
    assert differential._dpartial_image.cache_info().misses == 1
    assert len({tuple(enumerate_web(Bang(E), BUD)) for E in coh}) == 2
    assert spaces._enumerate_cached.cache_info().misses == 3


def test_dbar_is_built_once_per_bound(monkeypatch):
    """∂̄'s relation is built once per bound in a check, not once per materialization or atom."""
    built = []

    def counted(max_degree):
        built.append(max_degree)
        return dbar(max_degree)

    monkeypatch.setattr(differential, "dbar", counted)
    web_core.end_run()  # what earlier tests memoized outside a check
    E = BaseSpace("coh", (a, b))
    via = dpartial_via_dbar(E)
    for budget in (BUD, BUD, Budget(2)):
        assert via.materialize(budget).pairs == dpartial(E).materialize(budget).pairs
    assert built == [3, 2]
    web_core.end_run()
    via.materialize(BUD)
    assert built == [3, 2, 3]


def test_dhat_linear_morphism():
    E = BaseSpace("coh", (a,))
    F = BaseSpace("coh", (b,))
    s = Rel(frozenset({(Multiset.of([a]), b)}))
    got = dhat(E, F, s, BUD).pairs
    want = frozenset(
        {
            (Multiset.of([tag0(a)]), tag0(b)),
            (Multiset.of([tag1(a)]), tag1(b)),
        }
    )
    assert got == want


def test_dhat_square_taylor_contrast():
    s2 = Rel(frozenset({(Multiset.of([a, a]), b)}))
    F = {"coh": BaseSpace("coh", (b,)),
         "nucs": BaseSpace("nucs", (b,), frozenset({(b, b)}))}
    E = {"coh": BaseSpace("coh", (a,)),
         "nucs": BaseSpace("nucs", (a,), frozenset({(a, a)}))}
    base = (Multiset.of([tag0(a), tag0(a)]), tag0(b))
    cross = (Multiset.of([tag0(a), tag1(a)]), tag1(b))
    got_coh = dhat(E["coh"], F["coh"], s2, BUD).pairs
    got_nucs = dhat(E["nucs"], F["nucs"], s2, BUD).pairs
    assert got_coh == frozenset({base})
    assert got_nucs == frozenset({base, cross})


def dhat_oracle(E, s, budget):
    """(S s) ∘ ∂ as a composite of relations, ∂ materialized over the whole web of !SE."""
    s_under_tag = Rel(frozenset((Tag(i, p), Tag(i, b)) for p, b in s.pairs for i in (0, 1)))
    return rel_compose(dpartial(E).materialize(budget), s_under_tag)


def test_dhat_equals_the_materialized_composite():
    """dhat reads ∂ only at the taggings of s's sources; the full composite is the oracle.

    s is drawn at degree 3 and differentiated at degrees 1 to 3, so the
    budget filter on s's sources is exercised too.
    """
    rng = random.Random(2107)
    for kind in ("coh", "nucs", "rel"):
        for degree in (1, 2, 3):
            budget = Budget(degree)
            for _ in range(40):
                E, F = gen_space(rng, kind, 3), gen_space(rng, kind, 3)
                s = gen_morphism(rng, Bang(E), F, BUD)
                assert dhat(E, F, s, budget).pairs == dhat_oracle(E, s, budget).pairs


def test_d_of_first_order_corpus_functions_is_the_dhat_oracle():
    """⟦D f⟧ is (S ⟦f⟧) ∘ ∂ read through add_s, in every model, for f : D^i nat ⇒ D^j nat."""
    fs = [
        (m, t)
        for m, t in make_corpus(seed=0, count=200)
        if isinstance(t, Arrow) and isinstance(t.src, Nat) and isinstance(t.tgt, Nat)
    ]
    assert len(fs) >= 20
    nonempty = 0
    for kind in ("coh", "nucs", "rel"):
        sem = SemEnv(kind=kind, nmax=3, budget=BUD)
        for f, t in fs:
            graph = Rel(frozenset((fa.left, fa.right) for _, fa in interp_closed(f, sem)))
            want = {
                (Multiset(), Pair(Multiset.of(add_s(x.index, x.inner) for x in m), add_s(y.index, y.inner)))
                for m, y in dhat_oracle(interp_type(t.src, sem), graph, BUD).pairs
            }
            assert interp_closed(DTerm(f), sem) == want
            nonempty += bool(want)
    assert nonempty >= 60  # 72 of the 78 denotations are not empty


def _summable_clique_pairs(E, max_total):
    """All (x, u) with x, u ⊆ Web E whose tagged union is a clique of SE."""
    atoms = list(E.atoms)
    out = []

    def subsets(xs):
        if not xs:
            yield []
            return
        for rest in subsets(xs[1:]):
            yield rest
            yield [xs[0]] + rest

    S = SFun(E)
    for x in subsets(atoms):
        for u in subsets(atoms):
            if len(x) + len(u) > max_total:
                continue
            tagged = [tag0(e) for e in x] + [tag1(e) for e in u]
            if is_clique(S, tagged):
                out.append((x, u))
    return out


def test_dhat_computes_local_derivatives():
    """Fun(D̂s)(x ⊕ u) = (Fun s(x), s'(x) · u) on summable clique pairs."""
    rng = random.Random(12)
    for _ in range(8):
        E = gen_space(rng, "coh", 3)
        F = gen_space(rng, "coh", 3)
        s = gen_morphism(rng, Bang(E), F, BUD)
        d = dhat(E, F, s, BUD)
        for x, u in _summable_clique_pairs(E, 3):
            point = [tag0(e) for e in x] + [tag1(e) for e in u]
            got = fun_apply(d, point)
            want = frozenset(
                {tag0(y) for y in fun_apply(s, x)}
                | {tag1(y) for y in matapp(local_derivative(s, x), u)}
            )
            assert got == want


def test_local_derivative_concrete():
    s = Rel(frozenset({(Multiset.of([a, a]), b)}))
    d = local_derivative(s, [a])
    assert d.pairs == frozenset({(a, b)})
    assert local_derivative(s, []).pairs == frozenset()
