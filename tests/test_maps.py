"""Staged evaluation of point maps: what is fixed once per side, and what runs per atom."""

import gc
import weakref
from collections import Counter
from dataclasses import replace

import pytest

from cohdiff import exponential, maps, web_core
from cohdiff.differential import dpartial
from cohdiff.exponential import contr, der, dig, m2
from cohdiff.maps import PointMap, pm_bang, pm_compose, pm_from_rel, pm_id
from cohdiff.spaces import Bang, BaseSpace, Tensor, With, enumerate_web
from cohdiff.web_core import Base, Budget, Pair, Rel

BUD = Budget(3)


def _web(n):
    return BaseSpace("rel", tuple(Base(f"x{i}") for i in range(n)))


def _counted_pre(calls, name):
    def counted(b):
        calls[name] += 1
        return b

    return counted


def _stages(X, calls):
    """Three maps !X → !X whose ``pre`` count their calls; the middle one is a !."""
    h1 = PointMap.pointwise(Bang(X), Bang(X), lambda a: (a,), pre=_counted_pre(calls, "h1"))
    h2 = PointMap.pointwise(X, X, lambda a: (a,), pre=_counted_pre(calls, "h2"))
    h3 = PointMap.pointwise(Bang(X), Bang(X), lambda a: (a,), pre=_counted_pre(calls, "h3"))
    return h1, pm_bang(h2), h3


@pytest.mark.parametrize("nesting", ["right", "left"])
def test_each_pre_runs_once_per_side_not_per_atom(nesting):
    """Every bound of a 3-stage composite is fixed before the loop over source atoms."""
    counts = {}
    for n in (20, 30):
        X, calls = _web(n), Counter()
        h1, h2, h3 = _stages(X, calls)
        side = pm_compose(h3, pm_compose(h2, h1)) if nesting == "right" else pm_compose(pm_compose(h3, h2), h1)
        atoms = enumerate_web(side.src, Budget(2))
        assert len(atoms) > 10 * n
        assert side.materialize(Budget(2)).pairs == frozenset((a, a) for a in atoms)
        counts[n] = dict(calls)
    assert counts[20] == counts[30]
    assert sum(counts[20].values()) <= 10


def test_structural_images_are_computed_once_for_every_space():
    """Spaces of two kinds over the same atoms share contr's and m2's images, and dig's per (bound, atom).

    Within one check, a second ``materialize`` of an equal map calls no
    leaf image: its pairs come from ``materialize``'s memo.
    """
    x, y = Base("x"), Base("y")
    spaces = (
        BaseSpace("coh", (x, y)),
        BaseSpace("nucs", (x, y), scoh={(x, x)}, sincoh={(x, y)}),
    )
    images = {"contr": exponential._halves, "m2": exponential._pairings, "dig": exponential._dig_image}
    web_core.end_run()  # what earlier tests memoized outside a check

    def materialized():
        for E in spaces:
            for budget in (Budget(2), BUD):
                for name, pm in (("contr", contr(E)), ("m2", m2(E, E)), ("dig", dig(E))):
                    yield name, budget, pm.src, pm.materialize(budget)

    distinct = {name: set() for name in images}
    first = []
    for name, budget, src, rel in materialized():
        first.append(rel)
        key = (lambda a: (budget.max_degree, a)) if name == "dig" else (lambda a: a)
        distinct[name].update(map(key, enumerate_web(src, budget)))
    assert enumerate_web(Bang(spaces[0]), BUD) != enumerate_web(Bang(spaces[1]), BUD)
    for name, fn in images.items():
        assert fn.cache_info().misses == len(distinct[name]), name
    infos = {name: fn.cache_info() for name, fn in images.items()}
    assert [rel for *_, rel in materialized()] == first
    assert {name: fn.cache_info() for name, fn in images.items()} == infos


def _differ_in_one_scope(c1, c2, budget=BUD):
    """Materialize c1 and c2 in one check scope, in both orders; each must match its value alone."""
    alone = []
    for c in (c1, c2):
        web_core.end_run()
        alone.append(c.materialize(budget))
    assert alone[0] != alone[1]
    for order in ((0, 1), (1, 0)):
        web_core.end_run()
        together = {i: (c1, c2)[i].materialize(budget) for i in order}
        assert [together[0], together[1]] == alone
    web_core.end_run()


def test_a_composite_keeps_its_inner_cut_in_the_memo_key():
    """One leaf pair under der at two cuts: der(E).pre grows with mset_width(E)."""
    x = Base("x")
    X = BaseSpace("coh", (x,))
    narrow, wide = With(X, X), With(X, Bang(X))  # mset_width 0 and 1
    ident = pm_id(Bang(wide))
    retyped = replace(ident, tgt=Bang(narrow))  # the same point function, cut for der(narrow)
    c1, c2 = pm_compose(der(narrow), retyped), pm_compose(der(wide), ident)
    assert c1.at(3) is not c2.at(3)
    _differ_in_one_scope(c1, c2)


def test_bang_keeps_its_target_web_in_the_memo_key():
    """!f over two COH webs on the same atoms: one point function for f, two filters."""
    x, y = Base("x"), Base("y")
    clique = BaseSpace("coh", (x, y), scoh={(x, y)})
    apart = BaseSpace("coh", (x, y))
    ident = pm_id(clique)
    c1, c2 = pm_bang(ident), pm_bang(replace(ident, tgt=apart))
    assert c1.at(3) is not c2.at(3)
    _differ_in_one_scope(c1, c2)


def test_dpartial_keeps_its_web_in_the_memo_key():
    """∂ over two COH webs on the same atoms, read on one source web."""
    x, y = Base("x"), Base("y")
    clique = BaseSpace("coh", (x, y), scoh={(x, y)})
    apart = BaseSpace("coh", (x, y))
    c1 = dpartial(clique)
    c2 = replace(dpartial(apart), src=c1.src)
    _differ_in_one_scope(c1, c2)


def test_relations_are_never_shared():
    """Two ``pm_from_rel``s over one space: a closure per relation."""
    E = _web(2)
    a, b = E.atoms
    c1 = pm_from_rel(E, E, Rel(frozenset({(a, a)})))
    c2 = pm_from_rel(E, E, Rel(frozenset({(a, b)})))
    _differ_in_one_scope(c1, c2)


def test_an_intermediate_atom_of_a_composite_leaves_the_table():
    """A pair that only the middle stage of g ∘ f builds dies with the relation.

    No cache on the path through ``pm_compose`` and ``materialize`` may
    keep such an atom alive, so it leaves ``web_core._TABLE``.
    """
    E = _web(2)
    built = []

    def f(x):
        p = Pair(x, Base("middle-only"))
        built.append(weakref.ref(p))
        yield p

    g = PointMap.pointwise(Tensor(E, E), E, lambda p: (p.left,))
    rel = pm_compose(g, PointMap.pointwise(E, Tensor(E, E), f)).materialize(BUD)
    assert rel.pairs == {(x, x) for x in E.atoms}
    assert len(built) == 2
    del rel
    gc.collect()
    assert all(r() is None for r in built)
    assert (Base, "middle-only") not in web_core._TABLE


def test_bind_gives_one_point_function_per_image_and_arguments_in_a_check():
    """Equal (image, args) give one object until ``end_run``, so equal sides over two spaces share one."""
    X, Y = _web(1), _web(2)
    web_core.end_run()
    fn = maps.bind(exponential._dig_image, 3)
    assert maps.bind(exponential._dig_image, 3) is fn is dig(X).at(3)
    assert maps.bind(exponential._dig_image, 2) is not fn
    assert pm_compose(contr(X), dig(X)).at(3) is pm_compose(contr(Y), dig(Y)).at(3)
    web_core.end_run()
    again = maps.bind(exponential._dig_image, 3)
    assert again is not fn and (again.func, again.args) == (fn.func, fn.args)
    web_core.end_run()
