"""Staged evaluation of point maps: what is fixed once per side, and what runs per atom."""

from collections import Counter

import pytest

from cohdiff import exponential
from cohdiff.exponential import contr, dig, m2
from cohdiff.maps import PointMap, pm_bang, pm_compose
from cohdiff.spaces import Bang, BaseSpace, enumerate_web
from cohdiff.web_core import Base, Budget

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
    """Spaces of two kinds over the same atoms share contr's and m2's images, and dig's per (bound, atom)."""
    x, y = Base("x"), Base("y")
    spaces = (
        BaseSpace("coh", (x, y)),
        BaseSpace("nucs", (x, y), scoh={(x, x)}, sincoh={(x, y)}),
    )
    images = {"contr": exponential._halves, "m2": exponential._pairings, "dig": exponential._dig_image}
    for fn in images.values():
        fn.cache_clear()
    calls, distinct = Counter(), {name: set() for name in images}
    for E in spaces:
        for budget in (Budget(2), BUD):
            for name, pm in (("contr", contr(E)), ("m2", m2(E, E)), ("dig", dig(E))):
                pm.materialize(budget)
                atoms = enumerate_web(pm.src, budget)
                calls[name] += len(atoms)
                key = (lambda a: (budget.max_degree, a)) if name == "dig" else (lambda a: a)
                distinct[name].update(map(key, atoms))
    assert enumerate_web(Bang(spaces[0]), BUD) != enumerate_web(Bang(spaces[1]), BUD)
    for name, fn in images.items():
        info = fn.cache_info()
        assert info.misses == len(distinct[name]), name
        assert info.hits == calls[name] - len(distinct[name]) > 0, name
