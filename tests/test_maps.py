"""Staged evaluation of point maps: what is fixed once per side, and what runs per atom."""

from collections import Counter

import pytest

from cohdiff.maps import PointMap, pm_bang, pm_compose, pm_id, pm_memo
from cohdiff.spaces import Bang, BaseSpace, enumerate_web
from cohdiff.web_core import Base, Budget

BUD = Budget(3)


def _web(n):
    return BaseSpace("rel", tuple(Base(f"x{i}") for i in range(n)), name=f"X{n}")


def _counted_pre(calls, name):
    def counted(b):
        calls[name] += 1
        return b

    return counted


def _stages(X, calls):
    """Three maps !X → !X whose ``pre`` count their calls; the middle one is a !."""
    h1 = PointMap.pointwise(Bang(X), Bang(X), lambda a: (a,), "h1", _counted_pre(calls, "h1"))
    h2 = PointMap.pointwise(X, X, lambda a: (a,), "h2", _counted_pre(calls, "h2"))
    h3 = PointMap.pointwise(Bang(X), Bang(X), lambda a: (a,), "h3", _counted_pre(calls, "h3"))
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


def test_a_bound_free_map_keeps_one_table():
    """A memoized map that ignores the bound computes each atom once, whatever bound reaches it."""
    X = _web(20)
    seen, per_bound = Counter(), Counter()

    def free(a):
        seen[a] += 1
        return (a,)

    def at(bound):  # a fresh function at every bound, like dig's
        def fn(a):
            per_bound[a] += 1
            return (a,)

        return fn

    double = PointMap.pointwise(X, X, lambda a: (a,), "double", lambda b: 2 * b)
    for inner in (pm_memo(PointMap.pointwise(X, X, free, "free")), pm_memo(PointMap(X, X, at, "per-bound"))):
        # the first side reaches ``inner`` at bound 3, the second at bound 6
        for side in (pm_compose(pm_id(X), inner), pm_compose(double, inner), pm_compose(double, inner)):
            assert len(side.materialize(BUD).pairs) == 20
    assert set(seen) == set(X.atoms) and set(seen.values()) == {1}
    assert set(per_bound) == set(X.atoms) and set(per_bound.values()) == {2}
