"""The exponential !: comonad, free comonoid, Seely and monoidality maps.

All structural morphisms are produced as PointMaps so diagram checks
can compose them exactly.  Multiset decompositions (dig, contr, m2)
allow empty parts — that is what makes the nullary monoidality map m0
come out right.
"""

from __future__ import annotations

from functools import lru_cache

from .maps import PointMap, pm_memo, _sub_multisets
from .spaces import Bang, Space, Tensor, With, mset_width, one, top
from .web_core import Multiset, Pair, STAR, Tag, degree


def der(E: Space) -> PointMap:
    """Dereliction !E → E, ([a], a); for a within degree b, [a] is within 1 + mset_width(E)·b."""

    def fn(m):
        if len(m) == 1:
            yield m.entries[0][0]

    k = mset_width(E)
    return PointMap.pointwise(Bang(E), E, fn, "der", lambda b: 1 + k * b)


@lru_cache(maxsize=None)
def _mpartitions(m: Multiset, max_parts: int) -> tuple:
    """Unordered partitions of m into at most max_parts nonempty submultisets."""
    if len(m) == 0:
        return ((),)
    if max_parts <= 0:
        return ()
    out = []
    first = m.support[0]
    one_first = Multiset.of([first])
    for part in _sub_multisets(m - one_first):
        head = part + one_first
        for rest in _mpartitions(m - head, max_parts - 1):
            out.append((head,) + rest)
    return tuple(out)


@lru_cache(maxsize=None)
def dig(E: Space) -> PointMap:
    """Digging !E → !!E: all decompositions m = m1 + ... + mn.

    Empty parts are allowed, so the image is infinite; it is cut where
    the decomposition's degree would pass the bound dig is fixed at.
    """

    def at(bound):
        def fn(m):
            seen = set()
            for split in _mpartitions(m, bound - degree(m)):
                base = len(split) + degree(m)
                for e in range(max(0, bound - base) + 1):
                    out = Multiset.of(split + (Multiset(),) * e)
                    if out not in seen:
                        seen.add(out)
                        yield out

        return fn

    return pm_memo(PointMap(Bang(E), Bang(Bang(E)), at, "dig"))


def weak(E: Space) -> PointMap:
    """Weakening !E → 1, ([], *)."""

    def fn(m):
        if len(m) == 0:
            yield STAR

    return PointMap.pointwise(Bang(E), one(E.kind), fn, "weak")


@lru_cache(maxsize=None)
def contr(E: Space) -> PointMap:
    """Contraction !E → !E ⊗ !E: all two-part decompositions, each half bounded apart."""

    def fn(m):
        for m1 in _sub_multisets(m):
            yield Pair(m1, m - m1)

    return pm_memo(PointMap.pointwise(Bang(E), Tensor(Bang(E), Bang(E)), fn, "contr", lambda b: 2 * b))


def seely0(kind: str) -> PointMap:
    """1 → !⊤, * ↦ []."""

    def fn(a):
        yield Multiset()

    return PointMap.pointwise(one(kind), Bang(top(kind)), fn, "seely0")


def seely0_inv(kind: str) -> PointMap:
    def fn(m):
        yield STAR

    return PointMap.pointwise(Bang(top(kind)), one(kind), fn, "seely0_inv")


@lru_cache(maxsize=None)
def seely2(E: Space, F: Space) -> PointMap:
    """!E ⊗ !F → !(E & F), (m, p) ↦ 0·m + 1·p."""

    def fn(a):
        m, p = a.left, a.right
        tagged = Multiset.from_counts(
            [(Tag(0, x), k) for x, k in m.entries] + [(Tag(1, y), k) for y, k in p.entries]
        )
        yield tagged

    return pm_memo(PointMap.pointwise(Tensor(Bang(E), Bang(F)), Bang(With(E, F)), fn, "seely2"))


@lru_cache(maxsize=None)
def seely2_inv(E: Space, F: Space) -> PointMap:
    def fn(m):
        left, right = [], []
        for x, k in m.entries:
            (left if x.index == 0 else right).append((x.inner, k))
        yield Pair(Multiset.from_counts(left), Multiset.from_counts(right))

    pre = lambda b: 2 * b  # as contr's: the two halves of an output are bounded apart
    return pm_memo(PointMap.pointwise(Bang(With(E, F)), Tensor(Bang(E), Bang(F)), fn, "seely2_inv", pre))


def m0(kind: str) -> PointMap:
    """Nullary monoidality 1 → !1, * ↦ k·[*] for every k ≥ 0, cut at its bound."""

    def at(bound):
        image = tuple(Multiset.from_counts([(STAR, k)] if k else []) for k in range(bound + 1))
        return lambda a: image

    return PointMap(one(kind), Bang(one(kind)), at, "m0")


@lru_cache(maxsize=None)
def m2(E: Space, F: Space) -> PointMap:
    """Monoidality !E ⊗ !F → !(E ⊗ F): all pairings of equal-size multisets."""

    def fn(a):
        m, p = a.left, a.right
        if len(m) != len(p):
            return
        xs = list(m)
        seen = set()
        for perm in _distinct_pairings(xs, list(p)):
            out = Multiset.of(Pair(x, y) for x, y in perm)
            if out not in seen:
                seen.add(out)
                yield out

    return pm_memo(PointMap.pointwise(Tensor(Bang(E), Bang(F)), Bang(Tensor(E, F)), fn, "m2"))


def _distinct_pairings(xs, ys):
    if not xs:
        yield ()
        return
    x, rest = xs[0], xs[1:]
    used = set()
    for i, y in enumerate(ys):
        if y in used:
            continue
        used.add(y)
        for tail in _distinct_pairings(rest, ys[:i] + ys[i + 1 :]):
            yield ((x, y),) + tail
