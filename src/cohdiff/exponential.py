"""The exponential !: comonad, free comonoid, Seely and monoidality maps.

All structural morphisms are produced as PointMaps so diagram checks
can compose them exactly.  Multiset decompositions (dig, contr, m2)
allow empty parts — that is what makes the nullary monoidality map m0
come out right.

Digging, dereliction, weakening, contraction, the Seely isos and
monoidality are natural: the image of an atom never reads the space.
Each is one module-level image function of the atom, so one point
function serves every space and kind (``maps``' memo contract); dig's
and m0's, which cut at the bound, are bound to it with ``maps.bind``.
"""

from __future__ import annotations

from functools import partial
from itertools import starmap

from .maps import PointMap, _sub_multisets, bind
from .spaces import Bang, Space, Tensor, With, mset_width, one, top
from .web_core import Multiset, Pair, STAR, Tag, bijections, run_cache


def _der_image(m: Multiset):
    if len(m) == 1:
        yield m.entries[0][0]


def der(E: Space) -> PointMap:
    """Dereliction !E → E, ([a], a); for a within degree b, [a] is within 1 + mset_width(E)·b."""
    k = mset_width(E)
    return PointMap.pointwise(Bang(E), E, _der_image, pre=lambda b: 1 + k * b)


def _mpartitions(m: Multiset, max_parts: int):
    """Unordered partitions of m into at most max_parts nonempty submultisets."""
    if len(m) == 0:
        yield ()
        return
    if max_parts <= 0:
        return
    first = m.support[0]
    one_first = Multiset.of([first])
    for part in _sub_multisets(m - one_first):
        head = part + one_first
        for rest in _mpartitions(m - head, max_parts - 1):
            yield (head,) + rest


@run_cache
def _dig_image(bound: int, m: Multiset) -> tuple:
    """Every decomposition m = m1 + ... + mn, empty parts included, within the bound."""
    out = {}
    for split in _mpartitions(m, bound - m.deg):
        base = len(split) + m.deg
        for e in range(max(0, bound - base) + 1):
            out[Multiset.of(split + (Multiset(),) * e)] = None
    return tuple(out)


# A run cache only because perfbench/spans.py reads its cache_info() (ROADMAP item 10):
# it saves no more than building a PointMap.  So are contr, seely2 and m2.
@run_cache
def dig(E: Space) -> PointMap:
    """Digging !E → !!E: all decompositions m = m1 + ... + mn.

    Empty parts are allowed, so the image is infinite; it is cut where
    the decomposition's degree would pass the bound dig is fixed at.
    """
    return PointMap(Bang(E), Bang(Bang(E)), partial(bind, _dig_image))


def _weak_image(m: Multiset):
    if len(m) == 0:
        yield STAR


def weak(E: Space) -> PointMap:
    """Weakening !E → 1, ([], *)."""
    return PointMap.pointwise(Bang(E), one(E.kind), _weak_image)


@run_cache
def _halves(m: Multiset) -> tuple:
    return tuple(Pair(m1, m - m1) for m1 in _sub_multisets(m))


@run_cache  # for perfbench/spans.py only, as dig
def contr(E: Space) -> PointMap:
    """Contraction !E → !E ⊗ !E: all two-part decompositions, each half bounded apart."""
    return PointMap.pointwise(Bang(E), Tensor(Bang(E), Bang(E)), _halves, pre=lambda b: 2 * b)


def _seely0_image(a):
    yield Multiset()


def _seely0_inv_image(m: Multiset):
    yield STAR


def seely0(kind: str) -> PointMap:
    """1 → !⊤, * ↦ []."""
    return PointMap.pointwise(one(kind), Bang(top(kind)), _seely0_image)


def seely0_inv(kind: str) -> PointMap:
    return PointMap.pointwise(Bang(top(kind)), one(kind), _seely0_inv_image)


@run_cache
def _tagged(a: Pair) -> tuple:
    counts = [(Tag(0, x), k) for x, k in a.left.entries] + [(Tag(1, y), k) for y, k in a.right.entries]
    return (Multiset.from_counts(counts),)


@run_cache  # for perfbench/spans.py only, as dig
def seely2(E: Space, F: Space) -> PointMap:
    """!E ⊗ !F → !(E & F), (m, p) ↦ 0·m + 1·p."""
    return PointMap.pointwise(Tensor(Bang(E), Bang(F)), Bang(With(E, F)), _tagged)


@run_cache
def _split(m: Multiset) -> tuple:
    halves = ([], [])
    for x, k in m.entries:
        halves[x.index].append((x.inner, k))
    return (Pair(Multiset.from_counts(halves[0]), Multiset.from_counts(halves[1])),)


def seely2_inv(E: Space, F: Space) -> PointMap:
    pre = lambda b: 2 * b  # as contr's: the two halves of an output are bounded apart
    return PointMap.pointwise(Bang(With(E, F)), Tensor(Bang(E), Bang(F)), _split, pre=pre)


@run_cache
def _m0_image(bound: int, a) -> tuple:
    return tuple(Multiset.from_counts([(STAR, k)] if k else []) for k in range(bound + 1))


def m0(kind: str) -> PointMap:
    """Nullary monoidality 1 → !1, * ↦ k·[*] for every k ≥ 0, cut at its bound."""
    return PointMap(one(kind), Bang(one(kind)), partial(bind, _m0_image))


@run_cache
def _pairings(a: Pair) -> tuple:
    return tuple(dict.fromkeys([Multiset.of(starmap(Pair, pairs)) for pairs in bijections(a.left, a.right)]))


@run_cache  # for perfbench/spans.py only, as dig
def m2(E: Space, F: Space) -> PointMap:
    """Monoidality !E ⊗ !F → !(E ⊗ F): all pairings of equal-size multisets."""
    return PointMap.pointwise(Tensor(Bang(E), Bang(F)), Bang(Tensor(E, F)), _pairings)

