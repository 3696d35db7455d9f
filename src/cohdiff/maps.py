"""Pointwise presentation of morphisms.

Structural morphisms are mostly given by a closed-form function from
source web atoms to finitely many target web atoms.  Keeping that
function around (instead of only a materialized set of pairs) lets
diagram checks compose maps exactly: a composite is evaluated point by
point, each intermediate atom cut at the bound its successor declares,
and only the final image is filtered back to the user's budget.

A PointMap is src space, tgt space, at: bound -> (atom -> iterable of
atoms), and pre: every input whose image holds an atom within degree b
is within pre(b).  Its image at bound b holds every atom within b; maps
whose image is infinite (dig's empty parts, m0's powers of *, ∂̄'s
powers of the value point) cut it there.

Evaluation is staged.  ``materialize`` calls ``at`` once, with the
budget's degree; the combinators pass each part its own bound (f runs
at g.pre(b) under g ∘ f), so every ``pre`` is fixed once per diagram
side.  What runs per source atom is only the point function ``at``
returned.

The memo contract: one point-function object means one image.  An
object's image of an atom never changes, so ``materialize`` memoizes
each source atom's in-budget pairs per (point function, degree) for the
running law check (``_side_pairs``).  Every point function that has
arguments is made by ``bind(image, *args)``, a ``web_core.run_cache``
that returns ``partial(image, *args)``: equal arguments give one object,
so equal composites over different spaces share the memo.  The
combinators bind their parts' point functions and the cut they apply
(``mid`` under ``pm_compose``, the bound under ``pm_bang``); the natural
leaves bind the bound where their image is cut there (``dig``, ``m0``,
∂̄) and pass one module-level image for every space otherwise.  An
image that reads a space keeps that space's web among its arguments
(``pm_bang``'s filter, ∂), so spaces with one web share it.  A closure
made per map (``pm_from_rel``) is never shared.  Degree cuts read the
atoms' ``deg`` and ``peak``, and recursions are module functions, so
reference counting alone frees a composite's intermediate atoms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import product
from operator import attrgetter
from typing import Callable, Iterable

from .web_core import Atom, Budget, Multiset, Pair, Rel, Tag, run_cache
from .spaces import Bang, SFun, Space, Tensor, With, contains, enumerate_web, mset_width, web_of


@dataclass(frozen=True)
class PointMap:
    """A map src → tgt given by ``at(bound)``, its point function at a bound.

    The object ``at`` returns must send each atom to the same atoms
    every time, whatever space the map is built over (the module's memo
    contract).
    """

    src: Space
    tgt: Space
    at: Callable[[int], Callable[[Atom], Iterable[Atom]]]
    pre: Callable[[int], int] = lambda b: b  # right for every map that never lowers degree

    @classmethod
    def pointwise(cls, src: Space, tgt: Space, fn: Callable[[Atom], Iterable[Atom]], *, pre=pre) -> "PointMap":
        """A map whose image does not depend on the bound: fn at every bound."""
        return cls(src, tgt, lambda bound: fn, pre)

    def materialize(self, budget: Budget) -> Rel:
        """Pairs (a, b) with both sides within the degree budget.

        ``at`` runs once, at the budget's degree: it fixes every bound
        and ``pre`` of the map.  The loop over the source web then runs
        only the point function it returns, once per source atom in a
        law check: its pairs are kept in ``_side_pairs``.
        """
        deg = budget.max_degree
        fn = self.at(deg)
        memo = _side_pairs(fn, deg)
        pairs = set()
        for a in enumerate_web(self.src, budget):
            got = memo.get(a)
            if got is None:
                got = memo[a] = tuple((a, b) for b in fn(a) if b.peak <= deg)
            pairs.update(got)
        return Rel(frozenset(pairs))


@run_cache
def _side_pairs(fn, degree: int) -> dict:
    """Source atom -> its pairs within the degree under the point function fn."""
    return {}


@run_cache
def bind(image, *args):
    """The point function ``partial(image, *args)``, one object per (image, args) in a law check."""
    return partial(image, *args)


def _id_image(a):
    return (a,)


def pm_id(E: Space) -> PointMap:
    return PointMap.pointwise(E, E, _id_image)


def pm_from_rel(E: Space, F: Space, rel: Rel) -> PointMap:
    """Wrap an extensional relation as a point map; only its sources have images."""
    index: dict = {}
    for a, b in rel.pairs:
        index.setdefault(a, []).append(b)
    index = {a: tuple(bs) for a, bs in index.items()}
    top = max((a.deg for a in index), default=0)
    return PointMap.pointwise(E, F, lambda a: index.get(a, ()), pre=lambda b: top)


def _compose_image(f_at, g_at, mid: int, a):
    for b in f_at(a):
        if b.peak <= mid:
            yield from g_at(b)


def pm_compose(g: PointMap, f: PointMap) -> PointMap:
    """g after f: f runs at g.pre of the bound, and its images above that are skipped."""

    def at(bound):
        mid = g.pre(bound)
        return bind(_compose_image, f.at(mid), g.at(bound), mid)

    return PointMap(f.src, g.tgt, at, lambda b: f.pre(g.pre(b)))


def _tensor_image(f_at, g_at, a):
    for b in f_at(a.left):
        for c in g_at(a.right):
            yield Pair(b, c)


def pm_tensor(f: PointMap, g: PointMap) -> PointMap:
    at = lambda bound: bind(_tensor_image, f.at(bound), g.at(bound))
    pre = lambda b: max(f.pre(b), g.pre(b))  # peak bounds each component
    return PointMap(Tensor(f.src, g.src), Tensor(f.tgt, g.tgt), at, pre)


def _pair_image(f_at, g_at, a):
    for b in f_at(a):
        yield Tag(0, b)
    for c in g_at(a):
        yield Tag(1, c)


def pm_pair(f: PointMap, g: PointMap) -> PointMap:
    """The pairing ⟨f, g⟩ into a & product (shared source)."""
    at = lambda bound: bind(_pair_image, f.at(bound), g.at(bound))
    pre = lambda b: max(f.pre(b), g.pre(b))
    return PointMap(f.src, With(f.tgt, g.tgt), at, pre)


def _sfun_image(f_at, a):
    for b in f_at(a.inner):
        yield Tag(a.index, b)


def pm_sfun(f: PointMap) -> PointMap:
    """S f: act under the summability tag."""
    return PointMap(SFun(f.src), SFun(f.tgt), lambda bound: bind(_sfun_image, f.at(bound)), f.pre)


def _sub_multisets(m: Multiset):
    """Every sub-multiset of m; the count of m's first entry varies fastest."""
    support = m.support[::-1]
    for counts in product(*(range(k + 1) for _, k in reversed(m.entries))):
        yield Multiset.from_counts({a: k for a, k in zip(support, counts) if k})


def _products(images: list, i: int, acc: list, deg: int, bound: int, out: set):
    """Add to out each multiset of one option per list from i on within the bound (options by degree)."""
    if i == len(images):
        out.add(Multiset.of(acc))
        return
    for b in images[i]:
        d2 = deg + b.deg
        if d2 > bound:
            break
        acc.append(b)
        _products(images, i + 1, acc, d2, bound, out)
        acc.pop()


def _bang_image(f_at, bound: int, web: Space, a):
    images = []  # one list of options per occurrence in a
    for x, k in a.entries:
        opts = sorted(set(f_at(x)), key=attrgetter("deg"))
        if not opts:
            return
        images += [opts] * k
    dedup = set()
    _products(images, 0, [], len(images), bound, dedup)
    yield from (m for m in dedup if contains(web, m))


def pm_bang(f: PointMap) -> PointMap:
    """!f : send a multiset to every multiset of pointwise images.

    f runs at the bound of !f, and pointwise images are pruned where
    the accumulated degree of the output passes it, which keeps products
    of decomposition maps (dig, m0) finite and fast.  f's image of each
    distinct entry of the input multiset is computed once per input; the
    structural maps' own image caches serve repeats across inputs.
    Outputs are kept inside the web of !(f.tgt), tested against
    ``web_of`` of it.
    """
    tgt = Bang(f.tgt)
    web = web_of(tgt)
    at = lambda bound: bind(_bang_image, f.at(bound), bound, web)
    # [x1..xn] ↦ [y1..yn] within b: n + Σ deg yi ≤ b, deg xi ≤ k·f.pre(deg yi) ≤ k·(deg yi + slack),
    # so the input's degree n + Σ deg xi is at most max(k·b, b + k·b·slack).
    k = mset_width(f.src)
    slack = lambda b: max(f.pre(d) - d for d in range(b + 1))
    pre = lambda b: max(k * b, b + k * b * slack(b))
    return PointMap(Bang(f.src), tgt, at, pre)
