"""Pointwise presentation of morphisms.

Structural morphisms are mostly given by a closed-form function from
source web atoms to finitely many target web atoms.  Keeping that
function around (instead of only a materialized set of pairs) lets
diagram checks compose maps exactly: a composite is evaluated point by
point with an enlarged internal degree margin, and only the final image
is filtered back to the user's budget.

A PointMap is src space, tgt space, and fn: atom -> iterable of atoms.
"""

from __future__ import annotations

import contextvars
from dataclasses import dataclass
from typing import Callable, Iterable

from .web_core import Atom, Budget, MSet, Multiset, Pair, Rel, Tag, degree, within_budget
from .spaces import Bang, SFun, Space, Tensor, With, contains, enumerate_web


# The one truncation bound on point maps.  ``materialize`` sets it; inside
# a composite, intermediate atoms above it are pruned, and maps whose image
# is infinite (dig's empty parts, m0's powers of *, ∂̄'s powers of the
# value point) cut their image at it.  It has no value outside
# ``materialize``: point maps are only evaluated there.
_MARGIN: contextvars.ContextVar = contextvars.ContextVar("pointmap_margin")


def current_margin() -> int:
    return _MARGIN.get()


@dataclass(frozen=True)
class PointMap:
    src: Space
    tgt: Space
    fn: Callable[[Atom], Iterable[Atom]]
    label: str = ""

    def materialize(self, budget: Budget, margin: int | None = None) -> Rel:
        """Pairs (a, b) with both sides within the degree budget.

        ``margin`` bounds the degree of intermediate atoms inside
        composites and of the infinite images; it defaults to
        2 * max_degree + 2, which a degree window of D on both endpoints
        never needs to exceed for the maps built here.
        """
        if margin is None:
            margin = 2 * budget.max_degree + 2
        token = _MARGIN.set(margin)
        try:
            pairs = set()
            for a in enumerate_web(self.src, budget):
                for b in self.fn(a):
                    if within_budget(b, budget.max_degree):
                        pairs.add((a, b))
        finally:
            _MARGIN.reset(token)
        return Rel(frozenset(pairs), self.label, "")


def pm_memo(pm: PointMap) -> PointMap:
    """Cache a point map's images per (atom, margin).

    Worth it for maps whose factories are themselves cached per space:
    random generators repeat small spaces constantly, so the per-atom
    work amortizes across trials.
    """
    cache: dict = {}

    def fn(a):
        key = (a, _MARGIN.get())
        out = cache.get(key)
        if out is None:
            out = tuple(pm.fn(a))
            cache[key] = out
        return out

    return PointMap(pm.src, pm.tgt, fn, pm.label)


def pm_id(E: Space, label: str = "id") -> PointMap:
    return PointMap(E, E, lambda a: (a,), label)


def pm_from_rel(E: Space, F: Space, rel: Rel, label: str = "") -> PointMap:
    """Wrap an extensional relation as a point map."""
    index: dict = {}
    for a, b in rel.pairs:
        index.setdefault(a, []).append(b)
    return PointMap(E, F, lambda a: tuple(index.get(a, ())), label or rel.src_label)


def pm_compose(g: PointMap, f: PointMap, label: str = "") -> PointMap:
    """g after f, skipping intermediate atoms above the margin."""

    def fn(a):
        margin = _MARGIN.get()
        for b in f.fn(a):
            if within_budget(b, margin):
                yield from g.fn(b)

    return PointMap(f.src, g.tgt, fn, label or f"{g.label}∘{f.label}")


def pm_tensor(f: PointMap, g: PointMap, label: str = "") -> PointMap:
    def fn(a):
        for b in f.fn(a.left):
            for c in g.fn(a.right):
                yield Pair(b, c)

    return PointMap(Tensor(f.src, g.src), Tensor(f.tgt, g.tgt), fn, label or f"{f.label}⊗{g.label}")


def pm_pair(f: PointMap, g: PointMap, label: str = "") -> PointMap:
    """The pairing ⟨f, g⟩ into a & product (shared source)."""

    def fn(a):
        for b in f.fn(a):
            yield Tag(0, b)
        for c in g.fn(a):
            yield Tag(1, c)

    return PointMap(f.src, With(f.tgt, g.tgt), fn, label or f"⟨{f.label},{g.label}⟩")


def pm_sfun(f: PointMap, label: str = "") -> PointMap:
    """S f: act under the summability tag."""

    def fn(a):
        for b in f.fn(a.inner):
            yield Tag(a.index, b)

    return PointMap(SFun(f.src), SFun(f.tgt), fn, label or f"S{f.label}")


def _sub_multisets(m: Multiset):
    entries = m.entries
    def rec(i):
        if i == len(entries):
            yield []
            return
        a, k = entries[i]
        for tail in rec(i + 1):
            for j in range(k + 1):
                yield ([(a, j)] if j else []) + tail
    for picked in rec(0):
        yield Multiset.from_counts(picked)


def pm_bang(f: PointMap, label: str = "") -> PointMap:
    """!f : send a multiset to every multiset of pointwise images.

    Pointwise images are pruned by the materialization margin on the
    accumulated degree of the output, which keeps products of
    decomposition maps (dig, m0) finite and fast.
    """
    tgt = Bang(f.tgt)
    img_cache: dict = {}

    def fn(a):
        margin = _MARGIN.get()
        items = list(a.ms)
        base = len(items)
        images = []
        for x in items:
            opts = img_cache.get((x, margin))
            if opts is None:
                opts = sorted(set(f.fn(x)), key=degree)
                img_cache[(x, margin)] = opts
            if not opts:
                return
            images.append(opts)

        dedup = set()

        def rec(i, acc, deg):
            if deg > margin:
                return
            if i == len(items):
                dedup.add(MSet(Multiset.of(acc)))
                return
            for b in images[i]:
                d2 = deg + degree(b)
                if d2 > margin:
                    break
                acc.append(b)
                rec(i + 1, acc, d2)
                acc.pop()

        rec(0, [], base)
        yield from (m for m in dedup if contains(tgt, m))

    return PointMap(Bang(f.src), tgt, fn, label or f"!{f.label}")
