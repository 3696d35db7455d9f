"""Pointwise presentation of morphisms.

Structural morphisms are mostly given by a closed-form function from
source web atoms to finitely many target web atoms.  Keeping that
function around (instead of only a materialized set of pairs) lets
diagram checks compose maps exactly: a composite is evaluated point by
point, each intermediate atom cut at the bound its successor declares,
and only the final image is filtered back to the user's budget.

A PointMap is src space, tgt space, fn: atom -> iterable of atoms, and
pre: every input whose image holds an atom within degree b is within pre(b).
"""

from __future__ import annotations

import contextvars
from dataclasses import dataclass
from typing import Callable, Iterable

from .web_core import Atom, Budget, Multiset, Pair, Rel, Tag, degree, within_budget
from .spaces import Bang, SFun, Space, Tensor, With, contains, enumerate_web, mset_width


# The bound a point map runs under: its image holds every atom within it.
# ``materialize`` sets it to the budget's degree, and ``pm_compose`` runs f
# under g.pre of it.  Maps whose image is infinite (dig's empty parts, m0's
# powers of *, ∂̄'s powers of the value point) cut their image at it.  It
# has no value outside ``materialize``: point maps are only evaluated there.
BOUND: contextvars.ContextVar = contextvars.ContextVar("pointmap_bound")


@dataclass(frozen=True)
class PointMap:
    src: Space
    tgt: Space
    fn: Callable[[Atom], Iterable[Atom]]
    label: str = ""
    pre: Callable[[int], int] = lambda b: b  # right for every map that never lowers degree

    def materialize(self, budget: Budget) -> Rel:
        """Pairs (a, b) with both sides within the degree budget, run under its degree."""
        token = BOUND.set(budget.max_degree)
        try:
            pairs = set()
            for a in enumerate_web(self.src, budget):
                for b in self.fn(a):
                    if within_budget(b, budget.max_degree):
                        pairs.add((a, b))
        finally:
            BOUND.reset(token)
        return Rel(frozenset(pairs), self.label, "")


def pm_memo(pm: PointMap) -> PointMap:
    """Cache a point map's images per (atom, bound).

    Worth it for maps whose factories are themselves cached per space:
    random generators repeat small spaces constantly, so the per-atom
    work amortizes across trials.
    """
    cache: dict = {}

    def fn(a):
        key = (a, BOUND.get())
        out = cache.get(key)
        if out is None:
            out = tuple(pm.fn(a))
            cache[key] = out
        return out

    return PointMap(pm.src, pm.tgt, fn, pm.label, pm.pre)


def pm_id(E: Space, label: str = "id") -> PointMap:
    return PointMap(E, E, lambda a: (a,), label)


def pm_from_rel(E: Space, F: Space, rel: Rel, label: str = "") -> PointMap:
    """Wrap an extensional relation as a point map; only its sources have images."""
    index: dict = {}
    for a, b in rel.pairs:
        index.setdefault(a, []).append(b)
    top = max(map(degree, index), default=0)
    return PointMap(E, F, lambda a: tuple(index.get(a, ())), label or rel.src_label, lambda b: top)


def pm_compose(g: PointMap, f: PointMap, label: str = "") -> PointMap:
    """g after f: f runs under g.pre of the bound, and its images above that are skipped."""

    def fn(a):
        bound = g.pre(BOUND.get())
        token = BOUND.set(bound)
        try:
            mids = [b for b in f.fn(a) if within_budget(b, bound)]
        finally:
            BOUND.reset(token)
        for b in mids:
            yield from g.fn(b)

    return PointMap(f.src, g.tgt, fn, label or f"{g.label}∘{f.label}", lambda b: f.pre(g.pre(b)))


def pm_tensor(f: PointMap, g: PointMap, label: str = "") -> PointMap:
    def fn(a):
        for b in f.fn(a.left):
            for c in g.fn(a.right):
                yield Pair(b, c)

    pre = lambda b: max(f.pre(b), g.pre(b))  # within_budget bounds each component
    return PointMap(Tensor(f.src, g.src), Tensor(f.tgt, g.tgt), fn, label or f"{f.label}⊗{g.label}", pre)


def pm_pair(f: PointMap, g: PointMap, label: str = "") -> PointMap:
    """The pairing ⟨f, g⟩ into a & product (shared source)."""

    def fn(a):
        for b in f.fn(a):
            yield Tag(0, b)
        for c in g.fn(a):
            yield Tag(1, c)

    pre = lambda b: max(f.pre(b), g.pre(b))
    return PointMap(f.src, With(f.tgt, g.tgt), fn, label or f"⟨{f.label},{g.label}⟩", pre)


def pm_sfun(f: PointMap, label: str = "") -> PointMap:
    """S f: act under the summability tag."""

    def fn(a):
        for b in f.fn(a.inner):
            yield Tag(a.index, b)

    return PointMap(SFun(f.src), SFun(f.tgt), fn, label or f"S{f.label}", f.pre)


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

    f runs under the bound of !f, and pointwise images are pruned where
    the accumulated degree of the output passes it, which keeps products
    of decomposition maps (dig, m0) finite and fast.
    """
    tgt = Bang(f.tgt)
    img_cache: dict = {}

    def fn(a):
        bound = BOUND.get()
        items = list(a)
        base = len(items)
        images = []
        for x in items:
            opts = img_cache.get((x, bound))
            if opts is None:
                opts = sorted(set(f.fn(x)), key=degree)
                img_cache[(x, bound)] = opts
            if not opts:
                return
            images.append(opts)

        dedup = set()

        def rec(i, acc, deg):
            if deg > bound:
                return
            if i == len(items):
                dedup.add(Multiset.of(acc))
                return
            for b in images[i]:
                d2 = deg + degree(b)
                if d2 > bound:
                    break
                acc.append(b)
                rec(i + 1, acc, d2)
                acc.pop()

        rec(0, [], base)
        yield from (m for m in dedup if contains(tgt, m))

    # [x1..xn] ↦ [y1..yn] within b: n + Σ deg yi ≤ b, deg xi ≤ k·f.pre(deg yi) ≤ k·(deg yi + slack),
    # so the input's degree n + Σ deg xi is at most max(k·b, b + k·b·slack).
    k = mset_width(f.src)
    slack = lambda b: max(f.pre(d) - d for d in range(b + 1))
    pre = lambda b: max(k * b, b + k * b * slack(b))
    return PointMap(Bang(f.src), tgt, fn, label or f"!{f.label}", pre)
