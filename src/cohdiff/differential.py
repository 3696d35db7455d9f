"""The differential structure ∂ on the exponential.

Two independent routes to the same map are kept side by side:

* ``dpartial`` — the closed form of ∂ : !SE → S!E, the same in every
  kind: in the uniform (COH) kind the web of !SE already keeps the
  increment off the atoms of the value part;
* ``dpartial_via_dbar`` — derived from the coalgebra structure
  ``dbar : I → !I`` by currying !ev ∘ m2 ∘ (id ⊗ dbar) through the web
  isomorphism Web SE ≅ {0,1} × Web E ≅ Web (I ⊸ E).

Diagram checks use the first; tests compare it against the second.

The Kleisli derivative D̂s = (S s) ∘ ∂ has one route, ``dhat_graph``,
which reads ∂ pointwise at the taggings of s's sources; ``dhat`` (the
``derive`` command) and ``denot``'s D use it.  The composite through ∂
materialized over the whole web of !SE is the tests' oracle for it.
"""

from __future__ import annotations

from functools import partial

from .exponential import m2
from .maps import PointMap, bind, pm_compose, pm_id, pm_tensor
from .spaces import Bang, SFun, Space, contains, ispace, web_of
from .web_core import Multiset, Rel, STAR, Tag, run_cache


def dbar(max_degree: int) -> Rel:
    """The coalgebra map ∂̄ : I → !I.

    (0, *) goes to every power of the value point; (1, *) goes to every
    power of the value point plus one increment point.  Truncated at
    multiset degree ``max_degree``.
    """
    z, u = Tag(0, STAR), Tag(1, STAR)
    pairs = set()
    for k in range(max_degree + 1):
        pairs.add((z, Multiset.from_counts([(z, k)])))
    for k in range(max_degree):
        pairs.add((u, Multiset.from_counts([(z, k), (u, 1)])))
    return Rel(frozenset(pairs))


@run_cache
def _dbar_image(bound: int, a: Tag) -> tuple:
    """∂̄ at a within the bound, read off ``dbar`` so that ∂̄ has one definition."""
    return tuple(m for x, m in dbar(bound).pairs if x == a)


def dbar_pm(kind: str) -> PointMap:
    """∂̄ as a point map, its image cut at the bound it is fixed at.

    Both inputs have degree 0, so the identity ``pre`` holds.
    """
    I = ispace(kind)
    return PointMap(I, Bang(I), partial(bind, _dbar_image))


@run_cache
def _dpartial_image(E: Space, m: Multiset) -> tuple:
    """∂ at m: the multiset of m's inner atoms, tagged with its number of increments if ≤ 1.

    E is a web (``web_of``): the image is kept only inside the web of !E.
    """
    counts, i = {}, 0
    for x, k in m.entries:
        counts[x.inner] = counts.get(x.inner, 0) + k
        i += x.index * k
    if i > 1:
        return ()
    out = Multiset.from_counts(counts)
    return (Tag(i, out),) if contains(Bang(E), out) else ()


# A run cache only because perfbench/spans.py reads its cache_info() (ROADMAP item 10):
# it saves no more than building a PointMap.
@run_cache
def dpartial(E: Space) -> PointMap:
    """∂ : !SE → S!E, the closed form.

    (m0 tagged 0, (0, m0)) for every multiset m0 of value atoms, and
    (m0 + one increment atom a, (1, m0 + a)).  In the uniform kind a
    never also occurs in m0: 0·a and 1·a are strictly incoherent in SE,
    so no web atom of !SE holds both.  Unlike the maps of ``exponential``,
    the image is filtered by the web of !E, so its point function binds
    ``web_of(E)``: spaces with one web share one image.
    """
    return PointMap.pointwise(Bang(SFun(E)), SFun(Bang(E)), bind(_dpartial_image, web_of(E)))


def dtilde(E: Space) -> PointMap:
    """∂̃ = m2 ∘ (id ⊗ ∂̄) : !E ⊗ I → !(E ⊗ I)."""
    return pm_compose(m2(E, ispace(E.kind)), pm_tensor(pm_id(Bang(E)), dbar_pm(E.kind)))


def dpartial_via_dbar(E: Space) -> PointMap:
    """∂ recovered from ∂̄ by currying evaluation.

    Under Web SE ≅ Web (I ⊸ E), a tagged atom (i, a) is the one-pair
    function ((i, *), a).  The transposed map sends a multiset of such
    functions paired against ∂̄'s decompositions of a dual-numbers
    point, evaluating each pairing.
    """
    db = dbar_pm(E.kind)

    def at(bound):
        db_at = db.at(bound)

        def fn(m):
            # m : multiset over Web SE ≅ Web (I ⊸ E); an element (j, a) is
            # the hom atom ((j, *), a).  m2 pairs m against a dbar output
            # of equal size, and ev only fires when the I components match,
            # i.e. when m's tag multiset equals the dbar decomposition; the
            # evaluated image is then the multiset of the a's.
            shape = Multiset.of([Tag(a.index, STAR) for a in m])
            for i in (0, 1):
                if shape in db_at(Tag(i, STAR)):
                    out = Multiset.of([a.inner for a in m])
                    if contains(Bang(E), out):
                        yield Tag(i, out)

        return fn

    return PointMap(Bang(SFun(E)), SFun(Bang(E)), at)


def dhat_graph(E: Space, pairs, bound: int) -> set:
    """The graph of (S s) ∘ ∂ : !SE → SF, for the pairs (p, b) of s : !E → F.

    ∂ sends only taggings of p with at most one increment to (i, p), so
    those (at most n + 1 for n = len(p)) are the only inputs read: a
    tagging m is kept, with (i, b), when it is in the web of !SE and ∂
    at ``bound`` sends it to (i, p).
    """
    d_at, web = dpartial(E).at(bound), web_of(Bang(SFun(E)))
    out = set()
    for p, b in pairs:
        values = [(Tag(0, a), k) for a, k in p.entries]
        # all values, then one occurrence of each a moved to the increment
        taggings = [(0, values)] + [(1, values + [(Tag(0, a), -1), (Tag(1, a), 1)]) for a in p.support]
        for i, counts in taggings:
            m = Multiset.from_counts(counts)
            if contains(web, m) and Tag(i, p) in d_at(m):
                out.add((m, Tag(i, b)))
    return out


def dhat(E: Space, F: Space, s: Rel, budget) -> Rel:
    """D̂s = (S s) ∘ ∂ for a Kleisli morphism s : !E → F, within the budget."""
    pairs = [(p, b) for p, b in s.pairs if p.peak <= budget.max_degree]
    return Rel(frozenset(dhat_graph(E, pairs, budget.max_degree)))

