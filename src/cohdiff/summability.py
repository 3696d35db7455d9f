"""The summability functor S and its structure maps.

SE has web {0,1} × Web E.  An atom (0, a) is the "value" component and
(1, a) the "increment"; two morphisms are summable when the relation
pairing them through these tags is itself a morphism, and then their
sum is plain union.  The canonical presentation identifies S with
(1 & 1) ⊸ – via the dual-numbers object I = 1 & 1.

Every structure map here is natural, so each is one module-level point
function that its factory wraps for every space, and
``PointMap.materialize`` shares its pairs across spaces (see ``maps``).
π_i, ι_i, θ and c (``proj_image``, ``inj_image``, ``theta_image``,
``flip_image``) are also what ``denot`` applies at the codomain leaf of
a term's atoms; ``PROJ`` and ``INJ`` hold π_i's and ι_i's point
function, one object per i.
"""

from __future__ import annotations

from functools import partial

from .maps import PointMap
from .spaces import (
    Limpl,
    SFun,
    Space,
    Tensor,
    is_morphism,
    ispace,
)
from .web_core import Atom, Pair, Rel, STAR, Tag


class NotSummable(ValueError):
    pass


def proj_image(i: int, a: Tag):
    """π_i at a: a's inner atom if a is tagged i."""
    if a.index == i:
        yield a.inner


def inj_image(i: int, a: Atom):
    """ι_i at a: a tagged i."""
    yield Tag(i, a)


def theta_image(a: Tag):
    """θ at a = (i, (j, b)): (i ∨ j, b) unless i = j = 1."""
    i, j = a.index, a.inner.index
    if (i, j) != (1, 1):
        yield Tag(i | j, a.inner.inner)


def flip_image(a: Tag):
    """c at a = (i, (j, b)): (j, (i, b))."""
    yield Tag(a.inner.index, Tag(a.index, a.inner.inner))


PROJ = (partial(proj_image, 0), partial(proj_image, 1))
INJ = (partial(inj_image, 0), partial(inj_image, 1))


def _sigma_image(a: Tag):
    yield a.inner


def _strength_image(a: Pair):
    yield Tag(a.right.index, Pair(a.left, a.right.inner))


def _strength_sym_image(a: Pair):
    yield Tag(a.left.index, Pair(a.left.inner, a.right))


def _smont_image(a: Pair):
    i, j = a.left.index, a.right.index
    if i + j <= 1:
        yield Tag(i + j, Pair(a.left.inner, a.right.inner))


def proj(E: Space, i: int) -> PointMap:
    """π_i : SE → E."""
    return PointMap.pointwise(SFun(E), E, PROJ[i])


def sigma(E: Space) -> PointMap:
    """σ : SE → E, forget the tag (π0 + π1)."""
    return PointMap.pointwise(SFun(E), E, _sigma_image)


def inj(E: Space, i: int) -> PointMap:
    """ι_i : E → SE."""
    return PointMap.pointwise(E, SFun(E), INJ[i])


def flip(E: Space) -> PointMap:
    """c : SSE → SSE, swap the two tag layers."""
    return PointMap.pointwise(SFun(SFun(E)), SFun(SFun(E)), flip_image)


def theta(E: Space) -> PointMap:
    """θ : SSE → SE."""
    return PointMap.pointwise(SFun(SFun(E)), SFun(E), theta_image)


def strength(E: Space, F: Space) -> PointMap:
    """Φ : E ⊗ SF → S(E ⊗ F)."""
    return PointMap.pointwise(Tensor(E, SFun(F)), SFun(Tensor(E, F)), _strength_image)


def strength_sym(E: Space, F: Space) -> PointMap:
    """Φ' : SE ⊗ F → S(E ⊗ F)."""
    return PointMap.pointwise(Tensor(SFun(E), F), SFun(Tensor(E, F)), _strength_sym_image)


def smont(E: Space, F: Space) -> PointMap:
    """SE ⊗ SF → S(E ⊗ F): add the tags, dropping the (1,1) case."""
    return PointMap.pointwise(Tensor(SFun(E), SFun(F)), SFun(Tensor(E, F)), _smont_image)


def witness(f0: Rel, f1: Rel) -> Rel:
    """The candidate witness {(a, (i, b)) | (a, b) ∈ f_i} : X → SY."""
    pairs = {(a, Tag(0, b)) for a, b in f0.pairs} | {(a, Tag(1, b)) for a, b in f1.pairs}
    return Rel(frozenset(pairs))


def summable(E: Space, F: Space, f0: Rel, f1: Rel) -> bool:
    """f0, f1 : E → F are summable iff their witness is a morphism E → SF."""
    return is_morphism(E, SFun(F), witness(f0, f1))


def msum(E: Space, F: Space, f0: Rel, f1: Rel) -> Rel:
    """The sum of two summable morphisms (union of their graphs)."""
    if not summable(E, F, f0, f1):
        raise NotSummable("witness is not a morphism")
    return f0 | f1


def nary_summable(E: Space, F: Space, fs) -> Rel | None:
    """Left-nested fold of binary sums; None if any step fails.

    The empty family sums to the zero morphism.
    """
    fs = list(fs)
    if not fs:
        return Rel()
    acc = fs[0]
    if not is_morphism(E, F, acc):
        return None
    for f in fs[1:]:
        if not is_morphism(E, F, f):
            return None
        if not summable(E, F, acc, f):
            return None
        acc = acc | f
    return acc


# ---------------------------------------------------------------------------
# Canonical presentation: S ≅ (I ⊸ –) with I = 1 & 1
# ---------------------------------------------------------------------------


def w0() -> Rel:
    """1 → I picking the value component."""
    return Rel(frozenset({(STAR, Tag(0, STAR))}))


def pr0() -> Rel:
    """I → 1 projecting the value component."""
    return Rel(frozenset({(Tag(0, STAR), STAR)}))


def L_map() -> Rel:
    """I → I ⊗ I, the comultiplication of dual numbers."""
    z, u = Tag(0, STAR), Tag(1, STAR)
    return Rel(frozenset({(z, Pair(z, z)), (u, Pair(u, z)), (u, Pair(z, u))}))


def _to_hom_image(a: Tag):
    yield Pair(Tag(a.index, STAR), a.inner)


def _from_hom_image(p: Pair):
    yield Tag(p.left.index, p.right)


def canonical_iso(E: Space) -> tuple[PointMap, PointMap]:
    """The isomorphism SE ≅ (I ⊸ E) and its inverse.

    A tagged atom (i, a) corresponds to the single-pair function
    {((i, *), a)} of I ⊸ E.
    """
    I = ispace(E.kind)
    hom = Limpl(I, E)
    return (
        PointMap.pointwise(SFun(E), hom, _to_hom_image),
        PointMap.pointwise(hom, SFun(E), _from_hom_image),
    )
