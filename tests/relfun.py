"""Oracles: functions of the relational model read off a graph, and webs by a walk.

A morphism s : !E → F acts on a clique x of E as Fun s(x), and its
local derivative at x is a linear map E → F.  The package computes D̂s
without them; the tests compare against these textbook forms.

``web_by_walk`` lists a web by walking the space down to its base
spaces for every web it is asked for, and sorts the whole web at the
end; ``spaces.enumerate_web`` builds each web from its parts' webs.
"""

from cohdiff.spaces import COH, Bang, BaseSpace, Limpl, SFun, Tensor, With, _enum_msets, _later_coherent
from cohdiff.web_core import BudgetExceeded, Multiset, Pair, Rel, Tag, atom_key


def matapp(s: Rel, x) -> frozenset:
    """Apply a morphism to a clique: the image set."""
    xs = set(x)
    return frozenset(b for (a, b) in s.pairs if a in xs)


def fun_apply(s: Rel, x) -> frozenset:
    """Fun s(x) = {b | ∃ m with Supp m ⊆ x, (m, b) ∈ s}."""
    xs = set(x)
    return frozenset(b for m, b in s.pairs if all(a in xs for a in m.support))


def local_derivative(s: Rel, x) -> Rel:
    """∂s(x)/∂x = {(a, b) | (m + [a], b) ∈ s, Supp m ⊆ x}."""
    xs = set(x)
    pairs = set()
    for m, b in s.pairs:
        for a in m.support:
            rest = m - Multiset.of([a])
            if all(c in xs for c in rest.support):
                pairs.add((a, b))
    return Rel(frozenset(pairs))


def web_by_walk(E, budget) -> list:
    """E's web within the budget's degree, in ``atom_key`` order; BudgetExceeded past ``max_atoms`` atoms."""
    out = []
    for a in _walk(E, budget.max_degree):
        out.append(a)
        if len(out) > budget.max_atoms:
            raise BudgetExceeded(f"web of {E!r} exceeds max_atoms={budget.max_atoms}")
    return sorted(out, key=atom_key)


def _walk(E, max_degree: int):
    if isinstance(E, BaseSpace):
        yield from E.atoms
        return
    if isinstance(E, (Tensor, Limpl)):
        rights = list(_walk(E.right, max_degree))
        for a in _walk(E.left, max_degree):
            for b in rights:
                yield Pair(a, b)
        return
    if isinstance(E, With):
        for a in _walk(E.left, max_degree):
            yield Tag(0, a)
        for b in _walk(E.right, max_degree):
            yield Tag(1, b)
        return
    if isinstance(E, SFun):
        for a in _walk(E.inner, max_degree):
            yield Tag(0, a)
            yield Tag(1, a)
        return
    if isinstance(E, Bang):
        inner = tuple(sorted(_walk(E.inner, max_degree), key=atom_key))
        later = _later_coherent(E.inner, inner, max_degree) if E.kind == COH else None
        yield from _enum_msets(inner, later, range(len(inner)), max_degree, [])
        return
    raise TypeError(f"not a space: {E!r}")
