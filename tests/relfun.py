"""Functions of the relational model read off a graph: oracles for D̂.

A morphism s : !E → F acts on a clique x of E as Fun s(x), and its
local derivative at x is a linear map E → F.  The package computes D̂s
without them; the tests compare against these textbook forms.
"""

from cohdiff.web_core import Multiset, Rel


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
