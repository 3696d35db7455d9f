"""Denotational semantics of the calculus in the web models.

A term x1:A1, ..., xn:An ⊢ M : B denotes a relation !⟦Γ⟧ → ⟦B⟧ where
⟦Γ⟧ is the &-stack ((⊤ & A1) & ...) & An and arrows are interpreted
Kleisli-style: ⟦A ⇒ B⟧ = !⟦A⟧ ⊸ ⟦B⟧.  Base naturals are flat (distinct
numbers strictly incoherent, a number neutral with itself), truncated
at a chosen bound; multiset degree is truncated by a budget.  Fixpoints
are computed by Kleene iteration, which converges on these finite
truncations.

D is interpreted as the Kleisli derivative D̂s = (S s) ∘ ∂ of the
function's graph, through ``differential.dhat_graph``: the route
``derive`` takes, over the ∂ whose laws the registry checks.  Its
summability tags then move to the codomain leaves of the types through
the iso S(!E ⊸ F) ≅ !E ⊸ SF, matching D(A ⇒ B) = DA ⇒ DB.  The tag
operators are the summability maps π_i, ι_i, θ and c, applied at the
codomain leaf where their tag layers sit.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, partial

from . import calculus as cal
from .differential import dhat_graph
from .spaces import Bang, Limpl, SFun, Space, BaseSpace, With, contains, enumerate_web, top
from .summability import flip_image, inj_image, proj_image, theta_image
from .web_core import Atom, Base, Budget, Multiset, Pair, Tag


@dataclass(frozen=True)
class SemEnv:
    kind: str = "coh"
    nmax: int = 3
    budget: Budget = Budget()

    @cached_property
    def nat(self) -> BaseSpace:
        """The web of nat: the numerals up to ``nmax``, built once per environment."""
        atoms = tuple(nat_atom(i) for i in range(self.nmax + 1))
        if self.kind == "coh":
            return BaseSpace("coh", atoms)
        sincoh = frozenset(
            (a, b) for a in atoms for b in atoms if a != b
        )
        return BaseSpace(self.kind, atoms, sincoh=sincoh)


def nat_atom(n: int) -> Base:
    return Base(str(n))


def interp_type(t: cal.Ty, sem: SemEnv) -> Space:
    if isinstance(t, cal.Nat):
        s: Space = sem.nat
        for _ in range(t.depth):
            s = SFun(s)
        return s
    return Limpl(Bang(interp_type(t.src, sem)), interp_type(t.tgt, sem))


def ctx_space(ctx: list, sem: SemEnv) -> Space:
    s: Space = top(sem.kind)
    for _, ty in ctx:
        s = With(s, interp_type(ty, sem))
    return s


def _var_path(ctx: list, name: str, a: Atom) -> Atom:
    """Atom of the context space addressing variable ``name``."""
    idx = max(i for i, (n, _) in enumerate(ctx) if n == name)
    out = Tag(1, a)
    for _ in range(len(ctx) - 1 - idx):
        out = Tag(0, out)
    return out


# -- S-tag plumbing at the codomain leaf of an atom ------------------------


def add_s(i: int, a: Atom) -> Atom:
    """View an atom of ⟦T⟧ as an atom of ⟦DT⟧ tagged i: the tag goes on at its codomain leaf."""
    return Pair(a.left, add_s(i, a.right)) if isinstance(a, Pair) else Tag(i, a)


def _at_leaf(a: Atom, depth: int, fn):
    """fn's images at a's codomain leaf, below its ``depth`` outer tags, each put back in a's place."""
    if isinstance(a, Pair):
        for c in _at_leaf(a.right, depth, fn):
            yield Pair(a.left, c)
    elif depth:
        for c in _at_leaf(a.inner, depth - 1, fn):
            yield Tag(a.index, c)
    else:
        yield from fn(a)


def _tag_image(m: cal.Term):
    """The point function of the summability map a tag operator denotes."""
    if isinstance(m, cal.Proj):
        return partial(proj_image, m.index)
    if isinstance(m, cal.Inj):
        return partial(inj_image, m.index)
    return theta_image if isinstance(m, cal.SigmaT) else flip_image


# -- term interpretation ----------------------------------------------------


def interp_term(m: cal.Term, ctx: list, sem: SemEnv) -> frozenset:
    """The graph of ⟦Γ ⊢ M⟧ as a set of (context multiset, atom) pairs."""
    budget = sem.budget
    tyenv = dict(ctx)

    if isinstance(m, cal.Var):
        ty = tyenv[m.name]
        out = set()
        for a in enumerate_web(interp_type(ty, sem), budget):
            out.add((Multiset.of([_var_path(ctx, m.name, a)]), a))
        return frozenset(out)

    if isinstance(m, cal.Num):
        if m.value > sem.nmax:
            return frozenset()
        return frozenset({(Multiset(), nat_atom(m.value))})

    if isinstance(m, cal.Succ):
        out = set()
        for n in range(sem.nmax):
            out.add(
                (
                    Multiset(),
                    Pair(Multiset.of([nat_atom(n)]), nat_atom(n + 1)),
                )
            )
        return frozenset(out)

    if isinstance(m, cal.Zero):
        return frozenset()

    if isinstance(m, cal.Plus):
        return interp_term(m.left, ctx, sem) | interp_term(m.right, ctx, sem)

    if isinstance(m, cal.Lam):
        inner = interp_term(m.body, ctx + [(m.var, m.ty)], sem)
        out = set()
        for mm, b in inner:
            c_part, a_part = [], []
            for x, k in mm.entries:
                (c_part if x.index == 0 else a_part).append((x.inner, k))
            out.add(
                (
                    Multiset.from_counts(c_part),
                    Pair(Multiset.from_counts(a_part), b),
                )
            )
        return frozenset(out)

    if isinstance(m, cal.App):
        frel = interp_term(m.fun, ctx, sem)
        arel = interp_term(m.arg, ctx, sem)
        return _sem_app(frel, arel, ctx_space(ctx, sem), sem)

    if isinstance(m, cal.If0):
        crel = interp_term(m.cond, ctx, sem)
        trel = interp_term(m.then, ctx, sem)
        orel = interp_term(m.other, ctx, sem)
        C = ctx_space(ctx, sem)
        out = set()
        for m0, v in crel:
            branch = trel if v == nat_atom(0) else orel
            for m1, b in branch:
                tot = _merge_ctx((m0, m1), C, sem)
                if tot is not None:
                    out.add((tot, b))
        return frozenset(out)

    if isinstance(m, (cal.Proj, cal.Inj, cal.SigmaT, cal.CTerm)):
        fn = _tag_image(m)
        return frozenset((mm, c) for mm, b in interp_term(m.body, ctx, sem) for c in _at_leaf(b, m.depth, fn))

    if isinstance(m, cal.DTerm):
        fty = cal.typecheck(m.body, tyenv)
        E = interp_type(fty.src, sem)
        out = set()
        for mm, fa in interp_term(m.body, ctx, sem):
            for dm, db in dhat_graph(E, [(fa.left, fa.right)], budget.max_degree):
                # S⟦A⟧ ≅ ⟦DA⟧ and S⟦B⟧ ≅ ⟦DB⟧ move each tag to the codomain leaf
                dm = Multiset.from_counts((add_s(x.index, x.inner), k) for x, k in dm.entries)
                out.add((mm, Pair(dm, add_s(db.index, db.inner))))
        return frozenset(out)

    if isinstance(m, cal.Fix):
        frel = interp_term(m.body, ctx, sem)
        C = ctx_space(ctx, sem)
        cur: frozenset = frozenset()
        while True:
            nxt = cur | _sem_app(frel, cur, C, sem)
            if nxt == cur:
                return cur
            cur = nxt

    raise TypeError(f"no interpretation clause for {m!r}")


def _merge_ctx(parts, C: Space, sem: SemEnv):
    """The sum of the context multisets ``parts``, or None outside the budget or the web of !C."""
    tot = sum(parts[1:], parts[0])
    if tot.peak > sem.budget.max_degree:
        return None
    if not contains(Bang(C), tot):
        return None
    return tot


def _sem_app(frel, arel, C: Space, sem: SemEnv) -> frozenset:
    """Kleisli application: each function atom (p, b) meets one argument pair per occurrence in p."""
    by_atom: dict = {}
    for mm, a in arel:
        by_atom.setdefault(a, []).append(mm)
    out = set()
    for m0, fa in frel:
        pools = [by_atom.get(a, ()) for a in fa.left]
        if any(not pool for pool in pools):
            continue
        for choice in itertools.product(*pools):
            tot = _merge_ctx((m0, *choice), C, sem)
            if tot is not None:
                out.add((tot, fa.right))
    return frozenset(out)


def interp_closed(m: cal.Term, sem: SemEnv) -> frozenset:
    """Graph of a closed term: the context multiset is always empty."""
    return interp_term(m, [], sem)


def soundness_check(m: cal.Term, n: cal.Term, sem: SemEnv | None = None):
    """Do two closed terms have the same type and the same denotation?

    Returns (ok, info) where info explains a failure.
    """
    sem = sem or SemEnv()
    try:
        tm = cal.typecheck(m)
        tn = cal.typecheck(n)
    except cal.TypeError_ as e:
        return False, f"typing failed: {e}"
    if tm != tn:
        return False, f"types differ: {tm} vs {tn}"
    dm = interp_closed(m, sem)
    dn = interp_closed(n, sem)
    if dm == dn:
        return True, None
    only_m = sorted(dm - dn, key=repr)[:3]
    only_n = sorted(dn - dm, key=repr)[:3]
    return False, f"denotations differ; only-left={only_m} only-right={only_n}"
