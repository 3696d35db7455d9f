"""Randomized machine-checking of the categorical laws.

Most laws are commuting diagrams.  Such a law returns its diagrams, a
list of ``(label, lhs, rhs)`` whose sides are composites of the
closed-form structural morphisms, and ``run_check`` alone compares
them: ``run_diagram`` materializes both sides on the degree window of
the budget (both are filtered to the same window, so the comparison is
exact on that window).  The first diagram that differs fails the law
with the witness ``"label: pair"``, or the bare pair when the label is
empty.  The laws about sums of morphisms compare relations directly and
return their verdict ``(ok, witness)``.

Most laws quantify over spaces only: their checks take the spaces as
arguments, and ``run_check`` memoizes each verdict, for that call only,
keyed by the webs of the drawn spaces (``spaces.web_of``), so every
space tuple with one web tuple is decided once.  A space-drawing law
must therefore read only webs, never coherence; the oracle test
``test_space_laws_read_only_webs`` enforces this.  Every law reads its
maps, ∂ included, from this module's attributes, so a test swaps in a
deliberately broken map by patching the attribute.  A patched map that
reads coherence is then decided once per web tuple in NUCS and REL,
like every other map; in COH ``web_of`` is the identity, so the web
tuple is the space tuple.

Within one ``run_check`` call, equal diagram sides over different web
tuples share their pairs (``maps``' memo contract).  For that, the
plumbing isos here (``_sym``, ``_sym23``, ``_assoc``, ``_assoc_inv``,
``_lunit``, ``_to_top``, ``_pw``) wrap module-level image functions,
never a closure per space.
"""

from __future__ import annotations

import random
import string
from dataclasses import dataclass

from .differential import dbar_pm, dpartial, dpartial_via_dbar, dtilde
from .exponential import (
    contr,
    der,
    dig,
    m0,
    m2,
    seely0,
    seely0_inv,
    seely2,
    seely2_inv,
    weak,
)
from .maps import (
    PointMap,
    pm_bang,
    pm_compose,
    pm_from_rel,
    pm_id,
    pm_pair,
    pm_sfun,
    pm_tensor,
)
from .spaces import (
    KINDS,
    Bang,
    BaseSpace,
    Limpl,
    SFun,
    Space,
    Tensor,
    With,
    coherent,
    enumerate_web,
    ispace,
    is_morphism,
    one,
    top,
    web_of,
)
from .summability import (
    PROJ,
    L_map,
    canonical_iso,
    flip,
    inj,
    msum,
    nary_summable,
    pr0,
    proj,
    proj_image,
    smont,
    strength,
    strength_sym,
    summable,
    theta,
    w0,
    witness,
)
from .web_core import Base, Budget, Pair, Rel, end_run


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------


# The base atoms a drawn space takes its first atoms from.
_GEN_ATOMS = tuple(Base(c) for c in string.ascii_lowercase)


def gen_space(rng: random.Random, kind: str, max_web: int = 4) -> BaseSpace:
    """A random finite space with up to max_web atoms.

    Each relation holds both orientations of its pairs, so ``BaseSpace``
    finds a space drawn before without symmetrizing them.
    """
    n = rng.randint(1, max_web)
    atoms = _GEN_ATOMS[:n]
    scoh, sincoh = set(), set()
    for i in range(n):
        for j in range(i, n):
            a, b = atoms[i], atoms[j]
            if kind == "coh":
                if a != b and rng.random() < 0.5:
                    scoh.update(((a, b), (b, a)))
            elif kind == "nucs":
                r = rng.random()
                if r < 0.4:
                    scoh.update(((a, b), (b, a)))
                elif r < 0.7:
                    sincoh.update(((a, b), (b, a)))
    return BaseSpace(kind, atoms, frozenset(scoh), frozenset(sincoh))


def gen_morphism(rng: random.Random, E: Space, F: Space, budget: Budget) -> Rel:
    """A random morphism E → F (greedy clique in E ⊸ F)."""
    hom = Limpl(E, F)
    cands = list(enumerate_web(hom, budget))
    rng.shuffle(cands)
    chosen: list = []
    for p in cands:
        if rng.random() < 0.5:
            continue
        if all(coherent(hom, p, q).coherent for q in chosen) and coherent(
            hom, p, p
        ).coherent:
            chosen.append(p)
    return Rel(frozenset((p.left, p.right) for p in chosen))


def gen_summable_pair(rng: random.Random, E: Space, F: Space, budget: Budget):
    """Two summable morphisms E → F, via a random witness E → SF."""
    w = gen_morphism(rng, E, SFun(F), budget)
    return Rel(_summand(w, 0)), Rel(_summand(w, 1))


def _summand(w: Rel, i: int) -> frozenset:
    """The pairs of w : E → SF in layer i, untagged: the i-th summand w witnesses."""
    return frozenset((a, b.inner) for a, b in w.pairs if b.index == i)


# ---------------------------------------------------------------------------
# Diagram machinery
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MapCtx:
    """The model a law is checked in: its kind and truncation budget."""

    kind: str
    budget: Budget = Budget()


def run_diagram(lhs: PointMap, rhs: PointMap, budget: Budget):
    """Compare two composite maps on the degree window of the budget."""
    a = lhs.materialize(budget)
    b = rhs.materialize(budget)
    if a.pairs == b.pairs:
        return True, None
    diff = sorted(a.pairs ^ b.pairs, key=repr)[0]
    side = "lhs" if diff in a.pairs else "rhs"
    return False, f"{side}-only pair {diff!r}"


# small structural helpers ---------------------------------------------------


def _pw(E0: Space, E1: Space, i: int) -> PointMap:
    """The projection E0 & E1 → E_i, whose atoms are tagged as SE's."""
    return PointMap.pointwise(With(E0, E1), E0 if i == 0 else E1, PROJ[i])


def _sym_image(a):
    return (Pair(a.right, a.left),)


def _assoc_image(a):
    yield Pair(a.left.left, Pair(a.left.right, a.right))


def _assoc_inv_image(a):
    yield Pair(Pair(a.left, a.right.left), a.right.right)


def _lunit_image(a):
    return (a.right,)


def _to_top_image(a):
    return ()


def _sym23_image(a):
    yield Pair(Pair(a.left.left, a.right.left), Pair(a.left.right, a.right.right))


def _sym(E: Space, F: Space) -> PointMap:
    return PointMap.pointwise(Tensor(E, F), Tensor(F, E), _sym_image)


def _assoc(E: Space, F: Space, G: Space) -> PointMap:
    return PointMap.pointwise(Tensor(Tensor(E, F), G), Tensor(E, Tensor(F, G)), _assoc_image)


def _assoc_inv(E: Space, F: Space, G: Space) -> PointMap:
    return PointMap.pointwise(Tensor(E, Tensor(F, G)), Tensor(Tensor(E, F), G), _assoc_inv_image)


def _lunit(E: Space, kind: str) -> PointMap:
    return PointMap.pointwise(Tensor(one(kind), E), E, _lunit_image)


def _to_top(E: Space) -> PointMap:
    return PointMap.pointwise(E, top(E.kind), _to_top_image)


def _diag(E: Space) -> PointMap:
    return pm_pair(pm_id(E), pm_id(E))


def _sym23(A, B, C, D) -> PointMap:
    """(A⊗B)⊗(C⊗D) → (A⊗C)⊗(B⊗D)."""
    return PointMap.pointwise(
        Tensor(Tensor(A, B), Tensor(C, D)), Tensor(Tensor(A, C), Tensor(B, D)), _sym23_image
    )


# ---------------------------------------------------------------------------
# Law checks.  A diagram law returns its diagrams, a list of (label, lhs,
# rhs); a law on sums of morphisms returns (ok, witness | None).  A law
# that draws only spaces takes (ctx, *spaces); one that draws morphisms
# takes (ctx, rng).
# ---------------------------------------------------------------------------


def chk_joint_monicity(ctx, rng):
    E, F = gen_space(rng, ctx.kind), gen_space(rng, ctx.kind)
    w1 = gen_morphism(rng, E, SFun(F), ctx.budget)
    w2 = gen_morphism(rng, E, SFun(F), ctx.budget)
    if _summand(w1, 0) == _summand(w2, 0) and _summand(w1, 1) == _summand(w2, 1):
        if w1.pairs != w2.pairs:
            return False, "projections agree but maps differ"
    return True, None


def chk_sum_zero(ctx, rng):
    E, F = gen_space(rng, ctx.kind), gen_space(rng, ctx.kind)
    f = gen_morphism(rng, E, F, ctx.budget)
    z = Rel()
    if not summable(E, F, f, z):
        return False, "f and 0 not summable"
    if msum(E, F, f, z).pairs != f.pairs:
        return False, "f + 0 != f"
    return True, None


def chk_sum_com(ctx, rng):
    E, F = gen_space(rng, ctx.kind), gen_space(rng, ctx.kind)
    f0, f1 = gen_summable_pair(rng, E, F, ctx.budget)
    if not summable(E, F, f0, f1):
        return False, "generated pair not summable"
    if not summable(E, F, f1, f0):
        return False, "summability not symmetric"
    if msum(E, F, f0, f1).pairs != msum(E, F, f1, f0).pairs:
        return False, "sum not commutative"
    return True, None


def chk_sum_wit(ctx, rng):
    E, F = gen_space(rng, ctx.kind), gen_space(rng, ctx.kind)
    w = gen_morphism(rng, E, SFun(F), ctx.budget)
    # f_i = π_i ∘ w, read from π_i's image, not from _summand
    fs = [frozenset((a, b) for a, t in w.pairs for b in proj_image(i, t)) for i in (0, 1)]
    for i, f in enumerate(fs):
        if _summand(w, i) != f:
            return False, f"projection {i} does not recover the summand"
    v = witness(Rel(fs[0]), Rel(fs[1]))
    if not is_morphism(E, SFun(F), v):
        return False, "witness of summable pair is not a morphism"
    if v.pairs != w.pairs:
        return False, "witness of the projections is not the drawn witness"
    return True, None


def chk_sum_assoc(ctx, rng):
    E, F = gen_space(rng, ctx.kind), gen_space(rng, ctx.kind)
    # split one witness three ways is not possible; instead take three
    # slices of a morphism into F and check fold order irrelevance
    f = gen_morphism(rng, E, F, ctx.budget)
    pairs = sorted(f.pairs, key=repr)
    parts = [set(), set(), set()]
    for i, p in enumerate(pairs):
        parts[rng.randrange(3)].add(p)
    fs = [Rel(frozenset(s)) for s in parts]
    left = nary_summable(E, F, fs)
    pre = nary_summable(E, F, [fs[1], fs[2]])
    right = None if pre is None else nary_summable(E, F, [fs[0], pre])
    # regrouping invariance: the flat fold and the grouped fold agree,
    # both on whether the family is summable and on the sum itself
    # (in coh/rel slices of one clique are always summable; in nucs
    # summability can genuinely fail, and then both folds must fail)
    if left is None:
        if ctx.kind != "nucs":
            return False, "slices of one morphism must be summable"
        if right is not None:
            return False, "grouped fold succeeded where flat fold failed"
        return True, None
    if right is None:
        return False, "flat fold succeeded but grouped fold failed"
    if left.pairs != right.pairs or left.pairs != f.pairs:
        return False, "regrouped sums differ"
    return True, None


def chk_sum_tensor(ctx, rng):
    E, F = gen_space(rng, ctx.kind, 3), gen_space(rng, ctx.kind, 3)
    G, H = gen_space(rng, ctx.kind, 3), gen_space(rng, ctx.kind, 3)
    f0, f1 = gen_summable_pair(rng, E, F, ctx.budget)
    g = gen_morphism(rng, G, H, ctx.budget)
    tens = lambda f: frozenset(
        (Pair(a, c), Pair(b, d)) for a, b in f.pairs for c, d in g.pairs
    )
    t0 = Rel(tens(f0))
    t1 = Rel(tens(f1))
    if not summable(Tensor(E, G), Tensor(F, H), t0, t1):
        return False, "tensored pair not summable"
    s = msum(Tensor(E, G), Tensor(F, H), t0, t1)
    if s.pairs != tens(msum(E, F, f0, f1)):
        return False, "(f0+f1)⊗g mismatch"
    return True, None


def chk_sum_with(ctx, rng):
    E = gen_space(rng, ctx.kind, 3)
    F, G = gen_space(rng, ctx.kind, 3), gen_space(rng, ctx.kind, 3)
    f0, f1 = gen_summable_pair(rng, E, F, ctx.budget)
    g0, g1 = gen_summable_pair(rng, E, G, ctx.budget)
    p0, p1 = witness(f0, g0), witness(f1, g1)  # ⟨f, g⟩ : E → F & G has the pairs of witness(f, g)
    W = With(F, G)
    if not summable(E, W, p0, p1):
        return False, "paired morphisms not summable"
    s = msum(E, W, p0, p1)
    expect = witness(msum(E, F, f0, f1), msum(E, G, g0, g1)).pairs
    if s.pairs != expect:
        return False, "<f0,g0> + <f1,g1> != <f0+f1, g0+g1>"
    return True, None


def chk_monad_unit_left(ctx, E):
    return [("", pm_compose(theta(E), inj(SFun(E), 0)), pm_id(SFun(E)))]


def chk_monad_unit_right(ctx, E):
    return [("", pm_compose(theta(E), pm_sfun(inj(E, 0))), pm_id(SFun(E)))]


def chk_monad_assoc(ctx, E):
    return [("", pm_compose(theta(E), pm_sfun(theta(E))), pm_compose(theta(E), theta(SFun(E))))]


def chk_theta_flip(ctx, E):
    return [("", pm_compose(theta(E), flip(E)), theta(E))]


def chk_strength_unit(ctx, E, F):
    lhs = pm_compose(strength(E, F), pm_tensor(pm_id(E), inj(F, 0)))
    return [("", lhs, inj(Tensor(E, F), 0))]


def chk_strength_mult(ctx, E, F):
    lhs = pm_compose(
        theta(Tensor(E, F)),
        pm_compose(pm_sfun(strength(E, F)), strength(E, SFun(F))),
    )
    rhs = pm_compose(strength(E, F), pm_tensor(pm_id(E), theta(F)))
    return [("", lhs, rhs)]


def chk_strength_comm(ctx, E, F):
    route1 = pm_compose(
        theta(Tensor(E, F)),
        pm_compose(pm_sfun(strength_sym(E, F)), strength(SFun(E), F)),
    )
    route2 = pm_compose(
        theta(Tensor(E, F)),
        pm_compose(pm_sfun(strength(E, F)), strength_sym(E, SFun(F))),
    )
    return [
        ("theta.S(strength').strength != smont", route1, smont(E, F)),
        ("", route2, smont(E, F)),
    ]


def chk_strength_flip(ctx, E, F):
    lhs = pm_compose(pm_sfun(strength_sym(E, F)), strength(SFun(E), F))
    rhs = pm_compose(
        flip(Tensor(E, F)),
        pm_compose(pm_sfun(strength(E, F)), strength_sym(E, SFun(F))),
    )
    return [("", lhs, rhs)]


def chk_smont_sym(ctx, E, F):
    lhs = pm_compose(smont(F, E), _sym(SFun(E), SFun(F)))
    rhs = pm_compose(pm_sfun(_sym(E, F)), smont(E, F))
    return [("", lhs, rhs)]


def chk_bang_counit_left(ctx, E):
    return [("", pm_compose(der(Bang(E)), dig(E)), pm_id(Bang(E)))]


def chk_bang_counit_right(ctx, E):
    return [("", pm_compose(pm_bang(der(E)), dig(E)), pm_id(Bang(E)))]


def chk_bang_coassoc(ctx, E):
    return [("", pm_compose(dig(Bang(E)), dig(E)), pm_compose(pm_bang(dig(E)), dig(E)))]


def chk_comonoid_counit(ctx, E):
    lhs = pm_compose(
        _lunit(Bang(E), ctx.kind), pm_tensor(weak(E), pm_id(Bang(E)))
    )
    return [("", pm_compose(lhs, contr(E)), pm_id(Bang(E)))]


def chk_comonoid_coassoc(ctx, E):
    B = Bang(E)
    lhs = pm_compose(pm_tensor(contr(E), pm_id(B)), contr(E))
    rhs = pm_compose(
        _assoc_inv(B, B, B), pm_compose(pm_tensor(pm_id(B), contr(E)), contr(E))
    )
    return [("", lhs, rhs)]


def chk_comonoid_cocomm(ctx, E):
    B = Bang(E)
    return [("", pm_compose(_sym(B, B), contr(E)), contr(E))]


def chk_seely_iso(ctx, E, F):
    kind = ctx.kind
    mono = pm_compose(seely2_inv(E, F), seely2(E, F))
    epi = pm_compose(seely2(E, F), seely2_inv(E, F))
    return [
        ("seely2 not split mono", mono, pm_id(Tensor(Bang(E), Bang(F)))),
        ("seely2 not split epi", epi, pm_id(Bang(With(E, F)))),
        ("", pm_compose(seely0_inv(kind), seely0(kind)), pm_id(one(kind))),
    ]


def chk_seely_dig_comm(ctx, E):
    contr_via_diag = pm_compose(seely2_inv(E, E), pm_bang(_diag(E)))
    return [
        ("contr != seely2_inv . !<id,id>", contr_via_diag, contr(E)),
        ("", pm_compose(seely0_inv(ctx.kind), pm_bang(_to_top(E))), weak(E)),
    ]


def chk_seelyt_mont_0(ctx, F):
    kind = ctx.kind
    unit = one(kind)
    lhs = pm_compose(
        seely0(kind),
        pm_compose(_lunit(unit, kind), pm_tensor(pm_id(unit), weak(F))),
    )
    rhs = pm_compose(
        pm_bang(_to_top(Tensor(top(kind), F))),
        pm_compose(m2(top(kind), F), pm_tensor(seely0(kind), pm_id(Bang(F)))),
    )
    return [("", lhs, rhs)]


def chk_seelyt_mont_2(ctx, X0, X1, Y):
    B0, B1, BY = Bang(X0), Bang(X1), Bang(Y)
    lhs = pm_compose(
        seely2(Tensor(X0, Y), Tensor(X1, Y)),
        pm_compose(
            pm_tensor(m2(X0, Y), m2(X1, Y)),
            pm_compose(
                _sym23(B0, B1, BY, BY),
                pm_tensor(pm_id(Tensor(B0, B1)), contr(Y)),
            ),
        ),
    )
    inner = pm_pair(
        pm_tensor(_pw(X0, X1, 0), pm_id(Y)), pm_tensor(_pw(X0, X1, 1), pm_id(Y))
    )
    rhs = pm_compose(
        pm_bang(inner),
        pm_compose(
            m2(With(X0, X1), Y), pm_tensor(seely2(X0, X1), pm_id(BY))
        ),
    )
    return [("", lhs, rhs)]


# -- differential laws -------------------------------------------------------


def chk_d_local(ctx, E):
    lhs = pm_compose(proj(Bang(E), 0), dpartial(E))
    return [("", lhs, pm_bang(proj(E, 0)))]


def chk_d_lin_unit(ctx, E):
    lhs = pm_compose(dpartial(E), pm_bang(inj(E, 0)))
    return [("", lhs, inj(Bang(E), 0))]


def chk_d_lin_mult(ctx, E):
    lhs = pm_compose(
        theta(Bang(E)), pm_compose(pm_sfun(dpartial(E)), dpartial(SFun(E)))
    )
    rhs = pm_compose(dpartial(E), pm_bang(theta(E)))
    return [("", lhs, rhs)]


def chk_d_chain_der(ctx, E):
    lhs = pm_compose(pm_sfun(der(E)), dpartial(E))
    return [("", lhs, der(SFun(E)))]


def chk_d_chain_dig(ctx, E):
    lhs = pm_compose(pm_sfun(dig(E)), dpartial(E))
    rhs = pm_compose(
        dpartial(Bang(E)), pm_compose(pm_bang(dpartial(E)), dig(SFun(E)))
    )
    return [("", lhs, rhs)]


def chk_d_with_0(ctx):
    kind = ctx.kind
    T = top(kind)
    lhs = pm_compose(dpartial(T), seely0(kind))
    rhs = pm_compose(pm_sfun(seely0(kind)), inj(one(kind), 0))
    return [("", lhs, rhs)]


def chk_d_with_2(ctx, X0, X1):
    W = With(X0, X1)
    split = pm_pair(pm_sfun(_pw(X0, X1, 0)), pm_sfun(_pw(X0, X1, 1)))
    lhs = pm_compose(
        pm_sfun(seely2(X0, X1)),
        pm_compose(
            smont(Bang(X0), Bang(X1)),
            pm_compose(
                pm_tensor(dpartial(X0), dpartial(X1)),
                pm_compose(seely2_inv(SFun(X0), SFun(X1)), pm_bang(split)),
            ),
        ),
    )
    return [("", lhs, dpartial(W))]


def chk_leibniz_weak(ctx, E):
    lhs = pm_compose(pm_sfun(weak(E)), dpartial(E))
    rhs = pm_compose(inj(one(ctx.kind), 0), weak(SFun(E)))
    return [("", lhs, rhs)]


def chk_leibniz_contr(ctx, E):
    lhs = pm_compose(pm_sfun(contr(E)), dpartial(E))
    rhs = pm_compose(
        smont(Bang(E), Bang(E)),
        pm_compose(pm_tensor(dpartial(E), dpartial(E)), contr(SFun(E))),
    )
    return [("", lhs, rhs)]


def chk_d_schwarz(ctx, E):
    lhs = pm_compose(
        flip(Bang(E)), pm_compose(pm_sfun(dpartial(E)), dpartial(SFun(E)))
    )
    rhs = pm_compose(
        pm_sfun(dpartial(E)),
        pm_compose(dpartial(SFun(E)), pm_bang(flip(E))),
    )
    return [("", lhs, rhs)]


def chk_d_consistency(ctx, E):
    return [("", dpartial(E), dpartial_via_dbar(E))]


# -- dbar laws ----------------------------------------------------------------


def chk_dbar_counit(ctx):
    I = ispace(ctx.kind)
    return [("", pm_compose(der(I), dbar_pm(ctx.kind)), pm_id(I))]


def chk_dbar_coassoc(ctx):
    I, db = ispace(ctx.kind), dbar_pm(ctx.kind)
    lhs = pm_compose(dig(I), db)
    rhs = pm_compose(pm_bang(db), db)
    return [("", lhs, rhs)]


def chk_dbar_local(ctx):
    kind = ctx.kind
    I = ispace(kind)
    w0pm = pm_from_rel(one(kind), I, w0())
    lhs = pm_compose(dbar_pm(kind), w0pm)
    rhs = pm_compose(pm_bang(w0pm), m0(kind))
    return [("", lhs, rhs)]


def chk_dbar_lin_proj(ctx):
    kind = ctx.kind
    I = ispace(kind)
    pr = pm_from_rel(I, one(kind), pr0())
    lhs = pm_compose(pm_bang(pr), dbar_pm(kind))
    rhs = pm_compose(m0(kind), pr)
    return [("", lhs, rhs)]


def chk_dbar_lin_L(ctx):
    kind = ctx.kind
    I, db = ispace(kind), dbar_pm(kind)
    Lp = pm_from_rel(I, Tensor(I, I), L_map())
    lhs = pm_compose(pm_bang(Lp), db)
    rhs = pm_compose(m2(I, I), pm_compose(pm_tensor(db, db), Lp))
    return [("", lhs, rhs)]


def chk_dbar_comonoid_mor(ctx):
    kind = ctx.kind
    I, db = ispace(kind), dbar_pm(kind)
    pr = pm_from_rel(I, one(kind), pr0())
    Lp = pm_from_rel(I, Tensor(I, I), L_map())
    return [
        ("weak . dbar != pr0", pm_compose(weak(I), db), pr),
        ("", pm_compose(contr(I), db), pm_compose(pm_tensor(db, db), Lp)),
    ]


def chk_i_comonoid(ctx):
    kind = ctx.kind
    I = ispace(kind)
    pr = pm_from_rel(I, one(kind), pr0())
    Lp = pm_from_rel(I, Tensor(I, I), L_map())
    counit = pm_compose(_lunit(I, kind), pm_compose(pm_tensor(pr, pm_id(I)), Lp))
    lhs = pm_compose(pm_tensor(Lp, pm_id(I)), Lp)
    rhs = pm_compose(_assoc_inv(I, I, I), pm_compose(pm_tensor(pm_id(I), Lp), Lp))
    return [
        ("counit", counit, pm_id(I)),
        ("coassoc", lhs, rhs),
        ("", pm_compose(_sym(I, I), Lp), Lp),
    ]


def chk_sdiffst_mon_tens(ctx, X0, X1):
    kind = ctx.kind
    I = ispace(kind)
    B0, B1 = Bang(X0), Bang(X1)
    lhs = pm_compose(
        m2(X0, Tensor(X1, I)),
        pm_compose(pm_tensor(pm_id(B0), dtilde(X1)), _assoc(B0, B1, I)),
    )
    rhs = pm_compose(
        pm_bang(_assoc(X0, X1, I)),
        pm_compose(dtilde(Tensor(X0, X1)), pm_tensor(m2(X0, X1), pm_id(I))),
    )
    return [("", lhs, rhs)]


def chk_sfun_iso(ctx, rng):
    E, F = gen_space(rng, ctx.kind), gen_space(rng, ctx.kind)
    fwd, bwd = canonical_iso(E)
    # naturality: (I -o f) . fwd = fwd . Sf for a random morphism f
    f = gen_morphism(rng, E, F, ctx.budget)
    fpm = pm_from_rel(E, F, f)
    fwdF, _ = canonical_iso(F)

    def homf_at(bound):
        f_at = fpm.at(bound)
        return lambda a: (Pair(a.left, b) for b in f_at(a.right))

    hom_map = PointMap(fwd.tgt, fwdF.tgt, homf_at)
    return [
        ("roundtrip 1", pm_compose(bwd, fwd), pm_id(SFun(E))),
        ("roundtrip 2", pm_compose(fwd, bwd), pm_id(fwd.tgt)),
        ("", pm_compose(hom_map, fwd), pm_compose(fwdF, pm_sfun(fpm))),
    ]


# law name -> (check, web cap of each space it draws).  A check returns
# its labelled diagrams or, for the sum laws, its verdict (see ``_decide``).
# Caps None mark the laws that also draw morphisms: their checks take the
# generator and run uncached.  A law that draws nothing, caps (), is
# checked in one trial.  A law with caps is decided once per web tuple, so
# it must read only webs (tests/test_lawcheck.py::test_space_laws_read_only_webs).
REGISTRY = {
    "joint-monicity": (chk_joint_monicity, None),
    "sum-zero": (chk_sum_zero, None),
    "sum-com": (chk_sum_com, None),
    "sum-wit": (chk_sum_wit, None),
    "sum-assoc": (chk_sum_assoc, None),
    "sum-tensor": (chk_sum_tensor, None),
    "sum-with": (chk_sum_with, None),
    "monad-unit-left": (chk_monad_unit_left, (4,)),
    "monad-unit-right": (chk_monad_unit_right, (4,)),
    "monad-assoc": (chk_monad_assoc, (4,)),
    "theta-flip": (chk_theta_flip, (4,)),
    "strength-unit": (chk_strength_unit, (4, 4)),
    "strength-mult": (chk_strength_mult, (4, 4)),
    "strength-comm": (chk_strength_comm, (4, 4)),
    "strength-flip": (chk_strength_flip, (4, 4)),
    "smont-sym": (chk_smont_sym, (4, 4)),
    "bang-counit-left": (chk_bang_counit_left, (4,)),
    "bang-counit-right": (chk_bang_counit_right, (4,)),
    "bang-coassoc": (chk_bang_coassoc, (3,)),
    "comonoid-counit": (chk_comonoid_counit, (4,)),
    "comonoid-coassoc": (chk_comonoid_coassoc, (3,)),
    "comonoid-cocomm": (chk_comonoid_cocomm, (4,)),
    "seely-iso": (chk_seely_iso, (3, 3)),
    "seely-dig-comm": (chk_seely_dig_comm, (4,)),
    "seelyt-mont-0": (chk_seelyt_mont_0, (4,)),
    "seelyt-mont-2": (chk_seelyt_mont_2, (2, 2, 2)),
    "d-local": (chk_d_local, (4,)),
    "d-lin-unit": (chk_d_lin_unit, (4,)),
    "d-lin-mult": (chk_d_lin_mult, (3,)),
    "d-chain-der": (chk_d_chain_der, (4,)),
    "d-chain-dig": (chk_d_chain_dig, (3,)),
    "d-with-0": (chk_d_with_0, ()),
    "d-with-2": (chk_d_with_2, (2, 2)),
    "leibniz-weak": (chk_leibniz_weak, (4,)),
    "leibniz-contr": (chk_leibniz_contr, (3,)),
    "d-schwarz": (chk_d_schwarz, (3,)),
    "d-consistency": (chk_d_consistency, (4,)),
    "dbar-counit": (chk_dbar_counit, ()),
    "dbar-coassoc": (chk_dbar_coassoc, ()),
    "dbar-local": (chk_dbar_local, ()),
    "dbar-lin-proj": (chk_dbar_lin_proj, ()),
    "dbar-lin-L": (chk_dbar_lin_L, ()),
    "dbar-comonoid-mor": (chk_dbar_comonoid_mor, ()),
    "i-comonoid": (chk_i_comonoid, ()),
    "sdiffst-mon-tens": (chk_sdiffst_mon_tens, (2, 2)),
    "sfun-iso": (chk_sfun_iso, None),
}


@dataclass
class CheckResult:
    name: str
    kind: str
    ok: bool
    trials: int
    instances: int
    webs: int
    witness: str | None = None


def _decide(result, budget: Budget):
    """The verdict (ok, witness) of a law's result: its own, or its diagrams' in order."""
    if isinstance(result, tuple):
        return result
    for label, lhs, rhs in result:
        ok, w = run_diagram(lhs, rhs, budget)
        if not ok:
            return False, f"{label}: {w}" if label else w
    return True, None


def run_check(name: str, ctx: MapCtx, seed: int, trials: int) -> CheckResult:
    """Check one law on up to ``trials`` draws; stop at the first failure.

    On each draw the law returns either its verdict (ok, witness) or its
    diagrams, a list of (label, lhs, rhs).  The diagrams are compared in
    order by ``run_diagram``, and the first that differs fails the law
    with the witness "label: pair", or the bare pair when the label is
    empty.

    ``instances`` counts the distinct space tuples drawn and ``webs`` the
    verdicts they needed, one per web tuple.  For a law that draws
    morphisms both count the trials run.

    The check owns its memos: it empties every ``web_core.run_cache``
    (``end_run``) when it starts and when it returns, so no verdict
    memoized before it, under other module attributes, reaches it.
    """
    fn, caps = REGISTRY[name]
    rng = random.Random(f"{seed}:{name}:{ctx.kind}")
    n = 1 if caps == () else trials
    seen, verdicts = set(), {}
    end_run()
    try:
        for t in range(n):
            if caps is None:  # morphisms drawn: every trial is a new instance
                key = t
                seen.add(t)
                verdicts[key] = _decide(fn(ctx, rng), ctx.budget)
            else:
                spaces = tuple(gen_space(rng, ctx.kind, cap) for cap in caps)
                key = tuple(map(web_of, spaces))
                seen.add(spaces)
                if key not in verdicts:
                    verdicts[key] = _decide(fn(ctx, *spaces), ctx.budget)
            ok, wit = verdicts[key]
            if not ok:
                return CheckResult(name, ctx.kind, False, t + 1, len(seen), len(verdicts), wit)
        return CheckResult(name, ctx.kind, True, n, len(seen), len(verdicts))
    finally:
        end_run()


def run_all(
    kinds=KINDS,
    seed: int = 0,
    trials: int = 100,
    budget: Budget = Budget(),
    only=None,
):
    results = []
    names = [n for n in REGISTRY if only is None or n in only]
    for kind in kinds:
        ctx = MapCtx(kind, budget)
        for name in names:
            results.append(run_check(name, ctx, seed, trials))
    return results
