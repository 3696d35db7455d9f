"""The summability structure S and sums of morphisms."""

import itertools

import pytest

from cohdiff.maps import pm_compose
from cohdiff.spaces import (
    BaseSpace,
    SFun,
    Verdict,
    coherent,
    enumerate_web,
    is_morphism,
    ispace,
)
from cohdiff.summability import (
    NotSummable,
    canonical_iso,
    inj,
    msum,
    nary_summable,
    proj,
    sigma,
    summable,
    witness,
)
from cohdiff.web_core import Base, Budget, Rel, Tag

a, b, c = Base("a"), Base("b"), Base("c")
BUD = Budget(3)


def coh(atoms=(a, b), scoh=()):
    return BaseSpace("coh", atoms, frozenset(scoh), frozenset())


def rel_of(*pairs):
    return Rel(frozenset(pairs))


def test_sfun_web_is_two_copies():
    E = coh()
    assert len(enumerate_web(SFun(E), BUD)) == 4


def test_proj_inj_sigma_satisfy_projection_laws():
    E = coh()
    for i in (0, 1):
        r = pm_compose(proj(E, i), inj(E, i)).materialize(BUD)
        assert r.pairs == frozenset({(a, a), (b, b)})
    # σ ∘ ι_i = id as well: both slots sum back
    for i in (0, 1):
        r = pm_compose(sigma(E), inj(E, i)).materialize(BUD)
        assert r.pairs == frozenset({(a, a), (b, b)})


def test_cross_projection_is_empty():
    E = coh()
    r = pm_compose(proj(E, 1), inj(E, 0)).materialize(BUD)
    assert r.pairs == frozenset()


def test_witness_tags_components():
    f0 = rel_of((a, a))
    f1 = rel_of((a, b))
    w = witness(f0, f1)
    assert w.pairs == frozenset({(a, Tag(0, a)), (a, Tag(1, b))})


def test_summable_in_coh_requires_target_coherence():
    E = coh(atoms=(a,))
    F = coh(atoms=(a, b), scoh={(a, b)})
    assert summable(E, F, rel_of((a, a)), rel_of((a, b)))
    # same morphism twice: witness hits (0·a, 1·a), neutral inner with
    # mixed tags is incoherent in SF
    assert not summable(E, F, rel_of((a, a)), rel_of((a, a)))
    with pytest.raises(NotSummable):
        msum(E, F, rel_of((a, a)), rel_of((a, a)))


def test_summable_in_rel_is_unconditional():
    E = BaseSpace("rel", (a,))
    F = BaseSpace("rel", (a, b))
    assert summable(E, F, rel_of((a, a)), rel_of((a, a)))


def test_msum_is_union():
    E = coh(atoms=(a,))
    F = coh(atoms=(a, b), scoh={(a, b)})
    s = msum(E, F, rel_of((a, a)), rel_of((a, b)))
    assert s.pairs == frozenset({(a, a), (a, b)})


def test_zero_is_neutral_for_sums():
    E = coh(atoms=(a,))
    F = coh(atoms=(a, b), scoh={(a, b)})
    zero = rel_of()
    f = rel_of((a, b))
    assert summable(E, F, f, zero) and summable(E, F, zero, f)
    assert msum(E, F, f, zero).pairs == f.pairs
    assert nary_summable(E, F, []).pairs == frozenset()  # the empty sum


def test_nary_sum_refuses_a_member_that_is_not_a_morphism():
    E, F = coh(atoms=(a,)), coh()  # a and b incoherent in F
    good, bad = rel_of((a, a)), rel_of((a, a), (a, b))
    assert is_morphism(E, F, good) and not is_morphism(E, F, bad)
    assert nary_summable(E, F, [bad, good]) is None
    assert nary_summable(E, F, [good, bad]) is None


def _all_morphisms(E, F):
    hom = [(x, y) for x in E.atoms for y in F.atoms]
    out = []
    for bits in itertools.product((0, 1), repeat=len(hom)):
        r = rel_of(*(p for p, keep in zip(hom, bits) if keep))
        if is_morphism(E, F, r):
            out.append(r)
    return out


def _groupings(E, F, fs):
    """Values of every full parenthesization, None where a sum fails."""
    if len(fs) == 1:
        return [fs[0]]
    vals = []
    for k in range(1, len(fs)):
        for l in _groupings(E, F, fs[:k]):
            for r in _groupings(E, F, fs[k:]):
                if l is None or r is None or not summable(E, F, l, r):
                    vals.append(None)
                else:
                    vals.append(msum(E, F, l, r))
    return vals


def test_nary_sum_permutation_and_regrouping_invariant_exhaustive():
    """Every 3-element family over small webs: all orders and all
    parenthesizations agree on summability and on the value."""
    E = coh(atoms=(a, b), scoh={(a, b)})
    F = coh(atoms=(a, b), scoh={(a, b)})
    ms = _all_morphisms(E, F)
    for fs in itertools.product(ms, repeat=3):
        base = nary_summable(E, F, list(fs))
        for perm in itertools.permutations(fs):
            got = nary_summable(E, F, list(perm))
            assert (got is None) == (base is None)
            if base is not None:
                assert got.pairs == base.pairs
        for val in _groupings(E, F, list(fs)):
            assert (val is None) == (base is None)
            if base is not None:
                assert val.pairs == base.pairs


def test_canonical_iso_round_trip():
    """SE ≅ (I ⊸ E) in both directions on every atom."""
    E = coh(atoms=(a, b), scoh={(a, b)})
    fwd, back = canonical_iso(E)
    r = pm_compose(back, fwd).materialize(BUD)
    ids = {(x, x) for x in enumerate_web(SFun(E), BUD)}
    assert r.pairs == frozenset(ids)


def test_ispace_coherence_shape():
    """I = 1 & 1: the two points are strictly coherent in one direction
    only when read through S; inside I they are just the with-pairing."""
    I = ispace("coh")
    pts = enumerate_web(I, BUD)
    assert len(pts) == 2
    x, y = pts
    assert coherent(I, x, y) is not Verdict.SINCOH
