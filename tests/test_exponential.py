"""The exponential !: der, dig, weak, contr, the Seely isos and m2."""

from collections import Counter

from cohdiff.exponential import contr, der, dig, m2, seely2, seely2_inv, weak
from cohdiff.maps import pm_compose, pm_id
from cohdiff.spaces import Bang, BaseSpace, Tensor
from cohdiff.web_core import Base, Budget, Multiset, Pair

a, b, c = Base("a"), Base("b"), Base("c")
BUD = Budget(3)


def space(kind="rel", atoms=(a, b)):
    return BaseSpace(kind, atoms)


def test_der_extracts_singletons():
    E = space()
    r = der(E).materialize(BUD)
    assert r.pairs == frozenset({(Multiset.of([a]), a), (Multiset.of([b]), b)})


def test_weak_sends_empty_to_star():
    E = space()
    r = weak(E).materialize(BUD)
    assert len(r.pairs) == 1
    (m, _), = r.pairs
    assert m == Multiset.of([])


def test_contr_splits_every_way():
    E = space(atoms=(a,))
    r = contr(E).materialize(Budget(2))
    got = {(x, y.left, y.right) for x, y in r.pairs}
    assert (Multiset.of([a, a]), Multiset.of([a]), Multiset.of([a])) in got
    assert (Multiset.of([a]), Multiset.of([a]), Multiset.of([])) in got
    assert (Multiset.of([a]), Multiset.of([]), Multiset.of([a])) in got
    assert (Multiset.of([]), Multiset.of([]), Multiset.of([])) in got


def _freeze(parts):
    """Canonical form of a list of Counters: sorted tuple of sorted items."""
    return tuple(sorted((tuple(sorted(p.items(), key=repr)) for p in parts), key=repr))


def _partitions_oracle(elems):
    """All ways to split a list into unordered non-empty parts, as
    multisets of multisets — an independent stdlib-only reimplementation."""
    if not elems:
        return {()}
    out = set()
    first, rest = elems[0], elems[1:]
    for sub in _partitions_oracle(rest):
        parts = [Counter(dict(p)) for p in sub]
        # first joins an existing part
        for i in range(len(parts)):
            grown = [Counter(p) for p in parts]
            grown[i][first] += 1
            out.add(_freeze(grown))
        # or starts its own
        out.add(_freeze(parts + [Counter({first: 1})]))
    return out


def test_dig_nonempty_parts_match_partition_oracle():
    E = space(atoms=(a, b))
    r = dig(E).materialize(BUD)
    for m, mm in r.pairs:
        # every output is a partition of the input
        total = Counter()
        for part in mm:
            total += Counter(dict(part.entries))
        assert total == Counter(dict(m.entries))
    # and all partitions into non-empty parts are present once the
    # degree window is wide enough to hold them
    r = dig(E).materialize(Budget(8, 200000))
    elems = [a, a, b]
    want = _partitions_oracle(elems)
    got = set()
    for m, mm in r.pairs:
        if m != Multiset.of(elems):
            continue
        parts = [p for p in mm if len(p)]
        if len(parts) == len(list(mm)):  # no empty parts
            got.add(_freeze([Counter(dict(p.entries)) for p in parts]))
    assert got == want


def test_dig_includes_empty_parts_up_to_margin():
    E = space(atoms=(a,))
    r = dig(E).materialize(BUD)
    assert (Multiset.of([a]), Multiset.of([Multiset.of([a]), Multiset.of([])])) in r.pairs


def test_comonad_counit_on_concrete_space():
    E = space(atoms=(a, b))
    lhs = pm_compose(der(Bang(E)), dig(E)).materialize(BUD)
    rhs = pm_id(Bang(E)).materialize(BUD)
    assert lhs.pairs == rhs.pairs


def test_seely2_iso_on_concrete_space():
    E, F = space(atoms=(a,)), space(atoms=(b,))
    fwd = seely2(E, F)
    back = seely2_inv(E, F)
    r = pm_compose(back, fwd).materialize(BUD)
    assert r.pairs == pm_id(Tensor(Bang(E), Bang(F))).materialize(BUD).pairs


def test_seely2_merges_tagged_components():
    """!E ⊗ !F → !(E & F) tags the left component 0 and the right 1."""
    E, F = space(atoms=(a,)), space(atoms=(b,))
    r = seely2(E, F).materialize(BUD)
    assert r.pairs
    for p, m in r.pairs:
        zeros = [x.inner for x in m if x.index == 0]
        ones = [x.inner for x in m if x.index == 1]
        assert p.left == Multiset.of(zeros) and p.right == Multiset.of(ones)


def test_m2_merges_multisets():
    E, F = space(atoms=(a,)), space(atoms=(b,))
    r = m2(E, F).materialize(BUD)
    assert (Pair(Multiset.of([a]), Multiset.of([b])), Multiset.of([Pair(a, b)])) in r.pairs
