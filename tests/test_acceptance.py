"""Acceptance gate: seven top-level criteria, one reported line each.

Each test prints a single PASS/FAIL line on the real stderr so the
verdicts are visible even under pytest's capture.
"""

import itertools
import random
import sys
import time

import cohdiff.calculus as cal
from cohdiff import lawcheck
from cohdiff.calculus import alpha_eq, parse, step, typecheck
from cohdiff.corpus import make_corpus
from cohdiff.denot import SemEnv, soundness_check
from cohdiff.differential import dbar, dhat, dpartial
from cohdiff.exponential import contr, der, weak
from cohdiff.lawcheck import MapCtx, gen_morphism, gen_space, run_all, run_check
from cohdiff.maps import PointMap
from cohdiff.spaces import (
    Bang,
    BaseSpace,
    SFun,
    enumerate_web,
    is_clique,
    is_morphism,
    ispace,
)
from cohdiff.summability import L_map, msum, nary_summable, pr0, summable
from cohdiff.web_core import Base, Budget, Multiset, Pair, Rel, Tag, degree
from relfun import fun_apply, local_derivative, matapp

BUD = Budget(3)
a, b = Base("a"), Base("b")


def report(criterion, ok):
    verdict = "PASS" if ok else "FAIL"
    sys.__stderr__.write(f"[{verdict}] {criterion}\n")
    sys.__stderr__.flush()
    assert ok, criterion


# -- 1. full law suite ------------------------------------------------------


def test_criterion_1_law_suite_green_and_mutation_sensitive(monkeypatch):
    t0 = time.monotonic()
    results = run_all(kinds=("coh", "nucs", "rel"), seed=7, trials=100, budget=BUD)
    elapsed = time.monotonic() - t0
    failures = [(r.name, r.kind, r.witness) for r in results if not r.ok]

    def mutant(E):
        base = dpartial(E)

        def at(bound):
            base_at = base.at(bound)

            def fn(x):
                skipped = False
                for y in sorted(set(base_at(x)), key=repr):
                    if not skipped and isinstance(y, Tag) and y.index == 1:
                        skipped = True
                        continue
                    yield y

            return fn

        return PointMap(base.src, base.tgt, at)

    monkeypatch.setattr(lawcheck, "dpartial", mutant)
    mut = run_check("d-chain-der", MapCtx("coh", BUD), seed=0, trials=50)
    ok = not failures and elapsed < 60.0 and not mut.ok and bool(mut.witness)
    report(
        f"criterion 1: law suite 100 trials x 3 models in {elapsed:.1f}s, "
        f"failures={failures or 'none'}, mutated ∂ caught with witness={bool(mut.witness)}",
        ok,
    )


# -- 2. exact formulas for ∂ and ∂̄ ------------------------------------------


def test_criterion_2_exact_differential_formulas():
    E = BaseSpace("coh", (a,))
    got_dp = dpartial(E).materialize(Budget(2)).pairs
    t0, t1 = (lambda x: Tag(0, x)), (lambda x: Tag(1, x))
    want_dp = frozenset(
        {
            (Multiset.of([]), t0(Multiset.of([]))),
            (Multiset.of([t0(a)]), t0(Multiset.of([a]))),
            (Multiset.of([t0(a), t0(a)]), t0(Multiset.of([a, a]))),
            (Multiset.of([t1(a)]), t1(Multiset.of([a]))),
        }
    )
    z, o = Tag(0, Base("*")), Tag(1, Base("*"))
    want_db = frozenset(
        {(z, Multiset.of([z] * k)) for k in range(4)}
        | {(o, Multiset.of([z] * k + [o])) for k in range(3)}
    )
    ok = got_dp == want_dp and dbar(3).pairs == want_db
    report("criterion 2: dpartial four-pair example and dbar at degree 3, exact", ok)


# -- 3. Taylor contrast between the uniform and non-uniform models ----------


def test_criterion_3_taylor_contrast():
    s1 = Rel(frozenset({(Multiset.of([a]), b)}))
    s2 = Rel(frozenset({(Multiset.of([a, a]), b)}))
    Ec = BaseSpace("coh", (a,))
    Fc = BaseSpace("coh", (b,))
    En = BaseSpace("nucs", (a,), frozenset({(a, a)}))
    Fn = BaseSpace("nucs", (b,), frozenset({(b, b)}))
    t0, t1 = (lambda x: Tag(0, x)), (lambda x: Tag(1, x))
    want_lin = frozenset(
        {(Multiset.of([t0(a)]), t0(b)), (Multiset.of([t1(a)]), t1(b))}
    )
    base = (Multiset.of([t0(a), t0(a)]), t0(b))
    cross = (Multiset.of([t0(a), t1(a)]), t1(b))
    ok = (
        dhat(Ec, Fc, s1, BUD).pairs == want_lin
        and dhat(Ec, Fc, s2, BUD).pairs == frozenset({base})
        and dhat(En, Fn, s2, BUD).pairs == frozenset({base, cross})
    )
    report("criterion 3: D̂s / D̂s' exact in COH, extra cross term only in NUCS", ok)


# -- 4. D̂ computes local derivatives on cliques ------------------------------


def _summable_clique_pairs(E, max_total):
    atoms = list(E.atoms)
    subsets = [
        [x for x, keep in zip(atoms, bits) if keep]
        for bits in itertools.product((0, 1), repeat=len(atoms))
    ]
    S = SFun(E)
    for x in subsets:
        for u in subsets:
            if len(x) + len(u) > max_total:
                continue
            tagged = [Tag(0, e) for e in x] + [Tag(1, e) for e in u]
            if is_clique(S, tagged):
                yield x, u


def test_criterion_4_dhat_matches_local_derivative():
    rng = random.Random(12)
    bad = []
    for i in range(30):
        E = gen_space(rng, "coh", 3)
        F = gen_space(rng, "coh", 3)
        s = gen_morphism(rng, Bang(E), F, BUD)
        d = dhat(E, F, s, BUD)
        for x, u in _summable_clique_pairs(E, 3):
            point = [Tag(0, e) for e in x] + [Tag(1, e) for e in u]
            got = fun_apply(d, point)
            want = frozenset(
                {Tag(0, y) for y in fun_apply(s, x)}
                | {Tag(1, y) for y in matapp(local_derivative(s, x), u)}
            )
            if got != want:
                bad.append((i, x, u))
    report(
        "criterion 4: Fun(D̂s) = (Fun s, local derivative) on 30 random "
        f"morphisms, all summable clique pairs; mismatches={bad or 'none'}",
        not bad,
    )


# -- 5. Lafont uniqueness at desk scale --------------------------------------


def test_criterion_5_lafont_uniqueness():
    bud = Budget(2)
    I = ispace("coh")
    webI = enumerate_web(I, bud)
    webB = enumerate_web(Bang(I), bud)
    cand_pairs = [(x, m) for x in webI for m in webB]
    derR = der(I).materialize(bud).pairs
    weakR = weak(I).materialize(bud).pairs
    contrR = contr(I).materialize(bud).pairs
    LR = L_map().pairs
    pr0R = pr0().pairs
    id_I = frozenset((x, x) for x in webI)

    def compose(h, r):
        return frozenset((x, z) for x, m in h for m2, z in r if m2 == m)

    sols = []
    for bits in itertools.product((0, 1), repeat=len(cand_pairs)):
        h = frozenset(p for p, keep in zip(cand_pairs, bits) if keep)
        if compose(h, derR) != id_I:
            continue
        if compose(h, weakR) != frozenset(pr0R):
            continue
        lhs = compose(h, contrR)
        # truncate (h ⊗ h) ∘ L to the same degree bound as the left side
        rhs = frozenset(
            (x, Pair(c1, c2))
            for x, p in LR
            for i2, c1 in h
            if i2 == p.left
            for j2, c2 in h
            if j2 == p.right and degree(c1) + degree(c2) <= 2
        )
        if lhs == rhs:
            sols.append(h)
    want = frozenset(dbar(2).pairs)
    ok = len(sols) == 1 and sols[0] == want
    report(
        f"criterion 5: brute force over {2 ** len(cand_pairs)} relations I→!I "
        f"finds exactly the degree-2 truncation of dbar ({len(sols)} solution)",
        ok,
    )


# -- 6. calculus: subject reduction, sum restriction, rule soundness ---------

# one closed exerciser per shipped head-reduction rule
RULE_TERMS = [
    ("beta", "(\\x:nat. succ x) 2"),
    ("succ-numeral", "succ 1"),
    ("d-lambda", "D (\\x:nat. x)"),
    ("if0-zero", "if0 0 1 2"),
    ("if0-succ", "if0 2 1 2"),
    ("fix-unfold", "fix (\\x:nat. 2)"),
    ("proj-inj-match", "pi0^0 (iota0^0 2)"),
    ("proj-inj-mismatch", "pi1^0 (iota0^0 2)"),
    ("proj-sigma", "pi1^0 (sigma^0 (iota0^0 (iota1^0 1)))"),
    ("proj-commute-depth", "pi0^0 (pi0^1 (iota0^1 (iota0^0 2)))"),
    ("sigma-commute-depth", "sigma^0 (iota0^2 (iota0^0 (iota0^0 1)))"),
    ("c-commute-depth", "c^0 (iota0^2 (iota0^0 (iota0^0 1)))"),
    ("iota-commute-depth", "iota0^0 (iota0^1 (iota0^0 2))"),
    ("proj-over-lambda", "pi0^0 ((\\x:nat. iota0^0 x) 1)"),
    ("sigma-over-app", "sigma^0 ((\\x:nat. iota0^0 (iota0^0 x)) 1)"),
    ("app-zero-fun", "0[nat => nat] 1"),
    ("plus-under-proj",
     "pi0^0 (pi0^0 (iota0^0 (iota0^0 1)) + pi1^0 (iota0^0 (iota0^0 1)))"),
    ("zero-lambda-body", "\\x:nat. 0[nat]"),
]


def test_criterion_6_calculus():
    sr_violations = []
    for m, t in make_corpus(seed=0, count=200):
        cur = m
        for _ in range(40):
            nxt = step(cur)
            if nxt is None:
                break
            try:
                if typecheck(nxt) != t:
                    sr_violations.append(cal.to_text(nxt))
                    break
            except cal.TypeError_:
                sr_violations.append(cal.to_text(nxt))
                break
            cur = nxt

    try:
        typecheck(parse("\\x:nat. \\y:nat. x + y"))
        sum_rejected = False
    except cal.TypeError_:
        sum_rejected = True

    ident = cal.normalize(parse("D (\\x:nat. x)"), fuel=50)
    d_ident_ok = alpha_eq(ident, parse("\\y:D nat. y"))

    sem = SemEnv(kind="coh", nmax=3, budget=BUD)
    rule_violations = []
    for name, src in RULE_TERMS:
        m = parse(src)
        n = step(m)
        assert n is not None, f"rule exerciser {name} does not step"
        ok, info = soundness_check(m, n, sem)
        if not ok:
            rule_violations.append((name, info))

    ok = (
        not sr_violations
        and sum_rejected
        and d_ident_ok
        and not rule_violations
    )
    report(
        "criterion 6: subject reduction on 200 terms "
        f"(violations={sr_violations or 'none'}), x+y rejected={sum_rejected}, "
        f"D(id) ≡α id={d_ident_ok}, rule soundness violations="
        f"{rule_violations or 'none'}",
        ok,
    )


# -- 7. n-ary summability: permutation and regrouping invariance -------------


def _all_morphisms(E, F):
    hom = [(x, y) for x in E.atoms for y in F.atoms]
    out = []
    for bits in itertools.product((0, 1), repeat=len(hom)):
        r = Rel(frozenset(p for p, keep in zip(hom, bits) if keep))
        if is_morphism(E, F, r):
            out.append(r)
    return out


def _groupings(E, F, fs):
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


def _invariant(E, F, fs):
    base = nary_summable(E, F, list(fs))
    for perm in itertools.permutations(fs):
        got = nary_summable(E, F, list(perm))
        if (got is None) != (base is None):
            return False
        if base is not None and got.pairs != base.pairs:
            return False
    for val in _groupings(E, F, list(fs)):
        if (val is None) != (base is None):
            return False
        if base is not None and val.pairs != base.pairs:
            return False
    return True


def test_criterion_7_nary_summability_invariance():
    c = Base("c")
    E3 = BaseSpace("coh", (a, b), frozenset({(a, b)}))
    F3 = BaseSpace("coh", (a, b), frozenset({(a, b)}))
    E4 = BaseSpace("coh", (a,))
    F4 = BaseSpace("coh", (a, b, c), frozenset({(a, b), (b, c)}))
    checked = failed = 0
    ms3 = _all_morphisms(E3, F3)
    for fs in itertools.product(ms3, repeat=3):
        checked += 1
        if not _invariant(E3, F3, fs):
            failed += 1
    ms4 = _all_morphisms(E4, F4)
    for fs in itertools.product(ms4, repeat=4):
        checked += 1
        if not _invariant(E4, F4, fs):
            failed += 1
    report(
        f"criterion 7: summability invariance on {checked} exhaustive "
        f"3- and 4-element families, failures={failed}",
        failed == 0,
    )
