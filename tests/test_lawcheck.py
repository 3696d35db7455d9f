"""The randomized law registry: coverage, determinism, mutation sanity."""

import gc
import importlib
import random
from collections import Counter
from dataclasses import replace

import pytest

from cohdiff import differential, exponential, lawcheck, maps, spaces, web_core
from cohdiff.differential import dpartial
from cohdiff.lawcheck import (
    REGISTRY,
    MapCtx,
    gen_morphism,
    gen_space,
    gen_summable_pair,
    run_all,
    run_check,
)
from cohdiff.exponential import der, dig, m2
from cohdiff.maps import PointMap, pm_bang, pm_compose, pm_id, pm_tensor
from cohdiff.spaces import Bang, BaseSpace, Limpl, Tensor, Verdict, With, contains, enumerate_web, is_morphism, web_of
from cohdiff.web_core import Base, Budget, Tag, within_budget

BUD = Budget(3)

# every law family the registry is meant to cover
REQUIRED = [
    # summability structure
    "sum-com",
    "sum-zero",
    "sum-wit",
    "sum-assoc",
    "joint-monicity",
    # exponential comonad + comonoids + Seely
    "bang-counit-left",
    "bang-counit-right",
    "bang-coassoc",
    "comonoid-counit",
    "comonoid-coassoc",
    "comonoid-cocomm",
    "seely-iso",
    # differential axioms
    "d-local",
    "d-lin-unit",
    "d-lin-mult",
    "d-chain-der",
    "d-chain-dig",
    "d-with-0",
    "d-with-2",
    "leibniz-weak",
    "leibniz-contr",
    "d-schwarz",
    "d-consistency",
    # the coalgebra form on I
    "dbar-counit",
    "dbar-coassoc",
    "dbar-local",
    "dbar-comonoid-mor",
    "i-comonoid",
]


def test_registry_covers_required_laws():
    missing = [n for n in REQUIRED if n not in REGISTRY]
    assert not missing, f"registry lacks: {missing}"


def test_generators_produce_morphisms():
    rng = random.Random(0)
    for kind in ("coh", "nucs", "rel"):
        for _ in range(10):
            E, F = gen_space(rng, kind), gen_space(rng, kind)
            f = gen_morphism(rng, E, F, BUD)
            assert is_morphism(E, F, f)
            f0, f1 = gen_summable_pair(rng, E, F, BUD)
            assert is_morphism(E, F, f0) and is_morphism(E, F, f1)


def test_gen_space_respects_web_cap():
    rng = random.Random(1)
    for _ in range(20):
        assert len(gen_space(rng, "coh", 2).atoms) <= 2


def test_run_all_is_deterministic():
    kw = dict(kinds=("coh",), seed=42, trials=3, budget=BUD)
    fst = [(r.name, r.kind, r.ok, r.trials) for r in run_all(**kw)]
    snd = [(r.name, r.kind, r.ok, r.trials) for r in run_all(**kw)]
    assert fst == snd


def test_small_smoke_run_passes():
    res = run_all(kinds=("coh", "nucs", "rel"), seed=3, trials=2, budget=BUD)
    bad = [(r.name, r.kind, r.witness) for r in res if not r.ok]
    assert not bad


def _mutant_dpartial(E):
    """∂ with one pair silently dropped: the least increment pair."""
    base = dpartial(E)

    def at(bound):
        base_at = base.at(bound)

        def fn(x):
            outs = sorted(set(base_at(x)), key=repr)
            skipped = False
            for y in outs:
                if not skipped and isinstance(y, Tag) and y.index == 1:
                    skipped = True
                    continue
                yield y

        return fn

    return PointMap(base.src, base.tgt, at)


def test_mutated_dpartial_fails_chain_law_with_witness(monkeypatch):
    monkeypatch.setattr(lawcheck, "dpartial", _mutant_dpartial)
    res = run_check("d-chain-der", MapCtx("coh", BUD), seed=0, trials=50)
    assert not res.ok
    assert res.witness  # a concrete differing pair is reported


def test_mutated_dpartial_still_passes_unrelated_law(monkeypatch):
    """The mutation is surgical: locality does not see the dropped pair."""
    monkeypatch.setattr(lawcheck, "dpartial", _mutant_dpartial)
    res = run_check("sum-com", MapCtx("coh", BUD), seed=0, trials=5)
    assert res.ok


def _true_once(real):
    """summable that answers truly on its first call and False after: not symmetric."""
    calls = []

    def mutant(*args):
        calls.append(args)
        return len(calls) == 1 and real(*args)

    return mutant


def _base_only(real):
    """msum that adds across base spaces only and returns its first summand elsewhere."""

    def mutant(E, F, f0, f1):
        return real(E, F, f0, f1) if isinstance(E, BaseSpace) and isinstance(F, BaseSpace) else f0

    return mutant


# mutant -> (the name lawcheck reads, a factory that builds the mutant from the real function)
SUM_MUTANTS = {
    "summable-never": ("summable", lambda real: lambda *args: False),
    "summable-once": ("summable", _true_once),
    "nary-never": ("nary_summable", lambda real: lambda *args: None),
    "nary-refuses-three": ("nary_summable", lambda real: lambda E, F, fs: None if len(fs) > 2 else real(E, F, fs)),
    "nary-refuses-two": ("nary_summable", lambda real: lambda E, F, fs: None if len(fs) == 2 else real(E, F, fs)),
    "nary-first": ("nary_summable", lambda real: lambda E, F, fs: fs[0]),
    "is-morphism-never": ("is_morphism", lambda real: lambda *args: False),
    "witness-swapped": ("witness", lambda real: lambda f0, f1: real(f1, f0)),
    "summand-empty": ("_summand", lambda real: lambda w, i: frozenset()),
    "msum-first": ("msum", lambda real: lambda E, F, f0, f1: f0),
    "msum-second": ("msum", lambda real: lambda E, F, f0, f1: f1),
    "msum-base-only": ("msum", _base_only),
}
ALL_KINDS = ("coh", "nucs", "rel")
# (mutant, law, models where it must fail, witness or {model: witness}): one
# row per failure return
SUM_FAILURES = [
    ("summable-never", "sum-zero", ALL_KINDS, "f and 0 not summable"),
    ("summable-never", "sum-com", ALL_KINDS, "generated pair not summable"),
    ("summable-never", "sum-tensor", ALL_KINDS, "tensored pair not summable"),
    ("summable-never", "sum-with", ALL_KINDS, "paired morphisms not summable"),
    ("summable-once", "sum-com", ALL_KINDS, "summability not symmetric"),
    ("nary-never", "sum-assoc", ("coh", "rel"), "slices of one morphism must be summable"),
    ("nary-refuses-three", "sum-assoc", ("nucs",), "grouped fold succeeded where flat fold failed"),
    ("nary-refuses-two", "sum-assoc", ALL_KINDS, "flat fold succeeded but grouped fold failed"),
    ("nary-first", "sum-assoc", ALL_KINDS, "regrouped sums differ"),
    ("is-morphism-never", "sum-wit", ALL_KINDS, "witness of summable pair is not a morphism"),
    ("witness-swapped", "sum-wit", ALL_KINDS, "witness of the projections is not the drawn witness"),
    ("summand-empty", "sum-wit", ALL_KINDS, {
        "coh": "projection 1 does not recover the summand",
        "nucs": "projection 0 does not recover the summand",
        "rel": "projection 1 does not recover the summand",
    }),
    ("summand-empty", "joint-monicity", ALL_KINDS, "projections agree but maps differ"),
    ("msum-first", "sum-com", ALL_KINDS, "sum not commutative"),
    ("msum-second", "sum-zero", ALL_KINDS, "f + 0 != f"),
    ("msum-base-only", "sum-tensor", ALL_KINDS, "(f0+f1)⊗g mismatch"),
    ("msum-base-only", "sum-with", ALL_KINDS, "<f0,g0> + <f1,g1> != <f0+f1, g0+g1>"),
]


@pytest.mark.parametrize(
    "mutant, law, kinds, witness", [pytest.param(*row, id=f"{row[0]}-{row[1]}") for row in SUM_FAILURES]
)
def test_each_morphism_drawing_law_can_fail(monkeypatch, mutant, law, kinds, witness):
    """A broken sum, summability test or projection fails the law with its witness."""
    name, make = SUM_MUTANTS[mutant]
    real = getattr(lawcheck, name)
    for kind in kinds:
        monkeypatch.setattr(lawcheck, name, make(real))
        res = run_check(law, MapCtx(kind, BUD), seed=0, trials=10)
        want = witness if isinstance(witness, str) else witness[kind]
        assert not res.ok and res.witness == want, kind


def _drop_one_image(factory):
    """The factory's maps with the least image of every input dropped."""

    def mutant(*spaces):
        pm = factory(*spaces)

        def at(bound):
            fn = pm.at(bound)
            return lambda a: sorted(fn(a), key=repr)[1:]

        return replace(pm, at=at)

    return mutant


@pytest.mark.parametrize("kind", ["coh", "nucs", "rel"])
def test_failing_diagram_reports_its_label(monkeypatch, kind):
    """The witness of a labelled diagram that differs starts with the label."""
    monkeypatch.setattr(lawcheck, "seely2_inv", _drop_one_image(lawcheck.seely2_inv))
    res = run_check("seely-iso", MapCtx(kind, BUD), seed=0, trials=10)
    assert not res.ok and res.trials == 1
    assert res.witness.startswith("seely2 not split mono: ")


@pytest.mark.parametrize("name", [n for n, (_, caps) in REGISTRY.items() if caps == ()])
def test_single_trial_for_deterministic_checks(name):
    """A law that draws nothing is one instance, so one trial checks it."""
    res = run_check(name, MapCtx("coh", BUD), seed=0, trials=100)
    assert res.ok and res.trials == 1 and res.instances == 1


def test_check_runs_once_per_distinct_instance(monkeypatch):
    fn, caps = REGISTRY["bang-counit-left"]
    calls = []

    def counted(ctx, *spaces):
        calls.append(spaces)
        return fn(ctx, *spaces)

    monkeypatch.setitem(REGISTRY, "bang-counit-left", (counted, caps))
    res = run_check("bang-counit-left", MapCtx("rel", BUD), seed=7, trials=100)
    assert res.ok and res.trials == 100
    assert len(calls) == len(set(calls)) == res.instances


def test_instances_count_distinct_space_draws():
    rng = random.Random("7:bang-counit-left:rel")
    distinct = {gen_space(rng, "rel") for _ in range(100)}
    res = run_check("bang-counit-left", MapCtx("rel", BUD), seed=7, trials=100)
    assert res.instances == len(distinct) < 100


def _uniform_compose(g, f):
    """g after f with one bound for every map: the oracle ignores ``pre``."""

    def at(bound):
        f_at, g_at = f.at(bound), g.at(bound)

        def fn(a):
            for b in f_at(a):
                if within_budget(b, bound):
                    yield from g_at(b)

        return fn

    return PointMap(f.src, g.tgt, at)


def _graph_under(pm, budget, bound):
    """pm's pairs on the budget's window, pm fixed at ``bound``."""
    fn = pm.at(bound)
    return frozenset(
        (a, b)
        for a in enumerate_web(pm.src, budget)
        for b in fn(a)
        if within_budget(b, budget.max_degree)
    )


def _law_diagrams(name, ctx, seed, trials):
    """The diagrams the law returns on run_check's draws, once per web tuple."""
    fn, caps = REGISTRY[name]
    rng = random.Random(f"{seed}:{name}:{ctx.kind}")
    diagrams, webs = [], set()
    for _ in range(1 if caps == () else trials):
        if caps is None:
            diagrams += fn(ctx, rng)
            continue
        spaces = tuple(gen_space(rng, ctx.kind, cap) for cap in caps)
        key = tuple(map(web_of, spaces))
        if key not in webs:
            webs.add(key)
            diagrams += fn(ctx, *spaces)
    return diagrams


def _law_sides(monkeypatch, name, kind, budget, trials, compose):
    """Every side of the law's diagrams, its composites built by ``compose``."""
    with monkeypatch.context() as mp:
        mp.setattr(lawcheck, "pm_compose", compose)
        mp.setattr(differential, "pm_compose", compose)
        diagrams = _law_diagrams(name, MapCtx(kind, budget), 0, trials)
    return [side for _, lhs, rhs in diagrams for side in (lhs, rhs)]


def _inexact_sides(monkeypatch, name, kind, budget, trials):
    """Indices of the sides whose graph at their derived bounds differs from the
    graph of the same side with every map run under the generous bound 3D+2."""
    derived = _law_sides(monkeypatch, name, kind, budget, trials, pm_compose)
    oracle = _law_sides(monkeypatch, name, kind, budget, trials, _uniform_compose)
    assert derived and len(derived) == len(oracle)
    generous = 3 * budget.max_degree + 2
    return [
        i
        for i, (side, ref) in enumerate(zip(derived, oracle))
        if side.materialize(budget).pairs != _graph_under(ref, budget, generous)
    ]


def _returns_verdict(name):
    """Whether the law returns its verdict (ok, witness) rather than its diagrams."""
    fn, caps = REGISTRY[name]
    rng = random.Random(0)
    args = (rng,) if caps is None else tuple(gen_space(rng, "coh", cap) for cap in caps)
    return isinstance(fn(MapCtx("coh", BUD), *args), tuple)


DIAGRAM_LAWS = [n for n in REGISTRY if not _returns_verdict(n)]


@pytest.mark.parametrize("kind", ["coh", "nucs", "rel"])
@pytest.mark.parametrize("name", DIAGRAM_LAWS)
def test_tightened_margins_are_exact(monkeypatch, name, kind):
    """Every side a law compares is exact at the bounds its maps derive."""
    for degree, trials in ((3, 3), (4, 1)):
        assert not _inexact_sides(monkeypatch, name, kind, Budget(degree), trials)


@pytest.mark.parametrize("name", ["der", "contr", "seely2_inv"])
def test_undeclared_degree_drop_fails_the_oracle(monkeypatch, name):
    """A map that lowers degree but keeps the identity ``pre`` loses pairs."""
    real = getattr(lawcheck, name)
    monkeypatch.setattr(lawcheck, name, lambda *spaces: replace(real(*spaces), pre=lambda b: b))
    assert any(_inexact_sides(monkeypatch, law, "coh", BUD, 3) for law in DIAGRAM_LAWS)


def _pair_web_composites(compose, kind):
    """Composites over pair webs, where within_budget bounds each component."""
    X = BaseSpace(kind, (Base("a"),))
    E = Tensor(Bang(X), Bang(X))
    four = Tensor(E, E)
    return {
        "der.dig": compose(der(Bang(E)), dig(E)),
        "!der.dig": compose(pm_bang(der(E)), dig(E)),
        # an intermediate [((x1,x2),(x3,x4))] holds up to 4D-3 > 2D+2 at D = 3
        "der.m2.(m2⊗m2)": compose(
            der(four), compose(m2(E, E), pm_tensor(m2(Bang(X), Bang(X)), m2(Bang(X), Bang(X))))
        ),
    }


@pytest.mark.parametrize("kind", ["coh", "nucs", "rel"])
def test_derived_bounds_are_exact_on_pair_webs(kind):
    """The declared bounds hold on webs of pairs, which the registry never draws."""
    derived = _pair_web_composites(pm_compose, kind)
    oracle = _pair_web_composites(_uniform_compose, kind)
    for key, pm in derived.items():
        assert pm.materialize(BUD).pairs == _graph_under(oracle[key], BUD, 3 * 3 + 2), key
    for key in ("der.dig", "!der.dig"):  # the two counit laws of the comonad
        assert derived[key].materialize(BUD).pairs == pm_id(derived[key].src).materialize(BUD).pairs
    # one bound of 2D+2 for every map, the old default, misses pairs here
    wide = oracle["der.m2.(m2⊗m2)"]
    assert _graph_under(wide, BUD, 2 * 3 + 2) < _graph_under(wide, BUD, 3 * 3 + 2)


def test_freed_override_does_not_reuse_cached_verdict(monkeypatch):
    """A verdict lives for one ``run_check`` call, not for its MapCtx.

    One MapCtx passes d-with-2; with a mutant ∂ patched in afterwards,
    the same MapCtx must fail it.
    """
    ctx = MapCtx("coh", BUD)
    assert run_check("d-with-2", ctx, seed=0, trials=3).ok

    def mutant(E):
        """∂ without its increment images on & spaces."""
        base = dpartial(E)
        if not isinstance(E, With):
            return base
        def at(bound):
            base_at = base.at(bound)
            return lambda x: (y for y in base_at(x) if y.index == 0)

        return PointMap(base.src, base.tgt, at)

    monkeypatch.setattr(lawcheck, "dpartial", mutant)
    res = run_check("d-with-2", ctx, seed=0, trials=3)
    assert not res.ok and res.witness


def test_a_check_reads_no_verdict_memoized_before_it(monkeypatch):
    """``run_check`` empties the run caches when it starts, not only when it returns.

    A first check, with that clearing switched off, leaves its coherence
    verdicts memoized.  Under a patched ``_verdict`` (⊸ without "a neutral
    output needs a neutral input", which sum-assoc catches in COH), the
    same check must fail: it may not read the verdicts of the old one.
    """
    verdict = spaces._verdict

    def mutant(E, a, b):
        if not isinstance(E, Limpl):
            return verdict(E, a, b)
        va, vb = spaces._verdict(E.left, a.left, b.left), spaces._verdict(E.right, a.right, b.right)
        if va is Verdict.NEU and vb is Verdict.NEU:
            return Verdict.NEU
        return Verdict.SCOH if not va.coherent or vb.coherent else Verdict.SINCOH

    ctx = MapCtx("coh", Budget(2))
    monkeypatch.setattr(lawcheck, "end_run", lambda: None)
    assert run_check("sum-assoc", ctx, seed=0, trials=5).ok
    assert spaces.coherent.cache_info().currsize
    monkeypatch.setattr(lawcheck, "end_run", web_core.end_run)
    monkeypatch.setattr(spaces, "_verdict", mutant)
    assert not run_check("sum-assoc", ctx, seed=0, trials=5).ok
    spaces._enumerate_cached.cache_clear()  # it outlives end_run: no web enumerated under the mutant stays


def test_every_run_cache_wraps_a_module_function_made_once():
    """Run caches are made at import from module-level functions, never per map or per check."""
    importlib.import_module("cohdiff.denot")  # with lawcheck, every module that makes one
    caches = list(web_core._RUN_CACHES)
    assert [f.__qualname__ for f in caches if "<locals>" in f.__qualname__] == []
    for _ in range(2):
        run_all(kinds=("coh",), seed=0, trials=1, budget=Budget(2))
        assert web_core._RUN_CACHES == caches


@pytest.mark.parametrize("degree", [4, 5])
def test_registry_passes_at_higher_budgets(degree):
    """Truncation never shows up as a law failure above the default budget."""
    res = run_all(kinds=("coh", "nucs", "rel"), seed=0, trials=1, budget=Budget(degree))
    bad = [(r.name, r.kind, r.witness) for r in res if not r.ok]
    assert not bad


def test_every_diagram_law_sees_atoms_at_budget_1():
    """At the smallest budget the CLI accepts, no diagram law compares two empty relations."""
    budget = Budget(1)
    vacuous = []
    for kind in ("coh", "nucs", "rel"):
        ctx = MapCtx(kind, budget)
        for name in REGISTRY:
            assert run_check(name, ctx, seed=0, trials=3).ok
        for name in DIAGRAM_LAWS:
            sides = [side for _, lhs, rhs in _law_diagrams(name, ctx, 0, 3) for side in (lhs, rhs)]
            if not any(side.materialize(budget).pairs for side in sides):
                vacuous.append((name, kind))
    assert not vacuous


SPACE_LAWS = [n for n, (_, caps) in REGISTRY.items() if caps]


def _graphs(diagrams, budget):
    """Each diagram's label and the graphs of its two sides on the budget's window."""
    return [(label, lhs.materialize(budget).pairs, rhs.materialize(budget).pairs) for label, lhs, rhs in diagrams]


@pytest.mark.parametrize("name", SPACE_LAWS)
def test_space_laws_read_only_webs(name):
    """A space-drawing law is decided once per web, so it must not read coherence.

    On every distinct NUCS draw of seeds 0 and 7, the law returns diagrams
    with the same labels and the same graphs on the drawn spaces as on
    their webs, so its verdict is the same on both.
    """
    fn, caps = REGISTRY[name]
    ctx = MapCtx("nucs", BUD)
    draws = set()
    for seed in (0, 7):
        rng = random.Random(f"{seed}:{name}:nucs")
        draws |= {tuple(gen_space(rng, "nucs", cap) for cap in caps) for _ in range(20)}
    assert any(spaces != tuple(map(web_of, spaces)) for spaces in draws)
    for spaces in sorted(draws, key=repr):
        drawn = _graphs(fn(ctx, *spaces), BUD)
        assert _graphs(fn(ctx, *map(web_of, spaces)), BUD) == drawn, spaces


def test_every_diagram_side_lies_in_its_webs():
    """Every pair a side materializes joins atoms of its source and target webs.

    ``pm_bang`` and ∂ test no output against a web: the sides' leaves are
    morphisms, so their images stay inside.  Three draws per space law
    and model, caps at most 3, budgets 2 and 3.
    """
    sides = pairs = 0
    for kind in ("coh", "nucs", "rel"):
        for budget in (Budget(2), BUD):
            ctx = MapCtx(kind, budget)
            for name in SPACE_LAWS:
                fn, caps = REGISTRY[name]
                rng = random.Random(f"0:{name}:{kind}")
                for _ in range(3):
                    for _, *both in fn(ctx, *(gen_space(rng, kind, min(cap, 3)) for cap in caps)):
                        for side in both:
                            rel = side.materialize(budget).pairs
                            outside = [p for p in rel if not (contains(side.src, p[0]) and contains(side.tgt, p[1]))]
                            assert not outside, (name, kind, outside[:3])
                            sides, pairs = sides + 1, pairs + len(rel)
    web_core.end_run()
    assert sides > 1000 and pairs > 10000


def _counted(monkeypatch, name):
    """Rebind the law's check to one that records the spaces it is called on."""
    fn, caps = REGISTRY[name]
    calls = []

    def counted(ctx, *spaces):
        calls.append(spaces)
        return fn(ctx, *spaces)

    monkeypatch.setitem(REGISTRY, name, (counted, caps))
    return calls


def test_nucs_check_runs_once_per_distinct_web(monkeypatch):
    calls = _counted(monkeypatch, "bang-counit-left")
    res = run_check("bang-counit-left", MapCtx("nucs", BUD), seed=7, trials=100)
    webs = {tuple(map(web_of, spaces)) for spaces in calls}
    assert res.ok and res.trials == 100
    assert len(calls) == len(webs) == res.webs < res.instances


@pytest.mark.parametrize("name", ["seelyt-mont-2", "bang-coassoc"])
def test_a_law_check_makes_no_cyclic_garbage(name):
    """``pm_bang``, ``dig``'s partitions and ``!`` enumeration recurse without self-referring closures.

    A closure that refers to itself makes one garbage cycle per call,
    which only the cycle collector can free.
    """
    gc.collect()
    gc.disable()
    try:
        res = run_check(name, MapCtx("coh", Budget(2)), seed=0, trials=3)
        cycles = gc.collect()
    finally:
        gc.enable()
    assert res.ok
    assert cycles == 0


def test_a_law_check_keeps_no_memo_after_it_returns(monkeypatch):
    """Every ``run_cache``, coherence verdicts included, lives for one ``run_check`` call.

    During the check ``coherent`` memoizes; afterwards every run cache
    is empty, and once the process-lived enumeration cache is cleared
    too, no atom or space of the check is left in the intern table.
    """
    decide, memos = lawcheck._decide, []

    def recorded(result, budget):
        out = decide(result, budget)
        memos.append(spaces.coherent.cache_info().currsize)
        return out

    monkeypatch.setattr(lawcheck, "_decide", recorded)
    run_caches = [
        web_core.atom_key,
        spaces.contains,
        spaces.coherent,
        *(getattr(exponential, n) for n in ("_dig_image", "_halves", "_tagged", "_split", "_pairings", "_m0_image")),
        *(getattr(exponential, n) for n in ("dig", "contr", "m2", "seely2")),
        differential._dpartial_image,
        differential.dpartial,
        differential._dbar_image,
        maps._side_pairs,
        maps.bind,
    ]
    assert all(f in web_core._RUN_CACHES for f in run_caches)
    web_core.end_run()  # what earlier tests memoized outside a check
    spaces._enumerate_cached.cache_clear()
    gc.collect()
    before = len(web_core._TABLE)
    for _ in range(2):
        res = run_check("seelyt-mont-2", MapCtx("coh", Budget(2)), seed=0, trials=3)
        assert res.ok
        assert memos and all(memos)
        assert [f.cache_info().currsize for f in web_core._RUN_CACHES] == [0] * len(web_core._RUN_CACHES)
        spaces._enumerate_cached.cache_clear()
        gc.collect()
        assert len(web_core._TABLE) == before


def test_a_law_check_keeps_only_bang_webs_after_it_returns(monkeypatch):
    """Within a check each web is built once; after it only ``!`` webs stay cached.

    Every other web lives in the run cache ``spaces._web``, so a product
    web asked for twice in one check is one tuple, and none is left once
    the check returns.
    """
    asked, webs, process_lived = Counter(), {}, spaces._enumerate_cached

    def recorded(E, budget):
        web = enumerate_web(E, budget)
        asked[web_of(E), budget] += 1
        assert webs.setdefault((web_of(E), budget), web) is web
        return web

    def bang_only(E, *bounds):
        assert isinstance(E, Bang), E
        return process_lived(E, *bounds)

    monkeypatch.setattr(maps, "enumerate_web", recorded)
    monkeypatch.setattr(spaces, "_enumerate_cached", bang_only)
    process_lived.cache_clear()
    res = run_check("seelyt-mont-2", MapCtx("coh", Budget(2)), seed=0, trials=3)
    assert res.ok
    assert any(not isinstance(E, Bang) and n > 1 for (E, _), n in asked.items())
    assert spaces._web.cache_info().currsize == 0
    assert process_lived.cache_info().currsize > 0
    process_lived.cache_clear()


def test_a_law_check_evaluates_a_shared_leaf_once_per_atom(monkeypatch):
    """Equal sides over different web tuples share ``materialize``'s memo.

    seelyt-mont-2's left side is built from natural leaves only, so it has
    one point function for every space tuple, and ``_sym23``'s image runs
    at most once per distinct atom over the whole check, although the
    tuples' source webs overlap.
    """
    fn, caps = REGISTRY["seelyt-mont-2"]
    seen, calls = [], Counter()
    image = lawcheck._sym23_image

    def recorded(ctx, *spaces_drawn):
        seen.append(spaces_drawn)
        return fn(ctx, *spaces_drawn)

    def counted(a):
        calls[a] += 1
        return image(a)

    monkeypatch.setitem(REGISTRY, "seelyt-mont-2", (recorded, caps))
    monkeypatch.setattr(lawcheck, "_sym23_image", counted)
    res = run_check("seelyt-mont-2", MapCtx("coh", Budget(2)), seed=0, trials=10)
    assert res.ok and res.webs >= 2
    sources = [
        enumerate_web(Tensor(Tensor(Bang(X0), Bang(X1)), Bang(Y)), Budget(2)) for X0, X1, Y in set(seen)
    ]
    assert sum(map(len, sources)) > len(set().union(*sources))  # the tuples share source atoms
    assert calls and max(calls.values()) == 1
