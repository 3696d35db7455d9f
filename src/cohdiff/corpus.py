"""Seeded generation of well-typed closed terms.

Used by the stress tests: a corpus term is guaranteed to typecheck in
the empty context, so every reduction step taken from it must preserve
the type.  Generation is type-directed — we pick a target type and grow
a term of that type, so no rejection sampling loop is needed beyond a
final sanity typecheck.
"""

import random

from .calculus import (
    App,
    Arrow,
    CTerm,
    DTerm,
    Fix,
    If0,
    Inj,
    Lam,
    Nat,
    Num,
    Plus,
    Proj,
    SigmaT,
    Succ,
    Term,
    Ty,
    Var,
    Zero,
    dtype,
    nat_depth,
    parse,
    strip_d,
    to_text,
    typecheck,
)


def gen_type(rng: random.Random, depth: int = 2) -> Ty:
    """A random type: nats up to depth 2, arrows up to the given nesting."""
    if depth == 0 or rng.random() < 0.55:
        return Nat(rng.randint(0, 2))
    return Arrow(gen_type(rng, depth - 1), gen_type(rng, depth - 1))


def _leaf(rng: random.Random, ty: Ty, env: dict) -> Term:
    """A small term of the given type, without recursion."""
    opts = [n for n, t in env.items() if t == ty]
    if opts and rng.random() < 0.6:
        return Var(rng.choice(opts))
    if isinstance(ty, Arrow):
        x = f"x{len(env)}"
        return Lam(x, ty.src, _leaf(rng, ty.tgt, {**env, x: ty.src}))
    if ty.depth == 0:
        return Num(rng.randint(0, 3))
    return Inj(rng.randint(0, 1), ty.depth - 1, _leaf(rng, Nat(ty.depth - 1), env))


def gen_term(rng: random.Random, ty: Ty, env: dict | None = None, fuel: int = 4) -> Term:
    env = dict(env or {})
    if fuel <= 0:
        return _leaf(rng, ty, env)
    fuel -= 1
    d = nat_depth(ty)
    moves = ["leaf", "zero_sum", "proj", "proj_pair"]
    if isinstance(ty, Nat):
        if ty.depth == 0:
            moves += ["succ", "if0", "if0"]
        else:
            moves += ["inj", "inj"]
        if ty.depth >= 1:
            moves.append("sigma")
        if ty.depth >= 2:
            moves.append("cmove")
    else:
        moves += ["lam", "lam", "lam", "app"]
        if rng.random() < 0.25:
            moves.append("fix")
        if strip_d(ty.src, 0) is not None and strip_d(ty.tgt, 0) is not None:
            moves += ["dmove", "dmove"]
    mv = rng.choice(moves)

    if mv == "leaf":
        return _leaf(rng, ty, env)
    if mv == "zero_sum":
        m = gen_term(rng, ty, env, fuel)
        return Plus(m, Zero(ty)) if rng.random() < 0.5 else Plus(Zero(ty), m)
    if mv == "proj":
        k = rng.randint(0, d)
        body = gen_term(rng, dtype(ty), env, fuel)
        return Proj(rng.randint(0, 1), k, body)
    if mv == "proj_pair":
        k = rng.randint(0, d)
        body = gen_term(rng, dtype(ty), env, fuel)
        return Plus(Proj(0, k, body), Proj(1, k, body))
    if mv == "succ":
        return App(Succ(), gen_term(rng, Nat(0), env, fuel))
    if mv == "if0":
        return If0(
            gen_term(rng, Nat(0), env, fuel),
            gen_term(rng, ty, env, fuel),
            gen_term(rng, ty, env, fuel),
        )
    if mv == "inj":
        k = rng.randint(0, ty.depth - 1)
        return Inj(rng.randint(0, 1), k, gen_term(rng, Nat(ty.depth - 1), env, fuel))
    if mv == "sigma":
        k = rng.randint(0, ty.depth - 1)
        return SigmaT(k, gen_term(rng, Nat(ty.depth + 1), env, fuel))
    if mv == "cmove":
        k = rng.randint(0, ty.depth - 2)
        return CTerm(k, gen_term(rng, ty, env, fuel))
    if mv == "lam":
        x = f"x{len(env)}"
        return Lam(x, ty.src, gen_term(rng, ty.tgt, {**env, x: ty.src}, fuel))
    if mv == "app":
        src = Nat(rng.randint(0, 1)) if rng.random() < 0.7 else gen_type(rng, 1)
        fn = gen_term(rng, Arrow(src, ty), env, fuel)
        return App(fn, gen_term(rng, src, env, fuel))
    if mv == "fix":
        # keep recursion trivially productive: fix (\x. M) with x unused
        x = f"x{len(env)}"
        return Fix(Lam(x, ty, gen_term(rng, ty, env, fuel)))
    if mv == "dmove":
        body = gen_term(rng, Arrow(strip_d(ty.src, 0), strip_d(ty.tgt, 0)), env, fuel)
        return DTerm(body)
    raise AssertionError(mv)


# a few hand-picked terms that exercise the differential rules directly
SHOWCASE = [
    r"D (\x:nat. x)",
    r"(D (\x:nat. x)) (iota1^0 1)",
    r"(D (\x:nat. succ x)) (iota1^0 2)",
    r"pi1^0 ((D (\x:nat. (\y:nat. y) x)) (iota1^0 0))",
    r"D (D (\x:nat. x))",
    r"(D (\f:nat => nat. f 1)) (iota1^0 (\x:nat. succ x))",
    r"sigma^0 (iota0^1 (iota1^0 3))",
    r"c^0 (iota0^1 (iota1^0 1))",
    r"pi0^0 (iota0^0 2) + pi1^0 (iota0^0 2)",
    r"if0 0 (succ 1) 0[nat]",
    r"fix (\x:nat. 5)",
    r"(\f:nat => nat. f (f 0)) (\x:nat. succ x)",
]


def make_corpus(seed: int = 0, count: int = 200):
    """A list of (term, type) pairs, all closed and well-typed."""
    rng = random.Random(seed)
    out = []
    seen = set()
    for src in SHOWCASE:
        m = parse(src)
        out.append((m, typecheck(m)))
        seen.add(to_text(m))
    while len(out) < count:
        ty = gen_type(rng)
        m = gen_term(rng, ty)
        key = to_text(m)
        if key in seen:
            continue
        seen.add(key)
        out.append((m, typecheck(m)))
    return out
