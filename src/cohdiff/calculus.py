"""A λ-calculus with a differential operator D and tag combinators.

Types: nat, arrows, and the action D(nat_d) = nat_{d+1},
D(A => B) = A => D B.  Terms carry the combinators pi_i^d, iota_i^d,
sigma^d and c^d (projections, injections, tag merge and tag swap at
depth d), the operator D, the empty sum 0 and binary sums.

Sums are typed by two schemas (pi0^d M + pi1^d M, and
pi1^d M0 + pi0^d M1 when M0 + M1 is typeable one level up) plus
closure under inverting one linear-commutation step; anything else —
like x + y for distinct variables — is rejected.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Ty:
    pass


@dataclass(frozen=True)
class Nat(Ty):
    depth: int = 0

    def __repr__(self):
        return "nat" if self.depth == 0 else f"D^{self.depth} nat"


@dataclass(frozen=True)
class Arrow(Ty):
    src: Ty
    tgt: Ty

    def __repr__(self):
        return f"({self.src!r} => {self.tgt!r})"


def dtype(t: Ty) -> Ty:
    """The type operator D."""
    if isinstance(t, Nat):
        return Nat(t.depth + 1)
    return Arrow(t.src, dtype(t.tgt))


def strip_d(t: Ty, d: int) -> Ty | None:
    """Invert D at depth d: the type A with D^{d+1}A = t, as D^d A.

    Concretely: descend through arrows into the codomain, require at
    least d+1 on the nat depth, and remove one.
    """
    if isinstance(t, Arrow):
        inner = strip_d(t.tgt, d)
        return None if inner is None else Arrow(t.src, inner)
    if t.depth >= d + 1:
        return Nat(t.depth - 1)
    return None


def nat_depth(t: Ty) -> int:
    """The depth of the codomain leaf."""
    while isinstance(t, Arrow):
        t = t.tgt
    return t.depth


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Term:
    pass


@dataclass(frozen=True)
class Var(Term):
    name: str


@dataclass(frozen=True)
class Lam(Term):
    var: str
    ty: Ty
    body: Term


@dataclass(frozen=True)
class App(Term):
    fun: Term
    arg: Term


@dataclass(frozen=True)
class DTerm(Term):
    body: Term


@dataclass(frozen=True)
class Proj(Term):
    index: int
    depth: int
    body: Term


@dataclass(frozen=True)
class Inj(Term):
    index: int
    depth: int
    body: Term


@dataclass(frozen=True)
class SigmaT(Term):
    depth: int
    body: Term


@dataclass(frozen=True)
class CTerm(Term):
    depth: int
    body: Term


@dataclass(frozen=True)
class Zero(Term):
    ty: Ty | None = None


@dataclass(frozen=True)
class Plus(Term):
    left: Term
    right: Term


@dataclass(frozen=True)
class Num(Term):
    value: int


@dataclass(frozen=True)
class Succ(Term):
    pass


@dataclass(frozen=True)
class If0(Term):
    cond: Term
    then: Term
    other: Term


@dataclass(frozen=True)
class Fix(Term):
    body: Term


_UNARY = (Proj, Inj, SigmaT, CTerm)


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------


def ty_to_text(t: Ty) -> str:
    if isinstance(t, Nat):
        return "nat" if t.depth == 0 else "D " * t.depth + "nat"
    lhs = ty_to_text(t.src)
    if isinstance(t.src, Arrow):
        lhs = f"({lhs})"
    return f"{lhs} => {ty_to_text(t.tgt)}"


def _opname(m: Term) -> str:
    if isinstance(m, Proj):
        return f"pi{m.index}" + (f"^{m.depth}" if m.depth else "")
    if isinstance(m, Inj):
        return f"iota{m.index}" + (f"^{m.depth}" if m.depth else "")
    if isinstance(m, SigmaT):
        return "sigma" + (f"^{m.depth}" if m.depth else "")
    return "c" + (f"^{m.depth}" if m.depth else "")


def to_text(m: Term) -> str:
    if isinstance(m, Var):
        return m.name
    if isinstance(m, Num):
        return str(m.value)
    if isinstance(m, Succ):
        return "succ"
    if isinstance(m, Zero):
        return f"0[{ty_to_text(m.ty)}]" if m.ty is not None else "0[?]"
    if isinstance(m, Lam):
        return f"\\{m.var}:{ty_to_text(m.ty)}. {to_text(m.body)}"
    if isinstance(m, Plus):
        return f"{_atomic(m.left)} + {_atomic(m.right)}"
    if isinstance(m, App):
        f = to_text(m.fun) if isinstance(m.fun, (App, Var, Num, Succ)) else f"({to_text(m.fun)})"
        return f"{f} {_atomic(m.arg)}"
    if isinstance(m, _UNARY):
        return f"{_opname(m)} {_atomic(m.body)}"
    if isinstance(m, DTerm):
        return f"D {_atomic(m.body)}"
    if isinstance(m, Fix):
        return f"fix {_atomic(m.body)}"
    if isinstance(m, If0):
        return f"if0 {_atomic(m.cond)} {_atomic(m.then)} {_atomic(m.other)}"
    raise TypeError(f"not a term: {m!r}")


def _atomic(m: Term) -> str:
    s = to_text(m)
    if isinstance(m, (Var, Num, Succ, Zero)):
        return s
    return f"({s})"


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------


class ParseError(ValueError):
    pass


def _tokens(text: str):
    out = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch.isspace():
            i += 1
        elif ch in "\\().:+^[]":
            out.append(ch)
            i += 1
        elif text.startswith("=>", i):
            out.append("=>")
            i += 2
        elif ch.isdigit():
            j = i
            while j < len(text) and text[j].isdigit():
                j += 1
            out.append(text[i:j])
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] == "_"):
                j += 1
            out.append(text[i:j])
            i = j
        else:
            raise ParseError(f"bad character {ch!r}")
    return out


class _P:
    def __init__(self, toks):
        self.toks = toks
        self.i = 0

    def peek(self):
        return self.toks[self.i] if self.i < len(self.toks) else None

    def next(self):
        t = self.peek()
        if t is None:
            raise ParseError("unexpected end of input")
        self.i += 1
        return t

    def expect(self, t):
        got = self.next()
        if got != t:
            raise ParseError(f"expected {t!r}, got {got!r}")

    # types -----------------------------------------------------------
    def ty(self) -> Ty:
        left = self.ty_atom()
        if self.peek() == "=>":
            self.next()
            return Arrow(left, self.ty())
        return left

    def ty_atom(self) -> Ty:
        t = self.next()
        if t == "(":
            inner = self.ty()
            self.expect(")")
            return inner
        if t == "nat":
            return Nat(0)
        if t == "D":
            return dtype(self.ty_atom())
        raise ParseError(f"bad type token {t!r}")

    # terms -----------------------------------------------------------
    def term(self) -> Term:
        left = self.app()
        while self.peek() == "+":
            self.next()
            left = Plus(left, self.app())
        return left

    def app(self) -> Term:
        parts = [self.atom()]
        while self.peek() not in (None, ")", "+", "]"):
            parts.append(self.atom())
        m = parts[0]
        for p in parts[1:]:
            m = App(m, p)
        return m

    def atom(self) -> Term:
        t = self.next()
        if t == "(":
            inner = self.term()
            self.expect(")")
            return inner
        if t == "\\":
            name = self.next()
            self.expect(":")
            ty = self.ty()
            self.expect(".")
            return Lam(name, ty, self.term())
        if t == "0" and self.peek() == "[":
            self.next()
            ty = self.ty()
            self.expect("]")
            return Zero(ty)
        if t.isdigit():
            return Num(int(t))
        if t in ("pi0", "pi1", "iota0", "iota1", "sigma", "c"):
            d = 0
            if self.peek() == "^":
                self.next()
                d = int(self.next())
            body = self.atom()
            if t.startswith("pi"):
                return Proj(int(t[-1]), d, body)
            if t.startswith("iota"):
                return Inj(int(t[-1]), d, body)
            if t == "sigma":
                return SigmaT(d, body)
            return CTerm(d, body)
        if t == "D":
            return DTerm(self.atom())
        if t == "fix":
            return Fix(self.atom())
        if t == "succ":
            return Succ()
        if t == "if0":
            return If0(self.atom(), self.atom(), self.atom())
        if t[0].isalpha() or t[0] == "_":
            return Var(t)
        raise ParseError(f"bad term token {t!r}")


def parse(text: str) -> Term:
    p = _P(_tokens(text))
    m = p.term()
    if p.peek() is not None:
        raise ParseError(f"trailing tokens at {p.peek()!r}")
    return m


def parse_type(text: str) -> Ty:
    p = _P(_tokens(text))
    t = p.ty()
    if p.peek() is not None:
        raise ParseError(f"trailing tokens at {p.peek()!r}")
    return t


# ---------------------------------------------------------------------------
# Free variables, substitution, alpha-equivalence
# ---------------------------------------------------------------------------


def free_vars(m: Term) -> frozenset:
    if isinstance(m, Var):
        return frozenset({m.name})
    if isinstance(m, Lam):
        return free_vars(m.body) - {m.var}
    if isinstance(m, App):
        return free_vars(m.fun) | free_vars(m.arg)
    if isinstance(m, Plus):
        return free_vars(m.left) | free_vars(m.right)
    if isinstance(m, If0):
        return free_vars(m.cond) | free_vars(m.then) | free_vars(m.other)
    if isinstance(m, (_UNARY + (DTerm, Fix))):
        return free_vars(m.body)
    return frozenset()


_FRESH = itertools.count()


def fresh(base: str, avoid) -> str:
    if base not in avoid:
        return base
    while True:
        cand = f"{base}_{next(_FRESH)}"
        if cand not in avoid:
            return cand


def _rebuild(m: Term, body: Term) -> Term:
    if isinstance(m, Proj):
        return Proj(m.index, m.depth, body)
    if isinstance(m, Inj):
        return Inj(m.index, m.depth, body)
    if isinstance(m, SigmaT):
        return SigmaT(m.depth, body)
    if isinstance(m, CTerm):
        return CTerm(m.depth, body)
    if isinstance(m, DTerm):
        return DTerm(body)
    if isinstance(m, Fix):
        return Fix(body)
    raise TypeError


def subst(m: Term, name: str, val: Term) -> Term:
    if isinstance(m, Var):
        return val if m.name == name else m
    if isinstance(m, Lam):
        if m.var == name:
            return m
        if m.var in free_vars(val):
            nv = fresh(m.var, free_vars(val) | free_vars(m.body) | {name})
            body = subst(m.body, m.var, Var(nv))
            return Lam(nv, m.ty, subst(body, name, val))
        return Lam(m.var, m.ty, subst(m.body, name, val))
    if isinstance(m, App):
        return App(subst(m.fun, name, val), subst(m.arg, name, val))
    if isinstance(m, Plus):
        return Plus(subst(m.left, name, val), subst(m.right, name, val))
    if isinstance(m, If0):
        return If0(
            subst(m.cond, name, val), subst(m.then, name, val), subst(m.other, name, val)
        )
    if isinstance(m, (_UNARY + (DTerm, Fix))):
        return _rebuild(m, subst(m.body, name, val))
    return m


def alpha_eq(m: Term, n: Term, env: tuple = ()) -> bool:
    if type(m) is not type(n):
        return False
    if isinstance(m, Var):
        for a, b in reversed(env):
            if m.name == a or n.name == b:
                return m.name == a and n.name == b
        return m.name == n.name
    if isinstance(m, Lam):
        return m.ty == n.ty and alpha_eq(m.body, n.body, env + ((m.var, n.var),))
    if isinstance(m, App):
        return alpha_eq(m.fun, n.fun, env) and alpha_eq(m.arg, n.arg, env)
    if isinstance(m, Plus):
        return alpha_eq(m.left, n.left, env) and alpha_eq(m.right, n.right, env)
    if isinstance(m, If0):
        return (
            alpha_eq(m.cond, n.cond, env)
            and alpha_eq(m.then, n.then, env)
            and alpha_eq(m.other, n.other, env)
        )
    if isinstance(m, (Proj, Inj)):
        return m.index == n.index and m.depth == n.depth and alpha_eq(m.body, n.body, env)
    if isinstance(m, (SigmaT, CTerm)):
        return m.depth == n.depth and alpha_eq(m.body, n.body, env)
    if isinstance(m, (DTerm, Fix)):
        return alpha_eq(m.body, n.body, env)
    return m == n


# ---------------------------------------------------------------------------
# Typechecking
# ---------------------------------------------------------------------------


class TypeError_(TypeError):
    pass


def typecheck(m: Term, env: dict | None = None) -> Ty:
    env = env or {}
    return _ty(m, env)


def _ty(m: Term, env: dict) -> Ty:
    if isinstance(m, Var):
        if m.name not in env:
            raise TypeError_(f"unbound variable {m.name}")
        return env[m.name]
    if isinstance(m, Num):
        return Nat(0)
    if isinstance(m, Succ):
        return Arrow(Nat(0), Nat(0))
    if isinstance(m, Zero):
        if m.ty is None:
            raise TypeError_("unannotated 0")
        return m.ty
    if isinstance(m, Lam):
        body = _ty(m.body, {**env, m.var: m.ty})
        return Arrow(m.ty, body)
    if isinstance(m, App):
        f = _ty(m.fun, env)
        if not isinstance(f, Arrow):
            raise TypeError_(f"applying a non-function: {to_text(m.fun)} : {f!r}")
        a = _ty(m.arg, env)
        if a != f.src:
            raise TypeError_(f"argument type {a!r} does not match {f.src!r}")
        return f.tgt
    if isinstance(m, DTerm):
        f = _ty(m.body, env)
        if not isinstance(f, Arrow):
            raise TypeError_(f"D of a non-function type {f!r}")
        return Arrow(dtype(f.src), dtype(f.tgt))
    if isinstance(m, Proj):
        t = _ty(m.body, env)
        out = strip_d(t, m.depth)
        if out is None:
            raise TypeError_(f"pi{m.index}^{m.depth} needs depth >= {m.depth + 1}, got {t!r}")
        return out
    if isinstance(m, Inj):
        t = _ty(m.body, env)
        if nat_depth(t) < m.depth:
            raise TypeError_(f"iota{m.index}^{m.depth} needs depth >= {m.depth}, got {t!r}")
        return _bump(t, m.depth)
    if isinstance(m, SigmaT):
        t = _ty(m.body, env)
        out = strip_d(t, m.depth + 1)
        if out is None or strip_d(t, m.depth) is None:
            raise TypeError_(f"sigma^{m.depth} needs depth >= {m.depth + 2}, got {t!r}")
        return out
    if isinstance(m, CTerm):
        t = _ty(m.body, env)
        if nat_depth(t) < m.depth + 2:
            raise TypeError_(f"c^{m.depth} needs depth >= {m.depth + 2}, got {t!r}")
        return t
    if isinstance(m, Fix):
        f = _ty(m.body, env)
        if not isinstance(f, Arrow) or f.src != f.tgt:
            raise TypeError_(f"fix needs A => A, got {f!r}")
        return f.src
    if isinstance(m, If0):
        c = _ty(m.cond, env)
        if c != Nat(0):
            raise TypeError_(f"if0 condition must be nat, got {c!r}")
        t1 = _ty(m.then, env)
        t2 = _ty(m.other, env)
        if t1 != t2:
            raise TypeError_(f"if0 branches disagree: {t1!r} vs {t2!r}")
        return t1
    if isinstance(m, Plus):
        return _ty_plus(m, env)
    raise TypeError_(f"not a term: {m!r}")


def _bump(t: Ty, d: int) -> Ty:
    """Insert one D at depth d (codomain leaf depth grows by one)."""
    if isinstance(t, Arrow):
        return Arrow(t.src, _bump(t.tgt, d))
    return Nat(t.depth + 1)


def _ty_plus(m: Plus, env: dict) -> Ty:
    t = _plus_direct(m.left, m.right, env)
    if t is not None:
        return t
    # Typing of sums is closed under reduction, so a sum produced
    # mid-rewrite is typed by running each summand to (bounded) normal
    # form under the standard strategy and re-matching the schemas on
    # the results.  Reducing inside one summand of a schema-typed sum
    # then never loses the type: both sides still meet at the common
    # normal form.
    parts: list[Term] = []
    zero_tys: list[Ty | None] = []
    try:
        for side in (m.left, m.right):
            for p in _summands(normalize(side, fuel=300, env=env)):
                if isinstance(p, Zero):
                    zero_tys.append(p.ty)
                else:
                    parts.append(p)
    except (FuelExhausted, RecursionError):
        raise TypeError_(f"sum not typeable: {to_text(m)}")
    if not parts:
        known = {t for t in zero_tys if t is not None}
        if len(known) == 1:
            return known.pop()
        raise TypeError_(f"sum of zeros needs one annotation: {to_text(m)}")
    t = _parts_type(parts, env)
    if t is None:
        raise TypeError_(f"sum not typeable: {to_text(m)}")
    for zt in zero_tys:
        if zt is not None and zt != t:
            raise TypeError_(f"0 annotated {zt!r} summed with {t!r}")
    return t


def _plus_direct(l: Term, r: Term, env: dict) -> Ty | None:
    """The displayed sum rules, matched syntactically on l + r."""
    # schema: pi0^d M + pi1^d M
    if (
        isinstance(l, Proj)
        and isinstance(r, Proj)
        and l.index == 0
        and r.index == 1
        and l.depth == r.depth
        and alpha_eq(l.body, r.body)
    ):
        return _ty(l, env)
    # schema: pi1^d M0 + pi0^d M1 where M0 + M1 is typeable
    if (
        isinstance(l, Proj)
        and isinstance(r, Proj)
        and l.index == 1
        and r.index == 0
        and l.depth == r.depth
    ):
        try:
            t = _ty(Plus(l.body, r.body), env)
        except TypeError_:
            t = None
        if t is not None:
            out = strip_d(t, l.depth)
            if out is not None:
                return out
    # zero absorption (reducts like 0 + pi0 pi1 M arise during rewriting)
    if isinstance(l, Zero):
        t = _ty(r, env)
        if l.ty is not None and l.ty != t:
            raise TypeError_(f"0 annotated {l.ty!r} summed with {t!r}")
        return t
    if isinstance(r, Zero):
        t = _ty(l, env)
        if r.ty is not None and r.ty != t:
            raise TypeError_(f"0 annotated {r.ty!r} summed with {t!r}")
        return t
    # invert one linear commutation: factor a common head
    inv = _factor_head(l, r)
    if inv is not None:
        try:
            return _ty(inv, env)
        except TypeError_:
            return None
    return None


def _summands(m: Term) -> list:
    if isinstance(m, Plus):
        return _summands(m.left) + _summands(m.right)
    return [m]


def _parts_type(parts: list, env: dict) -> Ty | None:
    """Type a flattened family of (normal) summands, or None."""
    if len(parts) == 1:
        try:
            return _ty(parts[0], env)
        except TypeError_:
            return None
    if len(parts) == 2:
        return _plus_direct(parts[0], parts[1], env)
    # the pi1/sigma rule unfolds pi_i(sigma M) sums into three summands;
    # recognize the unfold and fold it back
    for i, p in enumerate(parts):
        if not (isinstance(p, Proj) and p.index == 0 and isinstance(p.body, Proj)):
            continue
        d = p.depth
        inner = p.body
        if inner.index != 0 or inner.depth != d:
            continue
        z = inner.body
        mates = [
            Proj(1, d, Proj(0, d, z)),
            Proj(0, d, Proj(1, d, z)),
        ]
        rest = parts[:i] + parts[i + 1 :]
        picked = []
        for want in mates:
            for j, q in enumerate(rest):
                if j not in picked and alpha_eq(q, want):
                    picked.append(j)
                    break
        if len(picked) == 2:
            remaining = [q for j, q in enumerate(rest) if j not in picked]
            folded = [
                Proj(0, d, SigmaT(d, z)),
                Proj(1, d, SigmaT(d, z)),
            ]
            t = _parts_type(folded + remaining, env) if remaining else _plus_direct(
                folded[0], folded[1], env
            )
            if t is not None:
                return t
    # factor any pair sharing a head and retry
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            inv = _factor_head(parts[i], parts[j])
            if inv is not None:
                rest = [q for k, q in enumerate(parts) if k not in (i, j)]
                t = _parts_type([inv] + rest, env)
                if t is not None:
                    return t
    return None


def _factor_head(l: Term, r: Term) -> Term | None:
    """Find P with P linearly rewriting to l + r in one step."""
    if type(l) is not type(r):
        return None
    if isinstance(l, Lam) and l.ty == r.ty:
        rb = r.body if r.var == l.var else subst(r.body, r.var, Var(l.var))
        if r.var != l.var and l.var in free_vars(r.body):
            return None
        return Lam(l.var, l.ty, Plus(l.body, rb))
    if isinstance(l, App) and alpha_eq(l.arg, r.arg):
        return App(Plus(l.fun, r.fun), l.arg)
    if isinstance(l, Proj) and (l.index, l.depth) == (r.index, r.depth):
        return Proj(l.index, l.depth, Plus(l.body, r.body))
    if isinstance(l, Inj) and (l.index, l.depth) == (r.index, r.depth):
        return Inj(l.index, l.depth, Plus(l.body, r.body))
    if isinstance(l, SigmaT) and l.depth == r.depth:
        return SigmaT(l.depth, Plus(l.body, r.body))
    if isinstance(l, CTerm) and l.depth == r.depth:
        return CTerm(l.depth, Plus(l.body, r.body))
    if isinstance(l, DTerm):
        return DTerm(Plus(l.body, r.body))
    return None


# ---------------------------------------------------------------------------
# dlet: the derivative-substitution operator
# ---------------------------------------------------------------------------


class DletUndefined(ValueError):
    pass


def dlet(x: str, n: Term, m: Term, env: dict | None = None) -> Term:
    """dlet(x, N, M): differentiate M along x, reading x's split off N.

    env maps free variables of M (including x) to their types; it is
    only consulted by the fix clause, which needs the recursion type.
    """
    env = env or {}
    if isinstance(m, Var):
        if m.name == x:
            return n
        return Inj(0, 0, m)
    if isinstance(m, (Num, Succ)):
        return Inj(0, 0, m)
    if isinstance(m, Zero):
        return Zero(dtype(m.ty)) if m.ty is not None else Zero(None)
    if isinstance(m, Lam):
        if m.var == x:
            return Inj(0, 0, m)
        avoid = free_vars(n) | {x}
        if m.var in avoid:
            nv = fresh(m.var, avoid | free_vars(m.body))
            body = subst(m.body, m.var, Var(nv))
            return Lam(nv, m.ty, dlet(x, n, body, {**env, nv: m.ty}))
        return Lam(m.var, m.ty, dlet(x, n, m.body, {**env, m.var: m.ty}))
    if isinstance(m, App):
        return SigmaT(0, App(DTerm(dlet(x, n, m.fun, env)), dlet(x, n, m.arg, env)))
    if isinstance(m, DTerm):
        return CTerm(0, DTerm(dlet(x, n, m.body, env)))
    if isinstance(m, Proj):
        return Proj(m.index, m.depth + 1, dlet(x, n, m.body, env))
    if isinstance(m, Inj):
        return Inj(m.index, m.depth + 1, dlet(x, n, m.body, env))
    if isinstance(m, SigmaT):
        return SigmaT(m.depth + 1, dlet(x, n, m.body, env))
    if isinstance(m, CTerm):
        return CTerm(m.depth + 1, dlet(x, n, m.body, env))
    if isinstance(m, Plus):
        return Plus(dlet(x, n, m.left, env), dlet(x, n, m.right, env))
    if isinstance(m, Fix):
        try:
            b = _ty(Fix(m.body), env)
        except TypeError_ as e:
            raise DletUndefined(f"cannot type fix body for dlet: {e}") from e
        y = fresh("y", free_vars(m.body) | free_vars(n) | {x})
        return Fix(
            Lam(y, dtype(b), SigmaT(0, App(DTerm(dlet(x, n, m.body, env)), Var(y))))
        )
    if isinstance(m, If0):
        raise DletUndefined("dlet through if0 is undefined")
    raise TypeError(f"not a term: {m!r}")


# ---------------------------------------------------------------------------
# Reduction
# ---------------------------------------------------------------------------


def _zero_of(m: Term, env: dict) -> Zero:
    """A zero annotated with m's type when it can be computed."""
    try:
        return Zero(_ty(m, env))
    except TypeError_:
        return Zero(None)


def _dist_head(m: Term, env: dict) -> Term | None:
    """Push a sum out of a linear construct, or collapse it on zero.

    Every construct is linear except the argument side of application,
    so sums commute out of (and zeros annihilate) abstraction, the
    function side of application, the tag operators, and D.
    """
    if isinstance(m, Lam):
        if isinstance(m.body, Plus):
            return Plus(Lam(m.var, m.ty, m.body.left), Lam(m.var, m.ty, m.body.right))
        if isinstance(m.body, Zero):
            return _zero_of(m, env)
    if isinstance(m, App):
        if isinstance(m.fun, Plus):
            return Plus(App(m.fun.left, m.arg), App(m.fun.right, m.arg))
        if isinstance(m.fun, Zero):
            return _zero_of(m, env)
    if isinstance(m, _UNARY + (DTerm,)):
        if isinstance(m.body, Plus):
            return Plus(_rebuild(m, m.body.left), _rebuild(m, m.body.right))
        if isinstance(m.body, Zero):
            return _zero_of(m, env)
    return None


def _head_step(m: Term, env: dict) -> Term | None:
    """One root-position reduction, or None."""
    d = _dist_head(m, env)
    if d is not None:
        return d
    if isinstance(m, App):
        if isinstance(m.fun, Lam):
            return subst(m.fun.body, m.fun.var, m.arg)
        if isinstance(m.fun, Succ) and isinstance(m.arg, Num):
            return Num(m.arg.value + 1)
        if isinstance(m.fun, Plus):
            return Plus(App(m.fun.left, m.arg), App(m.fun.right, m.arg))
    if isinstance(m, DTerm) and isinstance(m.body, Lam):
        lam = m.body
        y = fresh("y", free_vars(lam.body) | {lam.var})
        return Lam(y, dtype(lam.ty), dlet(lam.var, Var(y), lam.body, {**env, lam.var: lam.ty}))
    if isinstance(m, If0) and isinstance(m.cond, Num):
        return m.then if m.cond.value == 0 else m.other
    if isinstance(m, Fix):
        return App(m.body, m)
    if isinstance(m, Proj):
        b = m.body
        if isinstance(b, Lam):
            return Lam(b.var, b.ty, Proj(m.index, m.depth, b.body))
        if isinstance(b, App):
            return App(Proj(m.index, m.depth, b.fun), b.arg)
        if isinstance(b, Inj) and b.depth == m.depth:
            return b.body if b.index == m.index else _zero_of(m, env)
        if isinstance(b, SigmaT) and b.depth == m.depth:
            if m.index == 0:
                return Proj(0, m.depth, Proj(0, m.depth, b.body))
            return Plus(
                Proj(1, m.depth, Proj(0, m.depth, b.body)),
                Proj(0, m.depth, Proj(1, m.depth, b.body)),
            )
        c = _commute(m.index, m.depth, "pi", b)
        if c is not None:
            return c
    if isinstance(m, SigmaT):
        b = m.body
        if isinstance(b, Lam):
            return Lam(b.var, b.ty, SigmaT(m.depth, b.body))
        if isinstance(b, App):
            return App(SigmaT(m.depth, b.fun), b.arg)
        c = _commute(None, m.depth, "sigma", b)
        if c is not None:
            return c
    if isinstance(m, CTerm):
        b = m.body
        if isinstance(b, Lam):
            return Lam(b.var, b.ty, CTerm(m.depth, b.body))
        if isinstance(b, App):
            return App(CTerm(m.depth, b.fun), b.arg)
        c = _commute(None, m.depth, "c", b)
        if c is not None:
            return c
    if isinstance(m, Inj):
        b = m.body
        if isinstance(b, Lam):
            return Lam(b.var, b.ty, Inj(m.index, m.depth, b.body))
        if isinstance(b, App):
            return App(Inj(m.index, m.depth, b.fun), b.arg)
        c = _commute(m.index, m.depth, "iota", b)
        if c is not None:
            return c
    return None


def _op_depth(b: Term) -> int | None:
    if isinstance(b, (Proj, Inj, SigmaT, CTerm)):
        return b.depth
    return None


def _rebuild_depth(b: Term, depth: int, body: Term) -> Term:
    if isinstance(b, Proj):
        return Proj(b.index, depth, body)
    if isinstance(b, Inj):
        return Inj(b.index, depth, body)
    if isinstance(b, SigmaT):
        return SigmaT(depth, body)
    return CTerm(depth, body)


def _commute(index: int | None, d: int, kind: str, b: Term) -> Term | None:
    """Push a tag operator past a strictly deeper one.

    The operators are whiskerings of natural transformations, so one at
    depth d commutes with any other acting strictly below the layers it
    touches, adjusting the deeper depth by the number of layers the
    outer one adds or removes.
    """
    dprime = _op_depth(b)
    if dprime is None:
        return None
    if kind == "pi":
        if dprime >= d + 1:
            return _rebuild_depth(b, dprime - 1, Proj(index, d, b.body))
    elif kind == "sigma":
        if dprime >= d + 2:
            return _rebuild_depth(b, dprime - 1, SigmaT(d, b.body))
    elif kind == "c":
        if dprime >= d + 2:
            return _rebuild_depth(b, dprime, CTerm(d, b.body))
    elif kind == "iota":
        if dprime >= d + 1:
            return _rebuild_depth(b, dprime + 1, Inj(index, d, b.body))
    return None


def step(m: Term, env: dict | None = None) -> Term | None:
    """One leftmost-outermost reduction step, or None if normal."""
    env = env or {}
    try:
        h = _head_step(m, env)
    except DletUndefined:
        h = None
    if h is not None:
        return h
    if isinstance(m, Lam):
        b = step(m.body, {**env, m.var: m.ty})
        return None if b is None else Lam(m.var, m.ty, b)
    if isinstance(m, App):
        f = step(m.fun, env)
        if f is not None:
            return App(f, m.arg)
        a = step(m.arg, env)
        return None if a is None else App(m.fun, a)
    if isinstance(m, Plus):
        l = step(m.left, env)
        if l is not None:
            return Plus(l, m.right)
        r = step(m.right, env)
        return None if r is None else Plus(m.left, r)
    if isinstance(m, If0):
        c = step(m.cond, env)
        if c is not None:
            return If0(c, m.then, m.other)
        t = step(m.then, env)
        if t is not None:
            return If0(m.cond, t, m.other)
        o = step(m.other, env)
        return None if o is None else If0(m.cond, m.then, o)
    if isinstance(m, (_UNARY + (DTerm, Fix))):
        b = step(m.body, env)
        return None if b is None else _rebuild(m, b)
    return None


def linear_step(m: Term, env: dict | None = None) -> Term | None:
    """One step of the linear commutation relation (no beta, no fix).

    Includes distribution of the linear operators over sums; typing of
    sums is closed under inverting exactly these steps.
    """
    env = env or {}
    h = _linear_head(m, env)
    if h is not None:
        return h
    if isinstance(m, Lam):
        b = linear_step(m.body, env)
        return None if b is None else Lam(m.var, m.ty, b)
    if isinstance(m, App):
        f = linear_step(m.fun, env)
        if f is not None:
            return App(f, m.arg)
        a = linear_step(m.arg, env)
        return None if a is None else App(m.fun, a)
    if isinstance(m, Plus):
        l = linear_step(m.left, env)
        if l is not None:
            return Plus(l, m.right)
        r = linear_step(m.right, env)
        return None if r is None else Plus(m.left, r)
    if isinstance(m, (_UNARY + (DTerm, Fix))):
        b = linear_step(m.body, env)
        return None if b is None else _rebuild(m, b)
    return None


def _linear_head(m: Term, env: dict | None = None) -> Term | None:
    # sum distributions and zero collapse (the invertible heads used by
    # sum typing)
    d = _dist_head(m, env or {})
    if d is not None:
        return d
    # tag-operator commutations are linear as well
    if isinstance(m, Proj):
        h = _head_step(m, {})
        if h is not None:
            return h
    if isinstance(m, (SigmaT, CTerm, Inj)):
        dp = _op_depth(m.body)
        if dp is not None:
            if isinstance(m, SigmaT):
                return _commute(None, m.depth, "sigma", m.body)
            if isinstance(m, CTerm):
                return _commute(None, m.depth, "c", m.body)
            return _commute(m.index, m.depth, "iota", m.body)
    return None


class FuelExhausted(RuntimeError):
    pass


def normalize(m: Term, fuel: int = 1000, env: dict | None = None) -> Term:
    for _ in range(fuel):
        n = step(m, env)
        if n is None:
            return m
        m = n
    raise FuelExhausted(f"no normal form within {fuel} steps: {to_text(m)}")
