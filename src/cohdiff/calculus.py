"""A λ-calculus with a differential operator D and tag combinators.

Types: nat, arrows, and the action D(nat_d) = nat_{d+1},
D(A => B) = A => D B.  Terms carry the combinators pi_i^d, iota_i^d,
sigma^d and c^d (projections, injections, tag merge and tag swap at
depth d), the operator D, the empty sum 0 and binary sums.

One table, ``_LAYERS``, gives each tag operator's D layers: how many it
reads from its depth up and how many it adds.  The operators' one typing
rule and their commutation read it; that rule, ``dtype`` and ``strip_d``
shift a type's codomain leaf by one walk, ``_shift_d``.

Sums are typed by two schemas (pi0^d M + pi1^d M, and
pi1^d M0 + pi0^d M1 when M0 + M1 is typeable one level up) plus
closure under inverting one linear-commutation step; anything else —
like x + y for distinct variables — is rejected.

Terms and types are tuples: each constructor subclasses a ``namedtuple``
of its fields and one last item, ``tag``, that holds the constructor's
name.  ``hash`` and ``==`` are tuple's, so they run in C and compare
structurally, and the tag keeps apart constructors with equal fields
(``Nat(0) != Num(0)``, ``App(m, n) != Plus(m, n)``).  Instances are
immutable and have no ``__dict__``.

Terms are walked through one table, ``_SUBTERMS``: the subterm fields
of each constructor, in the order reduction visits them; every other
field is data.  ``free_vars``, ``subst``, ``alpha_eq`` and ``step``
read it, ``_rebuild`` applies a constructor to new subterms, and only
Lam, the one binder, is treated apart.

``fresh`` names a binder from the term alone: the base name if it is
free, else the base name with the smallest free suffix ``_0``, ``_1``,
and so on.  A normal form thus depends only on its term, never on what
was reduced before it in the process.

A sum that the syntactic rules do not type is typed through the normal
forms of its summands, the costly part of typing, shared across calls by
two bounded tables.  ``_NORMAL_FORMS`` maps (term, frozenset of
environment items), for the 1024 keys used last, to where ``normalize``'s
walk from it ended and after how many steps, so a reduct already walked
normalizes in one lookup.  ``_parts_outcome`` maps (normal-form parts,
environment items), for the 256 used last, to ``_parts_type``'s result.
Each answers only what its key decides, ``_NORMAL_FORMS`` only within
the fuel asked for, so no type, error, normal form or ``FuelExhausted``
text depends on what they hold.  A RecursionError leaves nothing behind.

``parse`` and ``parse_type`` read what ``to_text`` and ``ty_to_text``
print; the grammar and its errors are in ``web_core``'s text section.
"""

from __future__ import annotations

import re
from collections import OrderedDict, namedtuple
from functools import lru_cache, partial

from .web_core import Tokens


def _node(name: str, fields: str = "", *defaults):
    """The tuple base of the constructor ``name``: its fields, then ``tag``, holding ``name``."""
    return namedtuple(name, fields + " tag", defaults=(*defaults, name))


# ---------------------------------------------------------------------------
# Types
# ---------------------------------------------------------------------------


class Ty:
    """A type; ``str`` and ``repr`` both print it in the input syntax."""

    __slots__ = ()

    def __str__(self):
        return ty_to_text(self)

    __repr__ = __str__


class Nat(Ty, _node("Nat", "depth", 0)):
    __slots__ = ()


class Arrow(Ty, _node("Arrow", "src tgt")):
    __slots__ = ()


def _shift_d(t: Ty, k: int, floor: int = 0) -> Ty | None:
    """t with k more D layers on its codomain leaf, or None if that leaf has fewer than floor."""
    if isinstance(t, Arrow):
        inner = _shift_d(t.tgt, k, floor)
        return None if inner is None else Arrow(t.src, inner)
    return Nat(t.depth + k) if t.depth >= floor else None


def dtype(t: Ty) -> Ty:
    """The type operator D."""
    return _shift_d(t, 1)


def strip_d(t: Ty, d: int) -> Ty | None:
    """Invert D at depth d: the type A with D^{d+1}A = t, as D^d A (None if t has no d+1 layers)."""
    return _shift_d(t, -1, d + 1)


def nat_depth(t: Ty) -> int:
    """The depth of the codomain leaf."""
    while isinstance(t, Arrow):
        t = t.tgt
    return t.depth


# ---------------------------------------------------------------------------
# Terms
# ---------------------------------------------------------------------------


class Term:
    """A term: an instance of one of the constructors below."""

    __slots__ = ()


class Var(Term, _node("Var", "name")):
    __slots__ = ()


class Lam(Term, _node("Lam", "var ty body")):
    __slots__ = ()


class App(Term, _node("App", "fun arg")):
    __slots__ = ()


class DTerm(Term, _node("DTerm", "body")):
    __slots__ = ()


class Proj(Term, _node("Proj", "index depth body")):
    __slots__ = ()


class Inj(Term, _node("Inj", "index depth body")):
    __slots__ = ()


class SigmaT(Term, _node("SigmaT", "depth body")):
    __slots__ = ()


class CTerm(Term, _node("CTerm", "depth body")):
    __slots__ = ()


class Zero(Term, _node("Zero", "ty", None)):
    __slots__ = ()


class Plus(Term, _node("Plus", "left right")):
    __slots__ = ()


class Num(Term, _node("Num", "value")):
    __slots__ = ()


class Succ(Term, _node("Succ")):
    __slots__ = ()


class If0(Term, _node("If0", "cond then other")):
    __slots__ = ()


class Fix(Term, _node("Fix", "body")):
    __slots__ = ()


# The subterm fields of each constructor, in the order reduction visits
# them.  They come after the data fields in every constructor, so a
# constructor takes its new subterms positionally (see ``_rebuild``).
_SUBTERMS = {
    Var: (), Num: (), Succ: (), Zero: (),
    Lam: ("body",), DTerm: ("body",), Fix: ("body",),
    Proj: ("body",), Inj: ("body",), SigmaT: ("body",), CTerm: ("body",),
    App: ("fun", "arg"),
    Plus: ("left", "right"),
    If0: ("cond", "then", "other"),
}

# The data fields of each constructor: all fields that are not subterms.
_DATA = {
    cls: tuple(f for f in cls._fields[:-1] if f not in kids)
    for cls, kids in _SUBTERMS.items()
}

# The tag operators (projections, injections, tag merge and tag swap) and their
# (reads, adds): at depth d, an operator's body needs d + reads D layers on its
# codomain leaf, and the operator adds ``adds`` layers there (-1 removes one).
_LAYERS = {Proj: (1, -1), Inj: (0, 1), SigmaT: (2, -1), CTerm: (2, 0)}
_TAGS = tuple(_LAYERS)


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


_OPNAMES = {Proj: "pi", Inj: "iota", SigmaT: "sigma", CTerm: "c"}


def _tagname(m: Term) -> str:
    """A tag operator's name with its index, as in pi0 or sigma."""
    index = m.index if isinstance(m, (Proj, Inj)) else ""
    return f"{_OPNAMES[type(m)]}{index}"


def _opname(m: Term) -> str:
    return _tagname(m) + (f"^{m.depth}" if m.depth else "")


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
    if isinstance(m, _TAGS):
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


_TERM_TOKENS = re.compile(r"(?:\s|#.*(?!.))*(?:(=>|[\\().:+^\[\]]|\d+|[^\W\d]\w*)|([^\s#]))")

# Each operator name the parser reads, from _OPNAMES: its constructor on (depth, body).
_OPS = {f"{_OPNAMES[c]}{i}": partial(c, i) for c in (Proj, Inj) for i in (0, 1)}
_OPS.update((_OPNAMES[c], c) for c in (SigmaT, CTerm))
_PREFIXES = {"D": DTerm, "fix": Fix}
_KEYWORDS = {*_OPS, *_PREFIXES, "succ", "if0"}


def parse(text: str) -> Term:
    return _read(text, _term)


def parse_type(text: str) -> Ty:
    return _read(text, _type)


def _read(text: str, grammar):
    toks = Tokens(text, _TERM_TOKENS, ParseError)
    out = grammar(toks)
    toks.end("trailing tokens at {!r}")
    return out


def _type(toks: Tokens) -> Ty:
    left = _type_atom(toks)
    if toks.peek() == "=>":
        toks.next()
        return Arrow(left, _type(toks))
    return left


def _type_atom(toks: Tokens) -> Ty:
    t = toks.next()
    if t == "(":
        inner = _type(toks)
        toks.expect(")")
        return inner
    if t == "nat":
        return Nat(0)
    if t == "D":
        return dtype(_type_atom(toks))
    toks.fail(f"bad type token {t!r}")


def _term(toks: Tokens) -> Term:
    left = _app(toks)
    while toks.peek() == "+":
        toks.next()
        left = Plus(left, _app(toks))
    return left


def _app(toks: Tokens) -> Term:
    m = _operand(toks)
    while toks.peek() not in (None, ")", "+", "]"):
        m = App(m, _operand(toks))
    return m


def _operand(toks: Tokens) -> Term:
    t = toks.next()
    if t == "(":
        inner = _term(toks)
        toks.expect(")")
        return inner
    if t == "\\":
        name = toks.next()
        if name in _KEYWORDS or not (name[0].isalpha() or name[0] == "_"):
            toks.fail(f"expected a variable, got {name!r}")
        toks.expect(":")
        ty = _type(toks)
        toks.expect(".")
        return Lam(name, ty, _term(toks))
    if t == "0" and toks.peek() == "[":
        toks.next()
        ty = _type(toks)
        toks.expect("]")
        return Zero(ty)
    if t.isdecimal():
        return Num(int(t))
    if t in _OPS:
        depth = "0"
        if toks.peek() == "^":
            toks.next()
            depth = toks.next()
            if not depth.isdecimal():
                toks.fail(f"expected a depth, got {depth!r}")
        return _OPS[t](int(depth), _operand(toks))
    if t in _PREFIXES:
        return _PREFIXES[t](_operand(toks))
    if t == "succ":
        return Succ()
    if t == "if0":
        return If0(_operand(toks), _operand(toks), _operand(toks))
    if t[0].isalpha() or t[0] == "_":
        return Var(t)
    toks.fail(f"bad term token {t!r}")


# ---------------------------------------------------------------------------
# Free variables, substitution, alpha-equivalence
# ---------------------------------------------------------------------------


def _kids(m: Term) -> tuple:
    """The subterms of m, in table order."""
    return tuple(getattr(m, f) for f in _SUBTERMS[type(m)])


def _rebuild(m: Term, *kids: Term, depth: int | None = None) -> Term:
    """m's constructor on m's data and new subterms, given in table order.

    A tag operator takes ``depth`` as its new depth when one is given.
    """
    cls = type(m)
    if cls is Lam:
        return Lam(m.var, m.ty, *kids)
    if cls in _TAGS:
        d = m.depth if depth is None else depth
        return cls(m.index, d, *kids) if cls is Proj or cls is Inj else cls(d, *kids)
    return cls(*kids)


def _same_data(m: Term, n: Term) -> bool:
    """m and n, of one constructor, agree on their data fields."""
    for f in _DATA[type(m)]:
        if getattr(m, f) != getattr(n, f):
            return False
    return True


def free_vars(m: Term) -> frozenset:
    if isinstance(m, Var):
        return frozenset({m.name})
    out = frozenset().union(*map(free_vars, _kids(m)))
    return out - {m.var} if isinstance(m, Lam) else out


def fresh(base: str, avoid) -> str:
    """base if it is not in avoid, else base_k for the smallest k >= 0 that is not."""
    if base not in avoid:
        return base
    k = 0
    while f"{base}_{k}" in avoid:
        k += 1
    return f"{base}_{k}"


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
    kids = _kids(m)
    return _rebuild(m, *[subst(k, name, val) for k in kids]) if kids else m


def alpha_eq(m: Term, n: Term, env: tuple = ()) -> bool:
    if not env and m == n:  # structurally equal terms are α-equal
        return True
    if type(m) is not type(n):
        return False
    if isinstance(m, Var):
        for a, b in reversed(env):
            if m.name == a or n.name == b:
                return m.name == a and n.name == b
        return m.name == n.name
    if isinstance(m, Lam):
        if m.ty != n.ty:
            return False
        env += ((m.var, n.var),)
    elif not _same_data(m, n):
        return False
    return all(alpha_eq(a, b, env) for a, b in zip(_kids(m), _kids(n)))


# ---------------------------------------------------------------------------
# Typechecking
# ---------------------------------------------------------------------------


class TypeError_(TypeError):
    """A typing error, raised as a format string and its arguments.

    Terms among the arguments are rendered with ``to_text`` only when the
    error is printed: sum typing raises and catches many of these errors
    while it looks for a type, and most are never printed.
    """

    def __str__(self):
        msg, *args = self.args
        return msg.format(*(to_text(a) if isinstance(a, Term) else a for a in args))


def typecheck(m: Term, env: dict | None = None) -> Ty:
    """m's type under env (free variables to types); raises TypeError_.

    Sums are typed through tables shared across calls, ``normalize``'s
    ``_NORMAL_FORMS`` and ``_parts_outcome`` (see the module docstring).
    """
    return _ty(m, env or {})


def _ty(m: Term, env: dict) -> Ty:
    rule = _TYPING.get(type(m))
    if rule is None:
        raise TypeError_("not a term: {!r}", m)
    return rule(m, env)


def _ty_var(m: Var, env: dict) -> Ty:
    if m.name not in env:
        raise TypeError_("unbound variable {}", m.name)
    return env[m.name]


def _ty_zero(m: Zero, env: dict) -> Ty:
    if m.ty is None:
        raise TypeError_("unannotated 0")
    return m.ty


def _ty_app(m: App, env: dict) -> Ty:
    f = _ty(m.fun, env)
    if not isinstance(f, Arrow):
        raise TypeError_("applying a non-function: {} : {}", m.fun, f)
    a = _ty(m.arg, env)
    if a != f.src:
        raise TypeError_("argument type {} does not match {}", a, f.src)
    return f.tgt


def _ty_d(m: DTerm, env: dict) -> Ty:
    f = _ty(m.body, env)
    if not isinstance(f, Arrow):
        raise TypeError_("D of a non-function type {}", f)
    return Arrow(dtype(f.src), dtype(f.tgt))


def _ty_tag(m: Term, env: dict) -> Ty:
    t = _ty(m.body, env)
    reads, adds = _LAYERS[type(m)]
    out = _shift_d(t, adds, m.depth + reads)
    if out is None:  # the depth is printed even at 0, unlike in to_text
        raise TypeError_("{}^{} needs depth >= {}, got {}", _tagname(m), m.depth, m.depth + reads, t)
    return out


def _ty_fix(m: Fix, env: dict) -> Ty:
    f = _ty(m.body, env)
    if not isinstance(f, Arrow) or f.src != f.tgt:
        raise TypeError_("fix needs A => A, got {}", f)
    return f.src


def _ty_if0(m: If0, env: dict) -> Ty:
    c = _ty(m.cond, env)
    if c != Nat(0):
        raise TypeError_("if0 condition must be nat, got {}", c)
    t1, t2 = _ty(m.then, env), _ty(m.other, env)
    if t1 != t2:
        raise TypeError_("if0 branches disagree: {} vs {}", t1, t2)
    return t1


def _ty_plus(m: Plus, env: dict) -> Ty:
    t = _plus_direct(m.left, m.right, env)
    if t is not None:
        return t
    # Typing of sums is closed under reduction: a sum produced mid-rewrite
    # is typed by normalizing each summand (bounded) and re-matching the
    # schemas on the results, so reducing inside one summand of a
    # schema-typed sum never loses the type.  That search is the costly
    # part; nested attempts and successive reducts reach the same parts.
    return _ty_normal_sum(m, env)


# The typing rule of each constructor.
_TYPING = {
    Var: _ty_var, Num: lambda m, env: Nat(0), Succ: lambda m, env: Arrow(Nat(0), Nat(0)), Zero: _ty_zero,
    Lam: lambda m, env: Arrow(m.ty, _ty(m.body, {**env, m.var: m.ty})),
    App: _ty_app, DTerm: _ty_d, **dict.fromkeys(_TAGS, _ty_tag), Fix: _ty_fix, If0: _ty_if0, Plus: _ty_plus,
}


def _ty_normal_sum(m: Plus, env: dict) -> Ty:
    """Type the sum m from the normal forms of its summands."""
    parts: list[Term] = []
    zero_tys: list[Ty | None] = []
    try:
        for side in (m.left, m.right):
            for p in _summands(normalize(side, fuel=300, env=env)):
                if type(p) is Zero:
                    zero_tys.append(p.ty)
                else:
                    parts.append(p)
    except FuelExhausted:
        raise TypeError_("sum not typeable: {}", m)
    if not parts:
        known = {t for t in zero_tys if t is not None}
        if len(known) == 1:
            return known.pop()
        raise TypeError_("sum of zeros needs one annotation: {}", m)
    t = _parts_outcome(tuple(parts), frozenset(env.items()))
    if t is None:
        raise TypeError_("sum not typeable: {}", m)
    for zt in zero_tys:
        if zt is not None and zt != t:
            raise TypeError_("0 annotated {} summed with {}", zt, t)
    return t


@lru_cache(maxsize=256)
def _parts_outcome(parts: tuple, env_items: frozenset) -> Ty | None:
    """_parts_type on these normal-form parts; a TypeError_ it raises is not stored."""
    return _parts_type(list(parts), dict(env_items))


def _plus_direct(l: Term, r: Term, env: dict) -> Ty | None:
    """The displayed sum rules, matched syntactically on l + r."""
    if type(l) is Proj and type(r) is Proj and l.depth == r.depth:
        # schema: pi0^d M + pi1^d M
        if l.index == 0 and r.index == 1 and alpha_eq(l.body, r.body):
            return _ty(l, env)
        # schema: pi1^d M0 + pi0^d M1, typed as pi0^d (M0 + M1) is
        if l.index == 1 and r.index == 0:
            try:
                return _ty(Proj(0, l.depth, Plus(l.body, r.body)), env)
            except TypeError_:
                pass
    # zero absorption (reducts like 0 + pi0 pi1 M arise during rewriting)
    for z, other in ((l, r), (r, l)):
        if isinstance(z, Zero):
            t = _ty(other, env)
            if z.ty is not None and z.ty != t:
                raise TypeError_("0 annotated {} summed with {}", z.ty, t)
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
            t = _parts_type(folded + remaining, env)
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
    cls = type(l)
    if cls is not type(r):
        return None
    if cls is Lam:
        if l.ty != r.ty or (r.var != l.var and l.var in free_vars(r.body)):
            return None
        rb = r.body if r.var == l.var else subst(r.body, r.var, Var(l.var))
        return Lam(l.var, l.ty, Plus(l.body, rb))
    if cls is App:
        return App(Plus(l.fun, r.fun), l.arg) if alpha_eq(l.arg, r.arg) else None
    if (cls is DTerm or cls in _TAGS) and _same_data(l, r):
        return _rebuild(l, Plus(l.body, r.body))
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
    if isinstance(m, Var) and m.name == x:
        return n
    if isinstance(m, (Var, Num, Succ)):
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
    if isinstance(m, _TAGS):
        # a tag operator acts one layer deeper on the split
        return _rebuild(m, dlet(x, n, m.body, env), depth=m.depth + 1)
    if isinstance(m, Plus):
        return Plus(dlet(x, n, m.left, env), dlet(x, n, m.right, env))
    if isinstance(m, Fix):
        try:
            b = typecheck(Fix(m.body), env)
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
        return Zero(typecheck(m, env))
    except TypeError_:
        return Zero(None)


def _dist(m: Term, head: Term, env: dict, *arg: Term) -> Term | None:
    """Push a sum in m's head position out of m, or collapse m on a zero there.

    Every construct is linear except the argument side of application,
    so sums commute out of (and zeros annihilate) abstraction, the
    function side of application, the tag operators, and D.
    """
    cls = type(head)
    if cls is Plus:
        return Plus(_rebuild(m, head.left, *arg), _rebuild(m, head.right, *arg))
    return _zero_of(m, env) if cls is Zero else None


def _head_app(m: App, env: dict) -> Term | None:
    f = m.fun
    if type(f) is Lam:
        return subst(f.body, f.var, m.arg)
    if type(f) is Succ:
        return Num(m.arg.value + 1) if type(m.arg) is Num else None
    return _dist(m, f, env, m.arg)


def _head_d(m: DTerm, env: dict) -> Term | None:
    lam = m.body
    if type(lam) is not Lam:
        return _dist(m, lam, env)
    y = fresh("y", free_vars(lam.body) | {lam.var})
    try:
        return Lam(y, dtype(lam.ty), dlet(lam.var, Var(y), lam.body, {**env, lam.var: lam.ty}))
    except DletUndefined:
        return None


def _head_tag(m: Term, env: dict) -> Term | None:
    # a tag operator commutes into abstraction and the function side
    # of application, and past a strictly deeper tag operator
    b = m.body
    cls = type(b)
    if cls is Lam:
        return Lam(b.var, b.ty, _rebuild(m, b.body))
    if cls is App:
        return App(_rebuild(m, b.fun), b.arg)
    if cls in _LAYERS:
        if type(m) is Proj and cls is Inj and b.depth == m.depth:
            return b.body if b.index == m.index else _zero_of(m, env)
        if type(m) is Proj and cls is SigmaT and b.depth == m.depth:
            d, z = m.depth, b.body
            if m.index == 0:
                return Proj(0, d, Proj(0, d, z))
            return Plus(Proj(1, d, Proj(0, d, z)), Proj(0, d, Proj(1, d, z)))
        return _commute(m, b)
    return _dist(m, b, env)


def _commute(m: Term, b: Term) -> Term | None:
    """Push the tag operator m past its body b, a strictly deeper one.

    The operators are whiskerings of natural transformations, so one at
    depth d commutes with any other acting strictly below the layers it
    reads or leaves, adjusting the deeper depth by the number of layers
    the outer one adds or removes.
    """
    reads, adds = _LAYERS[type(m)]
    if b.depth < m.depth + max(reads, reads + adds):
        return None
    return _rebuild(b, _rebuild(m, b.body), depth=b.depth + adds)


# The root-position reduction of each constructor, or None where it has none.
_HEAD_STEPS = {
    Var: None, Num: None, Succ: None, Zero: None, Plus: None,
    Lam: lambda m, env: _dist(m, m.body, env),
    App: _head_app, DTerm: _head_d, **dict.fromkeys(_TAGS, _head_tag),
    If0: lambda m, env: (m.then if m.cond.value == 0 else m.other) if type(m.cond) is Num else None,
    Fix: lambda m, env: App(m.body, m),
}


def step(m: Term, env: dict | None = None) -> Term | None:
    """One leftmost-outermost reduction step, or None if normal."""
    env = env or {}
    cls = type(m)
    head = _HEAD_STEPS[cls]
    h = None if head is None else head(m, env)
    if h is not None:
        return h
    if cls is Lam:
        b = step(m.body, {**env, m.var: m.ty})
        return None if b is None else Lam(m.var, m.ty, b)
    # otherwise step the leftmost subterm that can step
    for i, name in enumerate(_SUBTERMS[cls]):
        s = step(getattr(m, name), env)
        if s is not None:
            kids = list(_kids(m))
            kids[i] = s
            return _rebuild(m, *kids)
    return None


class FuelExhausted(RuntimeError):
    pass


# normalize's table: (term, environment items) -> (end, steps, normal) for
# the 1024 keys used last.  end is that many steps down the term's chain, no
# term before it there is normal, and normal says whether end is.
_NORMAL_FORMS: OrderedDict = OrderedDict()
_NORMAL_FORMS_CAP = 1024


def normalize(m: Term, fuel: int = 1000, env: dict | None = None) -> Term:
    """m's normal form within fuel steps, else FuelExhausted.

    The walk jumps along ``_NORMAL_FORMS`` wherever an entry stays within
    the fuel, steps elsewhere, and then records every term it left.  When
    m's own entry ends normal within the fuel, there is nothing to record.
    """
    env = env or {}
    env_items = frozenset(env.items())
    hit = _NORMAL_FORMS.get((m, env_items))
    # a normal end takes one more unit of fuel: the step that finds it normal
    if hit is not None and hit[2] and hit[1] < fuel:
        _NORMAL_FORMS.move_to_end((m, env_items))
        return hit[0]
    trail, steps = [], 0  # each term left, with the steps taken before it
    while steps < fuel:
        trail.append((m, steps))
        if hit is not None and steps + hit[1] + hit[2] <= fuel:
            m, steps = hit[0], steps + hit[1]
            if hit[2]:
                break
        elif (n := step(m, env)) is None:
            break
        else:
            m, steps = n, steps + 1
        hit = _NORMAL_FORMS.get((m, env_items))
    normal = steps < fuel
    for t, at in reversed(trail):  # the earliest entry of a cycle is written last
        _NORMAL_FORMS[t, env_items] = (m, steps - at, normal)
        _NORMAL_FORMS.move_to_end((t, env_items))
    while len(_NORMAL_FORMS) > _NORMAL_FORMS_CAP:
        _NORMAL_FORMS.popitem(last=False)
    if not normal:
        raise FuelExhausted(f"no normal form within {fuel} steps: {to_text(m)}")
    return m
