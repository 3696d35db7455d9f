"""Coherence spaces (COH), non-uniform coherence spaces (NUCS), and REL.

A space is a web together with a coherence structure.  Everything is
phrased non-uniformly: a verdict for a pair of atoms is one of strictly
coherent / neutral / strictly incoherent.  Classical coherence spaces
are the special case where neutrality is equality, which makes one
structural verdict function serve both kinds.  REL is the same web
calculus with the verdict trivially "strictly coherent" everywhere,
so every finite set is a clique and every relation is a morphism.

Derived relations: coherent = strictly coherent or neutral,
incoherent = strictly incoherent or neutral.

Spaces are hash-consed like atoms, in the same weak table
(``web_core._TABLE``): two structurally equal spaces are one object, so
the caches keyed on spaces hash them by identity.  ``contains`` and
``coherent`` are ``web_core.run_cache``s; the enumeration cache is
bounded and lives for the process.  ``web_of`` is not cached.

Only the uniform (COH) ``!`` reads coherence to decide its web, so
``web_of(E)`` gives one canonical space for every space with E's web.
Questions that read only the web are keyed by it: the enumeration
cache, ∂'s image cache and the membership tests of ``pm_bang`` and
``dhat_graph`` (``contains`` itself answers for whatever space it is
given).
"""

from __future__ import annotations

import enum
from functools import lru_cache

from .web_core import (
    Atom,
    Budget,
    BudgetExceeded,
    Multiset,
    Pair,
    Rel,
    STAR,
    Tag,
    _Interned,
    _lookup,
    _make,
    atom_from_text,
    atom_key,
    run_cache,
)

COH, NUCS, REL = "coh", "nucs", "rel"
KINDS = (COH, NUCS, REL)


class Verdict(enum.Enum):
    SCOH = "strictly-coherent"
    NEU = "neutral"
    SINCOH = "strictly-incoherent"

    @property
    def coherent(self) -> bool:
        return self is not Verdict.SINCOH

    @property
    def neutral(self) -> bool:
        return self is Verdict.NEU


class Space(_Interned):
    """Base class of the six space constructors below.

    Spaces are interned in the atoms' table: structurally equal spaces
    are one object.  A constructed space's slots are its parts followed
    by ``kind``, which it takes from its first part; a ``BaseSpace`` is
    given its kind.
    """

    __slots__ = ()

    def __new__(cls, *parts):
        key = (cls, *parts)
        E = _lookup(key)
        if E is None:
            if len(parts) != len(cls.__slots__) - 1 or not all(isinstance(p, Space) for p in parts):
                raise TypeError(f"{cls.__name__} takes {len(cls.__slots__) - 1} spaces, not {parts!r}")
            E = _make(cls, key, *parts, parts[0].kind)
        return E

    def __repr__(self):
        args = ", ".join(f"{n}={getattr(self, n)!r}" for n in self.__slots__)
        return f"{type(self).__name__}({args})"


def _norm_pairs(pairs) -> frozenset:
    """Symmetric closure of a set of atom pairs."""
    out = set()
    for a, b in pairs:
        out.add((a, b))
        out.add((b, a))
    return frozenset(out)


class BaseSpace(Space):
    """Extensionally given space: a web of distinct atoms + strict relations on it.

    For kind "coh" the stored scoh is coherence minus the diagonal (the
    diagonal is neutral).  For kind "nucs" scoh/sincoh are the strict
    relations and must be disjoint; the rest is neutral.  For kind
    "rel" the relations are ignored.  Both relations are stored
    symmetrically closed, so either orientation of a pair gives one
    space.
    """

    __slots__ = ("kind", "atoms", "scoh", "sincoh")

    def __new__(cls, kind: str, atoms: tuple, scoh=frozenset(), sincoh=frozenset()):
        scoh, sincoh = _norm_pairs(scoh), _norm_pairs(sincoh)
        key = (cls, kind, atoms, scoh, sincoh)
        E = _lookup(key)
        if E is None:
            if kind not in KINDS:
                raise ValueError(f"unknown kind {kind!r}")
            if len(set(atoms)) != len(atoms):
                raise ValueError(f"repeated atom in {atoms!r}")
            if not {x for x, _ in scoh | sincoh} <= set(atoms):
                raise ValueError("a strict pair names an atom outside the web")
            if scoh & sincoh:
                raise ValueError("strict coherence and strict incoherence overlap")
            E = _make(cls, key, kind, atoms, scoh, sincoh)
        return E


class Tensor(Space):
    __slots__ = ("left", "right", "kind")


class With(Space):
    __slots__ = ("left", "right", "kind")


class Limpl(Space):
    __slots__ = ("left", "right", "kind")


class SFun(Space):
    __slots__ = ("inner", "kind")


class Bang(Space):
    __slots__ = ("inner", "kind")


def one(kind: str) -> BaseSpace:
    """The tensor unit 1: a single neutral point."""
    return BaseSpace(kind, (STAR,))


def top(kind: str) -> BaseSpace:
    """The terminal object ⊤: empty web."""
    return BaseSpace(kind, ())


def ispace(kind: str) -> With:
    """I = 1 & 1, the dual-numbers object of canonical summability."""
    return With(one(kind), one(kind))


def web_of(E: Space) -> Space:
    """A canonical space with E's web, shared by every space with that web.

    Only the uniform (COH) ``!`` reads coherence to build its web, so a
    node whose kind is COH comes back unchanged, with its whole subtree.
    Any other node is rebuilt with the same constructors over
    ``BaseSpace(REL, atoms)``: NUCS and REL spaces over the same atoms
    get one web whatever their coherence.
    """
    if E.kind == COH:
        return E
    if isinstance(E, BaseSpace):
        return BaseSpace(REL, E.atoms)
    return type(E)(*(web_of(getattr(E, n)) for n in E.__slots__[:-1]))


def mset_width(E: Space) -> int:
    """Multisets side by side in an atom of E: within degree d, its degree is ≤ mset_width(E)·d."""
    if isinstance(E, BaseSpace):
        return 0
    if isinstance(E, Bang):
        return 1
    if isinstance(E, (Tensor, Limpl)):
        return mset_width(E.left) + mset_width(E.right)
    if isinstance(E, With):
        return max(mset_width(E.left), mset_width(E.right))
    return mset_width(E.inner)


# ---------------------------------------------------------------------------
# Web membership and coherence verdicts
# ---------------------------------------------------------------------------


@run_cache
def contains(E: Space, a: Atom) -> bool:
    """Web membership (shape + COH multiclique restriction for !)."""
    if isinstance(E, BaseSpace):
        return a in E.atoms
    if isinstance(E, (Tensor, Limpl)):
        return isinstance(a, Pair) and contains(E.left, a.left) and contains(E.right, a.right)
    if isinstance(E, With):
        if not isinstance(a, Tag):
            return False
        return contains(E.left if a.index == 0 else E.right, a.inner)
    if isinstance(E, SFun):
        return isinstance(a, Tag) and contains(E.inner, a.inner)
    if isinstance(E, Bang):
        if not isinstance(a, Multiset):
            return False
        if E.kind == COH:
            # uniform exponential: the support must be a clique
            return is_clique(E.inner, a.support)
        return all(contains(E.inner, x) for x in a.support)
    raise TypeError(f"not a space: {E!r}")


@run_cache
def coherent(E: Space, a: Atom, b: Atom) -> Verdict:
    """Coherence verdict of two web atoms, computed structurally."""
    if E.kind == REL:
        return Verdict.SCOH
    return _verdict(E, a, b)


def _verdict(E: Space, a: Atom, b: Atom) -> Verdict:
    if isinstance(E, BaseSpace):
        if E.kind == COH:
            if a == b:
                return Verdict.NEU
            return Verdict.SCOH if (a, b) in E.scoh else Verdict.SINCOH
        if (a, b) in E.scoh:
            return Verdict.SCOH
        if (a, b) in E.sincoh:
            return Verdict.SINCOH
        return Verdict.NEU
    if isinstance(E, Tensor):
        vl = _verdict(E.left, a.left, b.left)
        vr = _verdict(E.right, a.right, b.right)
        if vl is Verdict.NEU and vr is Verdict.NEU:
            return Verdict.NEU
        if vl.coherent and vr.coherent:
            return Verdict.SCOH
        return Verdict.SINCOH
    if isinstance(E, With):
        if a.index != b.index:
            return Verdict.SCOH
        return _verdict(E.left if a.index == 0 else E.right, a.inner, b.inner)
    if isinstance(E, Limpl):
        va = _verdict(E.left, a.left, b.left)
        vb = _verdict(E.right, a.right, b.right)
        if va is Verdict.NEU and vb is Verdict.NEU:
            return Verdict.NEU
        # coherent iff coh(a) implies (coh(b) and (neu(b) implies neu(a)))
        coh = (not va.coherent) or (vb.coherent and (not vb.neutral or va.neutral))
        return Verdict.SCOH if coh else Verdict.SINCOH
    if isinstance(E, SFun):
        v = _verdict(E.inner, a.inner, b.inner)
        if v is Verdict.NEU:
            return Verdict.NEU if a.index == b.index else Verdict.SINCOH
        return v
    if isinstance(E, Bang):
        for x in a.support:
            for y in b.support:
                if not _verdict(E.inner, x, y).coherent:
                    return Verdict.SINCOH
        if len(a) == len(b) and _neutral_matching(E.inner, list(a), list(b)):
            return Verdict.NEU
        return Verdict.SCOH
    raise TypeError(f"not a space: {E!r}")


def _neutral_matching(E: Space, xs: list, ys: list) -> bool:
    """Is there a bijection pairing xs with ys with all pairs neutral?"""
    if not xs:
        return True
    x, rest = xs[0], xs[1:]
    seen = set()
    for i, y in enumerate(ys):
        if y in seen:
            continue
        seen.add(y)
        if _verdict(E, x, y).neutral and _neutral_matching(E, rest, ys[:i] + ys[i + 1 :]):
            return True
    return False


def is_clique(E: Space, xs) -> bool:
    """Atoms of E's web, pairwise coherent (diagonal included)."""
    xs = list(xs)
    if not all(contains(E, x) for x in xs):
        return False
    if E.kind == REL:
        return True
    return all(coherent(E, x, y).coherent for i, x in enumerate(xs) for y in xs[i:])


def is_morphism(E: Space, F: Space, s: Rel) -> bool:
    """s is a morphism E → F iff it is a clique of E ⊸ F."""
    return is_clique(Limpl(E, F), [Pair(a, b) for a, b in s.pairs])


# ---------------------------------------------------------------------------
# Web enumeration
# ---------------------------------------------------------------------------


def enumerate_web(E: Space, budget: Budget) -> list:
    """All web atoms whose nested multisets fit the degree budget.

    Deterministic (canonical atom order); raises BudgetExceeded if more
    than ``budget.max_atoms`` atoms would be produced.  Cached per
    ``web_of(E)``, so spaces with one web share one enumeration.
    """
    return list(_enumerate_cached(web_of(E), budget))


# Process-lived and bounded, not a run cache: run-scoped, it cost laws-b4 (seed 7) +13% Python
# calls and about +11% wall time, for 2.3 of 26.4 MB peak RSS.  It outlives end_run: clear it too
# when coherence is patched between checks.
@lru_cache(maxsize=4096)
def _enumerate_cached(E: Space, budget: Budget) -> tuple:
    out = []
    for a in _enum(E, budget.max_degree):
        out.append(a)
        if len(out) > budget.max_atoms:
            raise BudgetExceeded(
                f"web of {E!r} exceeds max_atoms={budget.max_atoms} at degree {budget.max_degree}"
            )
    out.sort(key=atom_key)
    return tuple(out)


def _enum(E: Space, max_degree: int):
    if isinstance(E, BaseSpace):
        yield from E.atoms
        return
    if isinstance(E, (Tensor, Limpl)):
        rights = list(_enum(E.right, max_degree))
        for a in _enum(E.left, max_degree):
            for b in rights:
                yield Pair(a, b)
        return
    if isinstance(E, With):
        for a in _enum(E.left, max_degree):
            yield Tag(0, a)
        for b in _enum(E.right, max_degree):
            yield Tag(1, b)
        return
    if isinstance(E, SFun):
        for a in _enum(E.inner, max_degree):
            yield Tag(0, a)
            yield Tag(1, a)
        return
    if isinstance(E, Bang):
        inner = sorted(_enum(E.inner, max_degree), key=atom_key)
        later = _later_coherent(E.inner, inner, max_degree) if E.kind == COH else None
        yield from _enum_msets(inner, later, range(len(inner)), max_degree, [])
        return
    raise TypeError(f"not a space: {E!r}")


def _later_coherent(E: Space, inner: list, max_degree: int) -> list:
    """Per index j, the set of k ≥ j whose atom is coherent with ``inner[j]`` in E.

    Only pairs whose two occurrences fit one multiset within ``max_degree``
    are tested: no other pair is ever chosen together.
    """
    costs = [1 + a.deg for a in inner]
    return [
        {k for k in range(j, len(inner)) if cj + costs[k] <= max_degree and coherent(E, a, inner[k]).coherent}
        for j, (a, cj) in enumerate(zip(inner, costs))
    ]


def _enum_msets(inner: list, later, cands, left: int, chosen: list):
    """Every multiset of ``chosen`` plus atoms ``inner[k]``, k in ``cands``, that adds degree ≤ left.

    Each occurrence of an atom ``a`` costs ``1 + a.deg``.  ``cands`` holds,
    in increasing order, the indices of the atoms coherent with every chosen
    one; ``later`` (``_later_coherent``, or None outside uniform COH, where
    every atom may join) narrows it to those coherent with each new choice
    too, so the support stays a clique.  No closure, so no cycle.
    """
    yield Multiset.of(chosen)
    for pos, j in enumerate(cands):
        a = inner[j]
        cost = 1 + a.deg
        if cost > left:
            continue
        rest = cands[pos:]
        if later is not None:
            coh = later[j]
            rest = [k for k in rest if k in coh]
        chosen.append(a)
        yield from _enum_msets(inner, later, rest, left - cost, chosen)
        chosen.pop()


# ---------------------------------------------------------------------------
# Text format
#
#   space <name> kind=coh|nucs|rel atoms{a b c} scoh{(a,b) ...} [sincoh{...}]
#
# and constructed-space expressions over named spaces:
#   !E   S E   E (x) F   E & F   E -o F   ( ... )
# ---------------------------------------------------------------------------


class SpaceParseError(ValueError):
    pass


def parse_space(text: str) -> tuple[str, BaseSpace]:
    """Parse the extensional `space ...` format (single declaration): its name and space."""
    toks = text.split(None, 2)
    if len(toks) < 3 or toks[0] != "space":
        raise SpaceParseError("expected: space <name> kind=... atoms{...} ...")
    name = toks[1]
    rest = toks[2]
    if name == "S" or not all(c.isalnum() or c in "_*" for c in name):
        raise SpaceParseError(f"bad space name {name!r}: use letters, digits, _, * (S names the summability functor)")
    kind = None
    blocks = {}
    i = 0
    while i < len(rest):
        if rest[i].isspace():
            i += 1
            continue
        j = i
        while j < len(rest) and not rest[j].isspace() and rest[j] != "{":
            j += 1
        word = rest[i:j]
        if word.startswith("kind="):
            if kind is not None:
                raise SpaceParseError("repeated kind=")
            kind = word[len("kind=") :]
            i = j
            continue
        if j >= len(rest) or rest[j] != "{":
            raise SpaceParseError(f"expected '{{' after {word!r}")
        if word not in ("atoms", "scoh", "sincoh") or word in blocks:
            raise SpaceParseError(f"unknown or repeated block {word!r}")
        k = rest.find("}", j)
        if k < 0:
            raise SpaceParseError(f"block {word!r} has no closing '}}'")
        blocks[word] = rest[j + 1 : k]
        i = k + 1
    if kind not in KINDS:
        raise SpaceParseError(f"bad or missing kind: {kind!r}")
    if "atoms" not in blocks:
        raise SpaceParseError("missing atoms{...} block")
    if kind == COH and "sincoh" in blocks:
        raise SpaceParseError("kind=coh takes no sincoh{...} block")
    if kind == REL and len(blocks) > 1:
        raise SpaceParseError("kind=rel takes no relation block")
    atoms = tuple(atom_from_text(w) for w in blocks["atoms"].split())
    scoh = _parse_pair_block(blocks.get("scoh", ""))
    sincoh = _parse_pair_block(blocks.get("sincoh", ""))
    if kind == COH:
        # for COH the scoh block lists coherent pairs; the diagonal is
        # implicit (neutral) and everything else is incoherent.  A diagonal
        # pair is dropped only on an atom of the web: BaseSpace rejects the rest.
        scoh = frozenset((a, b) for a, b in scoh if a != b or a not in atoms)
    return name, BaseSpace(kind, atoms, scoh, sincoh)


def _parse_pair_block(block: str) -> frozenset:
    pairs = set()
    for chunk in block.split():
        a = atom_from_text(chunk)
        if not isinstance(a, Pair):
            raise SpaceParseError(f"expected a pair, got {chunk!r}")
        pairs.add((a.left, a.right))
    return frozenset(pairs)


def parse_space_expr(text: str, env: dict) -> Space:
    """Parse a constructed-space expression over named base spaces."""
    toks = _space_tokens(text)
    expr, rest = _space_expr(toks, env)
    if rest:
        raise SpaceParseError(f"trailing tokens: {rest}")
    return expr


def _space_tokens(text: str) -> list:
    out = []
    i = 0
    while i < len(text):
        c = text[i]
        if c.isspace():
            i += 1
        elif text.startswith("(x)", i):
            out.append("(x)")
            i += 3
        elif text.startswith("-o", i):
            out.append("-o")
            i += 2
        elif c in "()!&":
            out.append(c)
            i += 1
        else:
            j = i
            while j < len(text) and (text[j].isalnum() or text[j] in "_*"):
                j += 1
            if j == i:
                raise SpaceParseError(f"bad character {c!r} in space expression")
            out.append(text[i:j])
            i = j
    return out


def _space_atom(toks: list, env: dict):
    if not toks:
        raise SpaceParseError("unexpected end of space expression")
    t = toks[0]
    if t == "(":
        expr, rest = _space_expr(toks[1:], env)
        if not rest or rest[0] != ")":
            raise SpaceParseError("missing ')'")
        return expr, rest[1:]
    if t == "!":
        inner, rest = _space_atom(toks[1:], env)
        return Bang(inner), rest
    if t == "S":
        inner, rest = _space_atom(toks[1:], env)
        return SFun(inner), rest
    if t in env:
        return env[t], toks[1:]
    raise SpaceParseError(f"unknown space {t!r}")


def _space_expr(toks: list, env: dict):
    left, rest = _space_atom(toks, env)
    while rest and rest[0] in ("(x)", "&", "-o"):
        op = rest[0]
        right, rest = _space_atom(rest[1:], env)
        if right.kind != left.kind:
            raise SpaceParseError(f"{op} joins a {left.kind} space to a {right.kind} space")
        if op == "(x)":
            left = Tensor(left, right)
        elif op == "&":
            left = With(left, right)
        else:
            left = Limpl(left, right)
    return left, rest
