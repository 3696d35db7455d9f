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
``coherent`` are ``web_core.run_cache``s.  ``web_of`` is not cached.

Only ``!`` makes new atoms: a web of E ⊗ F or E ⊸ F is the product of
its parts' webs, one of E & F or S E two tagged copies.  So each web is
built from its parts' webs.  Only ``!`` webs live for the process, in a
bounded cache; the others are built in each law check, in a run cache.

Only the uniform (COH) ``!`` reads coherence to decide its web, so
``web_of(E)`` gives one canonical space for every space with E's web.
Questions that read only the web are keyed by it: the enumeration
cache and ``dhat_graph``'s membership test (``contains`` itself answers
for whatever space it is given).  The point maps read no space, so a
diagram side meets its model only in the source web it enumerates.
"""

from __future__ import annotations

import enum
import re
import sys
from functools import lru_cache
from itertools import islice

from .web_core import (
    Atom,
    Budget,
    BudgetExceeded,
    Multiset,
    Pair,
    Rel,
    STAR,
    Tag,
    Tokens,
    _Interned,
    _lookup,
    _make,
    atom_from_text,
    atom_key,
    bijections,
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
    if not isinstance(E, Space):
        raise TypeError(f"not a space: {E!r}")
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
        return isinstance(a, Tag) and contains(E.left if a.index == 0 else E.right, a.inner)
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
    return Verdict.SCOH if E.kind == REL else _verdict(E, a, b)


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
        return Verdict.SCOH if vl.coherent and vr.coherent else Verdict.SINCOH
    if isinstance(E, With):
        return Verdict.SCOH if a.index != b.index else _verdict(E.left if a.index == 0 else E.right, a.inner, b.inner)
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
        neutral = bijections(a, b, lambda x, y: _verdict(E.inner, x, y) is Verdict.NEU)
        return Verdict.NEU if next(neutral, None) is not None else Verdict.SCOH
    raise TypeError(f"not a space: {E!r}")


def is_clique(E: Space, xs) -> bool:
    """Atoms of E's web, pairwise coherent (diagonal included)."""
    xs = list(xs)
    if not all(contains(E, x) for x in xs):
        return False
    return E.kind == REL or all(coherent(E, x, y).coherent for i, x in enumerate(xs) for y in xs[i:])


def is_morphism(E: Space, F: Space, s: Rel) -> bool:
    """s is a morphism E → F iff it is a clique of E ⊸ F."""
    return is_clique(Limpl(E, F), [Pair(a, b) for a, b in s.pairs])


# ---------------------------------------------------------------------------
# Web enumeration
# ---------------------------------------------------------------------------


def enumerate_web(E: Space, budget: Budget) -> tuple:
    """All web atoms whose nested multisets fit the degree budget, as a tuple in ``atom_key`` order.

    BudgetExceeded past ``budget.max_atoms`` atoms.  Cached per ``web_of(E)``: a ``!`` web
    for the process (``_enumerate_cached``), any other in the run cache ``_web``.
    """
    E = web_of(E)
    return (_enumerate_cached if isinstance(E, Bang) else _web)(E, budget.max_degree, budget.max_atoms)


def _part(E: Space, max_degree: int, max_atoms: int) -> tuple:
    """A part's web, also past max_atoms: a ``!`` at a low degree, or a product with an empty factor, has fewer."""
    cached = _enumerate_cached if isinstance(E, Bang) else _web
    try:
        return cached(E, max_degree, max_atoms)
    except BudgetExceeded:
        return cached(E, max_degree, sys.maxsize - 1)  # islice takes at most sys.maxsize


@run_cache
def _web(E: Space, max_degree: int, max_atoms: int) -> tuple:
    """E's web from its parts' webs, in ``atom_key`` order; a product's size is checked before it is built.

    ``atom_key`` orders pairs and tags by their parts, so only a base space's
    atoms and a ``!`` web (through ``_enumerate_cached``) are sorted.
    """
    if isinstance(E, Bang):
        inner = _part(E.inner, max_degree, max_atoms)
        later = _later_coherent(E.inner, inner, max_degree) if E.kind == COH else None
        web = sorted(islice(_enum_msets(inner, later, range(len(inner)), max_degree, []), max_atoms + 1), key=atom_key)
    elif isinstance(E, BaseSpace):
        web = sorted(E.atoms, key=atom_key)
    else:
        parts = (E.inner, E.inner) if isinstance(E, SFun) else (E.left, E.right)
        left, right = [_part(P, max_degree, max_atoms) for P in parts]
        if not isinstance(E, (Tensor, Limpl)):
            web = [Tag(0, a) for a in left] + [Tag(1, b) for b in right]
        elif len(left) * len(right) > max_atoms:
            web = range(len(left) * len(right))  # too many atoms to build: only the size is checked
        else:
            web = [Pair(a, b) for a in left for b in right]
    if len(web) > max_atoms:
        raise BudgetExceeded(f"web of {E!r} exceeds max_atoms={max_atoms} at degree {max_degree}")
    return tuple(web)


# _web's builder, bounded, for the ! webs only (enumerate_web and _part choose): they outlive end_run.
# Run-scoped too, they cost laws-b4 (seed 7) +17% Python calls and about +25% wall time, for 1.0
# of 24.7 MB peak RSS.  Clear this cache too when coherence is patched between checks.
_enumerate_cached = lru_cache(maxsize=4096)(_web.__wrapped__)


def _later_coherent(E: Space, inner: tuple, max_degree: int) -> list:
    """Per index j, the set of k ≥ j whose atom is coherent with ``inner[j]`` in E.

    Only pairs whose two occurrences fit one multiset within ``max_degree``
    are tested: no other pair is ever chosen together.
    """
    costs = [1 + a.deg for a in inner]
    return [
        {k for k in range(j, len(inner)) if cj + costs[k] <= max_degree and coherent(E, a, inner[k]).coherent}
        for j, (a, cj) in enumerate(zip(inner, costs))
    ]


def _enum_msets(inner: tuple, later, cands, left: int, chosen: list):
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
# and constructed-space expressions over named spaces (grammar in web_core):
#   !E   S E   E (x) F   E & F   E -o F   ( ... )
# ---------------------------------------------------------------------------


class SpaceParseError(ValueError):
    pass


# A declaration's words after its name: 'kind=...', 'block{...}' (unclosed
# at the end of the text), or a word that opens no block.
_DECL_TOKENS = re.compile(r"\s*(?:(kind=[^\s{]*|[^\s{]*\{[^}]*\}?|[^\s{]+)|(\S))")


def parse_space(text: str) -> tuple[str, BaseSpace]:
    """Parse the extensional `space ...` format (single declaration): its name and space."""
    words = text.split(None, 2)
    if len(words) < 3 or words[0] != "space":
        raise SpaceParseError("expected: space <name> kind=... atoms{...} ...")
    name, rest = words[1], words[2]
    if name == "S" or not all(c.isalnum() or c in "_*" for c in name):
        raise SpaceParseError(f"bad space name {name!r}: use letters, digits, _, * (S names the summability functor)")
    kind, blocks = None, {}
    toks = Tokens(rest, _DECL_TOKENS, SpaceParseError)
    while toks.peek() is not None:
        word, brace, body = toks.next().partition("{")
        if word.startswith("kind="):
            if kind is not None:
                toks.fail("repeated kind=")
            kind = word[len("kind=") :]
        elif not brace:
            toks.fail(f"expected '{{' after {word!r}")
        elif word not in ("atoms", "scoh", "sincoh") or word in blocks:
            toks.fail(f"unknown or repeated block {word!r}")
        elif not body.endswith("}"):
            toks.fail(f"block {word!r} has no closing '}}'")
        else:
            blocks[word] = body[:-1]
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


_SPACE_TOKENS = re.compile(r"\s*(?:(\(x\)|-o|[()!&]|[\w*]+)|(\S))")
_CONNECTIVES = {"(x)": Tensor, "&": With, "-o": Limpl}
_PREFIXES = {"!": Bang, "S": SFun}


def parse_space_expr(text: str, env: dict) -> Space:
    """Parse a constructed-space expression over named base spaces."""
    toks = Tokens(text, _SPACE_TOKENS, SpaceParseError)
    expr = _space_expr(toks, env)
    toks.end("trailing tokens at {!r}")
    return expr


def _space_unit(toks: Tokens, env: dict) -> Space:
    t = toks.next()
    if t == "(":
        expr = _space_expr(toks, env)
        toks.expect(")")
        return expr
    if t in _PREFIXES:
        return _PREFIXES[t](_space_unit(toks, env))
    if t not in env:
        toks.fail(f"unknown space {t!r}")
    return env[t]


def _space_expr(toks: Tokens, env: dict) -> Space:
    left = _space_unit(toks, env)
    while toks.peek() in _CONNECTIVES:
        op = toks.next()
        right = _space_unit(toks, env)
        if right.kind != left.kind:
            raise SpaceParseError(f"{op} joins a {left.kind} space to a {right.kind} space")
        left = _CONNECTIVES[op](left, right)
    return left
