"""Atoms, finite multisets, relations and enumeration budgets.

Everything downstream (spaces, the exponential, summability, the
differential) is phrased in terms of three value types:

* ``Atom`` -- a structural tree over base symbols: tagged atoms ``i·a``
  (summability layers), pairs ``(a,b)`` (tensor / linear implication)
  and finite multisets ``[a,...,b]`` (the exponential).
* ``Multiset`` -- a canonical (sorted) finite multiset of atoms, itself
  the atom of the web of ``!E``.
* ``Rel`` -- a finite set of atom pairs, the universal notion of
  morphism; composition is relational and the zero morphism is ``∅``.

Atoms, and the spaces built on them in ``spaces``, are hash-consed
(Filliâtre & Conchon, "Type-Safe Modular Hash-Consing", 2006).  A
constructor looks up its arguments, which are interned already, in one
table and returns the object it finds there; it builds a new object only
on a miss.  Two structurally equal values are therefore one object:
``==`` is identity and ``hash`` is ``object.__hash__``.  Most keys are a
tuple of the class and its arguments.  A multiset's key is order-free:
the bare ``frozenset`` of its ``(atom, count)`` items, which no tuple
key can equal (cf. the order-independent multiset hashes of Clarke et
al., ASIACRYPT 2003).  So a multiset that exists already is found from
its count map alone; dropping zero counts and sorting the entries by
``atom_key`` happen only on a miss, the sort only for two entries or
more, and ``atom_key`` runs otherwise only when a web is listed in
order.  The table is a dict of ``_Ref``s, weak
refs that carry their key and have no Python-level constructor, read by
calling the ref it finds, so a hit runs no Python frame; a ref's
callback drops its entry as soon as nothing else refers to the value,
unless a new value has taken the key since.  Keys hold the children
themselves, never their ``id()``, so an address freed by one value
cannot be mistaken for another.
Interned values are immutable: setting or deleting an attribute raises.

The memos of the map layer and the coherence verdicts are
``run_cache``s.  ``degree`` and ``within_budget`` keep plain
``lru_cache``s, but the hot paths read an atom's ``deg`` and ``peak``
slots instead.

Webs of ``!E`` are infinite, so enumeration is controlled by a
``Budget`` on the degree of atoms, which each atom carries (``Atom``).
"""

from __future__ import annotations

import re
from collections import _count_elements
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, NoReturn
from weakref import ref


class _Ref(ref):
    """A table entry: a weak ref that holds its key, with no Python-level constructor."""

    __slots__ = ("key",)


# key -> a _Ref to the one live object built from it: (class,
# *arguments) for most classes, the frozenset of its items for a multiset.
_TABLE: dict = {}
_get = _TABLE.get
# Called in place of a ref when the key is absent, so ``_get(key, _dead)()``
# is the live object or None.
_dead = type(None)


def _lookup(key):
    return _get(key, _dead)()


def _evict(ref, _table=_TABLE, _get=_get):
    """Drop a dead ``ref``'s entry unless a new object has its key (defaults outlive teardown)."""
    if _get(ref.key) is ref:
        del _table[ref.key]


def _make(cls, key, *values):
    """Build the object that ``key`` names (a table miss) and intern it."""
    obj = object.__new__(cls)
    for name, value in zip(cls.__slots__, values):
        object.__setattr__(obj, name, value)
    r = _TABLE[key] = _Ref(obj, _evict)
    r.key = key
    return obj


def _require_atom(x):
    if not isinstance(x, Atom):
        raise TypeError(f"not an atom: {x!r}")


class _Interned:
    """An immutable hash-consed value: equality is identity."""

    __slots__ = ("__weakref__",)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")


class Atom(_Interned):
    """Base class for web elements. Structural equality is identity.

    Every ``Base``, ``Tag``, ``Pair`` and ``Multiset`` is interned when it
    is built, so two atoms with the same structure are the same object,
    and it stays in the table only while something else refers to it.  On
    a table miss the constructors raise ``TypeError`` for a ``Tag``,
    ``Pair`` or ``Multiset`` child that is not an atom and a ``Base``
    symbol that is not a ``str``.  It prints as ``atom_to_text`` writes it.

    On that miss it also gets, from its children's, ``deg`` (the multiset
    degree: a multiset adds its entry count to its elements' degrees, a
    tag is transparent, a pair sums its components) and ``peak`` (the
    largest degree of a multiset in it, or 0).  A multiset's degree bounds
    its elements', so its peak is its degree; a pair's is its components'
    larger peak, as their degrees do not add up across it.
    """

    __slots__ = ()

    def __repr__(self):
        return atom_to_text(self)


class Base(Atom):
    __slots__ = ("sym", "deg", "peak")

    def __new__(cls, sym: str):
        key = (cls, sym)
        a = _get(key, _dead)()
        if a is None:
            if not isinstance(sym, str):
                raise TypeError(f"base symbol must be a str, not {sym!r}")
            a = _make(cls, key, sym, 0, 0)
        return a


class Tag(Atom):
    __slots__ = ("index", "inner", "deg", "peak")

    def __new__(cls, index: int, inner: Atom):
        key = (cls, index, inner)
        a = _get(key, _dead)()
        if a is None:
            if index not in (0, 1):
                raise ValueError("tag index must be 0 or 1")
            _require_atom(inner)
            a = _make(cls, key, index, inner, inner.deg, inner.peak)
        return a


class Pair(Atom):
    __slots__ = ("left", "right", "deg", "peak")

    def __new__(cls, left: Atom, right: Atom):
        key = (cls, left, right)
        a = _get(key, _dead)()
        if a is None:  # _make, inlined: pairs are the most frequent miss
            if not (isinstance(left, Atom) and isinstance(right, Atom)):
                raise TypeError(f"not an atom pair: {left!r}, {right!r}")
            a = object.__new__(cls)
            _set_left(a, left)
            _set_right(a, right)
            _set_deg(a, left.deg + right.deg)
            lp, rp = left.peak, right.peak
            _set_peak(a, lp if lp >= rp else rp)
            r = _TABLE[key] = _Ref(a, _evict)
            r.key = key
        return a


# Pair's slot setters, bound once, so its miss path looks up no attribute name.
_set_left, _set_right, _set_deg, _set_peak = (getattr(Pair, n).__set__ for n in Pair.__slots__)


# Every run_cache, in the order they were made; end_run clears them all.
_RUN_CACHES: list = []


def run_cache(fn):
    """``lru_cache(maxsize=None)`` on fn, emptied by every ``end_run``.

    A run cache keeps every argument and value it has seen alive until
    the next ``end_run``.  ``lawcheck.run_check`` calls that when a law
    check starts and when it returns, so the check owns what it
    memoizes, and no atom or space of it outlives it.  Outside a check
    (the calculus side, ``cli``) nothing calls it, so run caches fill
    for the life of the process there.
    """
    cached = lru_cache(maxsize=None)(fn)
    _RUN_CACHES.append(cached)
    return cached


def end_run() -> None:
    """Empty every ``run_cache``: what one law check memoized dies with it."""
    for cached in _RUN_CACHES:
        cached.cache_clear()


@run_cache
def atom_key(a: Atom):
    """Total order on atoms (used to canonicalize multisets)."""
    if isinstance(a, Base):
        return (0, a.sym)
    if isinstance(a, Tag):
        return (1, a.index, atom_key(a.inner))
    if isinstance(a, Pair):
        return (2, atom_key(a.left), atom_key(a.right))
    if isinstance(a, Multiset):
        return (3, tuple((atom_key(x), n) for x, n in a.entries))
    raise TypeError(f"not an atom: {a!r}")


def _from_counts(counts) -> "Multiset":
    """Build from a dict or an iterable of (atom, count) pairs; counts ≤ 0 drop out."""
    if not isinstance(counts, dict):
        acc: dict[Atom, int] = {}
        for a, n in counts:
            acc[a] = acc.get(a, 0) + n
        counts = acc
    key = frozenset(counts.items())
    m = _get(key, _dead)()
    return m if m is not None else _intern_multiset(key)


def _intern_multiset(key: frozenset) -> "Multiset":
    """The multiset whose count map has the items ``key`` (a table miss).

    No stored key holds a count ≤ 0, so a key with one always misses:
    drop those counts and look again.  Otherwise sort the key's own items
    into the entries and intern them.  A key of one item or none is its
    own order, so it asks ``atom_key`` for nothing and pins no key there.
    """
    if not all(n > 0 for _, n in key):
        key = frozenset(e for e in key if e[1] > 0)
        m = _get(key, _dead)()
        if m is not None:
            return m
    for a, _ in key:
        if not isinstance(a, Atom):
            raise TypeError(f"not an atom: {a!r}")
    entries = tuple(key) if len(key) < 2 else tuple(sorted(key, key=lambda e: atom_key(e[0])))
    deg = sum(n * (1 + a.deg) for a, n in entries)
    return _make(Multiset, key, entries, tuple(a for a, _ in entries), sum(n for _, n in entries), deg, deg)


class Multiset(Atom):
    """Canonical finite multiset of atoms: sorted (atom, count) entries.

    The atom of the web of ``!E``.  ``support`` (the distinct atoms, in
    entry order) and the length are computed once, when it is built.
    The raw constructor takes (atom, count) pairs in any order, like
    ``from_counts``.
    """

    __slots__ = ("entries", "support", "_len", "deg", "peak")

    def __new__(cls, entries: Iterable = ()):
        return _from_counts(entries)

    @staticmethod
    def of(atoms: Iterable[Atom]) -> "Multiset":
        counts: dict[Atom, int] = {}
        _count_elements(counts, atoms)
        return Multiset.from_counts(counts)

    from_counts = staticmethod(_from_counts)

    def __len__(self) -> int:
        return self._len

    def __iter__(self) -> Iterator[Atom]:
        for a, n in self.entries:
            for _ in range(n):
                yield a

    def __add__(self, other: "Multiset") -> "Multiset":
        counts = dict(self.entries)
        for a, n in other.entries:
            counts[a] = counts.get(a, 0) + n
        return Multiset.from_counts(counts)

    def __sub__(self, other: "Multiset") -> "Multiset":
        counts = dict(self.entries)
        for a, n in other.entries:
            m = counts.get(a, 0) - n
            if m > 0:
                counts[a] = m
            elif m == 0:
                del counts[a]
            else:
                raise ValueError("multiset subtraction went negative")
        return Multiset.from_counts(counts)


def bijections(m: Iterable[Atom], p: Iterable[Atom], keep=None) -> Iterator[tuple]:
    """The one-to-one pairings of m's elements with p's, each once: tuples of pairs (x, y), in m's order.

    None when the lengths differ.  With ``keep``, only pairs (x, y) it
    accepts are paired, and a partial pairing is dropped as soon as it
    cannot grow; the pairings come lazily, so a caller can stop at the first.
    """
    xs, ys = list(m), list(p)
    if len(xs) != len(ys):
        return
    if not xs:
        yield ()
        return
    x = xs[0]
    for i, y in enumerate(ys):
        if y not in ys[:i] and (keep is None or keep(x, y)):
            for rest in bijections(xs[1:], ys[:i] + ys[i + 1 :], keep):
                yield ((x, y),) + rest


STAR = Base("*")


# The two caches stay only because perfbench/spans.py reads their cache_info()
# (ROADMAP item 10); cohdiff itself reads the slots, so they pin no atom of a run.
@lru_cache(maxsize=None)
def degree(a: Atom) -> int:
    """The atom's ``deg``: multiset degree counted through nesting."""
    _require_atom(a)
    return a.deg


@lru_cache(maxsize=None)
def within_budget(a: Atom, max_degree: int) -> bool:
    """True iff every nested multiset of ``a`` has degree ≤ max_degree (``a.peak``)."""
    _require_atom(a)
    return a.peak <= max_degree


class BudgetExceeded(Exception):
    """Raised when an enumeration hits the max_atoms cap."""


@dataclass(frozen=True)
class Budget:
    """Enumeration bounds: the multiset degree, and the one atom cap every caller shares."""

    max_degree: int = 3
    max_atoms: int = 20000

    def __post_init__(self):
        if self.max_degree < 0 or self.max_atoms < 0:
            raise ValueError("budget bounds must be nonnegative")


@dataclass(frozen=True)
class Rel:
    """A morphism: a finite set of atom pairs."""

    pairs: frozenset = frozenset()

    def __or__(self, other: "Rel") -> "Rel":
        return Rel(self.pairs | other.pairs)


def rel_compose(s: Rel, t: Rel) -> Rel:
    """Relational composition: first ``s`` then ``t``."""
    by_src: dict[Atom, list] = {}
    for b, c in t.pairs:
        by_src.setdefault(b, []).append(c)
    out = set()
    for a, b in s.pairs:
        for c in by_src.get(b, ()):
            out.add((a, c))
    return Rel(frozenset(out))


# ---------------------------------------------------------------------------
# Textual serialization.  Every text the package reads goes through a
# ``Tokens`` cursor: the words of a ``space`` declaration (format in
# ``spaces``) and three grammars, in which whitespace only separates.
#
# Atoms (atom_from_text; atom_to_text prints them; '0.', '1.' read as '0·', '1·'):
#   atom    ::= '*' | ident | '0·' atom | '1·' atom
#             | '(' atom ',' atom ')' | '[' [atom (',' atom)*] ']'
# Space expressions over named spaces (spaces.parse_space_expr):
#   expr    ::= unit (('(x)' | '&' | '-o') unit)*       grouped to the left
#   unit    ::= name | '!' unit | 'S' unit | '(' expr ')'
# Terms and types of .cdl files (calculus.parse and parse_type; to_text and
# ty_to_text print them):
#   term    ::= app ('+' app)*                          grouped to the left
#   app     ::= operand+                                application, to the left
#   operand ::= var | numeral | 'succ' | '0[' type ']' | '(' term ')'
#             | 'D' operand | 'fix' operand | 'if0' operand operand operand
#             | op ['^' numeral] operand | '\' var ':' type '.' term
#   op      ::= 'pi0' | 'pi1' | 'iota0' | 'iota1' | 'sigma' | 'c'
#   var     ::= a letter or '_', then letters, digits, '_'; not op, D, fix, succ, if0
#   type    ::= tyatom ['=>' type]                      grouped to the right
#   tyatom  ::= 'nat' | 'D' tyatom | '(' type ')'
# An error reads "<msg> at position p in '<text>'", p the offset of the token
# the parser looked at last, or the text's length at its end: "bad character
# '?'", "unexpected end of input", "expected ')'" or the grammar's own.  In a
# text of several lines it reads "<msg> at line l, column c in '<that line>'",
# both counted from 1.  In a term or type, '#' up to the end of its line is
# whitespace.
# Relations are one 'a ↦ b' (or 'a -> b') pair per line; '#' starts a comment.
# ---------------------------------------------------------------------------


class Tokens:
    """A cursor over the tokens of one text.

    ``pattern`` is ``skip(?:(token)|(char))``, with no other capturing
    group: skip is ``\\s*``, or whitespace and whole comments, and char
    is any character that starts no skip.  The whole text is split at
    construction, each match starting where the last ended, so a
    character that starts no token is reported before anything is
    parsed.  ``error`` is the grammar's exception class.
    """

    def __init__(self, text: str, pattern: re.Pattern, error: type):
        self.text, self.error = text, error
        found, end = [], 0
        while m := pattern.match(text, end):
            found.append(m)
            end = m.end()
        self.toks = [m[1] for m in found] + [None]
        self.starts = [m.start(m.lastindex) for m in found] + [len(text)]
        self.at = self.toks.index(None)  # the first character that starts no token, or the end
        if self.at < len(found):
            self.fail(f"bad character {text[self.starts[self.at]]!r}")
        self.i = self.at = 0

    def peek(self) -> str | None:
        """The current token, None at the end; errors are now reported here."""
        self.at = self.i
        return self.toks[self.i]

    def next(self) -> str:
        """The current token, moving past it."""
        tok = self.peek()
        if tok is None:
            self.fail("unexpected end of input")
        self.i += 1
        return tok

    def expect(self, tok: str) -> None:
        if self.peek() != tok:
            self.fail(f"expected {tok!r}")
        self.i += 1

    def end(self, msg: str) -> None:
        """Require the end of the text; else fail with msg, formatted with the token left."""
        if self.peek() is not None:
            self.fail(msg.format(self.toks[self.i]))

    def fail(self, msg: str) -> NoReturn:
        """Raise the grammar's error at the token last peeked at or taken."""
        p = self.starts[self.at]
        if "\n" not in self.text:
            raise self.error(f"{msg} at position {p} in {self.text!r}")
        before = self.text[:p].split("\n")
        line = self.text.split("\n")[len(before) - 1]
        raise self.error(f"{msg} at line {len(before)}, column {len(before[-1]) + 1} in {line!r}")


def atom_to_text(a: Atom) -> str:
    if isinstance(a, Base):
        return a.sym
    if isinstance(a, Tag):
        return f"{a.index}·{atom_to_text(a.inner)}"
    if isinstance(a, Pair):
        return f"({atom_to_text(a.left)},{atom_to_text(a.right)})"
    if isinstance(a, Multiset):
        texts = []
        for x, n in a.entries:
            texts += [atom_to_text(x)] * n
        return "[" + ",".join(texts) + "]"
    raise TypeError(f"not an atom: {a!r}")


class AtomParseError(ValueError):
    pass


_ATOM_TOKENS = re.compile(r"\s*(?:([01][·.]|\w+|[*(),\[\]])|(\S))")


def atom_from_text(text: str) -> Atom:
    toks = Tokens(text, _ATOM_TOKENS, AtomParseError)
    a = _atom(toks)
    toks.end("trailing input")
    return a


def _atom(toks: Tokens) -> Atom:
    t = toks.peek()
    if t in (None, ",", ")", "]"):
        toks.fail("expected an atom")
    toks.next()
    if t == "(":
        left = _atom(toks)
        toks.expect(",")
        right = _atom(toks)
        toks.expect(")")
        return Pair(left, right)
    if t == "[":
        items = [] if toks.peek() == "]" else [_atom(toks)]
        while items and toks.peek() == ",":
            toks.next()
            items.append(_atom(toks))
        toks.expect("]")
        return Multiset.of(items)
    if t[-1] in "·.":
        return Tag(int(t[0]), _atom(toks))
    return Base(t)


def rel_to_text(r: Rel) -> str:
    lines = sorted(
        f"{atom_to_text(a)} ↦ {atom_to_text(b)}" for a, b in r.pairs
    )
    return "\n".join(lines)


def rel_from_text(text: str) -> Rel:
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        lhs, arrow, rhs = line.partition("↦") if "↦" in line else line.partition("->")
        if not arrow:
            raise AtomParseError(f"line {lineno}: expected 'a ↦ b'")
        pairs.append((atom_from_text(lhs.strip()), atom_from_text(rhs.strip())))
    return Rel(frozenset(pairs))
