"""Tracing for the per-layer run: spans around calls into each cohdiff layer.

``Tracer.install`` rebinds public functions in every ``cohdiff`` module
namespace that holds them (and a few class attributes), so calls between
modules pass through a wrapper that records a span; ``restore`` puts the
originals back and checks that it did.  Spans (name, start, end, parent)
stay in memory until ``dump``.  Self time is a span's duration minus the
time of its child spans.

Hot memoised lookups (``contains``, ``degree``, ``within_budget``,
``atom_key``) and the recursive ``calculus.step`` are not wrapped: their
figures come from ``cache_info()`` or from the benchmark's own call sites.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter

# (module, attribute) of every wrapped function, and the per-layer name.
WRAPPED = [
    ("web_core", "Multiset.from_counts", "web_core.from_counts"),
    ("web_core", "rel_compose", "web_core.rel_compose"),
    ("spaces", "enumerate_web", "spaces.enumerate_web"),
    ("spaces", "coherent", "spaces.coherent"),
    ("spaces", "is_morphism", "spaces.is_morphism"),
    ("maps", "PointMap.materialize", "maps.materialize"),
    ("differential", "dbar", "differential.dbar"),
    ("differential", "dhat", "differential.dhat"),
    ("summability", "msum", "summability.msum"),
    ("summability", "summable", "summability.summable"),
    ("summability", "nary_summable", "summability.nary_summable"),
    ("lawcheck", "run_diagram", "lawcheck.run_diagram"),
    ("lawcheck", "gen_space", "lawcheck.gen_space"),
    ("lawcheck", "gen_morphism", "lawcheck.gen_morphism"),
    ("lawcheck", "gen_summable_pair", "lawcheck.gen_summable_pair"),
    ("calculus", "typecheck", "calculus.typecheck"),
    ("calculus", "normalize", "calculus.normalize"),
    ("denot", "interp_closed", "denot.interp_closed"),
]

# Size of a result, summed per wrapped function where a layer metric asks for it.
SIZES = {
    "spaces.enumerate_web": len,
    "maps.materialize": lambda rel: len(rel.pairs),
    "denot.interp_closed": len,
}

# lru_cache'd functions read through cache_info() after the run.
CACHED = [
    ("web_core", "atom_key"),
    ("web_core", "degree"),
    ("web_core", "within_budget"),
    ("spaces", "contains"),
    ("exponential", "dig"),
    ("exponential", "contr"),
    ("exponential", "m2"),
    ("exponential", "seely2"),
    ("differential", "dpartial"),
]

# Wrapped-call spans kept for the trace file; later ones are only counted.
SPAN_CAP = 50_000


def _module(name):
    return importlib.import_module(f"cohdiff.{name}")


def _cohdiff_modules():
    return [m for n, m in sorted(sys.modules.items()) if n == "cohdiff" or n.startswith("cohdiff.")]


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s, size]
        self.spans: list = []  # [span id, name index, start, end, parent span id or -1]
        self.dropped = 0
        self.gen_spaces: set = set()
        self._stack: list = []  # [child time, span id] per open call
        self._next_id = 0
        self._rebound: list = []  # (owner, attribute, original)

    def wrap(self, name: str, fn, keep_span: bool = False):
        """A function that runs ``fn`` inside a span called ``name``."""
        if name not in self.stats:
            self.names.append(name)
            self.stats[name] = [0, 0.0, 0.0, 0]
        st, idx, size = self.stats[name], self.names.index(name), SIZES.get(name)
        stack, spans, clock = self._stack, self.spans, perf_counter
        spaces = self.gen_spaces if name == "lawcheck.gen_space" else None

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1][1] if stack else -1
            frame = [0.0, sid]
            stack.append(frame)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                d = t1 - t0
                st[0] += 1
                st[1] += d
                st[2] += d - frame[0]
                if stack:
                    stack[-1][0] += d
                if keep_span or len(spans) < SPAN_CAP:
                    spans.append([sid, idx, t0, t1, parent])
                else:
                    self.dropped += 1
            if size is not None:
                st[3] += size(out)
            if spaces is not None:
                spaces.add(out)
            return out

        return traced

    def site(self, name: str, fn):
        """Wrap a call made by the benchmark itself; its span is always kept."""
        return self.wrap(name, fn, keep_span=True)

    def install(self):
        for mod, attr, name in WRAPPED:
            module = _module(mod)
            if "." in attr:  # a class attribute: Class.member
                cls_name, member = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[member]
                if isinstance(orig, staticmethod):
                    new = staticmethod(self.wrap(name, orig.__func__))
                else:
                    new = self.wrap(name, orig)
                setattr(cls, member, new)
                self._rebound.append((cls, member, orig))
                continue
            orig = getattr(module, attr)
            new = self.wrap(name, orig)
            for m in _cohdiff_modules():
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, new)
                        self._rebound.append((m, key, orig))

    def restore(self):
        """Put every original back; raise if any attribute did not revert."""
        for owner, key, orig in reversed(self._rebound):
            setattr(owner, key, orig)
        bad = [f"{getattr(o, '__name__', o)}.{k}" for o, k, orig in self._rebound if vars(o)[k] is not orig]
        self._rebound = []
        if bad:
            raise RuntimeError(f"attributes not restored: {bad}")

    def layer_metrics(self, records: list) -> dict:
        """Per-layer metrics from the spans, cache_info() and the op records."""

        def calls(n):
            return self.stats.get(n, [0])[0]

        def total_s(n):
            return self.stats.get(n, [0, 0.0])[1]

        def self_s(n):
            return self.stats.get(n, [0, 0.0, 0.0])[2]

        def size(n):
            return self.stats.get(n, [0, 0.0, 0.0, 0])[3]

        info = {f"{m}.{a}": getattr(_module(m), a).cache_info() for m, a in CACHED}

        def hit_ratio(key):
            i = info[key]
            return i.hits / (i.hits + i.misses) if i.hits + i.misses else 0.0

        trials = sum(r.get("trials", 0) for r in records)
        cli_ops = [r for r in records if r["op"].startswith("cli:")]
        v = {}
        for n in ("web_core.from_counts", "web_core.rel_compose"):
            v[f"{n}.calls"] = (calls(n), "count")
            v[f"{n}.self_s"] = (self_s(n), "s")
        v["web_core.atom_key.size"] = (info["web_core.atom_key"].currsize, "count")
        v["web_core.degree.hit_ratio"] = (hit_ratio("web_core.degree"), "ratio")
        v["web_core.within_budget.hit_ratio"] = (hit_ratio("web_core.within_budget"), "ratio")
        v["web_core.within_budget.size"] = (info["web_core.within_budget"].currsize, "count")
        v["spaces.enumerate_web.calls"] = (calls("spaces.enumerate_web"), "count")
        v["spaces.enumerate_web.self_s"] = (self_s("spaces.enumerate_web"), "s")
        v["spaces.enumerate_web.atoms"] = (size("spaces.enumerate_web"), "count")
        for n in ("spaces.coherent", "spaces.is_morphism"):
            v[f"{n}.calls"] = (calls(n), "count")
            v[f"{n}.self_s"] = (self_s(n), "s")
        v["spaces.contains.hit_ratio"] = (hit_ratio("spaces.contains"), "ratio")
        v["spaces.contains.size"] = (info["spaces.contains"].currsize, "count")
        v["maps.materialize.calls"] = (calls("maps.materialize"), "count")
        v["maps.materialize.self_s"] = (self_s("maps.materialize"), "s")
        v["maps.materialize.pairs"] = (size("maps.materialize"), "count")
        for a in ("dig", "contr", "m2", "seely2"):
            v[f"exponential.{a}.hit_ratio"] = (hit_ratio(f"exponential.{a}"), "ratio")
        v["differential.dpartial.hit_ratio"] = (hit_ratio("differential.dpartial"), "ratio")
        v["differential.dbar.calls"] = (calls("differential.dbar"), "count")
        v["differential.dhat.calls"] = (calls("differential.dhat"), "count")
        v["differential.dhat.self_s"] = (self_s("differential.dhat"), "s")
        for a in ("msum", "summable", "nary_summable"):
            v[f"summability.{a}.calls"] = (calls(f"summability.{a}"), "count")
            v[f"summability.{a}.self_s"] = (self_s(f"summability.{a}"), "s")
        v["lawcheck.trials"] = (trials, "count")
        v["lawcheck.distinct_spaces"] = (len(self.gen_spaces), "count")
        v["lawcheck.run_diagram.calls"] = (calls("lawcheck.run_diagram"), "count")
        v["lawcheck.run_diagram.self_s"] = (self_s("lawcheck.run_diagram"), "s")
        v["lawcheck.run_diagram.per_trial"] = (calls("lawcheck.run_diagram") / trials if trials else 0.0, "calls/trial")
        gens = ("lawcheck.gen_space", "lawcheck.gen_morphism", "lawcheck.gen_summable_pair")
        v["lawcheck.gen.self_s"] = (sum(self_s(n) for n in gens), "s")
        for n in ("calculus.step", "calculus.typecheck", "calculus.normalize"):
            v[f"{n}.calls"] = (calls(n), "count")
            v[f"{n}.self_s"] = (self_s(n), "s")
        v["denot.interp_closed.calls"] = (calls("denot.interp_closed"), "count")
        v["denot.interp_closed.self_s"] = (self_s("denot.interp_closed"), "s")
        v["denot.interp_closed.atoms"] = (size("denot.interp_closed"), "count")
        v["cli.main.calls"] = (calls("cli.main"), "count")
        v["cli.main.total_s"] = (total_s("cli.main"), "s")
        v["cli.main.nonzero_exits"] = (sum(1 for r in cli_ops if r["exit"] != 0), "count")
        return v

    def dump(self, path, extra: dict):
        """Write the spans, the per-name totals and ``extra`` as JSON."""
        payload = {
            "names": self.names,
            "spans": self.spans,
            "dropped_spans": self.dropped,
            "totals": {n: dict(zip(("calls", "total_s", "self_s", "size"), st)) for n, st in self.stats.items()},
            **extra,
        }
        path.write_text(json.dumps(payload))
