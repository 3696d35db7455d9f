"""The benchmark's workloads: how each builds its inputs and runs its operations.

A workload is a dict of parameters (see ``WORKLOADS``).  ``setup`` builds
the inputs; ``run`` performs every operation once, checks each output and
returns one record per operation plus the lines whose digest pins the
outputs.  One operation is one law x model check, one corpus term or one
CLI call on a demo file.

Every call into ``cohdiff`` goes through a module attribute
(``lawcheck.run_check``, ``cal.typecheck``, ...), so that the traced run,
which rebinds those attributes, sees the calls made here too.
"""

from __future__ import annotations

import json
import random
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = {
    # NUCS is ~80% of the law suite and has the largest ! webs; 100 draws
    # give ~70 distinct spaces, so the diagram cache absorbs little.
    "laws-nucs": {"kind": "laws", "models": ["nucs"], "trials": 100, "budget": 3, "seed": 7},
    # Degree-4 webs stress the dig/m0/dbar truncation knobs; REL and COH
    # spaces repeat heavily, so cached verdicts serve most trials.
    "laws-b4": {"kind": "laws", "models": ["coh", "rel"], "trials": 100, "budget": 4, "seed": 7},
    # calculus, denot and cli only.  The term set is fixed at corpus seed 0:
    # term cost is heavy-tailed across corpus seeds (N=1600 took 6 s to over
    # 150 s on seeds 0-5), so the workload seed only shuffles the order.
    # N=1600 includes term 1530, whose reducts take ~7 s to typecheck.
    "corpus": {
        "kind": "corpus",
        "corpus_seed": 0,
        "terms": 1600,
        "steps": 60,
        "nmax": 3,
        "budget": 3,
        "seed": 0,
    },
}

KNOWN_FAILURES = json.loads((HERE / "known_failures.json").read_text())
EXPECTED_DEMOS = json.loads((HERE / "expected_demos.json").read_text())


def setup(spec: dict) -> dict:
    """Import the program and build the workload's inputs."""
    if spec["kind"] == "laws":
        from cohdiff import lawcheck
        from cohdiff.web_core import Budget

        budget = Budget(spec["budget"], 20000)
        ctxs = {k: lawcheck.MapCtx(k, budget) for k in spec["models"]}
        return {"ctxs": ctxs, "names": list(lawcheck.REGISTRY)}

    from cohdiff import calculus as cal
    from cohdiff import corpus
    from cohdiff.denot import SemEnv
    from cohdiff.spaces import parse_space
    from cohdiff.web_core import Budget

    t0 = time.perf_counter()
    terms = corpus.make_corpus(spec["corpus_seed"], spec["terms"])
    make_corpus_s = time.perf_counter() - t0
    order = list(range(len(terms)))
    random.Random(spec["seed"]).shuffle(order)
    demos = []
    for path in sorted((ROOT / "demos").iterdir()):
        text = path.read_text()
        rel = f"demos/{path.name}"
        if path.suffix == ".cdl":
            cal.parse("\n".join(line.split("#", 1)[0] for line in text.splitlines()))
            for args in (["typecheck"], ["reduce"], ["eval", "--kind", "coh"], ["eval", "--kind", "nucs"]):
                demos.append([args[0], rel, *args[1:]])
        elif path.suffix == ".rel":
            demos.append(["derive", rel])
        elif path.suffix == ".space":
            parse_space(" ".join(text.split()))
    sem = SemEnv(kind="coh", nmax=spec["nmax"], budget=Budget(spec["budget"], 20000))
    return {"terms": terms, "order": order, "demos": demos, "sem": sem, "make_corpus_s": make_corpus_s}


def run(spec: dict, inputs: dict, site=None) -> tuple[list, list]:
    """Run every operation once; return (op records, digest lines).

    An op record is ``{"op", "s", "ok", "known", "why"}``.  ``site(name,
    fn)`` wraps a call made from here (the traced run passes one; the
    untraced run calls directly).
    """
    site = site or (lambda name, fn: fn)
    if spec["kind"] == "laws":
        return _run_laws(spec, inputs, site)
    return _run_corpus(spec, inputs, site)


def _run_laws(spec, inputs, site):
    from cohdiff import lawcheck

    known = {(f["model"], f["law"]) for f in KNOWN_FAILURES["laws"] if f["budget"] == spec["budget"]}
    records, lines = [], []
    for kind, ctx in inputs["ctxs"].items():
        for name in inputs["names"]:
            t0 = time.perf_counter()
            try:
                r = site(f"law:{kind}:{name}", lawcheck.run_check)(name, ctx, spec["seed"], spec["trials"])
                ok, why, trials = r.ok, r.witness, r.trials
            except Exception as e:  # any uncaught exception is a failed check
                ok, why, trials = False, f"{type(e).__name__}: {e}", 0
            records.append(
                {
                    "op": f"{kind}:{name}",
                    "s": time.perf_counter() - t0,
                    "ok": ok,
                    "known": not ok and (kind, name) in known,
                    "why": why,
                    "trials": trials,
                }
            )
            line = f"{'PASS' if ok else 'FAIL'} {kind} {name} trials={trials}"
            lines.append(line + (f" [{why}]" if why else ""))
    return records, lines


def _run_corpus(spec, inputs, site):
    from click.testing import CliRunner

    from cohdiff import calculus as cal
    from cohdiff import cli, denot
    from cohdiff.web_core import atom_to_text

    known = {}
    if spec["corpus_seed"] == KNOWN_FAILURES["corpus"]["corpus_seed"]:
        known = {f["term"]: f["cause"] for f in KNOWN_FAILURES["corpus"]["terms"]}
    step = site("calculus.step", cal.step)
    records, lines = [], []
    for i in inputs["order"]:
        m, ty = inputs["terms"][i]
        t0 = time.perf_counter()
        why, nf, den = None, None, ()
        try:
            cur = m
            for k in range(spec["steps"]):
                nxt = step(cur)
                if nxt is None:
                    break
                cur = nxt
                got = cal.typecheck(cur)
                if got != ty and why is None:
                    why = f"reduct {k + 1} has type {cal.ty_to_text(got)}, term has {cal.ty_to_text(ty)}"
            nf = cal.to_text(cur)
            den = denot.interp_closed(cur, inputs["sem"])
            if why is None and denot.interp_closed(m, inputs["sem"]) != den:
                why = "COH denotation of the last reduct differs from the term's"
        except Exception as e:
            why = f"{type(e).__name__}: {e}"
        records.append(
            {"op": f"term:{i}", "s": time.perf_counter() - t0, "ok": why is None, "known": why is not None and i in known, "why": why}
        )
        den_text = sorted(f"{atom_to_text(a)}|{atom_to_text(b)}" for a, b in den)
        lines.append((i, f"{i}\t{nf}\t{why}\t{den_text}"))
    lines = [line for _, line in sorted(lines)]  # the digest does not depend on the order

    runner = CliRunner()
    invoke = site("cli.main", runner.invoke)
    for args in inputs["demos"]:
        key = " ".join(args)
        t0 = time.perf_counter()
        res = invoke(cli.main, [str(ROOT / a) if a.startswith("demos/") else a for a in args])
        s = time.perf_counter() - t0
        want = EXPECTED_DEMOS[key]
        why = None
        if res.exception is not None and not isinstance(res.exception, SystemExit):
            why = f"{type(res.exception).__name__}: {res.exception}"
        elif res.exit_code != want["exit"] or res.stdout != want["stdout"]:
            why = f"exit {res.exit_code}, stdout {res.stdout!r}; expected exit {want['exit']}, stdout {want['stdout']!r}"
        records.append({"op": f"cli:{key}", "s": s, "ok": why is None, "known": False, "why": why, "exit": res.exit_code})
        lines.append(f"{key}\t{res.exit_code}\t{res.stdout}")
    return records, lines
