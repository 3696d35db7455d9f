"""Command-line entry points.

Batch-oriented: every command reads files or flags, prints a
deterministic plain-text report (identical seeds give byte-identical
output) and exits 0 on success.  ``check-laws`` can additionally write
a machine-readable JSON summary.
"""

import json
import sys
from dataclasses import asdict

import click

from . import calculus as cal
from .denot import SemEnv, interp_closed
from .differential import dhat
from .lawcheck import REGISTRY, run_all
from .spaces import KINDS, Bang, is_morphism, parse_space, parse_space_expr
from .web_core import Budget, atom_to_text, rel_from_text, rel_to_text


@click.group()
def main():
    """Coherent differentiation: law checks and a differential λ-calculus."""


@main.command("check-laws")
@click.option("--model", default="all", help="coh, nucs, rel or all")
@click.option("--trials", default=100, show_default=True, type=click.IntRange(min=1))
@click.option("--seed", default=0, show_default=True)
# At budget 0, d-chain-der compares two empty relations: der has no pair
# below degree 1, so the law would pass whatever ∂ is.
@click.option(
    "--budget", default=3, show_default=True, type=click.IntRange(min=1), help="max multiset degree"
)
@click.option("--only", default=None, help="run a single named law")
@click.option("--summary", type=click.Path(), default=None, help="write a JSON summary here")
def check_laws(model, trials, seed, budget, only, summary):
    """Run the categorical-law registry and report PASS/FAIL per law."""
    kinds = KINDS if model == "all" else (model,)
    for k in kinds:
        if k not in KINDS:
            raise click.UsageError(f"unknown model {k!r}")
    if only is not None and only not in REGISTRY:
        raise click.UsageError(f"unknown law {only!r}; known: {', '.join(sorted(REGISTRY))}")
    results = run_all(
        kinds=kinds,
        seed=seed,
        trials=trials,
        budget=Budget(budget),
        only=None if only is None else {only},
    )
    results.sort(key=lambda r: (r.kind, r.name))
    failures = 0
    for r in results:
        status = "PASS" if r.ok else "FAIL"
        line = f"{status} {r.kind:4s} {r.name:24s} trials={r.trials}"
        if r.witness:
            line += f"  [{r.witness}]"
        click.echo(line)
        failures += 0 if r.ok else 1
    click.echo(f"{len(results) - failures}/{len(results)} law checks passed")
    if summary is not None:
        payload = {
            "seed": seed,
            "trials": trials,
            "budget": budget,
            "results": [asdict(r) for r in results],
        }
        with open(summary, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
    sys.exit(0 if failures == 0 else 1)


def _load_term(path):
    """The term in a .cdl file; a parse error is a usage error naming the file."""
    with open(path) as fh:
        text = fh.read()
    try:
        return cal.parse(text.rstrip())
    except cal.ParseError as e:
        raise click.UsageError(f"{path}: {e}")


def _typed_term(path):
    """The term in a .cdl file and its type; an ill-typed term prints its type error and exits 1."""
    m = _load_term(path)
    try:
        return m, cal.typecheck(m)
    except cal.TypeError_ as e:
        click.echo(f"type error: {e}", err=True)
        sys.exit(1)


@main.command()
@click.argument("file", type=click.Path(exists=True))
def typecheck(file):
    """Print the type of the closed term in FILE (.cdl)."""
    _, ty = _typed_term(file)
    click.echo(cal.ty_to_text(ty))


@main.command()
@click.argument("file", type=click.Path(exists=True))
@click.option("--fuel", default=1000, show_default=True, type=click.IntRange(min=1))
@click.option("--trace", is_flag=True, help="print every intermediate term")
def reduce(file, fuel, trace):
    """Normalize the term in FILE (.cdl) and print the normal form."""
    m, _ = _typed_term(file)
    for _ in range(fuel):
        if trace:
            click.echo(cal.to_text(m))
        n = cal.step(m)
        if n is None:
            if not trace:
                click.echo(cal.to_text(m))
            return
        m = n
    click.echo(f"no normal form within {fuel} steps", err=True)
    sys.exit(1)


@main.command("eval")
@click.argument("file", type=click.Path(exists=True))
@click.option("--kind", default="coh", show_default=True, help="coh, nucs or rel")
@click.option("--budget", default=3, show_default=True, type=click.IntRange(min=0))
@click.option(
    "--nmax", default=3, show_default=True, type=click.IntRange(min=0),
    help="largest literal in the nat web",
)
def eval_cmd(file, kind, budget, nmax):
    """Print the truncated denotation of the closed term in FILE."""
    if kind not in KINDS:
        raise click.UsageError(f"unknown kind {kind!r}")
    m, _ = _typed_term(file)
    sem = SemEnv(kind=kind, nmax=nmax, budget=Budget(budget))
    # a closed term's context multisets are empty; points above the
    # budget are dropped, as PointMap.materialize drops such pairs
    points = [b for _, b in interp_closed(m, sem) if b.peak <= budget]
    if not points:
        # an empty denotation is also what truncation leaves of a numeral
        # above nmax or of an atom above the budget
        click.echo(
            f"note: empty denotation at --nmax {nmax} --budget {budget}; "
            "it may be truncated, so raise them to see more",
            err=True,
        )
    for line in sorted(map(atom_to_text, points)):
        click.echo(line)


def _load_rel_file(path):
    """A .rel file: `space` lines, `source`/`target` lines, then pairs.

    Rejects, as a usage error, a malformed line, spaces of mixed kinds and
    pairs that are not a morphism !source → target.
    """
    env = {}
    source = target = None
    pair_lines = []
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            try:
                if line.startswith("space "):
                    name, sp = parse_space(line)
                    env[name] = sp
                elif line.startswith("source "):
                    source = parse_space_expr(line[len("source "):], env)
                elif line.startswith("target "):
                    target = parse_space_expr(line[len("target "):], env)
                else:
                    pair_lines.append(line)
                    continue
            except ValueError as e:
                raise click.UsageError(f"{path}: {e}")
            pair_lines.append("")  # keeps rel_from_text's line numbers those of the file
    if source is None or target is None:
        raise click.UsageError(f"{path}: needs `source` and `target` lines")
    if source.kind != target.kind:
        raise click.UsageError(f"{path}: source is {source.kind} but target is {target.kind}")
    try:
        s = rel_from_text("\n".join(pair_lines))
    except ValueError as e:
        raise click.UsageError(f"{path}: {e}")
    if not is_morphism(Bang(source), target, s):
        raise click.UsageError(f"{path}: the pairs are not a morphism !source → target")
    return source, target, s


@main.command()
@click.argument("file", type=click.Path(exists=True))
@click.option("--budget", default=3, show_default=True, type=click.IntRange(min=0))
def derive(file, budget):
    """Differentiate the Kleisli morphism in FILE (.rel): print D̂s."""
    E, F, s = _load_rel_file(file)
    out = dhat(E, F, s, Budget(budget))
    text = rel_to_text(out)
    if text:
        click.echo(text)


if __name__ == "__main__":
    main()
