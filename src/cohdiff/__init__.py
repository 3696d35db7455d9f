"""Coherent differentiation: web-based models, summability, and a typed calculus.

The package has three layers:

* ``web_core`` / ``spaces`` / ``maps`` — finite webs, coherence verdicts
  for the three model kinds ("coh", "nucs", "rel"), and lazily
  materialized point maps;
* ``exponential`` / ``summability`` / ``differential`` — the structural
  morphisms of the exponential, the summability functor S, and the
  differential operators built on top of them, with ``lawcheck``
  providing randomized verification of every categorical law;
* ``calculus`` / ``denot`` — a small typed λ-calculus with a
  differential combinator, its rewriting theory, and its denotational
  semantics into the web models.
"""

from .web_core import (
    Atom,
    Base,
    Budget,
    BudgetExceeded,
    Multiset,
    Pair,
    Rel,
    STAR,
    Tag,
    atom_from_text,
    atom_to_text,
    degree,
    rel_compose,
    rel_from_text,
    rel_to_text,
)
from .spaces import (
    Bang,
    BaseSpace,
    DualSp,
    Limpl,
    PlusSp,
    SFun,
    Space,
    Tensor,
    Verdict,
    With,
    coherent,
    contains,
    dual,
    enumerate_web,
    is_clique,
    is_morphism,
    ispace,
    one,
    parse_space,
    parse_space_expr,
    top,
)
from .maps import PointMap, pm_bang, pm_compose, pm_from_rel, pm_id
from .exponential import contr, der, dig, weak
from .summability import (
    NotSummable,
    canonical_iso,
    msum,
    nary_summable,
    summable,
    witness,
)
from .differential import (
    dbar,
    dhat,
    dpartial,
    dpartial_via_dbar,
    dtilde,
)
from .lawcheck import (
    CheckResult,
    MapCtx,
    REGISTRY,
    gen_morphism,
    gen_space,
    gen_summable_pair,
    run_all,
    run_check,
    run_diagram,
)
from .calculus import (
    DletUndefined,
    FuelExhausted,
    TypeError_,
    alpha_eq,
    dlet,
    normalize,
    parse,
    step,
    to_text,
    typecheck,
)
from .denot import SemEnv, interp_closed, interp_term, interp_type, soundness_check

__version__ = "0.1.0"
