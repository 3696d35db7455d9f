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

The package exports its submodules only: import a name from the module
that defines it (``from cohdiff.lawcheck import run_all``).  Importing
one module loads only what that module needs.
"""

__version__ = "0.1.0"
