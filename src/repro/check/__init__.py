"""Explicit-state checking of the real implementation.

``repro.check`` turns the deterministic simulation into a model checker:

- :mod:`repro.check.choices` -- the ChoicePoint API protocol code consults
  at every nondeterministic site (zero ``repro`` imports, safe everywhere);
- :mod:`repro.check.mutations` -- re-introducible historical bugs for
  checker self-tests (zero ``repro`` imports);
- :mod:`repro.check.invariants` -- the safety-property library evaluated
  against every explored run;
- :mod:`repro.check.scenarios` -- :data:`~repro.check.scenarios.SCENARIOS`,
  small checkable deployments (crash, Byzantine, view change,
  ordering-service reorder and shard merge) as rows: each a config that
  :func:`repro.bench.harness.build` turns into a real system, and a script
  that drives it;
- :mod:`repro.check.explorer` -- prefix-branching BFS/DFS with fingerprint
  dedup and counterexample minimization;
- :mod:`repro.check.replay` -- saved-trace replay, turning counterexamples
  into deterministic regression tests;
- :mod:`repro.check.static` -- the static protocol analyzer
  (``python -m repro.check.static``): one walk over each module's AST
  applying the per-node exception and determinism/assert rules.

Heavy submodules are loaded lazily: ``core``/``sim``/``net`` import the two
leaf modules above at import time, so this package ``__init__`` must not
import anything that imports them back.
"""

from __future__ import annotations

from typing import Any

_LAZY = {
    "choices": "repro.check.choices",
    "mutations": "repro.check.mutations",
    "invariants": "repro.check.invariants",
    "scenarios": "repro.check.scenarios",
    "explorer": "repro.check.explorer",
    "replay": "repro.check.replay",
    "static": "repro.check.static",
}

__all__ = sorted(_LAZY)


def __getattr__(name: str) -> Any:
    if name in _LAZY:
        import importlib

        return importlib.import_module(_LAZY[name])
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
