"""rng-discipline: all randomness must flow through a passed ``rng``.

Bit-identical traces (the repo's core acceptance gate) require every random
draw to come from the single seeded ``np.random.Generator`` minted at the
``Tuner.__init__`` seed boundary.  Three things break that:

* legacy global-state numpy RNG (``np.random.seed`` / ``np.random.choice`` /
  ``np.random.RandomState`` ...) — hidden global state, not snapshotted;
* the stdlib ``random`` module — a second, unseeded stream;
* minting new generators ad hoc.  ``default_rng()`` with no (or ``None``)
  seed is nondeterministic and banned everywhere; even *seeded*
  ``default_rng(k)`` calls are only allowed inside the whitelisted seed
  boundaries below, because a generator minted mid-run forks the stream the
  session snapshot knows nothing about.
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..base import Finding, Rule, register_rule
from ..source import Project

#: module basenames allowed to mint seeded generators, with the reason
SEED_BOUNDARIES: dict[str, str] = {
    # Tuner.__init__ is THE seed boundary: default_rng(seed) starts the run's stream
    "tuner": "Tuner.__init__ turns the user seed into the run's generator",
    # per-tree child streams split off the forest's own generator
    "random_forest": "per-tree streams split from the forest generator",
    # deterministic fallback when no rng is injected (ad-hoc / test use)
    "gp": "deterministic default generator when no rng is injected",
    "feasibility": "deterministic default generator when no rng is injected",
    # workload synthesis mints its own fixed-seed streams
    "tensors": "deterministic tensor synthesis from fixed seeds",
    "rise_suite": "fixed-seed fallback default configuration sample",
}

#: attributes of ``np.random`` that are part of the new-style Generator API
#: (references to these are fine; everything else is the legacy global API)
_NEW_API = {
    "default_rng",
    "Generator",
    "BitGenerator",
    "SeedSequence",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "SFC64",
    "MT19937",
}

_NUMPY_ALIASES = {"np", "numpy"}


def _is_none(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and node.value is None


@register_rule
class RngDiscipline(Rule):
    id = "rng-discipline"
    summary = "randomness must flow through a passed rng (no global/ad-hoc RNG)"
    invariant = "bit-identical traces: one seeded Generator per run (PR 1)"

    def check(self, project: Project) -> Iterable[Finding]:
        for module in project.modules:
            whitelisted = module.basename in SEED_BOUNDARIES
            for node in ast.walk(module.tree):
                if isinstance(node, (ast.Import, ast.ImportFrom)):
                    yield from self._check_import(module, node)
                elif isinstance(node, ast.Call):
                    yield from self._check_call(module, node, whitelisted)

    def _check_import(self, module, node) -> Iterable[Finding]:
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            names = [node.module or ""]
        if "random" in names:
            yield Finding(
                rule=self.id,
                path=str(module.path),
                line=node.lineno,
                message="stdlib `random` is banned: it is a second, "
                "unseeded stream outside the session snapshot",
                hint="draw from the np.random.Generator passed as `rng`",
            )

    def _check_call(self, module, node: ast.Call, whitelisted: bool) -> Iterable[Finding]:
        func = node.func
        # default_rng(...) in any spelling (np.random.default_rng, bare import)
        attr = None
        if isinstance(func, ast.Attribute):
            attr = func.attr
        elif isinstance(func, ast.Name):
            attr = func.id
        if attr == "default_rng":
            if not node.args or _is_none(node.args[0]):
                yield Finding(
                    rule=self.id,
                    path=str(module.path),
                    line=node.lineno,
                    message="argless default_rng() draws OS entropy — "
                    "nondeterministic and unreproducible",
                    hint="pass the session rng through, or seed the "
                    "fallback explicitly (default_rng(0))",
                )
            elif not whitelisted:
                yield Finding(
                    rule=self.id,
                    path=str(module.path),
                    line=node.lineno,
                    message="seeded default_rng() minted outside a "
                    "whitelisted seed boundary forks an RNG stream the "
                    "session snapshot does not carry",
                    hint="thread the run's rng through instead, or add the "
                    "module to SEED_BOUNDARIES in rules/rng.py with a reason",
                )
            return
        # legacy global-state numpy API: np.random.<fn>(...)
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Attribute)
            and func.value.attr == "random"
            and isinstance(func.value.value, ast.Name)
            and func.value.value.id in _NUMPY_ALIASES
            and func.attr not in _NEW_API
        ):
            yield Finding(
                rule=self.id,
                path=str(module.path),
                line=node.lineno,
                message=f"legacy global-state RNG call np.random.{func.attr}() "
                "bypasses the seeded per-run generator",
                hint="use the np.random.Generator passed as `rng`",
            )
