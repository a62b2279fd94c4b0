"""ATF / OpenTuner-like baseline.

The Auto-Tuning Framework (ATF, Rasch et al.) extends OpenTuner (Ansel et
al.) with known-constraint support.  OpenTuner's search is an ensemble of
heuristic *techniques* (greedy mutation / hill climbing, differential
evolution style crossover, random sampling) orchestrated by a multi-armed
bandit that allocates evaluations to whichever technique has recently
produced improvements (the "AUC bandit").

This reproduction keeps that structure:

* an elite set of the best configurations found so far;
* mutation, crossover, and random techniques that propose new configurations
  (respecting the known constraints through the search space's feasibility
  test and Chain-of-Trees);
* a sliding-window AUC bandit that scores techniques by their recent
  improvements and picks the next technique with an ε-greedy rule.

Hidden constraints get no special treatment — infeasible evaluations are
simply recorded as failures, matching how OpenTuner handles them (a high
objective value provides no gradient for the heuristics).

The paper observes (RQ4) that this exploitation-heavy strategy wins on simple
well-behaved kernels (e.g. SpMV on cage12) but gets stuck in local minima on
complex spaces; the reproduction preserves that qualitative behaviour.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Mapping

import numpy as np

from ..core import schema
from ..core.result import ObjectiveResult
from ..core.session import frozen_declaration, frozen_key_from_json, frozen_key_to_json
from ..core.tuner import Tuner
from ..space.space import Configuration, SearchSpace

__all__ = ["OpenTunerLikeTuner", "AUCBandit"]

#: the techniques the bandit allocates evaluations to
_TECHNIQUES = ("mutate", "crossover", "random")
_OUTCOME = schema.one_of(0.0, 1.0)


class AUCBandit:
    """Sliding-window area-under-curve credit assignment over techniques."""

    def __init__(
        self,
        techniques: list[str],
        window: int = 32,
        exploration: float = 0.15,
    ) -> None:
        if not techniques:
            raise ValueError("the bandit needs at least one technique")
        self.techniques = list(techniques)
        self.window = window
        self.exploration = exploration
        self._outcomes: dict[str, deque[float]] = {
            name: deque(maxlen=window) for name in self.techniques
        }
        self._uses: dict[str, int] = {name: 0 for name in self.techniques}

    def select(self, rng: np.random.Generator) -> str:
        """ε-greedy selection on the exponentially weighted recent success rate."""
        unused = [t for t in self.techniques if self._uses[t] == 0]
        if unused:
            return unused[int(rng.integers(len(unused)))]
        if rng.random() < self.exploration:
            return self.techniques[int(rng.integers(len(self.techniques)))]
        return max(self.techniques, key=self._score)

    def _score(self, technique: str) -> float:
        outcomes = self._outcomes[technique]
        if not outcomes:
            return 0.0
        # AUC-style: recent successes weigh more.
        weights = np.arange(1, len(outcomes) + 1, dtype=float)
        return float(np.dot(weights, np.asarray(outcomes)) / weights.sum())

    def update(self, technique: str, improved: bool) -> None:
        self._uses[technique] += 1
        self._outcomes[technique].append(1.0 if improved else 0.0)

    # ------------------------------------------------------------------
    def state_dict(self) -> dict[str, Any]:
        """Bandit statistics as a JSON-serializable dict (for checkpoints)."""
        return {
            "techniques": list(self.techniques),
            "window": self.window,
            "exploration": self.exploration,
            "outcomes": {name: list(dq) for name, dq in self._outcomes.items()},
            "uses": dict(self._uses),
        }

    def state_declaration(self) -> dict[str, Any]:
        """What :meth:`state_dict` writes: this bandit's constants, and
        statistics of its techniques that fit its window."""
        window = self.window
        outcomes = schema.Leaf(
            f"a list of at most {window} outcomes 0.0 or 1.0",
            lambda value: isinstance(value, list)
            and len(value) <= window
            and all(map(_OUTCOME.accepts, value)),
        )
        return {
            "techniques": schema.one_of(list(self.techniques)),
            "window": schema.one_of(window),
            "exploration": schema.one_of(self.exploration),
            "outcomes": {name: outcomes for name in self.techniques},
            "uses": {name: schema.integer(0) for name in self.techniques},
        }

    def load_state_dict(self, payload: Mapping[str, Any]) -> None:
        """Load statistics matching :meth:`state_declaration`."""
        self._outcomes = {
            name: deque(payload["outcomes"][name], maxlen=self.window)
            for name in self.techniques
        }
        self._uses = {name: payload["uses"][name] for name in self.techniques}


class OpenTunerLikeTuner(Tuner):
    """Bandit ensemble of heuristic search techniques with constraint support."""

    name = "ATF with OpenTuner"

    def __init__(
        self,
        space: SearchSpace,
        seed: int | None = None,
        elite_size: int = 5,
        n_initial_random: int | None = None,
        mutation_strength: int = 1,
    ) -> None:
        super().__init__(space, seed=seed)
        self.elite_size = elite_size
        self.n_initial_random = n_initial_random
        self.mutation_strength = mutation_strength
        self._bandit = AUCBandit(list(_TECHNIQUES))
        self._initial_left = 0
        #: technique that produced each in-flight learning suggestion,
        #: keyed by frozen configuration (a list handles rare duplicates)
        self._inflight: dict[tuple, list[str]] = {}

    # ------------------------------------------------------------------
    def _reset_state(self, budget: int) -> None:
        super()._reset_state(budget)
        self._bandit = AUCBandit(list(_TECHNIQUES))
        self._initial_left = 0
        self._inflight = {}

    def _plan(self, budget: int) -> None:
        n_initial = self.n_initial_random or max(3, min(budget // 6, 10))
        self._initial_left = min(n_initial, budget)

    def _propose(self, k: int, pending_keys: set[tuple]) -> list[tuple[Configuration, str]]:
        proposals: list[tuple[Configuration, str]] = []
        seen = self._evaluated_keys | set(pending_keys)
        for _ in range(k):
            if self._initial_left > 0:
                self._initial_left -= 1
                config = self.space.sample_one(self._rng)
                seen.add(self.space.freeze(config))
                proposals.append((config, "initial"))
                continue
            technique = self._bandit.select(self._rng)
            config = self._propose_with(technique, seen)
            key = self.space.freeze(config)
            seen.add(key)
            self._inflight.setdefault(key, []).append(technique)
            proposals.append((config, "learning"))
        return proposals

    def _observe(self, configuration: Mapping[str, Any], result: ObjectiveResult) -> None:
        """Credit the producing technique once its evaluation is told back.

        ``improved`` compares against the best value *before* this
        observation (the history already contains it when the hook runs).
        Initial-phase samples — and history replay during checkpoint restore,
        where the bandit state is loaded separately — carry no in-flight
        technique and update nothing.
        """
        key = self.space.freeze(configuration)
        techniques = self._inflight.get(key)
        if not techniques:
            return
        technique = techniques.pop(0)
        if not techniques:
            del self._inflight[key]
        prior = self._history.evaluations[:-1] if self._history is not None else []
        best_before = min(
            (e.value for e in prior if e.feasible), default=math.inf
        )
        improved = result.feasible and result.value < best_before
        self._bandit.update(technique, improved)

    # ------------------------------------------------------------------
    def _state_dict(self) -> dict[str, Any]:
        state = super()._state_dict()
        state["initial_left"] = self._initial_left
        state["bandit"] = self._bandit.state_dict()
        state["inflight"] = [
            {"key": frozen_key_to_json(key), "techniques": list(techniques)}
            for key, techniques in self._inflight.items()
        ]
        return state

    def _state_declaration(self, budget: int) -> dict[str, Any]:
        declaration = super()._state_declaration(budget)
        declaration["initial_left"] = schema.integer(0, budget)
        declaration["bandit"] = self._bandit.state_declaration()
        declaration["inflight"] = [{
            "key": frozen_declaration(self.space),
            "techniques": [schema.one_of(*self._bandit.techniques)],
        }]
        return declaration

    def _load_state_dict(self, payload: Mapping[str, Any]) -> None:
        super()._load_state_dict(payload)
        self._initial_left = payload["initial_left"]
        self._bandit.load_state_dict(payload["bandit"])
        self._inflight = {
            frozen_key_from_json(entry["key"]): list(entry["techniques"])
            for entry in payload["inflight"]
        }
        if len(self._inflight) != len(payload["inflight"]):
            schema.fail("tuner_state.inflight", "keyed by distinct configurations",
                        payload["inflight"])

    # ------------------------------------------------------------------
    def _elites(self) -> list[Configuration]:
        feasible = sorted(self.history.feasible_evaluations, key=lambda e: e.value)
        return [e.configuration for e in feasible[: self.elite_size]]

    def _propose_with(self, technique: str, seen: set[tuple]) -> Configuration:
        elites = self._elites()
        proposal: Configuration | None = None
        if technique == "mutate" and elites:
            proposal = self._mutate(elites[int(self._rng.integers(len(elites)))])
        elif technique == "crossover" and len(elites) >= 2:
            i, j = self._rng.choice(len(elites), size=2, replace=False)
            proposal = self._crossover(elites[int(i)], elites[int(j)])
        if proposal is None or self.space.freeze(proposal) in seen:
            # fall back to random sampling (also the "random" technique): the
            # first unseen of one 16-row draw, else one give-up draw
            proposal = self.space.first_unseen(self._rng, 16, seen)
            if proposal is None:
                proposal = self.space.sample_one(self._rng)
        return proposal

    def _mutate(self, configuration: Mapping[str, Any]) -> Configuration | None:
        """Change ``mutation_strength`` parameters to a nearby feasible value."""
        config = dict(configuration)
        names = list(self.space.parameter_names)
        self._rng.shuffle(names)
        changed = 0
        for name in names:
            if changed >= self.mutation_strength:
                break
            param = self.space[name]
            cot = self.space.chain_of_trees
            if cot is not None and cot.covers(name):
                options = [
                    v for v in cot.feasible_values(name, config)
                    if v != param.canonical(config[name])
                ]
            else:
                options = param.neighbours(config[name])
            if not options:
                continue
            config[name] = options[int(self._rng.integers(len(options)))]
            changed += 1
        if changed == 0:
            return None
        if not self.space.is_feasible(config):
            return None
        return config

    def _crossover(
        self, first: Mapping[str, Any], second: Mapping[str, Any]
    ) -> Configuration | None:
        """Mix parameters of two elites; repair infeasible offspring by rejection."""
        for _ in range(8):
            child: Configuration = {}
            for name in self.space.parameter_names:
                source = first if self._rng.random() < 0.5 else second
                child[name] = source[name]
            if self.space.is_feasible(child):
                return child
        return None
