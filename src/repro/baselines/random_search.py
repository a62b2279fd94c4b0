"""Random-sampling baselines.

Two baselines from the evaluation (Sec. 5.1):

* :class:`UniformSamplingTuner` — samples uniformly from the feasible region
  (bias-free uniform-over-leaves sampling when a Chain-of-Trees exists).
* :class:`CoTSamplingTuner` — samples by walking each Chain-of-Trees tree and
  choosing a child uniformly at every level, which is the biased sampling
  scheme of Rasch et al.; this baseline isolates the impact of the sampling
  bias BaCO removes.

Both are ask/tell state machines: sampling happens at proposal time, so the
serial driver consumes the RNG exactly as the historical loop did, while
batch asks stay deduplicated against in-flight suggestions.
"""

from __future__ import annotations

from typing import Any, Mapping

from ..core import schema
from ..core.session import frozen_declaration, frozen_key_from_json, frozen_key_to_json
from ..core.tuner import Tuner
from ..space.space import Configuration, SearchSpace

__all__ = ["UniformSamplingTuner", "CoTSamplingTuner"]


class UniformSamplingTuner(Tuner):
    """Uniform random sampling over the feasible region."""

    name = "Uniform Sampling"
    _biased_cot = False

    def __init__(self, space: SearchSpace, seed: int | None = None) -> None:
        super().__init__(space, seed=seed)
        # Keys accepted through the dedup loop.  Kept separate from the
        # base class's evaluated-key set to preserve the historical
        # semantics exactly: configurations accepted only via the
        # give-up fallback are *not* added, so they may be re-drawn.
        self._seen: set[tuple] = set()

    def _reset_state(self, budget: int) -> None:
        super()._reset_state(budget)
        self._seen = set()

    def _propose(self, k: int, pending_keys: set[tuple]) -> list[tuple[Configuration, str]]:
        proposals: list[tuple[Configuration, str]] = []
        blocked = self._seen | set(pending_keys)
        for _ in range(k):
            # the first unseen of one 32-row draw wins; a final give-up draw
            # (never added to the seen set, so it may be re-proposed later)
            # covers exhausted spaces
            config = self.space.first_unseen(
                self._rng, 32, blocked, biased_cot=self._biased_cot
            )
            if config is None:
                config = self.space.sample_one(self._rng, biased_cot=self._biased_cot)
            else:
                key = self.space.freeze(config)
                self._seen.add(key)
                blocked.add(key)
            proposals.append((config, "learning"))
        return proposals

    def _state_dict(self) -> dict[str, Any]:
        state = super()._state_dict()
        state["seen"] = [frozen_key_to_json(key) for key in sorted(self._seen)]
        return state

    def _state_declaration(self, budget: int) -> dict[str, Any]:
        declaration = super()._state_declaration(budget)
        declaration["seen"] = [frozen_declaration(self.space)]
        return declaration

    def _load_state_dict(self, payload: Mapping[str, Any]) -> None:
        super()._load_state_dict(payload)
        keys = [frozen_key_from_json(item) for item in payload["seen"]]
        if keys != sorted(set(keys)):
            schema.fail("tuner_state.seen", "sorted and distinct", payload["seen"])
        self._seen = set(keys)


class CoTSamplingTuner(UniformSamplingTuner):
    """Biased per-level Chain-of-Trees sampling (ATF-style)."""

    name = "CoT Sampling"
    _biased_cot = True
