"""Ytopt-like baseline: Bayesian optimization without BaCO's customizations.

Ytopt (Wu et al.) wraps skopt's Bayesian optimization to tune compiler
pragmas.  Compared with BaCO it

* uses a Random-Forest surrogate by default (a GP without constraint support
  is available and is what Fig. 8's "Ytopt (GP)" variant uses),
* encodes all parameters numerically (permutations are treated as unordered
  category indices — no permutation structure),
* handles hidden constraints by adding infeasible points to the data set with
  a large penalty objective value,
* optimizes the acquisition over a random candidate batch (no local search),
* applies no log transformations, lengthscale priors, or noiseless-EI
  adjustments.

Known constraints are respected when *sampling candidates* (rejection /
Chain-of-Trees sampling through the shared :class:`SearchSpace`), mirroring
the manual search-space pruning the paper performs for Ytopt.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import numpy as np

from ..core.acquisition import expected_improvement
from ..core.doe import initial_design_queue
from ..core.tuner import Tuner
from ..models.gp import GaussianProcess
from ..models.random_forest import RandomForestRegressor
from ..space.parameters import PermutationParameter
from ..space.space import Configuration, SearchSpace

__all__ = ["YtoptLikeTuner"]

#: factor applied to the worst feasible value to penalize infeasible points
_PENALTY_FACTOR = 10.0


class YtoptLikeTuner(Tuner):
    """BO baseline with RF (default) or vanilla GP surrogate and penalty handling."""

    name = "Ytopt"

    def __init__(
        self,
        space: SearchSpace,
        seed: int | None = None,
        surrogate: str = "rf",
        n_initial: int | None = None,
        n_candidates: int = 256,
        rf_trees: int = 32,
    ) -> None:
        super().__init__(space, seed=seed)
        if surrogate not in ("rf", "gp"):
            raise ValueError("surrogate must be 'rf' or 'gp'")
        self.surrogate = surrogate
        self.n_initial = n_initial
        self.n_candidates = n_candidates
        self.rf_trees = rf_trees
        if surrogate == "gp":
            self.name = "Ytopt (GP)"
        # a naive model space: permutations degraded to categorical distance
        self._gp_parameters = self._naive_parameters(space)

    @staticmethod
    def _naive_parameters(space: SearchSpace):
        parameters = []
        for param in space.parameters:
            if isinstance(param, PermutationParameter):
                parameters.append(
                    PermutationParameter(param.name, param.n_elements, metric="naive")
                )
            else:
                parameters.append(param)
        return parameters

    # ------------------------------------------------------------------
    def _plan(self, budget: int) -> None:
        n_initial = self.n_initial or max(3, min(budget // 5, 12))
        self._doe_queue = initial_design_queue(self.space, n_initial, budget, self._rng)

    def _propose(self, k: int, pending_keys: set[tuple]) -> list[tuple[Configuration, str]]:
        proposals: list[tuple[Configuration, str]] = []
        while self._doe_queue and len(proposals) < k:
            proposals.append((self._doe_queue.popleft(), "initial"))
        while len(proposals) < k:
            extra = set(pending_keys)
            extra.update(self.space.freeze(c) for c, _ in proposals)
            proposals.append((self._recommend(extra), "learning"))
        return proposals

    # ------------------------------------------------------------------
    def _training_data(self) -> tuple[list[Configuration], np.ndarray]:
        """All evaluations; infeasible ones carry a large penalty value."""
        evaluations = list(self.history)
        feasible_values = [e.value for e in evaluations if e.feasible]
        if feasible_values:
            penalty = max(feasible_values) * _PENALTY_FACTOR
        else:
            penalty = 1e6
        configs = [e.configuration for e in evaluations]
        values = np.array([e.value if e.feasible else penalty for e in evaluations])
        return configs, values

    def _recommend(self, extra_exclude: set[tuple] = frozenset()) -> Configuration:
        configs, values = self._training_data()
        evaluated = {self.space.freeze(c) for c in configs} | set(extra_exclude)
        if len(configs) < 2 or len(set(values.tolist())) < 2:
            return self._random_unseen(evaluated)

        # one vectorized feasible draw; the candidate matrix doubles as the
        # surrogate's feature matrix (rows are the space's encoding)
        rows = self.space.sample_rows(self._rng, self.n_candidates)
        decode = self.space.encoder.decode
        pool: list[Configuration] = []
        pool_rows: list[np.ndarray] = []
        seen: set[tuple] = set()
        for row in rows:
            candidate = decode(row)
            key = self.space.freeze(candidate)
            if key in evaluated or key in seen:
                continue
            seen.add(key)
            pool.append(candidate)
            pool_rows.append(row)
        if not pool:
            return self._random_unseen(evaluated)

        try:
            ei = self._expected_improvement(configs, values, pool, np.asarray(pool_rows))
        except (ValueError, np.linalg.LinAlgError):
            return self._random_unseen(evaluated)
        return pool[int(np.argmax(ei))]

    def _expected_improvement(
        self,
        configs: Sequence[Mapping[str, Any]],
        values: np.ndarray,
        pool: Sequence[Mapping[str, Any]],
        pool_rows: np.ndarray,
    ) -> np.ndarray:
        best = float(np.min(values))
        if self.surrogate == "rf":
            features = self.space.encode_batch(configs)
            model = RandomForestRegressor(n_trees=self.rf_trees, rng=self._rng)
            model.fit(features, values)
            mean, variance = model.predict_with_uncertainty(pool_rows)
        else:
            model = GaussianProcess(
                self._gp_parameters,
                lengthscale_prior=None,
                log_transform_output=False,
                standardize_output=True,
                n_prior_samples=8,
                n_refined_starts=1,
                advanced_fit=True,
                rng=self._rng,
            )
            model.fit(configs, values)
            best = float(model.to_model_scale(best))
            if model.encoder.signature() == self.space.encoder.signature():
                mean, variance = model.predict_rows(pool_rows, include_noise=True)
            else:
                mean, variance = model.predict(pool, include_noise=True)
        return expected_improvement(mean, variance, best)

    def _random_unseen(self, evaluated: set[tuple]) -> Configuration:
        """First unseen configuration of one batched draw (give-up: one more)."""
        decode = self.space.encoder.decode
        for row in self.space.sample_rows(self._rng, 32):
            config = decode(row)
            if self.space.freeze(config) not in evaluated:
                return config
        return self.space.sample_one(self._rng)
