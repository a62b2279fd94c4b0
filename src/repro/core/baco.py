"""The BaCO autotuner: the paper's core contribution.

BaCO is a configuration recommendation–evaluation loop (Fig. 2):

1. **Initial phase** — a small design of experiments is sampled uniformly at
   random from the feasible region (through the Chain-of-Trees when known
   constraints are present) and evaluated.
2. **Learning phase** — each iteration
   a. fits a Gaussian process on the *feasible* observations (Matérn-5/2 over
      per-type distances, gamma lengthscale priors, log-transformed
      objective),
   b. fits a random-forest feasibility classifier on *all* observations
      (hidden constraints),
   c. samples the minimum-feasibility threshold ε_f,
   d. maximizes the feasibility-weighted noiseless EI by multi-start local
      search restricted to the feasible region,
   e. evaluates the proposed configuration through the compiler toolchain and
      appends the result to the history.

The class exposes switches for every design choice studied in the paper's
ablations (Fig. 8–10): permutation metric, log transforms, lengthscale
priors, local search, advanced GP fitting, feasibility model, feasibility
threshold, and the surrogate family (GP vs. RF).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

from ..models.distances import DistanceComputer, IncrementalDistanceTensor
from ..models.gp import GaussianProcess, GPHyperparameters
from ..models.priors import GammaPrior
from ..models.random_forest import RandomForestRegressor
from ..space.parameters import (
    IntegerParameter,
    OrdinalParameter,
    Parameter,
    PermutationParameter,
    RealParameter,
)
from ..space.space import Configuration, SearchSpace
from .acquisition import AcquisitionFunction, expected_improvement
from .doe import default_doe_size, initial_design_queue
from .feasibility import FeasibilityModel, FeasibilityThresholdSchedule
from .local_search import LocalSearchSettings, multistart_local_search_batch
from .result import ObjectiveResult
from .tuner import Tuner

__all__ = ["BacoSettings", "BacoTuner", "SurrogatePolicy"]


@dataclass(frozen=True)
class SurrogatePolicy:
    """GP surrogate refit policy.

    ``mode="exact"`` (default) reproduces the historical behavior exactly:
    every learning iteration fits a fresh GP with the full multistart MAP
    hyper-parameter sweep.  All bit-compat trajectory fixtures are recorded
    in this mode.

    ``mode="fast"`` keeps one GP across iterations and refits incrementally:

    * most iterations keep the hyper-parameters **frozen** and only extend
      the cached Cholesky factor by the new rows (O(n²) per observation);
    * every ``refit_hypers_every`` feasible observations a **warm** refit
      runs one L-BFGS-B refinement seeded from the previous optimum;
    * every ``sweep_every`` feasible observations the full multistart
      **sweep** re-runs (with the previous optimum joining the pool).

    Both modes draw a fresh random candidate batch and climb from its best
    rows on every ask; they differ only in how the GP is refitted.

    Spec strings round-trip through :meth:`parse` / :meth:`spec`:
    ``"exact"``, ``"fast"`` or ``"fast,refit_every=8,sweep_every=40"``.
    """

    mode: str = "exact"
    refit_hypers_every: int = 8
    sweep_every: int = 40

    def __post_init__(self) -> None:
        if self.mode not in ("exact", "fast"):
            raise ValueError("surrogate policy mode must be 'exact' or 'fast'")
        if self.refit_hypers_every < 1:
            raise ValueError("refit_hypers_every must be >= 1")
        if self.sweep_every < 1:
            raise ValueError("sweep_every must be >= 1")

    @classmethod
    def parse(cls, spec: "str | SurrogatePolicy | None") -> "SurrogatePolicy":
        """Parse a policy spec string (idempotent on policy instances)."""
        if spec is None:
            return cls()
        if isinstance(spec, SurrogatePolicy):
            return spec
        parts = [part.strip() for part in str(spec).split(",") if part.strip()]
        if not parts:
            raise ValueError("empty surrogate policy spec")
        mode, options = parts[0], parts[1:]
        if mode == "exact":
            if options:
                raise ValueError("'exact' takes no options")
            return cls()
        if mode != "fast":
            raise ValueError(
                f"unknown surrogate policy {mode!r}; expected 'exact' or 'fast'"
            )
        kwargs: dict[str, Any] = {}
        keys = {"refit_every": "refit_hypers_every", "sweep_every": "sweep_every"}
        for option in options:
            if "=" not in option:
                raise ValueError(f"malformed policy option {option!r} (expected key=value)")
            key, _, value = option.partition("=")
            key = key.strip()
            field = keys.get(key)
            if field is None:
                raise ValueError(
                    f"unknown policy option {key!r}; expected one of {sorted(keys)}"
                )
            if field in kwargs:
                raise ValueError(f"duplicate policy option {key!r}")
            try:
                kwargs[field] = int(value)
            except ValueError:
                raise ValueError(f"policy option {key!r} must be an integer") from None
        return cls(mode="fast", **kwargs)

    def spec(self) -> str:
        """Canonical spec string (``parse(spec())`` round-trips)."""
        if self.mode == "exact":
            return "exact"
        return f"fast,refit_every={self.refit_hypers_every},sweep_every={self.sweep_every}"

    def fit_strategy(self, n_train: int, last_sweep_n: int, last_refit_n: int) -> str:
        """The :meth:`GaussianProcess.fit_rows` strategy for the next refit."""
        if self.mode == "exact" or last_sweep_n < 2:
            return "sweep"
        if n_train - last_sweep_n >= self.sweep_every:
            return "sweep"
        if n_train - last_refit_n >= self.refit_hypers_every:
            return "warm"
        return "frozen"


#: the keys :meth:`BacoTuner._state_dict` writes for a ``fast`` policy
_POLICY_STATE_KEYS = ("spec", "last_sweep_n", "last_refit_n", "hypers", "chol_base_n")
_HYPER_KEYS = ("lengthscales", "outputscale", "noise_variance")


def _state_counter(payload: Mapping[str, Any], key: str, high: int) -> int:
    """``payload[key]`` as a JSON integer in ``[0, high]``.

    ``int()`` would read ``true`` as 1 and truncate ``8.9`` to 8, so only an
    ``int`` that is not a ``bool`` passes, as for the service's wire integers.
    """
    value = payload[key]
    if isinstance(value, bool) or not isinstance(value, int) or not 0 <= value <= high:
        raise ValueError(
            f"surrogate_policy.{key} must be an integer in [0, {high}], got {value!r}"
        )
    return value


def _positive(value: Any, field: str) -> float:
    if (
        isinstance(value, bool)
        or not isinstance(value, (int, float))
        or not math.isfinite(value)
        or value <= 0
    ):
        raise ValueError(
            f"surrogate_policy.hypers.{field} must be finite and positive, got {value!r}"
        )
    return float(value)


def _state_hypers(hypers: Any, n_dimensions: int) -> dict[str, Any] | None:
    """The snapshotted GP hyper-parameters, checked: ``None`` or one finite
    positive lengthscale per dimension plus outputscale and noise variance."""
    if hypers is None:
        return None
    if not isinstance(hypers, Mapping) or set(hypers) != set(_HYPER_KEYS):
        raise ValueError(
            f"surrogate_policy.hypers must be null or hold exactly {list(_HYPER_KEYS)}"
        )
    lengthscales = hypers["lengthscales"]
    if not isinstance(lengthscales, list) or len(lengthscales) != n_dimensions:
        raise ValueError(
            f"surrogate_policy.hypers.lengthscales must list {n_dimensions} values"
        )
    return {
        "lengthscales": [_positive(x, "lengthscales") for x in lengthscales],
        "outputscale": _positive(hypers["outputscale"], "outputscale"),
        "noise_variance": _positive(hypers["noise_variance"], "noise_variance"),
    }


def _without_log_transform(param: Parameter) -> Parameter:
    """A linear-transform clone of a numeric parameter (BaCO-- ablation)."""
    if isinstance(param, RealParameter):
        return RealParameter(param.name, param.low, param.high, default=param.default)
    if isinstance(param, IntegerParameter):
        return IntegerParameter(param.name, param.low, param.high, default=param.default)
    if isinstance(param, OrdinalParameter):
        return OrdinalParameter(param.name, param.values, default=param.default)
    raise TypeError(
        f"cannot strip the log transform from {type(param).__name__}"
    )


@dataclass
class BacoSettings:
    """All tunable design choices of BaCO (defaults match the paper)."""

    #: number of initial random configurations; None = rule-of-thumb from the budget
    doe_size: int | None = None
    #: surrogate model family: "gp" (default) or "rf" (Fig. 8 comparison)
    surrogate: str = "gp"
    #: semimetric for permutation parameters ("spearman" default, Fig. 9 ablation)
    permutation_metric: str = "spearman"
    #: log-transform exponential parameters and the objective (Sec. 4.1 / 4.2)
    use_transformations: bool = True
    #: gamma priors on the GP lengthscales (Sec. 3.2)
    use_lengthscale_priors: bool = True
    #: multistart L-BFGS hyper-parameter fitting (vs. best-of-prior-samples)
    advanced_gp_fitting: bool = True
    #: use the noise-free EI variant (Sec. 3.3)
    noiseless_ei: bool = True
    #: optimize the acquisition with local search (vs. best-of-random-batch)
    use_local_search: bool = True
    #: model hidden constraints with the RF feasibility classifier (Sec. 4.2)
    use_feasibility_model: bool = True
    #: apply the random minimum-feasibility threshold ε_f (Sec. 4.2: 0 with
    #: probability 0.3, else uniform on (0, 0.8])
    use_feasibility_threshold: bool = True
    #: local-search settings
    n_random_samples: int = 256
    n_local_search_starts: int = 5
    max_local_search_steps: int = 32
    #: feasibility model settings
    feasibility_trees: int = 24
    #: GP fitting effort
    gp_prior_samples: int = 16
    gp_refined_starts: int = 2
    gp_max_iterations: int = 25
    #: RF surrogate settings (when surrogate == "rf")
    rf_trees: int = 32
    #: surrogate refit policy spec ("exact" default; see :class:`SurrogatePolicy`)
    surrogate_policy: str = "exact"

    def __post_init__(self) -> None:
        if self.surrogate not in ("gp", "rf"):
            raise ValueError("surrogate must be 'gp' or 'rf'")
        SurrogatePolicy.parse(self.surrogate_policy)  # validate the spec

    @classmethod
    def baco_minus_minus(cls) -> "BacoSettings":
        """The restricted BaCO-- variant used in Fig. 8."""
        return cls(
            use_transformations=False,
            use_lengthscale_priors=False,
            use_local_search=False,
            permutation_metric="naive",
            advanced_gp_fitting=False,
        )


class BacoTuner(Tuner):
    """Bayesian Compiler Optimization autotuner."""

    name = "BaCO"

    def __init__(
        self,
        space: SearchSpace,
        settings: BacoSettings | None = None,
        seed: int | None = None,
    ) -> None:
        super().__init__(space, seed=seed)
        self.settings = settings or BacoSettings()
        self._model_space = self._prepare_model_space(space, self.settings)
        self._feasibility = FeasibilityModel(
            space, n_trees=self.settings.feasibility_trees, rng=self._rng
        ) if self.settings.use_feasibility_model else None
        self._epsilon_schedule = FeasibilityThresholdSchedule(
            enabled=self.settings.use_feasibility_threshold
        )
        # Shared encoding layer: one distance computer (and encoder) reused
        # by every per-iteration GP instance, plus per-observation caches
        # maintained by _observe() so the learning loop never re-encodes or
        # re-copies the history.
        self._model_distance = DistanceComputer(self._model_space.parameters)
        self._gp_distance_cache = IncrementalDistanceTensor(self._model_distance)
        self._space_encoder = space.encoder
        self._space_rows_all: list[np.ndarray] = []
        self._space_rows_feasible: list[np.ndarray] = []
        self._feasible_values: list[float] = []
        self._feasible_flags: list[bool] = []
        # Surrogate refit policy ("exact" keeps the historical per-iteration
        # full refit; "fast" reuses _fast_gp across iterations with
        # incremental Cholesky extension and warm-started hyper fits).
        self._policy = SurrogatePolicy.parse(self.settings.surrogate_policy)
        self._reset_policy_state()

    # ------------------------------------------------------------------
    @staticmethod
    def _prepare_model_space(space: SearchSpace, settings: BacoSettings) -> SearchSpace:
        """Clone the space with the configured permutation metric / transforms.

        The *model* space only affects distances inside the surrogate; the
        original space is still used for sampling and constraint handling, so
        both always agree on which configurations are feasible.  Parameters
        are immutable, so untouched ones are shared with the original space
        rather than deep-copied.
        """
        parameters: list[Parameter] = []
        for param in space.parameters:
            if isinstance(param, PermutationParameter):
                parameters.append(
                    PermutationParameter(
                        param.name,
                        param.n_elements,
                        metric=settings.permutation_metric,
                        default=param.default,
                    )
                )
            elif (
                not settings.use_transformations
                and getattr(param, "transform", "linear") == "log"
            ):
                parameters.append(_without_log_transform(param))
            else:
                parameters.append(param)
        # constraints are irrelevant for distance computations
        return SearchSpace(parameters, constraints=[], build_chain_of_trees=False)

    def set_surrogate_policy(self, policy: "str | SurrogatePolicy") -> None:
        """Install a surrogate refit policy (spec string or instance).

        Resets the fast-path state; call before :meth:`start` / ``tune`` (the
        policy is part of the tuner configuration, not per-run state).
        """
        self._policy = SurrogatePolicy.parse(policy)
        self._reset_policy_state()

    def _reset_policy_state(self) -> None:
        """Drop the persistent ``fast`` GP and its refit cadence counters."""
        self._fast_gp: GaussianProcess | None = None
        self._policy_state: dict[str, Any] = {
            "last_sweep_n": 0,
            "last_refit_n": 0,
            "hypers": None,
        }
        self._restored_chol_base_n = 0

    @property
    def surrogate_policy(self) -> SurrogatePolicy:
        return self._policy

    def _make_gp(self) -> GaussianProcess:
        return GaussianProcess(
            self._model_space.parameters,
            lengthscale_prior=GammaPrior(2.0, 2.0) if self.settings.use_lengthscale_priors else None,
            log_transform_output=self.settings.use_transformations,
            n_prior_samples=self.settings.gp_prior_samples,
            n_refined_starts=self.settings.gp_refined_starts,
            max_optimizer_iterations=self.settings.gp_max_iterations,
            advanced_fit=self.settings.advanced_gp_fitting,
            rng=self._rng,
            distance_computer=self._model_distance,
        )

    # ------------------------------------------------------------------
    def _reset_state(self, budget: int) -> None:
        super()._reset_state(budget)
        self._gp_distance_cache.reset()
        self._space_rows_all.clear()
        self._space_rows_feasible.clear()
        self._feasible_values.clear()
        self._feasible_flags.clear()
        self._reset_policy_state()

    def _plan(self, budget: int) -> None:
        doe_size = self.settings.doe_size or default_doe_size(self.space, budget)
        self._doe_queue = initial_design_queue(self.space, doe_size, budget, self._rng)

    def _observe(self, configuration: Mapping[str, Any], result: ObjectiveResult) -> None:
        """Keep the encoded-row caches in step with the recorded history.

        Each evaluated configuration is encoded exactly once per encoder;
        feasible observations additionally extend the incremental train-train
        distance tensor by a single cross block, so the next GP fit starts
        from a fully built Gram input.
        """
        row = self._space_encoder.encode(configuration)
        self._space_rows_all.append(row)
        self._feasible_flags.append(result.feasible)
        if result.feasible:
            self._space_rows_feasible.append(row)
            self._feasible_values.append(result.value)
            self._gp_distance_cache.append(
                self._model_distance.encoder.encode(configuration)[None, :]
            )

    # ------------------------------------------------------------------
    def _propose(self, k: int, pending_keys: set[tuple]) -> list[tuple[Configuration, str]]:
        proposals: list[tuple[Configuration, str]] = []
        while self._doe_queue and len(proposals) < k:
            proposals.append((self._doe_queue.popleft(), "initial"))
        need = k - len(proposals)
        if need > 0:
            extra_exclude = set(pending_keys)
            extra_exclude.update(self.space.freeze(c) for c, _ in proposals)
            for config in self._recommend_batch(need, extra_exclude):
                proposals.append((config, "learning"))
        return proposals

    # ------------------------------------------------------------------
    def _recommend_batch(self, k: int, extra_exclude: set[tuple]) -> list[Configuration]:
        """``k`` learning-phase recommendations from one surrogate fit.

        The surrogate is fitted once and the batched acquisition maximizer
        returns the top-``k`` distinct configurations; ``extra_exclude``
        (in-flight suggestions) is honoured alongside the evaluated set.
        With ``k == 1`` and no in-flight work this is exactly the historical
        per-iteration recommendation, RNG draw for RNG draw.
        """
        exclude = self._evaluated_keys | extra_exclude
        values = self._feasible_values
        profiler = self.phase_profiler

        # nothing told back yet (e.g. ask(n) straight after start with n
        # beyond the DoE): skip the feasibility fit — vstack of zero rows is
        # an error — and let the too-few-values guard below go random
        if self._feasibility is not None and self._space_rows_all:
            with profiler.phase("feas_fit"):
                self._feasibility.fit_rows(
                    np.vstack(self._space_rows_all), self._feasible_flags
                )

        # Not enough feasible data to fit the surrogate: keep exploring randomly.
        if len(values) < 2 or len(set(values)) < 2:
            return self._random_fallback_batch(k, exclude)

        if self.settings.surrogate != "gp":
            with profiler.phase("fit"):
                acquisition = self._fit_rf_acquisition(values)
        else:
            if len(self._gp_distance_cache) != len(values):
                # programming error (e.g. an _observe override skipping
                # super()), not a numerical failure: crash rather than let
                # the fit failure path silently degrade BaCO to random search
                raise RuntimeError(
                    f"incremental distance cache holds {len(self._gp_distance_cache)} "
                    f"rows but there are {len(values)} feasible observations"
                )
            with profiler.phase("fit"):
                surrogate = self._fit_gp(values)
            if surrogate is None:
                return self._random_fallback_batch(k, exclude)
            epsilon = self._epsilon_schedule.sample(self._rng)
            acquisition = AcquisitionFunction(
                surrogate,
                best_value=min(values),
                feasibility_model=self._feasibility,
                feasibility_threshold=epsilon,
                noiseless=self.settings.noiseless_ei,
                profiler=profiler,
            )

        settings = LocalSearchSettings(
            n_random_samples=self.settings.n_random_samples,
            n_starts=self.settings.n_local_search_starts,
            max_steps=self.settings.max_local_search_steps if self.settings.use_local_search else 0,
        )
        ranked = multistart_local_search_batch(
            self.space,
            acquisition,
            self._rng,
            settings=settings,
            exclude=exclude,
            k=k,
            profiler=profiler,
        )
        chosen = [config for config, value in ranked if np.isfinite(value)]
        return self._random_fallback_batch(k, exclude, chosen)

    def _fit_gp(self, values: list[float]) -> GaussianProcess | None:
        """Fit the GP surrogate on the feasible observations.

        ``exact`` fits a fresh GP with a full hyper-parameter sweep every
        call.  ``fast`` keeps its GP across calls so the cached Cholesky
        factor can be extended row by row, with the strategy per
        :meth:`SurrogatePolicy.fit_strategy`.  Any numerical failure drops
        the cached GP and reports ``None`` (random-fallback iteration — the
        next call rebuilds from a full sweep).
        """
        n = len(values)
        rows = self._gp_distance_cache.rows
        tensor = self._gp_distance_cache.tensor
        gp = self._fast_gp
        if gp is None:
            gp = self._make_gp()
        st = self._policy_state
        if gp.hyperparameters is None:
            strategy = "sweep"
        else:
            strategy = self._policy.fit_strategy(n, st["last_sweep_n"], st["last_refit_n"])
        try:
            if strategy == "frozen":
                if gp._chol_n < n:
                    gp.extend_cholesky(rows, tensor)
                gp.refit_targets(values)
            else:
                warm = None
                if gp.hyperparameters is not None:
                    warm = gp.hyperparameters.to_vector()
                gp.fit_rows(
                    rows, values, distance_tensor=tensor,
                    hyper_strategy=strategy, warm_start=warm,
                )
                st["last_refit_n"] = n
                if strategy == "sweep":
                    st["last_sweep_n"] = n
                hp = gp.hyperparameters
                # raw values, not the log-vector: exp(log(x)) is not
                # bit-exact, and restore must rebuild the identical factor
                st["hypers"] = {
                    "lengthscales": [float(x) for x in hp.lengthscales],
                    "outputscale": float(hp.outputscale),
                    "noise_variance": float(hp.noise_variance),
                }
        except (ValueError, np.linalg.LinAlgError):
            self._fast_gp = None
            return None
        if self._policy.mode == "fast":
            self._fast_gp = gp
        return gp

    # ------------------------------------------------------------------
    # snapshot / restore of the fast-policy state
    # ------------------------------------------------------------------
    def _state_dict(self) -> dict:
        state = super()._state_dict()
        if self._policy.mode != "exact":
            gp = self._fast_gp
            payload = dict(self._policy_state)
            payload["spec"] = self._policy.spec()
            payload["chol_base_n"] = (
                gp._chol_base_n if gp is not None and gp.hyperparameters is not None else 0
            )
            state["surrogate_policy"] = payload
        return state

    def _load_state_dict(self, state: Mapping[str, Any]) -> None:
        """Load the ``fast`` policy state that :meth:`_state_dict` wrote.

        The payload may come from a client (the service's ``restore`` op), so
        it is checked before anything is installed: exactly the five keys
        :meth:`_state_dict` writes, counters that are JSON integers within
        the replayed feasible history, and finite positive hyper-parameters.
        Anything else raises ``ValueError`` naming the field, rather than
        resuming a run that silently diverges from the original.
        """
        super()._load_state_dict(state)
        payload = state.get("surrogate_policy")
        if payload is None:
            if self._policy.mode == "fast":
                raise ValueError(
                    "snapshot of a 'fast' surrogate policy session has no "
                    "surrogate_policy state"
                )
            return
        if not isinstance(payload, Mapping):
            raise ValueError("surrogate_policy state must be an object")
        for key in payload:
            if key not in _POLICY_STATE_KEYS:
                raise ValueError(f"unknown surrogate_policy state key {key!r}")
        for key in _POLICY_STATE_KEYS:
            if key not in payload:
                raise ValueError(f"surrogate_policy state lacks {key!r}")
        spec = payload["spec"]
        if not isinstance(spec, str):
            raise ValueError(f"surrogate_policy.spec must be a string, got {spec!r}")
        policy = SurrogatePolicy.parse(spec)
        if policy.mode != "fast":
            raise ValueError(f"surrogate_policy.spec must be a 'fast' policy, got {spec!r}")
        n_feasible = len(self._feasible_values)
        counters = {
            key: _state_counter(payload, key, n_feasible)
            for key in ("last_sweep_n", "last_refit_n", "chol_base_n")
        }
        hypers = _state_hypers(payload["hypers"], len(self._model_space.parameters))
        if hypers is None and counters["chol_base_n"] >= 2:
            raise ValueError(
                f"surrogate_policy.chol_base_n is {counters['chol_base_n']} "
                "but surrogate_policy.hypers is null"
            )
        self._policy = policy
        self._policy_state = {
            "last_sweep_n": counters["last_sweep_n"],
            "last_refit_n": counters["last_refit_n"],
            "hypers": hypers,
        }
        self._restored_chol_base_n = counters["chol_base_n"]

    def _post_restore(self) -> None:
        """Rebuild the fast-policy GP so a resumed run replays bit-exactly.

        The snapshot records the hyper-parameters and how many rows the last
        *full* factorization covered (``chol_base_n``).  Refactorizing those
        rows with frozen hyper-parameters reproduces the original factor
        exactly (deterministic linalg on identical inputs); the rows beyond
        it are re-extended one at a time by the next :meth:`_fit_gp`, the
        same per-row arithmetic the original run performed.
        """
        if self._policy.mode == "exact":
            return
        hypers = self._policy_state["hypers"]
        base_n = self._restored_chol_base_n
        if hypers is None or base_n < 2:
            self._fast_gp = None
            return
        gp = self._make_gp()
        gp.hyperparameters = GPHyperparameters(
            lengthscales=np.asarray(hypers["lengthscales"], dtype=float),
            outputscale=float(hypers["outputscale"]),
            noise_variance=float(hypers["noise_variance"]),
        )
        gp.fit_rows(
            self._gp_distance_cache.rows[:base_n],
            self._feasible_values[:base_n],
            distance_tensor=self._gp_distance_cache.tensor[:, :base_n, :base_n],
            hyper_strategy="frozen",
        )
        self._fast_gp = gp

    def _random_fallback_batch(
        self, k: int, exclude: set[tuple], chosen: list[Configuration] | None = None
    ) -> list[Configuration]:
        """``chosen`` topped up to ``k`` with random configurations outside ``exclude``."""
        chosen = list(chosen or [])
        while len(chosen) < k:
            taken = exclude | {self.space.freeze(c) for c in chosen}
            chosen.append(self._random_fallback(taken))
        return chosen

    # ------------------------------------------------------------------
    def _fit_rf_acquisition(self, values):
        """EI over an RF surrogate (used for the Fig. 8 GP-vs-RF comparison)."""
        surrogate = RandomForestRegressor(n_trees=self.settings.rf_trees, rng=self._rng)
        targets = np.log(values) if self.settings.use_transformations else np.asarray(values, dtype=float)
        features = np.vstack(self._space_rows_feasible)
        surrogate.fit(features, targets)
        epsilon = self._epsilon_schedule.sample(self._rng)
        return _RFAcquisition(
            surrogate,
            best=float(np.min(targets)),
            feasibility=self._feasibility,
            epsilon=epsilon,
            space=self.space,
        )

    def _random_fallback(self, evaluated_keys: set[tuple]) -> Configuration:
        """Random feasible configuration, avoiding re-evaluations when possible.

        One row batch replaces the historical loop of up to 64 scalar draws;
        the final give-up draw (everything already evaluated) stays a single
        extra sample, as before.
        """
        rows = self.space.sample_rows(self._rng, 64)
        decode = self.space.encoder.decode
        for row in rows:
            config = decode(row)
            if self.space.freeze(config) not in evaluated_keys:
                return config
        return self.space.sample_one(self._rng)


class _RFAcquisition:
    """Feasibility-weighted EI over an RF surrogate, batch- and row-capable.

    Both the surrogate and the feasibility model consume the original space's
    encoding, so the row-space acquisition optimizer feeds its candidate
    matrices straight through without any decode.
    """

    def __init__(self, surrogate, best, feasibility, epsilon, space) -> None:
        self.surrogate = surrogate
        self.best = best
        self.feasibility = feasibility
        self.epsilon = epsilon
        self.space = space

    def _from_rows(self, rows: np.ndarray) -> np.ndarray:
        mean, var = self.surrogate.predict_with_uncertainty(rows)
        ei = expected_improvement(mean, var, self.best)
        if self.feasibility is not None and self.feasibility.is_trained:
            probability = self.feasibility.predict_probability_rows(rows)
            ei = np.where(probability >= self.epsilon, ei * probability, -np.inf)
        return ei

    def __call__(self, candidates) -> np.ndarray:
        return self._from_rows(self.space.encode_batch(candidates))

    def evaluate_rows(self, rows: np.ndarray, encoder) -> np.ndarray:
        if encoder.signature() == self.space.encoder.signature():
            return self._from_rows(rows)
        return self._from_rows(
            self.space.encode_batch(encoder.decode_batch(rows))
        )
