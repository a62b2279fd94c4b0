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

from dataclasses import dataclass
from typing import Any, Mapping, Sequence

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
from . import schema
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


#: a snapshotted GP hyper-parameter
_POSITIVE = schema.number(above=0)


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
        self._model_parameters = self._prepare_model_parameters(space, self.settings)
        self._feasibility = FeasibilityModel(
            space, n_trees=self.settings.feasibility_trees, rng=self._rng
        ) if self.settings.use_feasibility_model else None
        self._epsilon_schedule = FeasibilityThresholdSchedule(
            enabled=self.settings.use_feasibility_threshold
        )
        # Shared encoding layer: one distance computer (and encoder) reused
        # by every per-iteration GP instance, plus the caches _observe()
        # keeps so the learning loop never re-encodes the history (values
        # and feasibility flags are read from the history itself).
        self._model_distance = DistanceComputer(self._model_parameters)
        #: the model encodes as the space does (every variant with the
        #: transformations on), so observed rows serve both
        self._model_shares_rows = (
            self._model_distance.encoder.signature() == space.encoder.signature()
        )
        self._gp_distance_cache = IncrementalDistanceTensor(self._model_distance)
        self._space_rows: list[np.ndarray] = []
        # Surrogate refit policy ("exact" keeps the historical per-iteration
        # full refit; "fast" reuses _fast_gp across iterations with
        # incremental Cholesky extension and warm-started hyper fits).
        self._policy = SurrogatePolicy.parse(self.settings.surrogate_policy)
        self._reset_policy_state()

    # ------------------------------------------------------------------
    @staticmethod
    def _prepare_model_parameters(space: SearchSpace, settings: BacoSettings) -> list[Parameter]:
        """The space's parameters with the configured permutation metric /
        transforms.

        The *model* parameters only affect distances inside the surrogate;
        the original space is still used for sampling and constraint
        handling, so both always agree on which configurations are feasible.
        Parameters are immutable, so untouched ones are shared with the
        original space rather than deep-copied.
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
        return parameters

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

    @property
    def surrogate_policy(self) -> SurrogatePolicy:
        return self._policy

    def _make_gp(self) -> GaussianProcess:
        return GaussianProcess(
            self._model_parameters,
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
        self._space_rows.clear()
        self._reset_policy_state()

    def _plan(self, budget: int) -> None:
        doe_size = self.settings.doe_size or default_doe_size(self.space, budget)
        self._doe_queue = initial_design_queue(self.space, doe_size, budget, self._rng)

    def _observe(
        self,
        configurations: Sequence[Configuration],
        results: Sequence[ObjectiveResult],
        rows: np.ndarray,
    ) -> None:
        """Keep the encoded-row caches in step with the recorded history.

        The batch's rows join the space rows, and its feasible observations
        extend the incremental train-train distance tensor in one append, so
        the next GP fit starts from a fully built Gram input.  The GP takes
        the feasible rows as they are when the model encoder's signature
        equals the space's; only BaCO-- and the variants without
        transformations, whose model drops a log warp, encode them again.
        A restore observes the whole history at once and gets the rows and
        tensor that one call per tell built.
        """
        super()._observe(configurations, results, rows)
        self._space_rows.append(rows)
        feasible = [result.feasible for result in results]
        if not any(feasible):
            return
        if self._model_shares_rows:
            self._gp_distance_cache.append(rows[feasible])
        else:
            self._gp_distance_cache.append(self._model_distance.encoder.encode_batch(
                [c for c, ok in zip(configurations, feasible) if ok]
            ))

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
        evaluations = self.history.evaluations
        values = [e.value for e in evaluations if e.feasible]
        profiler = self.phase_profiler

        # nothing told back yet (e.g. ask(n) straight after start with n
        # beyond the DoE): skip the feasibility fit — vstack of zero rows is
        # an error — and let the too-few-values guard below go random
        if self._feasibility is not None and evaluations:
            with profiler.phase("feas_fit"):
                self._feasibility.fit_rows(
                    np.vstack(self._space_rows), [e.feasible for e in evaluations]
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

    def _state_declaration(self, budget: int) -> dict[str, Any]:
        """A ``fast`` policy's state: its own spec, counters within the
        observed feasible history, and ``null`` or finite positive
        hyper-parameters."""
        declaration = super()._state_declaration(budget)
        if self._policy.mode == "fast":
            counter = schema.integer(0, self.history.n_feasible)
            declaration["surrogate_policy"] = {
                "spec": schema.one_of(self._policy.spec()),
                "last_sweep_n": counter,
                "last_refit_n": counter,
                "hypers": schema.nullable({
                    "lengthscales": [_POSITIVE],
                    "outputscale": _POSITIVE,
                    "noise_variance": _POSITIVE,
                }),
                "chol_base_n": counter,
            }
        return declaration

    def _load_state_dict(self, state: Mapping[str, Any]) -> None:
        """Load the ``fast`` policy state that :meth:`_state_dict` wrote and
        rebuild its GP over the observed rows.

        Beyond its declaration, the state must hold one lengthscale per
        model dimension, and hyper-parameters whenever the last full
        factorization covered two or more rows; anything else would resume a
        run that silently diverges from the original.
        """
        super()._load_state_dict(state)
        if self._policy.mode == "exact":
            return
        payload = state["surrogate_policy"]
        hypers, base_n = payload["hypers"], payload["chol_base_n"]
        n_dimensions = len(self._model_parameters)
        if hypers is None:
            if base_n >= 2:
                schema.fail(
                    "tuner_state.surrogate_policy.hypers",
                    f"an object while chol_base_n is {base_n}",
                    hypers,
                )
        elif len(hypers["lengthscales"]) != n_dimensions:
            schema.fail(
                "tuner_state.surrogate_policy.hypers.lengthscales",
                f"{n_dimensions} values, one per dimension",
                hypers["lengthscales"],
            )
        else:
            hypers = {**hypers, "lengthscales": list(hypers["lengthscales"])}
        # the declared spec is this tuner's own; parsing it back keeps the
        # policy riding the snapshot
        self._policy = SurrogatePolicy.parse(payload["spec"])
        self._policy_state = {
            "last_sweep_n": payload["last_sweep_n"],
            "last_refit_n": payload["last_refit_n"],
            "hypers": hypers,
        }
        if hypers is None or base_n < 2:
            return
        # Rebuild the GP so the resumed run replays bit-exactly: the last
        # *full* factorization covered ``chol_base_n`` rows, and refactorizing
        # them with the frozen hyper-parameters reproduces that factor exactly
        # (deterministic linalg on identical inputs); the next _fit_gp
        # re-extends the rows beyond it one at a time, the same per-row
        # arithmetic the original run performed.
        gp = self._make_gp()
        gp.hyperparameters = GPHyperparameters(
            lengthscales=np.asarray(hypers["lengthscales"], dtype=float),
            outputscale=float(hypers["outputscale"]),
            noise_variance=float(hypers["noise_variance"]),
        )
        values = [e.value for e in self.history.evaluations if e.feasible]
        gp.fit_rows(
            self._gp_distance_cache.rows[:base_n],
            values[:base_n],
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
        feasible = np.asarray([e.feasible for e in self.history.evaluations])
        features = np.vstack(self._space_rows)[feasible]
        surrogate.fit(features, targets)
        epsilon = self._epsilon_schedule.sample(self._rng)
        return _RFAcquisition(
            surrogate,
            best=float(np.min(targets)),
            feasibility=self._feasibility,
            epsilon=epsilon,
        )

    def _random_fallback(self, evaluated_keys: set[tuple]) -> Configuration:
        """Random feasible configuration, avoiding re-evaluations when possible:
        the first unseen of one 64-row draw, else one give-up draw."""
        config = self.space.first_unseen(self._rng, 64, evaluated_keys)
        return config if config is not None else self.space.sample_one(self._rng)


class _RFAcquisition:
    """Feasibility-weighted EI over an RF surrogate, on encoded rows.

    The surrogate and the feasibility model were both fitted on rows of the
    tuner's space, which are the rows the local search passes in, so the
    candidate matrices flow straight through without any decode.
    """

    def __init__(self, surrogate, best, feasibility, epsilon) -> None:
        self.surrogate = surrogate
        self.best = best
        self.feasibility = feasibility
        self.epsilon = epsilon

    def evaluate_rows(self, rows: np.ndarray, encoder) -> np.ndarray:
        mean, var = self.surrogate.predict_with_uncertainty(rows)
        ei = expected_improvement(mean, var, self.best)
        if self.feasibility is not None and self.feasibility.is_trained:
            probability = self.feasibility.predict_probability_rows(rows)
            ei = np.where(probability >= self.epsilon, ei * probability, -np.inf)
        return ei
