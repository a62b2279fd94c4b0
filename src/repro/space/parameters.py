"""Parameter types for autotuning search spaces.

BaCO (Sec. 4.1) supports the full RIPOC set of parameter types plus
permutations:

* :class:`RealParameter` -- continuous parameters (e.g. a probability).
* :class:`IntegerParameter` -- integer parameters (e.g. a tile size).
* :class:`OrdinalParameter` -- discrete, ordered values (e.g. unroll factors).
* :class:`CategoricalParameter` -- discrete, unordered values (e.g. a
  parallelization scheme).
* :class:`PermutationParameter` -- orderings of ``n`` elements (e.g. loop
  reorderings).

Each parameter implements three methods:

* :meth:`Parameter.sample_batch` draws ``n`` values uniformly at random as
  one column (the samplers of :class:`~repro.space.space.SearchSpace` build
  encoded rows from these columns);
* :meth:`Parameter.contains` tests whether a value is legal;
* :meth:`Parameter.neighbours` enumerates the values one local-search move
  away (the acquisition-function local search, Sec. 3.3).

Distances between values, which feed the Gaussian-process kernel (Eq. (2)
of the paper), and the numeric encoding the models consume are computed on
encoded rows by :mod:`repro.models.distances` and
:mod:`repro.space.encoding`; a parameter only supplies its warp and, for
permutations, its metric name and :meth:`PermutationParameter.max_distance`.

Numeric parameters may carry a ``log`` transformation; the paper observes
(Sec. 4.1 and 4.2) that tile-size-like parameters behave exponentially and
that log-transforming them both densifies the search space and produces more
natural GP distances.
"""

from __future__ import annotations

import itertools
import math
from abc import ABC, abstractmethod
from typing import Any, Sequence

import numpy as np

__all__ = [
    "Parameter",
    "NumericParameter",
    "RealParameter",
    "IntegerParameter",
    "OrdinalParameter",
    "CategoricalParameter",
    "PermutationParameter",
]


def _draw_from_table(
    rng: np.random.Generator, n: int, values: Sequence[Any], dtype: type, name: str
) -> np.ndarray:
    """``n`` uniform draws from ``values``, as a column of ``dtype``."""
    if not len(values):
        raise ValueError(f"empty domain for parameter {name!r}")
    table = np.empty(len(values), dtype=dtype)
    table[:] = list(values)
    return table[rng.integers(len(table), size=n)]


class Parameter(ABC):
    """Abstract base class for all tunable parameters."""

    #: short code used in Table 3 style summaries ("R", "I", "O", "C", "P")
    type_code = "?"

    def __init__(self, name: str) -> None:
        if not name or not isinstance(name, str):
            raise ValueError("parameter name must be a non-empty string")
        self.name = name

    # -- value handling -------------------------------------------------
    @abstractmethod
    def sample_batch(self, rng: np.random.Generator, n: int) -> Any:
        """Draw ``n`` values uniformly at random as one column.

        Returns a float column for numeric types, an object column for
        categoricals, and an ``(n, n_elements)`` matrix for permutations.
        The distribution is that of ``n`` independent uniform draws; the RNG
        is consumed by one batched call, which is what makes the row
        samplers fast.
        """

    @abstractmethod
    def contains(self, value: Any) -> bool:
        """Return ``True`` if ``value`` is a legal value of this parameter."""

    @abstractmethod
    def neighbours(self, value: Any) -> list[Any]:
        """Values reachable from ``value`` by a single local-search move."""

    # -- cardinality ----------------------------------------------------
    @property
    def is_discrete(self) -> bool:
        return self.cardinality() is not None

    def cardinality(self) -> int | None:
        """Number of possible values, or ``None`` for continuous parameters."""
        return None

    def values_list(self) -> list[Any]:
        """All possible values for discrete parameters."""
        raise TypeError(f"{type(self).__name__} is not enumerable")

    # -- misc -----------------------------------------------------------
    def canonical(self, value: Any) -> Any:
        """Return the canonical representation of ``value``."""
        return value

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r})"


class NumericParameter(Parameter):
    """Shared behaviour for real / integer / ordinal parameters.

    Values are encoded (and their GP distances taken) after :meth:`_warp`,
    which is the logarithm when ``transform="log"`` (Sec. 4.1: tile sizes 2
    and 4 should be about as similar as 512 and 1024).
    """

    def __init__(self, name: str, transform: str = "linear") -> None:
        super().__init__(name)
        if transform not in ("linear", "log"):
            raise ValueError(f"unknown transform {transform!r}")
        self.transform = transform

    def _warp(self, value: float) -> float:
        if self.transform == "log":
            if value <= 0:
                raise ValueError(
                    f"log transform requires positive values, got {value} "
                    f"for parameter {self.name!r}"
                )
            return math.log(value)
        return float(value)

    def _reject_warp_ties(self, values: Sequence[float]) -> None:
        """Raise ``ValueError`` if two adjacent sorted ``values`` share a
        :meth:`_warp`: one encoded row would stand for both, and a row must
        decode to the value it was drawn as."""
        warps = [self._warp(value) for value in values]
        for low, high, low_warp, high_warp in zip(values, values[1:], warps, warps[1:]):
            if low_warp == high_warp:
                raise ValueError(
                    f"values {low!r} and {high!r} of parameter {self.name!r} "
                    f"share the encoding {low_warp!r}"
                )


class RealParameter(NumericParameter):
    """A continuous parameter on the interval ``[low, high]``."""

    type_code = "R"

    def __init__(
        self,
        name: str,
        low: float,
        high: float,
        transform: str = "linear",
        default: float | None = None,
    ) -> None:
        super().__init__(name, transform)
        if not low < high:
            raise ValueError(f"low must be < high, got [{low}, {high}]")
        if transform == "log" and low <= 0:
            raise ValueError("log-transformed real parameters require low > 0")
        self.low = float(low)
        self.high = float(high)
        self.default = float(default) if default is not None else (low + high) / 2.0

    def sample_batch(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if self.transform == "log":
            return np.exp(rng.uniform(math.log(self.low), math.log(self.high), size=n))
        return rng.uniform(self.low, self.high, size=n)

    def contains(self, value: Any) -> bool:
        try:
            v = float(value)
        except (TypeError, ValueError):
            return False
        return self.low <= v <= self.high

    def neighbours(self, value: Any) -> list[float]:
        """Local moves: +/- 5% and +/- 20% of the (possibly log) range."""
        lo, hi = self._warp(self.low), self._warp(self.high)
        v = self._warp(value)
        span = hi - lo
        out = []
        for step in (-0.2, -0.05, 0.05, 0.2):
            w = min(hi, max(lo, v + step * span))
            cand = math.exp(w) if self.transform == "log" else w
            if not math.isclose(cand, float(value)):
                out.append(float(cand))
        return out

    def cardinality(self) -> int | None:
        return None


class IntegerParameter(NumericParameter):
    """An integer parameter on the inclusive range ``[low, high]``."""

    type_code = "I"

    def __init__(
        self,
        name: str,
        low: int,
        high: int,
        transform: str = "linear",
        default: int | None = None,
    ) -> None:
        super().__init__(name, transform)
        if not int(low) <= int(high):
            raise ValueError(f"low must be <= high, got [{low}, {high}]")
        if transform == "log" and low <= 0:
            raise ValueError("log-transformed integer parameters require low > 0")
        self.low = int(low)
        self.high = int(high)
        self.default = int(default) if default is not None else self.low
        # the four values at each end hold a linear range's tightest pairs:
        # beyond 2**53 any four consecutive integers hold two that round to
        # one float
        ends = {*range(self.low, self.low + 4), *range(self.high - 3, self.high + 1)}
        self._reject_warp_ties(sorted(v for v in ends if self.low <= v <= self.high))
        if transform == "log" and self.high > self.low:
            self._reject_log_crowding()

    def _reject_log_crowding(self) -> None:
        """Raise ``ValueError`` if two of the range's logs may round to one
        float.  The gap ``log(v + 1) - log(v)`` shrinks toward the top and
        the float spacing grows, so the top gap is the tightest; libm's
        ``log`` may err by up to one ulp on each side of it, so the gap must
        exceed two ulps of ``log(high)`` for every pair to stay apart.  A
        pair at the ends can round apart while one below it ties, so the
        ends alone cannot show it."""
        gap = math.log1p(1 / (self.high - 1))
        if gap <= 2 * math.ulp(math.log(self.high)):
            raise ValueError(
                f"the logs of values {self.high - 1!r} and {self.high!r} of "
                f"parameter {self.name!r} are {gap!r} apart, within two ulps, "
                "so values of the range may share an encoding"
            )

    def sample_batch(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.integers(self.low, self.high + 1, size=n).astype(float)

    def contains(self, value: Any) -> bool:
        try:
            v = int(value)
        except (TypeError, ValueError, OverflowError):  # OverflowError: ±inf
            return False
        return v == value and self.low <= v <= self.high

    def neighbours(self, value: Any) -> list[int]:
        v = int(value)
        out = set()
        for delta in (-1, 1):
            cand = v + delta
            if self.low <= cand <= self.high:
                out.add(cand)
        # larger jumps for wide ranges so local search is not crippled
        span = self.high - self.low
        if span > 16:
            for delta in (-(span // 8), span // 8):
                cand = v + delta
                if self.low <= cand <= self.high and cand != v:
                    out.add(int(cand))
        return sorted(out)

    def cardinality(self) -> int:
        return self.high - self.low + 1

    def values_list(self) -> list[int]:
        return list(range(self.low, self.high + 1))

    def canonical(self, value: Any) -> int:
        return int(value)


class OrdinalParameter(NumericParameter):
    """A discrete parameter whose values have a natural order.

    Typical examples are power-of-two tile sizes or unroll factors.  Values
    must be numeric and are kept sorted; the distance is the (possibly log)
    difference of *values*, not of ranks.
    """

    type_code = "O"

    def __init__(
        self,
        name: str,
        values: Sequence[float],
        transform: str = "linear",
        default: float | None = None,
    ) -> None:
        super().__init__(name, transform)
        if len(values) == 0:
            raise ValueError("ordinal parameter needs at least one value")
        vals = sorted(set(float(v) if not float(v).is_integer() else int(v) for v in values))
        if transform == "log" and vals[0] <= 0:
            raise ValueError("log-transformed ordinal parameters require positive values")
        self._reject_warp_ties(vals)
        self.values = vals
        self.default = default if default is not None else vals[0]
        if self.default not in vals:
            raise ValueError(f"default {default!r} not among ordinal values")
        self._index = {v: i for i, v in enumerate(vals)}

    def sample_batch(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return _draw_from_table(rng, n, self.values, float, self.name)

    def contains(self, value: Any) -> bool:
        try:
            return self.canonical(value) in self._index
        except (TypeError, ValueError):
            return False

    def canonical(self, value: Any) -> Any:
        v = float(value)
        return int(v) if v.is_integer() else v

    def neighbours(self, value: Any) -> list[Any]:
        idx = self._index[self.canonical(value)]
        out = []
        if idx > 0:
            out.append(self.values[idx - 1])
        if idx + 1 < len(self.values):
            out.append(self.values[idx + 1])
        return out

    def cardinality(self) -> int:
        return len(self.values)

    def values_list(self) -> list[Any]:
        return list(self.values)

    def index_of(self, value: Any) -> int:
        return self._index[self.canonical(value)]


class CategoricalParameter(Parameter):
    """A discrete parameter with no inherent order.

    Its GP distance is the Hamming distance (Sec. 4.1): 0 if equal, 1
    otherwise.
    """

    type_code = "C"

    def __init__(self, name: str, values: Sequence[Any], default: Any | None = None) -> None:
        super().__init__(name)
        vals = list(dict.fromkeys(values))
        if len(vals) == 0:
            raise ValueError("categorical parameter needs at least one value")
        self.values = vals
        self.default = default if default is not None else vals[0]
        if self.default not in vals:
            raise ValueError(f"default {default!r} not among categorical values")
        self._index = {v: i for i, v in enumerate(vals)}

    def sample_batch(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return _draw_from_table(rng, n, self.values, object, self.name)

    def contains(self, value: Any) -> bool:
        try:
            return value in self._index
        except TypeError:  # unhashable, e.g. an object read from JSON
            return False

    def neighbours(self, value: Any) -> list[Any]:
        return [v for v in self.values if v != value]

    def cardinality(self) -> int:
        return len(self.values)

    def values_list(self) -> list[Any]:
        return list(self.values)

    def index_of(self, value: Any) -> int:
        return self._index[value]


#: largest distance between two permutations of ``n`` elements, per metric
#: (reached by the identity and its reversal; Fig. 3 of the paper)
_MAX_DISTANCE = {
    "spearman": lambda n: n * (n * n - 1) // 3,
    "kendall": lambda n: n * (n - 1) // 2,
    "hamming": lambda n: n - n % 2,
    "naive": lambda n: 1,
}


class PermutationParameter(Parameter):
    """A parameter whose value is a permutation of ``n`` elements.

    Values are tuples containing each integer in ``range(n)`` exactly once.
    The default semimetric is Spearman's rank correlation which the paper's
    ablation (Fig. 9) finds to perform best; Kendall, Hamming and the naive
    categorical treatment are also available.
    """

    type_code = "P"

    def __init__(
        self,
        name: str,
        n_elements: int,
        metric: str = "spearman",
        default: Sequence[int] | None = None,
    ) -> None:
        super().__init__(name)
        if n_elements < 1:
            raise ValueError("permutation needs at least one element")
        if metric not in _MAX_DISTANCE:
            raise ValueError(
                f"unknown permutation metric {metric!r}; "
                f"choose from {sorted(_MAX_DISTANCE)}"
            )
        self.n_elements = int(n_elements)
        self.metric = metric
        self.default = tuple(default) if default is not None else tuple(range(n_elements))
        if not self.contains(self.default):
            raise ValueError(f"default {default!r} is not a permutation of {n_elements} elements")

    def sample_batch(self, rng: np.random.Generator, n: int) -> np.ndarray:
        base = np.tile(np.arange(self.n_elements, dtype=float), (n, 1))
        return rng.permuted(base, axis=1)

    def contains(self, value: Any) -> bool:
        try:
            t = tuple(int(v) for v in value)
        except (TypeError, ValueError):
            return False
        return len(t) == self.n_elements and sorted(t) == list(range(self.n_elements))

    def canonical(self, value: Any) -> tuple[int, ...]:
        return tuple(int(v) for v in value)

    def max_distance(self) -> float:
        """Largest possible distance under the configured metric (the naive
        metric's is 1 even for a single element)."""
        return float(_MAX_DISTANCE[self.metric](self.n_elements))

    def neighbours(self, value: Any) -> list[tuple[int, ...]]:
        """All permutations reachable by swapping two adjacent elements."""
        perm = list(self.canonical(value))
        out = []
        for i in range(len(perm) - 1):
            nxt = perm.copy()
            nxt[i], nxt[i + 1] = nxt[i + 1], nxt[i]
            out.append(tuple(nxt))
        return out

    def cardinality(self) -> int:
        return math.factorial(self.n_elements)

    def values_list(self) -> list[tuple[int, ...]]:
        if self.n_elements > 8:
            raise TypeError(
                f"refusing to enumerate {self.n_elements}! permutations; "
                "use sampling instead"
            )
        return [tuple(p) for p in itertools.permutations(range(self.n_elements))]
