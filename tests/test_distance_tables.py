"""Value tables of the GP's cross distances against the direct computation.

``GaussianProcess.predict_rows`` gathers each discrete block's squared
scaled distances to the training rows from a :class:`DistanceTable` built
once per fit, by the value code ``ConfigEncoder.value_codes`` looks up, and
solves against its factor with LAPACK's ``trtrs`` directly.  Every trace of
the tuner depends on those predictions, so they must have the bytes of the
direct path:

* ``DistanceTable.distance`` against ``scaled_distance(pairwise_rows(...))``
  on all 31 registry spaces, for legal rows, rows with one block moved off
  its values, rows holding NaN, and zero rows: the same bytes, or the same
  ``ValueError`` for a NaN in a block that only compares values;
* ``predict_rows`` against ``predict_rows_reference`` (the per-call
  ``pairwise_rows`` and ``scipy.linalg.solve_triangular`` body) after
  ``fit_rows``, whose factor is F-ordered, and after ``extend_cholesky``,
  whose grown factor is C-ordered;
* the code lookup itself: legal rows find their catalogue entry, anything
  else finds none.
"""

from __future__ import annotations

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.models.distances import DistanceComputer, DistanceTable
from repro.models.gp import GaussianProcess, GPHyperparameters
from repro.models.kernels import scaled_distance
from repro.space import (
    CategoricalParameter,
    ConfigEncoder,
    IntegerParameter,
    OrdinalParameter,
    PermutationParameter,
    RealParameter,
    SearchSpace,
)
from repro.workloads.registry import get_benchmark

from oracles import predict_rows_reference
from test_neighbour_tables import REGISTRY


@functools.lru_cache(maxsize=None)
def _computer(name: str) -> DistanceComputer:
    return DistanceComputer(get_benchmark(name).space.parameters)


def _lengthscales(computer: DistanceComputer, data: np.random.Generator) -> np.ndarray:
    """Log-uniform within the GP's lengthscale bounds."""
    d = computer.n_dimensions
    low, high = np.array(GaussianProcess(computer.parameters)._hyper_bounds()[:d]).T
    return np.exp(data.uniform(low, high))


def _queries(name: str, data: np.random.Generator, n: int) -> np.ndarray:
    """``n`` sampled rows; some with one block moved off its values, some
    holding a NaN."""
    space = get_benchmark(name).space
    encoder = _computer(name).encoder
    rows = space.sample_rows(data, n) if n else np.empty((0, encoder.width))
    kinds = data.integers(0, 3, size=n)  # 0 legal, 1 moved, 2 NaN
    for i in np.flatnonzero(kinds == 1):
        block = encoder.blocks[data.integers(len(encoder.blocks))]
        rows[i, block.columns] += data.choice([0.5, -0.25, 7.0, 1e-9])
    for i in np.flatnonzero(kinds == 2):
        rows[i, data.integers(encoder.width)] = np.nan
    return rows


def _same_bytes(got: np.ndarray, want: np.ndarray) -> bool:
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _outcome(compute, *args) -> np.ndarray | tuple[np.ndarray, ...] | str:
    """What ``compute`` returns, or the message of its ``ValueError`` (a
    NaN that reaches the cross kernel, or one in a categorical block or a
    Kendall, Hamming or naive permutation block, which raise it
    themselves)."""
    try:
        return compute(*args)
    except ValueError as error:
        return str(error)


# ---------------------------------------------------------------------------
# the table against the direct distance
# ---------------------------------------------------------------------------


@given(
    name=st.sampled_from(REGISTRY),
    seed=st.integers(0, 2**32 - 1),
    n_train=st.integers(1, 40),
    n_query=st.integers(0, 300),
)
@settings(deadline=None)
def test_table_distance_has_the_direct_bytes(name, seed, n_train, n_query):
    computer = _computer(name)
    data = np.random.default_rng(seed)
    train = get_benchmark(name).space.sample_rows(data, n_train)
    lengthscales = _lengthscales(computer, data)
    rows = _queries(name, data, n_query)
    table = DistanceTable(computer, train, lengthscales)
    want = _outcome(lambda: scaled_distance(computer.pairwise_rows(rows, train), lengthscales))
    got = _outcome(table.distance, rows)
    if isinstance(want, str):
        assert got == want == "array must not contain infs or NaNs"
    else:
        assert _same_bytes(got, want)


@pytest.mark.parametrize("name", REGISTRY)
def test_registry_rows_gather_every_catalogued_block(name, monkeypatch):
    """Sampled rows compute directly only the blocks without a catalogue
    (the hard-constraint spaces' real ``eps``)."""
    computer = _computer(name)
    data = np.random.default_rng(5)
    space = get_benchmark(name).space
    train = space.sample_rows(data, 20)
    lengthscales = _lengthscales(computer, data)
    table = DistanceTable(computer, train, lengthscales)
    direct: list[int] = []
    compute = DistanceTable._direct
    monkeypatch.setattr(
        DistanceTable, "_direct", lambda self, k, *rest: (direct.append(int(k)), compute(self, k, *rest))
    )
    rows = space.sample_rows(data, 64)
    want = scaled_distance(computer.pairwise_rows(rows, train), lengthscales)
    assert _same_bytes(table.distance(rows), want)
    uncatalogued = [k for k in range(len(computer.encoder.blocks)) if computer.encoder.catalogue(k) is None]
    assert direct == uncatalogued


# ---------------------------------------------------------------------------
# predict_rows against the reference body
# ---------------------------------------------------------------------------


def _assert_predicts_match(gp: GaussianProcess, rows: np.ndarray) -> None:
    for include_noise in (False, True):
        want = _outcome(predict_rows_reference, gp, rows, include_noise)
        got = _outcome(gp.predict_rows, rows, include_noise)
        if isinstance(want, str):
            assert got == want == "array must not contain infs or NaNs"
        else:
            assert _same_bytes(got[0], want[0]) and _same_bytes(got[1], want[1])


@given(
    name=st.sampled_from(REGISTRY),
    seed=st.integers(0, 2**32 - 1),
    n_fit=st.integers(2, 20),
    n_more=st.integers(1, 10),
    n_query=st.integers(0, 200),
)
@settings(deadline=None)
def test_predict_has_the_reference_bytes_after_fit_and_extension(
    name, seed, n_fit, n_more, n_query
):
    computer = _computer(name)
    data = np.random.default_rng(seed)
    space = get_benchmark(name).space
    rows = space.sample_rows(data, n_fit + n_more)
    targets = data.lognormal(size=len(rows))
    gp = GaussianProcess(space.parameters, distance_computer=computer)
    gp.hyperparameters = GPHyperparameters(
        _lengthscales(computer, data),
        float(np.exp(data.uniform(np.log(0.1), np.log(10.0)))),
        float(np.exp(data.uniform(np.log(1e-3), np.log(1e-1)))),
    )
    gp.fit_rows(rows[:n_fit], targets[:n_fit], hyper_strategy="frozen")
    assert gp._cholesky.flags.f_contiguous and not gp._cholesky.flags.c_contiguous
    legal = space.sample_rows(data, n_query)
    _assert_predicts_match(gp, legal)
    _assert_predicts_match(gp, _queries(name, data, n_query))

    assert gp.extend_cholesky(rows, computer.pairwise_rows(rows))
    gp.refit_targets(targets)
    assert gp._cholesky.flags.c_contiguous and not gp._cholesky.flags.f_contiguous
    _assert_predicts_match(gp, legal)
    _assert_predicts_match(gp, _queries(name, data, n_query))


def _fitted_gp(name: str = "taco_spmm_scircuit", n: int = 12) -> tuple[GaussianProcess, np.ndarray]:
    space = get_benchmark(name).space
    data = np.random.default_rng(2)
    rows = space.sample_rows(data, n)
    gp = GaussianProcess(space.parameters, rng=np.random.default_rng(3))
    gp.fit_rows(rows[: n - 2], data.lognormal(size=n - 2))
    return gp, rows


def test_zero_rows_and_nan_rows():
    gp, rows = _fitted_gp()
    mean, var = gp.predict_rows(rows[:0])
    assert mean.shape == (0,) and var.shape == (0,)
    bad = rows.copy()
    bad[3, 0] = np.nan
    with pytest.raises(ValueError, match="must not contain infs or NaNs"):
        gp.predict_rows(bad)
    with pytest.raises(ValueError, match=r"expected rows of width 10, got shape \(4, 9\)"):
        gp.predict_rows(rows[:4, :9])


def _comparing_space(kind: str) -> list:
    """A categorical, or a permutation under a metric that only compares
    values, next to an ordinal."""
    if kind == "categorical":
        block = CategoricalParameter("b", ["u", "v", "w"])
    else:
        block = PermutationParameter("b", 4, metric=kind)
    return [OrdinalParameter("o", [1, 2, 4, 8, 16], transform="log"), block]


@pytest.mark.parametrize("kind", ["categorical", "kendall", "hamming", "naive"])
def test_a_non_finite_value_in_a_comparing_block_does_not_predict(kind):
    """NaN is unequal to every value and orders below none, so these blocks
    would give it a finite distance; the block raises the kernel's error
    instead, in the direct distance, the table's fallback and the predict."""
    space = SearchSpace(_comparing_space(kind))
    data = np.random.default_rng(4)
    rows = space.sample_rows(data, 12)
    gp = GaussianProcess(space.parameters, rng=np.random.default_rng(3))
    gp.fit_rows(rows[:10], data.lognormal(size=10))
    for value in (np.nan, np.inf, -np.inf):
        bad = rows.copy()
        bad[11, 1 + data.integers(space.encoder.width - 1)] = value
        with pytest.raises(ValueError, match="must not contain infs or NaNs"):
            gp._distance.pairwise_rows(bad, rows)
        with pytest.raises(ValueError, match="must not contain infs or NaNs"):
            gp.predict_rows(bad)
    gp.predict_rows(rows)  # legal rows still predict


def test_the_table_is_built_by_predict_and_dropped_by_fit_and_extension():
    gp, rows = _fitted_gp()
    assert gp._table is None  # a fit builds none
    gp.predict_rows(rows)
    table = gp._table
    assert table is not None
    gp.predict_rows(rows[:3])
    assert gp._table is table
    values = gp.from_model_scale(gp._train_y)
    gp.refit_targets(values)
    assert gp._table is table  # same rows and hyper-parameters
    gp.extend_cholesky(rows, gp._distance.pairwise_rows(rows))
    assert gp._table is None
    gp.refit_targets(np.concatenate([values, [1.0, 2.0]]))
    mean, var = gp.predict_rows(rows)
    want = predict_rows_reference(gp, rows)
    assert _same_bytes(mean, want[0]) and _same_bytes(var, want[1])
    gp.fit_rows(rows, np.concatenate([values, [1.0, 2.0]]), hyper_strategy="frozen")
    assert gp._table is None


# ---------------------------------------------------------------------------
# catalogues and codes
# ---------------------------------------------------------------------------


def _mixed_encoder() -> ConfigEncoder:
    return ConfigEncoder(
        [
            OrdinalParameter("tile", [2, 4, 8, 16], transform="log"),
            IntegerParameter("threads", 1, 8),
            CategoricalParameter("sched", ["static", "dynamic", "guided"]),
            PermutationParameter("order", 3),
            RealParameter("alpha", 0.1, 10.0, transform="log"),
            PermutationParameter("long", 6),
        ]
    )


def test_catalogues_hold_every_legal_value():
    encoder = _mixed_encoder()
    assert encoder.catalogue(0).tolist() == [[np.log(v)] for v in (2, 4, 8, 16)]
    assert encoder.catalogue(1) is None
    assert encoder.catalogue(2).tolist() == [[0.0], [1.0], [2.0]]
    assert sorted(map(tuple, encoder.catalogue(3).tolist())) == sorted(
        PermutationParameter("p", 3).values_list()
    )
    assert encoder.catalogue(4) is None
    assert encoder.catalogue(5) is None  # 720 values: computed directly


def test_codes_find_legal_values_and_nothing_else():
    encoder = _mixed_encoder()
    configs = [
        {"tile": 8, "threads": 3, "sched": "guided", "order": (2, 0, 1), "alpha": 1.5,
         "long": (5, 4, 3, 2, 1, 0)},
        {"tile": 2, "threads": 1, "sched": "static", "order": (0, 1, 2), "alpha": 0.1,
         "long": (0, 1, 2, 3, 4, 5)},
    ]
    rows = encoder.encode_batch(configs)
    codes = encoder.value_codes(rows)
    assert codes.shape == (6, 2)
    flat = [encoder.catalogue(k) for k in range(6)]
    offsets = np.cumsum([0] + [len(c) for c in flat if c is not None])
    start = dict(zip([k for k in range(6) if flat[k] is not None], offsets))
    for k, block in enumerate(encoder.blocks):
        if flat[k] is None:
            assert (codes[k] == -1).all()
            continue
        local = codes[k] - start[k]
        assert ((local >= 0) & (local < len(flat[k]))).all()
        assert np.array_equal(flat[k][local], rows[:, block.columns])
    moved = rows.copy()
    moved[0, 0] += 1e-12  # between two warped tiles
    moved[1, 2] = 3.0  # no such category
    moved[0, 3:6] = [0.0, 3.0, 2.0]  # not a permutation; the key of (1, 0, 2)
    moved[1, 3:6] = [0.0, 1.0, np.nan]
    codes = encoder.value_codes(moved)
    # codes[block, row]
    assert codes[0, 0] == -1 and codes[0, 1] >= 0
    assert codes[2, 1] == -1 and codes[2, 0] >= 0
    assert (codes[3] == -1).all()
    assert encoder.value_codes(rows[:0]).shape == (6, 0)
