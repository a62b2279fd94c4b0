"""``SearchSpace.neighbour_rows_batch`` against its per-row oracle, byte for byte.

The neighbourhoods come from per-space lookup tables
(``repro.space.neighbourhood.NeighbourTables``); ``oracles.neighbour_rows_reference``
is the per-row body with one dict per row they replaced.  Every trace of the
tuner depends on the neighbours and their order, so the two must agree in
shape, dtype and bytes, rows and owners alike:

* a hypothesis property over random R/I/O/C/P spaces, with and without a
  Chain-of-Trees, with unary and multi-variable residual constraints (also
  on a real and on a permutation), on sampled rows, the neighbours of their
  neighbours, legal rows off the trees' leaves, and zero rows;
* every space the registry resolves, in chunks of 1, 3 and 64 rows;
* threads sharing a fresh space, each building or reading its tables;
* the legal-row contract: a discrete or permutation block that encodes no
  value of its parameter raises ``ValueError`` naming the parameter.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.space import (
    CategoricalParameter,
    Constraint,
    IntegerParameter,
    OrdinalParameter,
    PermutationParameter,
    RealParameter,
    SearchSpace,
)
from repro.workloads.registry import (
    benchmark_names,
    get_benchmark,
    hard_constraint_benchmark_names,
)

from oracles import neighbour_rows_reference

#: the 25 Table-3 instances, the 3 SpMM ablation tensors (Fig. 8/9) and the
#: 3 hard-constraint spaces
REGISTRY = (
    benchmark_names()
    + ["taco_spmm_filter3D", "taco_spmm_email-Enron", "taco_spmm_amazon0312"]
    + hard_constraint_benchmark_names()
)


def assert_matches_reference(space: SearchSpace, rows: np.ndarray) -> None:
    got_rows, got_owners = space.neighbour_rows_batch(rows)
    want_rows, want_owners = neighbour_rows_reference(space, rows)
    for got, want in ((got_rows, want_rows), (got_owners, want_owners)):
        assert got.shape == want.shape
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


# ---------------------------------------------------------------------------
# random spaces
# ---------------------------------------------------------------------------

_ordinal_values = st.lists(
    st.integers(min_value=1, max_value=64), min_size=1, max_size=5, unique=True
)

#: constraints over the parameters below: discrete-only ones a tree can take,
#: and ones a tree cannot (they read the real), unary and multi-variable
_CONSTRAINTS = (
    "o >= i",
    "o % 2 == 0 or i <= 3",
    "c != 'x' or p[0] == 0",
    "p != (1, 0) and p != (1, 0, 2)",
    "i % 3 != 1",
    "r >= 1.0",
    "r >= 1.0 or o <= 32",
    "r * i <= 30.0",
)


@st.composite
def neighbourhood_spaces(draw):
    transform = st.sampled_from(["linear", "log"])
    parameters = [
        RealParameter("r", 0.5, 4.0, transform=draw(transform)),
        IntegerParameter("i", 1, draw(st.integers(1, 40)), transform=draw(transform)),
        OrdinalParameter("o", draw(_ordinal_values), transform=draw(transform)),
        CategoricalParameter("c", ["x", "y", "z"][: draw(st.integers(1, 3))]),
        PermutationParameter("p", draw(st.integers(1, 3))),
    ]
    parameters = draw(st.permutations(parameters))
    constraints = [Constraint(e) for e in _CONSTRAINTS if draw(st.booleans())]
    build_cot = draw(st.booleans())
    try:
        space = SearchSpace(parameters, constraints, build_chain_of_trees=build_cot)
        space.sample_rows(np.random.default_rng(0), 1, max_rejection_rounds=200)
    except (RuntimeError, ValueError):  # the constraints admit nothing
        space = SearchSpace(parameters, [], build_chain_of_trees=build_cot)
    return space


def _product_rows(space: SearchSpace, rng: np.random.Generator, n: int) -> np.ndarray:
    """Legal rows drawn parameter by parameter, ignoring the constraints, so
    some lie off the trees' leaves and some fail residual constraints."""
    rows = np.empty((n, space.encoder.width))
    for param in space.parameters:
        rows[:, space.encoder.columns(param.name)] = space.encoder.encode_value_column(
            param.name, param.sample_batch(rng, n)
        )
    return rows


@given(
    neighbourhood_spaces(),
    st.integers(0, 2**31 - 1),
    st.integers(0, 4),
    st.sampled_from([1, 3, 1000]),
)
@settings(max_examples=60, deadline=None)
def test_tables_match_the_per_row_oracle(space, seed, n, chunk):
    rng = np.random.default_rng(seed)
    rows = space.sample_rows(rng, n)
    first, _ = space.neighbour_rows_batch(rows)
    second, _ = space.neighbour_rows_batch(first)
    picks = rng.permutation(len(second))[:12]
    rows = np.vstack([rows, first[:6], second[picks], _product_rows(space, rng, 4)])
    assert_matches_reference(space, rows[:0])
    for start in range(0, len(rows), chunk):
        assert_matches_reference(space, rows[start : start + chunk])


# ---------------------------------------------------------------------------
# the registry
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", REGISTRY)
def test_registry_spaces_match_the_oracle(name):
    space = get_benchmark(name).space
    rows = space.sample_rows(np.random.default_rng(64), 64)
    for chunk in (1, 3, 64):
        for start in range(0, len(rows), chunk):
            assert_matches_reference(space, rows[start : start + chunk])


def test_registry_size():
    assert len(REGISTRY) == 31


# ---------------------------------------------------------------------------
# building and sharing the tables
# ---------------------------------------------------------------------------


def _fresh(name: str) -> SearchSpace:
    """A registry space built anew, none of its lazy tables built yet."""
    space = get_benchmark(name).space
    return SearchSpace(
        space.parameters,
        space.constraints,
        build_chain_of_trees=space.chain_of_trees is not None,
    )


@pytest.mark.parametrize("name", ["rise_mm_gpu", "hpvm_bfs"])
def test_tables_are_built_on_first_use(name):
    space = _fresh(name)
    assert "neighbour_tables" not in space._vector_caches
    rows = space.sample_rows(np.random.default_rng(1), 3)
    space.neighbour_rows_batch(rows)
    tables = space._vector_caches["neighbour_tables"]
    space.neighbour_rows_batch(rows)
    assert space._vector_caches["neighbour_tables"] is tables


@pytest.mark.parametrize("threads", [2, 4])
@pytest.mark.parametrize("name", ["taco_spmm_scircuit", "hard_constraint_1e-2"])
def test_threads_on_a_fresh_space_get_the_reference(name, threads):
    """Threads that share a space whose tables are not built yet each
    build or read them mid-climb and all get the oracle's output."""
    space = _fresh(name)
    rows = space.sample_rows(np.random.default_rng(2), 24)
    barrier = threading.Barrier(threads, timeout=30)
    results: list = [None] * threads

    def work(slot: int) -> None:
        barrier.wait()
        results[slot] = [space.neighbour_rows_batch(rows[i : i + 3]) for i in range(0, 24, 3)]

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work, args=(slot,)) for slot in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(worker.is_alive() for worker in workers)
    want_rows, want_owners = neighbour_rows_reference(space, rows)
    for result in results:
        assert result is not None  # the thread raised
        got_rows = np.vstack([r for r, _ in result])
        got_owners = np.concatenate([o + 3 * k for k, (_, o) in enumerate(result)])
        assert got_rows.tobytes() == want_rows.tobytes()
        assert got_owners.tobytes() == want_owners.tobytes()


# ---------------------------------------------------------------------------
# the legal-row contract
# ---------------------------------------------------------------------------


def _contract_space(build_cot: bool) -> SearchSpace:
    return SearchSpace(
        [
            OrdinalParameter("tile", [2, 4, 8, 16], transform="log"),
            OrdinalParameter("unroll", [1, 2, 4]),
            CategoricalParameter("sched", ["static", "dynamic"]),
            PermutationParameter("order", 3),
            IntegerParameter("threads", 1, 8),
            RealParameter("ratio", 0.1, 1.0),
        ],
        [Constraint("tile >= unroll")],
        build_chain_of_trees=build_cot,
    )


@pytest.mark.parametrize("build_cot", [True, False], ids=["tree", "free"])
@pytest.mark.parametrize(
    "name,block",
    [
        ("tile", [3.0]),  # log(3) is no tile's encoding
        ("tile", [float("nan")]),
        ("unroll", [3.0]),
        ("sched", [2.0]),
        ("sched", [0.5]),
        ("order", [0.0, 0.0, 1.0]),
        ("order", [0.0, 1.0, 2.5]),
        ("threads", [2.5]),
        ("threads", [9.0]),
    ],
)
def test_an_illegal_block_raises_naming_its_parameter(build_cot, name, block):
    space = _contract_space(build_cot)
    rows = space.sample_rows(np.random.default_rng(5), 3)
    rows[1, space.encoder.columns(name)] = block
    with pytest.raises(ValueError, match=rf"row 1 .* parameter {name!r}"):
        space.neighbour_rows_batch(rows)
    space.neighbour_rows_batch(rows[[0, 2]])  # the legal rows still pass


def test_a_real_is_projected_as_before():
    """Reals keep today's clip; only discrete and permutation blocks raise."""
    space = _contract_space(True)
    rows = space.sample_rows(np.random.default_rng(6), 2)
    rows[0, space.encoder.columns("ratio")] = 7.0
    assert_matches_reference(space, rows)


def test_rows_of_the_wrong_width_raise():
    space = _contract_space(True)
    with pytest.raises(ValueError, match="expected rows of width"):
        space.neighbour_rows_batch(np.zeros((2, space.encoder.width + 1)))
