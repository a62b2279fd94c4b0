"""The encoder's value tables against the constructions they replaced.

``ConfigEncoder.table(name)`` builds one ``ValueTable`` per discrete
parameter, on first use, and the sampler's draw and leaf tables, the
climb's neighbour tables, the ordinal decode and the value catalogues read
it.  Each of those readers used to build its own copy; those builds are
kept in ``tests/oracles.py``, and every field must equal them:

* ``values`` and ``index``, ``values_list()`` and its positions;
* ``raw`` in dtype and values, as unary narrowing and the draw tables
  (``value_column_reference``) and the neighbour tables
  (``raw_column_reference``) built it;
* ``encoded`` byte for byte, as ``encode_value_column`` built it from
  those columns, as ``_catalogue`` built it, and as ``encode_batch``
  encodes each value;
* ``code_of``, as the neighbour tables built it.

A hypothesis property covers every discrete parameter of the 31 registry
spaces and random hand-made ones: numeric and mixed categories, linear and
log ordinals, log integers, and permutations of 1–7 elements.  The leaf
tables of every registry tree, and of a hand-made tree over a log integer
and numeric categories, are checked against the old per-tree build.

Two values that share a warp (a warp tie) would share one encoded row, so
a numeric parameter rejects them when it is built; a property checks that
an ordinal is rejected exactly when two of its values tie.
"""

from __future__ import annotations

import math
import sys
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    catalogue_reference,
    code_of_reference,
    decode_reference,
    encode_value_column_reference,
    feasible_rows,
    neighbour_rows_reference,
    ordinal_maps_reference,
    raw_column_reference,
    value_column_reference,
)
from repro.core.baco import BacoTuner
from repro.space import (
    CategoricalParameter,
    ConfigEncoder,
    Constraint,
    IntegerParameter,
    OrdinalParameter,
    PermutationParameter,
    RealParameter,
    SearchSpace,
)
from repro.space import encoding
from repro.workloads.registry import get_benchmark
from test_neighbour_tables import REGISTRY

#: every parameter of the registry spaces that has a value table (all but
#: the three log reals)
_REGISTRY_PARAMETERS = [
    param
    for name in REGISTRY
    for param in get_benchmark(name).space.parameters
    if not isinstance(param, RealParameter)
]


def _warp_ties(values, transform):
    """The adjacent pairs of an ordinal's distinct values that share a warp."""
    distinct = sorted({int(v) if float(v).is_integer() else float(v) for v in values})
    warp = math.log if transform == "log" else float
    return [(a, b) for a, b in zip(distinct, distinct[1:]) if warp(a) == warp(b)]


#: ordinal values with one float warp: 2**53 + 1 rounds to 2**53 (so the
#: two collapse to one value), 10**16 and 10**16 + 2 have one float log,
#: and so can two adjacent floats
_TIES = [2**53, 2**53 + 1, 10**16, 10**16 + 2]

_ordinal_values = st.lists(
    st.one_of(
        st.integers(1, 10**6),
        st.floats(1e-3, 1e6, allow_nan=False, allow_infinity=False),
        st.sampled_from(_TIES),
    ),
    min_size=1,
    max_size=12,
)
#: the ordinals a parameter accepts: no two values share a warp
_ordinals = st.sampled_from(["linear", "log"]).flatmap(
    lambda transform: _ordinal_values.filter(lambda values: not _warp_ties(values, transform)).map(
        lambda values: OrdinalParameter("o", values, transform)
    )
)
_categoricals = st.builds(
    CategoricalParameter,
    st.just("c"),
    st.lists(
        st.one_of(
            st.integers(-5, 5),
            st.floats(-1e3, 1e3, allow_nan=False),
            st.text(max_size=2),
            st.booleans(),
        ),
        min_size=1,
        max_size=8,
    ),
)
_integers = st.builds(
    lambda low, span, transform: IntegerParameter("i", low, low + span, transform=transform),
    st.integers(1, 1000),
    st.integers(0, 300),
    st.sampled_from(["linear", "log"]),
)
_permutations = st.builds(
    PermutationParameter,
    st.just("p"),
    st.integers(1, 7),
    st.sampled_from(["spearman", "kendall", "hamming", "naive"]),
)


def _assert_same_column(got: np.ndarray, want: np.ndarray) -> None:
    assert got.dtype == want.dtype and got.shape == want.shape
    if got.dtype == object:
        assert got.tolist() == want.tolist()
        assert [type(v) for v in got] == [type(v) for v in want]
    else:
        assert got.tobytes() == want.tobytes()


def _assert_same_block(got: np.ndarray, want: np.ndarray) -> None:
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@given(st.one_of(st.sampled_from(_REGISTRY_PARAMETERS), _ordinals, _categoricals, _integers,
                 _permutations))
@settings(deadline=None)
def test_tables_have_the_reference_fields(param):
    encoder = ConfigEncoder([param])
    table = encoder.table(param.name)
    values = param.values_list()
    assert table.values == tuple(values)
    assert table.index == {value: code for code, value in enumerate(values)}

    raw = raw_column_reference(param, values)
    _assert_same_column(table.raw, raw)
    if not isinstance(param, PermutationParameter):
        _assert_same_column(table.raw, value_column_reference(param, values))

    encoded = encode_value_column_reference(encoder, param.name, raw)
    _assert_same_block(table.encoded, encoded)
    _assert_same_block(table.encoded, encoder.encode_batch([{param.name: v} for v in values]))
    catalogue = catalogue_reference(encoder.blocks[0])
    if catalogue is not None:
        _assert_same_block(encoder.catalogue(0), catalogue)

    assert table.code_of == code_of_reference(encoded)
    assert len(table.code_of) == len(values)

    if isinstance(param, OrdinalParameter):
        raw_floats, warped, by_warp = ordinal_maps_reference(param)
        _assert_same_column(table.raw, raw_floats)
        _assert_same_column(table.encoded[:, 0].copy(), warped)
        assert {key: table.values[code] for key, code in table.code_of.items()} == by_warp

    assert not table.raw.flags.writeable and not table.encoded.flags.writeable
    assert encoder.table(param.name) is table


# ---------------------------------------------------------------------------
# leaf tables
# ---------------------------------------------------------------------------

#: a hand-made tree: a log integer, a permutation and a categorical with
#: numeric and string values
_HAND_MADE = {
    "log_integer_tree": lambda: SearchSpace(
        [
            IntegerParameter("t", 1, 64, transform="log"),
            OrdinalParameter("u", [1, 2, 4, 8, 16], transform="log"),
            CategoricalParameter("c", [1, 2.5, "x"]),
            PermutationParameter("p", 3),
        ],
        [
            Constraint("t * u <= 64"),
            Constraint("c != 'x' or t <= 4"),
            Constraint("p[0] != 2 or u >= 2"),
        ],
    ),
}

_TREE_SPACES = [
    name for name in REGISTRY if get_benchmark(name).space.chain_of_trees is not None
] + list(_HAND_MADE)


def _space(name: str) -> SearchSpace:
    return _HAND_MADE[name]() if name in _HAND_MADE else get_benchmark(name).space


@pytest.mark.parametrize("name", _TREE_SPACES)
def test_leaf_tables_have_the_reference_bytes(name):
    """Each tree level's leaf codes index its value table, and the gathered
    encodings are those the per-tree build encoded from raw leaf columns."""
    space = _space(name)
    assert space.chain_of_trees is not None
    for tree, codes, encoded in space._tree_tables():
        assert list(codes) == list(encoded) == tree.parameter_names
        for level, param in enumerate(tree.parameters):
            column = [leaf[level] for leaf in tree.leaf_values]
            index = {value: code for code, value in enumerate(param.values_list())}
            assert codes[param.name].tolist() == [index[value] for value in column]
            want = encode_value_column_reference(
                space.encoder, param.name, raw_column_reference(param, column)
            )
            _assert_same_block(encoded[param.name], want)


def test_a_tree_over_mixed_categories_samples_and_climbs():
    """A categorical whose first value is a number and another a string:
    the per-tree build read the leaf column's type from its first value and
    could not convert the string, so such a tree neither sampled nor
    climbed."""
    space = _space("log_integer_tree")
    rows = space.sample_rows(np.random.default_rng(0), 64)
    assert feasible_rows(space, rows).all()
    assert {space.encoder.decode(row)["c"] for row in rows} == {1, 2.5, "x"}
    got, owners = space.neighbour_rows_batch(rows)
    want, want_owners = neighbour_rows_reference(space, rows)
    assert got.tobytes() == want.tobytes() and owners.tobytes() == want_owners.tobytes()


@given(_ordinal_values, st.sampled_from(["linear", "log"]))
@settings(deadline=None)
def test_an_ordinal_is_rejected_exactly_when_two_values_tie(values, transform):
    ties = _warp_ties(values, transform)
    if not ties:
        OrdinalParameter("o", values, transform)
        return
    with pytest.raises(ValueError) as raised:
        OrdinalParameter("o", values, transform)
    low, high = ties[0]
    assert str(raised.value).startswith(f"values {low!r} and {high!r} of parameter 'o'")


@pytest.mark.parametrize(
    "big",
    [
        lambda: OrdinalParameter("big", [10**16, 10**16 + 2, 10**17], transform="log"),
        lambda: IntegerParameter("big", 2**53, 2**53 + 2),
    ],
    ids=["log-ordinal", "integer"],
)
def test_a_space_with_a_warp_tie_is_rejected(big):
    """In a Chain-of-Trees tree, a tied encoding lets the sampler return a
    row drawn as one value that decodes to the other, here the infeasible
    ``{'big': 10**16, 'u': 4}`` (or ``2**53``); the parameter is rejected
    before the space is built."""
    with pytest.raises(ValueError, match="of parameter 'big' share the encoding"):
        SearchSpace(
            [big(), OrdinalParameter("u", [1, 2, 4])],
            [Constraint("big > 10000000000000000 or u <= 2")],
        )


# ---------------------------------------------------------------------------
# built on first use
# ---------------------------------------------------------------------------

def test_construction_builds_no_table_and_decode_builds_the_ordinals():
    """An encoder, and a BaCO tuner with its model encoder, cost no
    per-value work until a reader asks; the first decode builds the
    ordinals' tables once, and later decodes build none."""
    space = get_benchmark("rise_mm_gpu").space
    row = space.sample_rows(np.random.default_rng(0), 1)[0]
    with mock.patch.object(encoding, "_value_table", wraps=encoding._value_table) as build:
        encoder = ConfigEncoder(space.parameters)
        BacoTuner(space, seed=0)
        assert build.call_count == 0
        for _ in range(3):
            encoder.decode(row)
    ordinals = [p for p in space.parameters if isinstance(p, OrdinalParameter)]
    assert ordinals and [call.args[0] for call in build.call_args_list] == ordinals


def test_threads_on_a_fresh_encoder_decode_the_reference():
    """Threads that share an encoder whose tables are not built yet each
    build or read them (the first decode's ordinal dict, the tables it
    reads, the catalogue) and all decode and code rows as the oracle does."""
    space = get_benchmark("rise_mm_gpu").space
    rows = space.sample_rows(np.random.default_rng(4), 32)
    encoder = ConfigEncoder(space.parameters)
    want = [decode_reference(encoder, row) for row in rows]
    threads = 4
    barrier = threading.Barrier(threads, timeout=30)
    results: list = [None] * threads

    def work(slot: int) -> None:
        barrier.wait()
        results[slot] = ([encoder.decode(row) for row in rows], encoder.value_codes(rows))

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
    codes = ConfigEncoder(space.parameters).value_codes(rows)
    for result in results:
        assert result is not None  # the thread raised
        assert result[0] == want and result[1].tobytes() == codes.tobytes()
