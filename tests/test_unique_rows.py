"""The climb's duplicate removal against ``np.unique(axis=0)``.

``local_search._unique_rows`` collapses duplicate candidate rows with one
1-D ``np.unique`` over a void view of ``rows + 0.0``, one element per row.
``oracles.unique_rows_reference`` keeps the ``np.unique(rows, axis=0)``
call it replaced, whose field-wise compare holds -0.0 equal to 0.0.  A
hypothesis property draws batches from every registry space, repeats some
of their rows and flips the sign of some zero entries, and the two must
return the same rows, in the same first-seen order, byte for byte.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import unique_rows_reference
from repro.core.local_search import _unique_rows
from repro.workloads.registry import get_benchmark
from test_neighbour_tables import REGISTRY


@settings(deadline=None)
@given(
    name=st.sampled_from(REGISTRY),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(0, 48),
    repeats=st.integers(0, 64),
    flip=st.floats(0.0, 1.0),
)
def test_unique_rows_match_np_unique_axis0(name, seed, n, repeats, flip):
    rng = np.random.default_rng(seed)
    rows = get_benchmark(name).space.sample_rows(rng, n)
    if len(rows):
        rows = np.concatenate([rows, rows[rng.integers(len(rows), size=repeats)]])
        rows = rows[rng.permutation(len(rows))]
        rows = np.where((rows == 0.0) & (rng.random(rows.shape) < flip), -0.0, rows)
    got = _unique_rows(rows)
    want = unique_rows_reference(rows)
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


def test_signed_zeros_are_one_row():
    rows = np.array([[0.0, 1.0], [-0.0, 1.0], [1.0, -0.0], [1.0, 0.0], [0.0, 1.0]])
    got = _unique_rows(rows)
    assert got.tobytes() == rows[[0, 2]].tobytes()
    assert got.tobytes() == unique_rows_reference(rows).tobytes()
