"""Property-based and unit tests for the fixed-width configuration encoder."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import sample_value
from repro.space import (
    CategoricalParameter,
    ConfigEncoder,
    IntegerParameter,
    OrdinalParameter,
    PermutationParameter,
    RealParameter,
)


def _mixed_parameters():
    return [
        OrdinalParameter("tile", [2, 4, 8, 16, 32], transform="log"),
        IntegerParameter("threads", 1, 64, transform="log"),
        RealParameter("alpha", 0.1, 10.0, transform="log"),
        RealParameter("beta", -5.0, 5.0),
        CategoricalParameter("sched", ["static", "dynamic", "guided"]),
        PermutationParameter("order", 5),
    ]


class TestLayout:
    def test_width_and_blocks(self):
        enc = ConfigEncoder(_mixed_parameters())
        assert enc.width == 4 + 1 + 5
        kinds = [b.kind for b in enc.blocks]
        assert kinds == ["numeric"] * 4 + ["categorical", "permutation"]
        assert enc.columns("order") == slice(5, 10)

    def test_matches_search_space_encode(self, small_space, rng):
        configs = small_space.sample(rng, 10)
        batch = small_space.encode_batch(configs)
        stacked = np.vstack([small_space.encode(c) for c in configs])
        assert np.array_equal(batch, stacked)

    def test_empty_batch(self):
        enc = ConfigEncoder(_mixed_parameters())
        assert enc.encode_batch([]).shape == (0, enc.width)

    def test_signature_detects_transform_difference(self):
        log_enc = ConfigEncoder([OrdinalParameter("t", [2, 4], transform="log")])
        lin_enc = ConfigEncoder([OrdinalParameter("t", [2, 4])])
        assert log_enc.signature() != lin_enc.signature()
        assert log_enc.signature() == ConfigEncoder(
            [OrdinalParameter("t", [2, 4], transform="log")]
        ).signature()


class TestRoundTrip:
    """decode(encode(c)) must be the identity for every parameter type."""

    @given(st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_mixed_space_round_trip(self, pyrandom):
        params = _mixed_parameters()
        enc = ConfigEncoder(params)
        rng = np.random.default_rng(pyrandom.randrange(2**32))
        config = {p.name: sample_value(p, rng) for p in params}
        decoded = enc.decode(enc.encode(config))
        for p in params:
            original, restored = config[p.name], decoded[p.name]
            if isinstance(p, RealParameter):
                assert restored == pytest.approx(original, rel=1e-9)
            else:
                assert restored == p.canonical(original) or restored == original

    @given(st.integers(min_value=1, max_value=7))
    @settings(max_examples=30, deadline=None)
    def test_permutation_round_trip_all_sizes(self, n):
        param = PermutationParameter("p", n)
        enc = ConfigEncoder([param])
        rng = np.random.default_rng(n)
        for _ in range(10):
            value = sample_value(param, rng)
            assert enc.decode(enc.encode({"p": value}))["p"] == value

    def test_ordinal_log_round_trip_exact(self):
        param = OrdinalParameter("t", [2, 4, 8, 16, 1024], transform="log")
        enc = ConfigEncoder([param])
        for value in param.values:
            assert enc.decode(enc.encode({"t": value}))["t"] == value

    def test_integer_log_round_trip_exact(self):
        param = IntegerParameter("n", 1, 10_000, transform="log")
        enc = ConfigEncoder([param])
        for value in (1, 2, 3, 17, 255, 9_999, 10_000):
            assert enc.decode(enc.encode({"n": value}))["n"] == value

    def test_categorical_round_trip(self):
        param = CategoricalParameter("c", ["a", "b", "c", "d"])
        enc = ConfigEncoder([param])
        for value in param.values:
            assert enc.decode(enc.encode({"c": value}))["c"] == value


class TestDecodeProjection:
    """Arbitrary rows decode to the nearest legal configuration."""

    def test_numeric_clipping(self):
        enc = ConfigEncoder([RealParameter("x", 0.0, 1.0), IntegerParameter("n", 2, 9)])
        decoded = enc.decode([5.0, 100.0])
        assert decoded["x"] == 1.0
        assert decoded["n"] == 9

    def test_ordinal_snaps_to_nearest_value(self):
        enc = ConfigEncoder([OrdinalParameter("t", [2, 4, 8, 16], transform="log")])
        row = enc.encode({"t": 8}) + 0.05  # nudge inside the warped gap
        assert enc.decode(row)["t"] == 8

    def test_categorical_out_of_range_index(self):
        enc = ConfigEncoder([CategoricalParameter("c", ["a", "b"])])
        assert enc.decode([7.3])["c"] == "b"
        assert enc.decode([-2.0])["c"] == "a"

    def test_invalid_permutation_projected_by_rank(self):
        param = PermutationParameter("p", 4)
        enc = ConfigEncoder([param])
        decoded = enc.decode([0.2, 3.7, 3.6, -1.0])["p"]
        assert param.contains(decoded)
        assert decoded == (1, 3, 2, 0)

    def test_wrong_width_raises(self):
        enc = ConfigEncoder([CategoricalParameter("c", ["a", "b"])])
        with pytest.raises(ValueError):
            enc.decode([0.0, 1.0])

    def test_decode_batch(self, small_space, rng):
        configs = small_space.sample(rng, 6)
        rows = small_space.encode_batch(configs)
        decoded = small_space.encoder.decode_batch(rows)
        assert [small_space.freeze(c) for c in decoded] == [
            small_space.freeze(c) for c in configs
        ]
