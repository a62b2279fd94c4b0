"""Property-based and unit tests for the fixed-width configuration encoder."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import decode_reference, sample_value, signature_reference
from repro.space import (
    CategoricalParameter,
    ConfigEncoder,
    IntegerParameter,
    OrdinalParameter,
    PermutationParameter,
    RealParameter,
)
from repro.workloads.registry import get_benchmark
from test_neighbour_tables import REGISTRY


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

    @pytest.mark.parametrize("name", REGISTRY)
    def test_stored_signature_is_a_fresh_build(self, name):
        """The signature is built once with the encoder; it equals the
        per-call build, for the space's encoder and for BaCO's model
        encoders with the transformations on and off."""
        from repro.core.baco import BacoSettings, BacoTuner

        space = get_benchmark(name).space
        encoders = [space.encoder, ConfigEncoder(space.parameters)]
        for settings_ in (BacoSettings(), BacoSettings(use_transformations=False)):
            encoders.append(BacoTuner(space, settings_, seed=0)._model_distance.encoder)
        for encoder in encoders:
            assert encoder.signature() == signature_reference(encoder)


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


class TestDecodeTables:
    """``decode`` reads each ordinal from the encoder's warped-value table
    (a dict for an exact hit, else ``argmin`` over the stored warps);
    ``decode_reference`` re-warps every value on each call.  They must give
    the same configuration, in value and type."""

    @given(
        name=st.sampled_from(REGISTRY),
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 20),
    )
    @settings(deadline=None)
    def test_decode_matches_the_reference(self, name, seed, n):
        space = get_benchmark(name).space
        encoder = ConfigEncoder(space.parameters)
        data = np.random.default_rng(seed)
        rows = space.sample_rows(data, n)
        scale = data.choice([1e-12, 1e-3, 0.3, 5.0])
        moved = rows + data.normal(scale=scale, size=rows.shape) * (data.random(rows.shape) < 0.5)
        ordinal = [
            b.start for b in encoder.blocks if isinstance(b.parameter, OrdinalParameter)
        ]
        if ordinal:
            at = data.integers(len(rows), size=n)
            moved[at, data.choice(ordinal, size=n)] = data.choice([np.nan, np.inf, -np.inf], size=n)
        for row in np.vstack([rows, moved]):
            got, want = encoder.decode(row), decode_reference(encoder, row)
            assert got == want
            assert [type(v) for v in got.values()] == [type(v) for v in want.values()]

    @pytest.mark.parametrize(
        "make,tie",
        [
            # 10**16 and 10**16 + 2 are distinct values with one float log
            (lambda: OrdinalParameter("big", [10**16, 10**16 + 2, 10**17], transform="log"),
             (10**16, 10**16 + 2)),
            # 2**53 + 1 rounds to the float 2**53, and its log to log(2**53)
            (lambda: IntegerParameter("big", 2**53, 2**53 + 2), (2**53, 2**53 + 1)),
            (lambda: IntegerParameter("big", 2**53, 2**53 + 2, transform="log"),
             (2**53, 2**53 + 1)),
            # 2**53 + 1 and 2**53 + 2 round apart, and the pair below them ties
            (lambda: IntegerParameter("big", 1, 2**53 + 2), (2**53, 2**53 + 1)),
            (lambda: IntegerParameter("big", -2**53 - 2, 0), (-2**53 - 1, -2**53)),
            (lambda: IntegerParameter("big", 1, 10**16, transform="log"),
             (10**16 - 3, 10**16 - 2)),
        ],
        ids=["log-ordinal", "integer", "log-integer", "integer-top", "integer-bottom",
             "log-integer-top"],
    )
    def test_a_warp_tie_is_rejected_when_the_parameter_is_built(self, make, tie):
        """Two values with one encoding would make a row stand for both;
        the parameter names itself and the pair instead."""
        with pytest.raises(ValueError) as raised:
            make()
        assert str(raised.value).startswith(
            f"values {tie[0]!r} and {tie[1]!r} of parameter 'big' share the encoding"
        )

    @given(
        base=st.sampled_from([0, 2**53, -(2**53), 2**54, -(2**54), 2**60]),
        offset=st.integers(-40, 40),
        span=st.integers(0, 60),
    )
    @settings(deadline=None)
    def test_a_linear_integer_is_rejected_exactly_when_two_values_tie(self, base, offset, span):
        """Beyond 2**53 two adjacent integers can round to one float; the
        check reads only the values at each end of the range, and must
        still raise exactly when some adjacent pair ties, naming one."""
        low = base + offset
        tied = any(float(v) == float(v + 1) for v in range(low, low + span))
        if not tied:
            assert IntegerParameter("n", low, low + span).cardinality() == span + 1
            return
        with pytest.raises(ValueError) as raised:
            IntegerParameter("n", low, low + span)
        a, b = map(int, re.match(r"values (-?\d+) and (-?\d+) of parameter 'n'", str(raised.value)).groups())
        assert b == a + 1 and float(a) == float(b) and low <= a < low + span

    def test_values_just_below_a_tie_are_kept(self):
        assert IntegerParameter("n", 2**53 - 2, 2**53).cardinality() == 3
        assert OrdinalParameter("big", [10**16, 10**16 + 2]).values == [10**16, 10**16 + 2]

    def test_a_log_integer_with_an_interior_tie_is_rejected(self):
        """In [1, 177097137403259] the four values at each end have distinct
        logs, but 177097137403255 and 177097137403256 share one, so a row
        would decode to the other value; the top gap is within two ulps."""
        high = 177097137403259
        assert math.log(high - 4) == math.log(high - 3)
        assert len({math.log(v) for v in (*range(1, 5), *range(high - 3, high + 1))}) == 8
        with pytest.raises(ValueError, match=r"of parameter 'x' are .* apart, within two ulps"):
            IntegerParameter("x", 1, high, transform="log")

    @staticmethod
    def _top_logs_ascend(high: int) -> bool:
        """Whether ``[1, high]`` builds as a log integer; if it does, its top
        2,000 values have strictly ascending logs."""
        try:
            IntegerParameter("x", 1, high, transform="log")
        except ValueError as exc:
            assert "parameter 'x'" in str(exc)
            return False
        logs = [math.log(v) for v in range(high - 1999, high + 1)]
        assert all(below < above for below, above in zip(logs, logs[1:]))
        return True

    def test_log_integers_that_build_have_distinct_logs(self):
        """3,000 upper ends in [7e13, 2e14], where the top gap nears an ulp:
        each range that builds keeps its top 2,000 logs apart."""
        ends = np.random.default_rng(33).integers(7 * 10**13, 2 * 10**14, 3000, endpoint=True)
        built = sum(self._top_logs_ascend(int(high)) for high in ends)
        assert 0 < built < 3000

    @given(high=st.integers(7 * 10**13, 2 * 10**14))
    @settings(deadline=None)
    def test_log_integer_top_logs_ascend(self, high):
        self._top_logs_ascend(high)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_ordinals_decode_as_argmin_does(self, value):
        enc = ConfigEncoder([OrdinalParameter("t", [2, 4, 8], transform="log")])
        assert enc.decode([value]) == decode_reference(enc, [value]) == {"t": 2}


class TestDecodeNonFinite:
    """A value with no nearest legal one is an error naming the parameter
    and the value, not a bare conversion error or an illegal ``nan``."""

    @pytest.mark.parametrize(
        "param,value",
        [
            (param, value)
            for param in (
                CategoricalParameter("sched", ["static", "dynamic"]),
                IntegerParameter("threads", 1, 64),
                PermutationParameter("order", 3),
            )
            for value in (np.nan, np.inf, -np.inf)
        ]
        + [(RealParameter("alpha", 0.1, 10.0, transform="log"), np.nan)],
        ids=lambda case: getattr(case, "name", None) or str(case),
    )
    def test_names_the_parameter(self, param, value):
        enc = ConfigEncoder([OrdinalParameter("tile", [2, 4, 8]), param])
        row = enc.encode({"tile": 4, param.name: param.default})
        row[enc.columns(param.name).stop - 1] = value
        with pytest.raises(ValueError, match=rf"parameter '{param.name}' from .*{value}"):
            enc.decode(row)

    @pytest.mark.parametrize("value,bound", [(np.inf, 10.0), (-np.inf, 0.1)])
    def test_a_real_clamps_infinity_to_its_bounds(self, value, bound):
        enc = ConfigEncoder([RealParameter("alpha", 0.1, 10.0, transform="log")])
        assert enc.decode([value]) == {"alpha": bound}

    @pytest.mark.parametrize("value", [709.8, 1000.0])
    def test_a_log_real_whose_exp_overflows_clamps_to_its_upper_bound(self, value):
        enc = ConfigEncoder([RealParameter("lr", 0.1, 1.0, transform="log")])
        assert enc.decode([value]) == enc.decode([np.inf]) == {"lr": 1.0}

    @pytest.mark.parametrize("value", [709.8, 1000.0, np.inf])
    def test_a_log_integer_whose_exp_overflows_names_the_parameter(self, value):
        enc = ConfigEncoder([IntegerParameter("t", 1, 1024, transform="log")])
        with pytest.raises(ValueError, match=rf"parameter 't' from \[?{value}"):
            enc.decode([value])
