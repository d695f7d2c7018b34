"""Tests for join predicates and the reference cross-join evaluator."""

from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.columns import HAS_NUMPY
from repro.engine.stream import StreamTuple
from repro.joins.predicates import (
    BandPredicate,
    CompositePredicate,
    EquiPredicate,
    NotEqualPredicate,
    ThetaPredicate,
    UnsupportedKeyError,
    cross_join_reference,
)


class TestEquiPredicate:
    def test_matches(self):
        predicate = EquiPredicate("a", "b")
        assert predicate.matches({"a": 3}, {"b": 3})
        assert not predicate.matches({"a": 3}, {"b": 4})
        assert predicate.kind == "equi"

    def test_keys(self):
        predicate = EquiPredicate("a", "b")
        assert predicate.left_key({"a": 9}) == 9
        assert predicate.right_key({"b": 8}) == 8

    def test_describe(self):
        assert "a = b" == EquiPredicate("a", "b").describe()


class TestBandPredicate:
    def test_matches_within_width(self):
        predicate = BandPredicate("x", "y", width=2)
        assert predicate.matches({"x": 5}, {"y": 7})
        assert predicate.matches({"x": 5}, {"y": 3})
        assert not predicate.matches({"x": 5}, {"y": 8})
        assert predicate.kind == "band"

    @given(st.integers(-50, 50), st.integers(-50, 50), st.integers(0, 10))
    @settings(max_examples=100)
    def test_symmetry(self, x, y, width):
        predicate = BandPredicate("x", "y", width=width)
        flipped = BandPredicate("x", "y", width=width)
        assert predicate.matches({"x": x}, {"y": y}) == flipped.matches({"x": y}, {"y": x})


class TestThetaAndComposite:
    def test_theta_callable(self):
        predicate = ThetaPredicate(lambda l, r: l["a"] < r["b"], name="a < b")
        assert predicate.matches({"a": 1}, {"b": 2})
        assert not predicate.matches({"a": 2}, {"b": 2})
        assert predicate.describe() == "a < b"
        assert predicate.kind == "theta"

    def test_not_equal(self):
        predicate = NotEqualPredicate("a", "a")
        assert predicate.matches({"a": 1}, {"a": 2})
        assert not predicate.matches({"a": 1}, {"a": 1})

    def test_composite_inherits_kind_and_filters(self):
        predicate = CompositePredicate(
            primary=EquiPredicate("k", "k"),
            residuals=[lambda l, r: l["v"] > 10],
        )
        assert predicate.kind == "equi"
        assert predicate.matches({"k": 1, "v": 11}, {"k": 1})
        assert not predicate.matches({"k": 1, "v": 5}, {"k": 1})
        assert not predicate.matches({"k": 1, "v": 11}, {"k": 2})
        assert predicate.left_key({"k": 4, "v": 0}) == 4

    def test_composite_describe(self):
        predicate = CompositePredicate(EquiPredicate("k", "k"), [lambda l, r: True])
        assert "residual" in predicate.describe()
        named = CompositePredicate(EquiPredicate("k", "k"), name="custom")
        assert named.describe() == "custom"


class TestExactKeyContract:
    def test_equi_is_exact_key_with_no_residual(self):
        predicate = EquiPredicate("a", "b")
        assert predicate.exact_key
        assert not predicate.has_residual
        assert predicate.residual_check() is None
        assert predicate.residual_matches({"a": 1}, {"b": 99})

    def test_band_and_theta_are_not_exact_key(self):
        assert not BandPredicate("x", "y", width=1).exact_key
        assert not ThetaPredicate(lambda l, r: True).exact_key
        assert not NotEqualPredicate("a", "a").exact_key

    def test_composite_exact_key_runs_residuals_only(self):
        predicate = CompositePredicate(
            EquiPredicate("k", "k"), residuals=[lambda l, r: l["v"] > 10]
        )
        assert predicate.exact_key
        assert predicate.has_residual
        check = predicate.residual_check()
        # The residual check skips the (index-guaranteed) key equality.
        assert check({"k": 1, "v": 11}, {"k": 999})
        assert not check({"k": 1, "v": 5}, {"k": 1})

    def test_composite_without_residuals_is_exact_hit(self):
        predicate = CompositePredicate(EquiPredicate("k", "k"))
        assert predicate.exact_key
        assert not predicate.has_residual
        assert predicate.residual_check() is None

    def test_composite_multiple_residuals_combined(self):
        predicate = CompositePredicate(
            EquiPredicate("k", "k"),
            residuals=[lambda l, r: l["v"] > 0, lambda l, r: r["w"] < 5],
        )
        check = predicate.residual_check()
        assert check({"k": 1, "v": 1}, {"k": 1, "w": 0})
        assert not check({"k": 1, "v": 0}, {"k": 1, "w": 0})
        assert not check({"k": 1, "v": 1}, {"k": 1, "w": 9})


class TestCrossJoinReference:
    def test_counts_matching_pairs(self):
        left = [{"k": 1}, {"k": 2}]
        right = [{"k": 2}, {"k": 2}, {"k": 3}]
        matches = cross_join_reference(left, right, EquiPredicate("k", "k"))
        assert matches == [(1, 0), (1, 1)]

    def test_cross_product_upper_bound(self):
        left = [{"k": i} for i in range(4)]
        right = [{"k": i} for i in range(5)]
        always = ThetaPredicate(lambda l, r: True)
        assert len(cross_join_reference(left, right, always)) == 20


def _items(left_keys, right_keys, left_attr="x", right_attr="y"):
    return [StreamTuple(relation="R", record={left_attr: key}) for key in left_keys] + [
        StreamTuple(relation="S", record={right_attr: key}) for key in right_keys
    ]


_MISSING = object()

REJECTED_KEYS = {
    "nan": float("nan"),
    "none": None,
    "missing": _MISSING,
    "str": "1.5",
    "bytes": b"1",
    "complex": complex(1, 0),
    "decimal": Decimal("1.5"),
    "list": [1.0],
}

ACCEPTED_KEYS = {
    "int": -3,
    "float": 2.5,
    "bool": True,
    "fraction": Fraction(7, 2),
    "inf": float("inf"),
    "negative_inf": float("-inf"),
    "big_int": 10**30,
}


class TestBandKeyDomain:
    """``check_keys``: band keys must be real numbers other than NaN."""

    @pytest.mark.parametrize("side", ["left", "right"])
    @pytest.mark.parametrize("name", sorted(REJECTED_KEYS))
    def test_non_real_keys_rejected(self, name, side):
        key = REJECTED_KEYS[name]
        record = {} if key is _MISSING else ({"x": key} if side == "left" else {"y": key})
        relation, attribute = ("R", "x") if side == "left" else ("S", "y")
        items = [
            StreamTuple(relation="R", record={"x": 1.0}),
            StreamTuple(relation=relation, record=record),
        ]
        with pytest.raises(UnsupportedKeyError) as caught:
            BandPredicate("x", "y", width=1).check_keys(items, "R")
        error = caught.value
        assert isinstance(error, ValueError)
        assert (error.relation, error.attribute) == (relation, attribute)
        assert error.record is record
        assert repr(relation) in str(error) and repr(attribute) in str(error)

    @pytest.mark.parametrize("name", sorted(ACCEPTED_KEYS))
    def test_real_keys_accepted(self, name):
        key = ACCEPTED_KEYS[name]
        BandPredicate("x", "y", width=1).check_keys(_items([key, 0], [key, 1.5]), "R")

    @pytest.mark.skipif(not HAS_NUMPY, reason="numpy scalars need numpy")
    def test_numpy_scalars_follow_the_same_rule(self):
        import numpy as np

        predicate = BandPredicate("x", "y", width=1)
        predicate.check_keys(_items([np.float64(1.5), np.int64(2)], [np.float32(3)]), "R")
        with pytest.raises(UnsupportedKeyError):
            predicate.check_keys(_items([np.float64("nan")], []), "R")

    def test_relation_decides_which_attribute_is_checked(self):
        """Left records are checked on the left attribute only: a right-side
        attribute name in a left record is irrelevant, and vice versa."""
        predicate = BandPredicate("x", "y", width=1)
        items = [
            StreamTuple(relation="R", record={"x": 1.0, "y": None}),
            StreamTuple(relation="S", record={"x": float("nan"), "y": 2.0}),
        ]
        predicate.check_keys(items, "R")
        with pytest.raises(UnsupportedKeyError) as caught:
            predicate.check_keys(items, "S")  # now the roles swap
        assert caught.value.relation == "R"
        assert caught.value.attribute == "y"

    def test_first_offending_record_is_reported(self):
        items = _items([1.0, float("nan")], [None])
        with pytest.raises(UnsupportedKeyError) as caught:
            BandPredicate("x", "y", width=1).check_keys(items, "R")
        assert caught.value.relation == "R"

    def test_composite_checks_its_band_primary(self):
        predicate = CompositePredicate(
            BandPredicate("x", "y", width=1), residuals=[lambda l, r: True]
        )
        predicate.check_keys(_items([1.0], [2.0]), "R")
        with pytest.raises(UnsupportedKeyError):
            predicate.check_keys(_items([1.0], [float("nan")]), "R")

    @pytest.mark.parametrize(
        "predicate",
        [
            EquiPredicate("x", "y"),
            CompositePredicate(EquiPredicate("x", "y"), residuals=[lambda l, r: True]),
            NotEqualPredicate("x", "y"),
            ThetaPredicate(lambda l, r: True),
        ],
        ids=["equi", "composite_equi", "not_equal", "theta"],
    )
    def test_non_band_predicates_accept_any_key(self, predicate):
        predicate.check_keys(_items([float("nan"), None, "a"], [None, b"b"]), "R")
