"""The one number check: finite_floats and finite_points take float tuples
in one pass and everything else entry by entry, with one result either way."""

import collections
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from needle_mpc.errors import finite_floats, finite_points
from oracles import finite_floats_per_entry, finite_points_per_entry

Point = collections.namedtuple("Point", "x y z")

FLOATS = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, 0.0, 1e308, -1e308, math.inf, -math.inf, math.nan, 5e-324]),
)
ENTRIES = st.one_of(
    FLOATS,
    st.integers(-(2**1100), 2**1100),  # ints beyond the float range too
    st.booleans(),
    FLOATS.map(np.float64),
    st.integers(-5, 5).map(np.int64),
    st.booleans().map(np.bool_),
    st.text(max_size=3),
    st.just(b"1"),
    st.tuples(FLOATS, FLOATS, FLOATS),  # a nested row
)
ROWS = st.one_of(
    st.tuples(FLOATS, FLOATS, FLOATS),
    st.tuples(ENTRIES, ENTRIES, ENTRIES),
    st.lists(FLOATS, max_size=5).map(tuple),  # another count
    st.lists(ENTRIES, min_size=3, max_size=3),  # a list row
    st.tuples(FLOATS, FLOATS, FLOATS).map(lambda row: Point(*row)),
    st.tuples(FLOATS, FLOATS, FLOATS).map(np.array),
    ENTRIES,  # a bare number or text where a row belongs
)
POINTS = st.one_of(
    st.lists(st.tuples(FLOATS, FLOATS, FLOATS), max_size=6).map(tuple),
    st.lists(ROWS, max_size=6).map(tuple),
    st.lists(ROWS, max_size=6),
    st.lists(st.lists(FLOATS, min_size=3, max_size=3), max_size=6),  # lists of lists
    ENTRIES,
)


def outcome(check, *args):
    """repr of the result (types, -0.0 and row forms show), or the exception's
    type and message."""
    try:
        return repr(check(*args))
    except Exception as exc:  # the exception is the outcome compared
        return type(exc), str(exc)


CASES = [
    ((-0.0, 0.0, -0.0),),
    ((1e308, 1e308, 1e308), (1.0, 2.0, 3.0)),  # a sum that overflows, entries that do not
    ((1.0, math.nan, 2.0),),
    ((math.inf, 0.0, -math.inf),),
    ((1, 2, 3),),
    ((True, 0.0, 1.0),),
    ((np.float64(1.5), np.float64(-0.0), 2.0),),
    ((np.bool_(True), 0.0, 1.0),),
    (("1", 0.0, 1.0),),
    (((1.0, 2.0, 3.0), 0.0, 1.0),),  # nested
    ((1.0, 2.0),),
    ((1.0, 2.0, 3.0, 4.0),),
    (Point(1.0, 2.0, 3.0),),
    [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]],
    [(1.0, 2.0, 3.0), (4.0, 5.0, 6.0)],
    (),
    [],
    "abc",
    1.0,
]


class TestOnePassAgreesWithPerEntry:
    @pytest.mark.parametrize("value", CASES, ids=repr)
    def test_listed_points(self, value):
        assert outcome(finite_points, value, "pts") == outcome(
            finite_points_per_entry, value, "pts"
        )

    @pytest.mark.parametrize("value", CASES, ids=repr)
    @pytest.mark.parametrize("count", [None, 2, 3])
    def test_listed_rows(self, value, count):
        row = value[0] if isinstance(value, (tuple, list)) and value else value
        assert outcome(finite_floats, row, "v", count) == outcome(
            finite_floats_per_entry, row, "v", count
        )

    @given(POINTS)
    @settings(max_examples=500, deadline=None)
    def test_points(self, value):
        assert outcome(finite_points, value, "pts") == outcome(
            finite_points_per_entry, value, "pts"
        )

    @given(st.one_of(ROWS, st.lists(FLOATS, max_size=5).map(tuple)),
           st.sampled_from([None, 0, 1, 2, 3, 4]))
    @settings(max_examples=500, deadline=None)
    def test_rows(self, value, count):
        assert outcome(finite_floats, value, "v", count) == outcome(
            finite_floats_per_entry, value, "v", count
        )


@given(st.lists(st.tuples(*[st.floats(-1e307, 1e307)] * 3), max_size=8))
def test_checked_float_tuples_come_back_as_they_are(rows):
    points = tuple(rows)
    assert finite_points(points, "pts") is points
    assert all(finite_floats(row, "v", 3) is row for row in points)
    # a list of such rows becomes the tuple of the same rows
    again = finite_points(rows, "pts")
    assert type(again) is tuple and all(a is b for a, b in zip(again, rows))
