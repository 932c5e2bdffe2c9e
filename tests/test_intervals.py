import pytest
from hypothesis import given
from hypothesis import strategies as st

from mplangc.intervals import DomainBox, Interval


def test_empty_interval_rejected():
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)


def test_scale_negative_swaps_endpoints():
    assert Interval(-1.0, 3.0).scale(-2.0) == Interval(-6.0, 2.0)


def test_scale_by_zero_is_zero_also_when_unbounded():
    assert Interval(-float("inf"), float("inf")).scale(0.0) == Interval(0.0, 0.0)
    assert Interval(-1.0, 3.0).scale(-0.0) == Interval(0.0, 0.0)


def test_add_is_minkowski():
    assert Interval(0.0, 1.0).add(Interval(-2.0, 5.0)) == Interval(-2.0, 6.0)


def test_hull():
    assert Interval(0.0, 1.0).hull(Interval(4.0, 5.0)) == Interval(0.0, 5.0)


finite = st.floats(min_value=-100, max_value=100, allow_nan=False)


@given(finite, finite, finite, finite)
def test_scale_and_add_sound(lo, hi, a, x):
    lo, hi = min(lo, hi), max(lo, hi)
    iv = Interval(lo, hi)
    x = lo + abs(x) % (hi - lo) if hi > lo else lo
    scaled, slack = iv.scale(a), 1e-9 * (1 + abs(a * x))
    assert scaled.lo - slack <= a * x <= scaled.hi + slack
    doubled, slack = iv.add(iv), 1e-9 * (1 + abs(x))
    assert doubled.lo - slack <= 2 * x <= doubled.hi + slack


def test_box_pairs_roundtrip():
    box = DomainBox.from_pairs([[-1.0, 1.0], [0.0, 2.0]])
    assert box.to_pairs() == [[-1.0, 1.0], [0.0, 2.0]]
    assert box.dimension == 2

