"""Unit tests for statistics helpers."""

import statistics

import pytest
from hypothesis import given, strategies as st

from repro.metrics import (
    jain_index,
    moving_average,
    percentile,
    summarize,
)
from repro.metrics.stats import _percentile_sorted


def test_percentile_basic():
    data = [1, 2, 3, 4, 5]
    assert percentile(data, 0) == 1
    assert percentile(data, 50) == 3
    assert percentile(data, 100) == 5


def test_percentile_interpolates():
    assert percentile([0, 10], 25) == pytest.approx(2.5)


def test_percentile_unsorted_input():
    assert percentile([5, 1, 3], 50) == 3


def test_percentile_single_sample():
    assert percentile([7.0], 99.9) == 7.0


def test_percentile_empty_raises():
    with pytest.raises(ValueError):
        percentile([], 50)


def test_percentile_out_of_range_raises():
    with pytest.raises(ValueError):
        percentile([1], 101)


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1,
                max_size=100),
       st.floats(min_value=0, max_value=100))
def test_percentile_within_sample_bounds(samples, p):
    value = percentile(samples, p)
    assert min(samples) <= value <= max(samples)


@given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=2,
                max_size=50))
def test_percentile_monotone_in_p(samples):
    values = [percentile(samples, p) for p in (10, 50, 90, 99)]
    tolerance = 1e-6 * (max(samples) + 1.0)  # FP interpolation noise
    for a, b in zip(values, values[1:]):
        assert b >= a - tolerance


def test_jain_index_uniform_is_one():
    assert jain_index([5, 5, 5, 5]) == pytest.approx(1.0)


def test_jain_index_single_hog():
    # One of N flows gets everything: index = 1/N.
    assert jain_index([10, 0, 0, 0]) == pytest.approx(0.25)


def test_jain_index_bounds():
    assert 0 < jain_index([1, 2, 3, 4]) <= 1.0


def test_jain_index_rejects_negative():
    with pytest.raises(ValueError):
        jain_index([-1, 2])


def test_jain_index_all_zero():
    assert jain_index([0, 0]) == 1.0


@given(st.lists(st.floats(min_value=0, max_value=1e9), min_size=1,
                max_size=50))
def test_jain_index_always_in_range(values):
    index = jain_index(values)
    assert 1.0 / len(values) - 1e-9 <= index <= 1.0 + 1e-9


def test_summarize_fields():
    s = summarize([1, 2, 3, 4, 5])
    assert s["count"] == 5
    assert s["min"] == 1 and s["max"] == 5
    assert s["mean"] == 3
    assert s["p50"] == 3


def test_summarize_empty_raises():
    with pytest.raises(ValueError):
        summarize([])


def test_moving_average_window():
    series = [(0.0, 0.0), (0.05, 10.0), (0.10, 20.0), (0.5, 100.0)]
    out = moving_average(series, window_s=0.1)
    assert out[0] == (0.0, 0.0)
    assert out[2][1] == pytest.approx((0.0 + 10 + 20) / 3)
    # Far-away point: window has slid past the early samples.
    assert out[3][1] == pytest.approx(100.0)


def test_moving_average_bad_window():
    with pytest.raises(ValueError):
        moving_average([(0, 1)], window_s=0)


def test_moving_average_rejects_non_monotonic_time():
    """Out-of-order timestamps used to corrupt the eviction window
    silently (the start pointer under/over-evicted); now they raise."""
    series = [(0.0, 1.0), (0.2, 2.0), (0.1, 3.0)]
    with pytest.raises(ValueError, match="non-decreasing"):
        moving_average(series, window_s=0.5)


def test_moving_average_allows_equal_timestamps():
    out = moving_average([(0.0, 2.0), (0.0, 4.0)], window_s=0.1)
    assert out[1][1] == pytest.approx(3.0)


def test_moving_average_boundary_point_exactly_window_old():
    """A sample exactly ``window_s`` old is still in the window: the
    eviction test is strict (< t - window), so the boundary point
    contributes to the average at t."""
    series = [(0.0, 10.0), (0.1, 20.0)]
    out = moving_average(series, window_s=0.1)
    assert out[1][1] == pytest.approx(15.0)  # both points: 0.0 kept
    # One epsilon past the boundary, the old point is evicted.
    series = [(0.0, 10.0), (0.1 + 1e-9, 20.0)]
    out = moving_average(series, window_s=0.1)
    assert out[1][1] == pytest.approx(20.0)


# ---------------------------------------------------------------------------
# Sorted fast path + property tests against the stdlib
# ---------------------------------------------------------------------------
@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=1,
                max_size=80),
       st.floats(min_value=0, max_value=100))
def test_percentile_sorted_fast_path_matches(samples, p):
    assert _percentile_sorted(sorted(samples), p) == percentile(samples, p)


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2,
                max_size=80))
def test_percentile_matches_statistics_quantiles(samples):
    """The linear-interpolation percentile agrees with the stdlib's
    inclusive quantiles at every interior percent point."""
    cuts = statistics.quantiles(samples, n=100, method="inclusive")
    tolerance = 1e-9 * (abs(max(samples)) + abs(min(samples)) + 1.0)
    for k in (1, 5, 25, 50, 75, 95, 99):
        assert percentile(samples, k) == pytest.approx(
            cuts[k - 1], abs=tolerance)
