"""Unit tests for the flow-size distributions (Fig. 23 workloads)."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.workloads.traces import (
    DATA_MINING_CDF,
    WEB_SEARCH_CDF,
    FlowSizeDistribution,
    data_mining,
    web_search,
)


def test_published_cdfs_are_wellformed():
    for cdf in (WEB_SEARCH_CDF, DATA_MINING_CDF):
        sizes = [s for s, _ in cdf]
        probs = [p for _, p in cdf]
        assert sizes == sorted(sizes)
        assert probs == sorted(probs)
        assert probs[0] == 0.0 and probs[-1] == 1.0


def test_quantile_endpoints():
    dist = web_search()
    assert dist.quantile(0.0) == 1_000
    assert dist.quantile(1.0) == 20_000_000


def test_quantile_monotone():
    dist = data_mining()
    values = [dist.quantile(u / 20) for u in range(21)]
    assert values == sorted(values)


@given(st.floats(min_value=0.0, max_value=1.0))
def test_quantile_within_support(u):
    dist = web_search()
    assert 1_000 <= dist.quantile(u) <= 20_000_000


def test_quantile_rejects_out_of_range():
    with pytest.raises(ValueError):
        web_search().quantile(1.5)


def test_scale_shrinks_proportionally():
    full = web_search()
    tenth = web_search(scale=0.1)
    assert tenth.quantile(0.5) == pytest.approx(full.quantile(0.5) * 0.1,
                                                rel=0.01)


def test_cap_truncates_tail_only():
    capped = web_search(max_bytes=100_000)
    assert capped.quantile(1.0) == 100_000
    # The mice region is untouched by the cap.
    assert capped.quantile(0.3) == web_search().quantile(0.3)


def test_sampling_is_deterministic_per_seed():
    dist = data_mining()
    a = [dist.sample(random.Random(5)) for _ in range(1)]
    b = [dist.sample(random.Random(5)) for _ in range(1)]
    assert a == b


def test_sample_distribution_matches_cdf():
    """Half of data-mining flows are <= ~1 KB (its defining property)."""
    dist = data_mining()
    rng = random.Random(11)
    samples = [dist.sample(rng) for _ in range(5000)]
    small = sum(1 for s in samples if s <= 1_100)
    assert 0.45 <= small / len(samples) <= 0.55


def test_data_mining_tail_heavier_than_web_search():
    assert data_mining().quantile(0.999) > web_search().quantile(0.999)


def test_mean_estimate_reasonable():
    dist, rng = web_search(), random.Random(7)
    mean = sum(dist.sample(rng) for _ in range(5000)) / 5000
    # Web-search mean is dominated by the elephant tail: O(1 MB).
    assert 100_000 < mean < 5_000_000


def test_custom_cdf_validation():
    with pytest.raises(ValueError):
        FlowSizeDistribution([(100, 0.0)])                 # too few points
    with pytest.raises(ValueError):
        FlowSizeDistribution([(100, 0.2), (200, 1.0)])     # no p=0
    with pytest.raises(ValueError):
        FlowSizeDistribution([(200, 0.0), (100, 1.0)])     # unsorted sizes
    with pytest.raises(ValueError):
        FlowSizeDistribution([(100, 0.0), (200, 1.0)], scale=0)
