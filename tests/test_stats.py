import math
from statistics import NormalDist

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dictatest.stats import _Z99, wilson_interval


def test_z99_is_scipy_normal_quantile():
    stats = pytest.importorskip("scipy.stats")
    assert _Z99 == float(stats.norm.ppf(0.995))


def test_z99_is_within_an_ulp_of_the_stdlib_quantile():
    assert abs(_Z99 - NormalDist().inv_cdf(0.995)) <= math.ulp(_Z99)


def textbook_wilson(accepts, trials, z):
    p = accepts / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2 * trials)) / denom
    half = (z / denom) * (p * (1.0 - p) / trials + z * z / (4.0 * trials * trials)) ** 0.5
    return center - half, center + half


@pytest.mark.parametrize("trials", [1, 2, 3, 4, 7, 10, 97, 1000, 100_000, 200_000, 10**6])
def test_wilson_matches_textbook_formula(trials):
    accepts = sorted({0, 1, trials // 3, trials // 2, trials - 1, trials})
    for a in accepts:
        low, high = textbook_wilson(a, trials, _Z99)
        # clamped into [0, 1] and onto p_hat: unclamped, 0 of 200 000 gives
        # low = 3.4e-21 and 4 of 4 gives high = 1 - 2^-53
        expected = (max(0.0, min(a / trials, low)), min(1.0, max(a / trials, high)))
        assert wilson_interval(a, trials) == expected


@given(st.integers(1, 10**9).flatmap(lambda n: st.tuples(st.integers(0, n), st.just(n))))
def test_wilson_contains_estimate_and_is_symmetric(case):
    a, n = case
    low, high = wilson_interval(a, n)
    assert 0.0 <= low <= a / n <= high <= 1.0
    mirror_low, mirror_high = wilson_interval(n - a, n)
    assert abs(low - (1.0 - mirror_high)) <= 1e-15
    assert abs(high - (1.0 - mirror_low)) <= 1e-15


@pytest.mark.parametrize("accepts, trials", [(0, 0), (0, -3), (-1, 10), (11, 10)])
def test_wilson_rejects_bad_counts(accepts, trials):
    with pytest.raises(ValueError):
        wilson_interval(accepts, trials)
