"""Interval estimates for Monte Carlo acceptance counts."""

from __future__ import annotations

# Φ^{-1}(0.995), the two-sided 99% normal quantile, as the double the reports
# were first computed with (tests/test_stats.py pins it).  The exact quantile
# is 0.85 ulp higher and statistics.NormalDist().inv_cdf(0.995) 1 ulp lower;
# either would move the interval ends in the last digit.
_Z99 = 2.5758293035489004


def wilson_interval(accepts: int, trials: int) -> tuple[float, float]:
    """99% Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    if not 0 <= accepts <= trials:
        raise ValueError(f"accepts must be in [0, {trials}], got {accepts}")
    z = _Z99
    p_hat = accepts / trials
    denom = 1.0 + z * z / trials
    center = (p_hat + z * z / (2 * trials)) / denom
    half = (z / denom) * (
        p_hat * (1.0 - p_hat) / trials + z * z / (4.0 * trials * trials)
    ) ** 0.5
    # The exact interval contains p_hat, but at accepts = 0 or trials rounding
    # can leave an end an ulp past it (low = 3.4e-21 at 0 of 200 000).
    low = max(0.0, min(p_hat, center - half))
    high = min(1.0, max(p_hat, center + half))
    return low, high
