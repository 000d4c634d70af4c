"""Chi-square distribution functions for integer degrees of freedom.

For integer df the upper tail is a finite sum (Abramowitz & Stegun,
Handbook of Mathematical Functions, 26.4.4-26.4.5): with y = x / 2,

    P(X > x) = [erfc(sqrt(y)) for odd df] + sum_j y^j e^-y / Gamma(j + 1),

j = 0 (even df) or 1/2 (odd df) stepping by 1 below df / 2.  Every term is
positive, so a small tail keeps its relative precision for any x.  The
upper-tail quantile is found by bisection on that tail, which is monotone,
so every significance level in (0, 1) gets its quantile.
"""

import math
from functools import lru_cache


def chi2_cdf(x: float, df: int) -> float:
    """P(X <= x) for X chi-square distributed with df degrees of freedom,
    as 1 - chi2_sf: accurate to about 1e-16 absolute, not relative."""
    return 1.0 - chi2_sf(x, df)


def chi2_sf(x: float, df: int) -> float:
    """Upper tail P(X > x): 1 for x <= 0, 0 at inf and NaN for NaN."""
    _check_df(df)
    y = 0.5 * x
    if y <= 0.0:        # x <= 0, or a subnormal x whose half underflows
        return 1.0
    if y == math.inf:
        return 0.0
    log_y = math.log(y)
    j0 = 0.5 * (df % 2)
    terms = [math.exp((j0 + i) * log_y - y - math.lgamma(j0 + i + 1.0))
             for i in range(df // 2)]
    if df % 2:
        terms.append(math.erfc(math.sqrt(y)))
    return math.fsum(terms)


@lru_cache(maxsize=128)
def chi2_quantile(df: int, alpha: float) -> float:
    """Upper-tail quantile: the q with P(X > q) = alpha, X ~ chi-square(df).

    Bisection on the tail to 1e-12 relative.  The result is cached per
    (df, alpha), since every run asks for the same few.
    """
    _check_df(df)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"significance level must lie in (0, 1), got {alpha}")
    lo = 0.0
    hi = max(float(df), 1.0)
    # The tail underflows to 0 within finite x, so the bracket closes.
    while chi2_sf(hi, df) > alpha:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if chi2_sf(mid, df) > alpha:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * hi:
            break
    return 0.5 * (lo + hi)


def _check_df(df: int) -> None:
    if df != int(df) or df < 1:
        raise ValueError(f"degrees of freedom must be a positive integer, got {df}")
