"""Chi-square distribution functions built on the regularized incomplete gamma.

The CDF is evaluated through the regularized lower incomplete gamma function
P(a, x), using the classic split: a power series for x < a + 1 and a
continued fraction (modified Lentz) for x >= a + 1.  The upper-tail quantile
is recovered by bisection on the CDF, which is monotone, so the inversion is
robust for any degrees of freedom and any significance level.
"""

import math
from functools import lru_cache

_EPS = 1e-16
_MAX_TERMS = 500


def regularized_gamma_p(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x) = gamma(a, x) / Gamma(a)."""
    if a <= 0.0:
        raise ValueError(f"shape parameter must be positive, got {a}")
    if x < 0.0:
        raise ValueError(f"argument must be nonnegative, got {x}")
    if x == 0.0:
        return 0.0
    if x < a + 1.0:
        return _gamma_series(a, x)
    return 1.0 - _gamma_cont_frac(a, x)


def _gamma_series(a: float, x: float) -> float:
    # P(a, x) as a power series in x, converges well for x < a + 1.
    ap = a
    term = 1.0 / a
    total = term
    for _ in range(_MAX_TERMS):
        ap += 1.0
        term *= x / ap
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _gamma_cont_frac(a: float, x: float) -> float:
    # Q(a, x) by Lentz's continued fraction, converges well for x >= a + 1.
    if x == math.inf:
        return 0.0
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_TERMS):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def chi2_cdf(x: float, df: int) -> float:
    """P(X <= x) for X chi-square distributed with df degrees of freedom."""
    _check_df(df)
    if x <= 0.0:
        return 0.0
    return regularized_gamma_p(df / 2.0, x / 2.0)


def chi2_sf(x: float, df: int) -> float:
    """Upper tail P(X > x): Q(a, x) itself where the continued fraction
    converges (x / 2 >= a + 1), so a small tail keeps its precision."""
    _check_df(df)
    return _gamma_cont_frac(df / 2.0, x / 2.0) if x >= df + 2.0 \
        else 1.0 - chi2_cdf(x, df)


@lru_cache(maxsize=128)
def chi2_quantile(df: int, alpha: float) -> float:
    """Upper-tail quantile: the q with P(X > q) = alpha, X ~ chi-square(df).

    Bisection on the CDF; absolute accuracy is well below 1e-8.  The result
    is cached per (df, alpha), since every run asks for the same few.
    """
    _check_df(df)
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"significance level must lie in (0, 1), got {alpha}")
    target = 1.0 - alpha
    lo = 0.0
    hi = max(float(df), 1.0)
    while chi2_cdf(hi, df) < target:
        hi *= 2.0
        if hi > 1e300:
            raise ValueError(f"quantile bracket overflow for alpha={alpha}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if chi2_cdf(mid, df) < target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


def _check_df(df: int) -> None:
    if df != int(df) or df < 1:
        raise ValueError(f"degrees of freedom must be a positive integer, got {df}")
