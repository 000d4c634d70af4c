import math

import numpy as np
import pytest
from scipy import stats
from scipy.special import gammainc

from spoofguard import chi2_cdf, chi2_quantile, chi2_sf

# Significance levels from 1e-300 to 0.999: the decades, then the body.
_ALPHAS = [10.0 ** -k for k in range(300, 0, -1)] + [0.05, 0.5, 0.9, 0.999]


class TestQuantile:
    # Reference values from standard chi-square tables (upper-tail quantiles),
    # cross-checked against scipy below.
    @pytest.mark.parametrize("df, alpha, expected", [
        (2, 0.01, 9.210340371976184),
        (1, 0.05, 3.841458820694124),
        (4, 0.01, 13.276704135987622),
    ])
    def test_table_values(self, df, alpha, expected):
        assert abs(chi2_quantile(df, alpha) - expected) < 1e-8

    @pytest.mark.parametrize("df", [1, 2, 3, 4, 6, 10, 25])
    @pytest.mark.parametrize("alpha", [0.001, 0.01, 0.05, 0.5, 0.9, 0.999])
    def test_against_scipy(self, df, alpha):
        assert abs(chi2_quantile(df, alpha) - stats.chi2.ppf(1 - alpha, df)) < 1e-8

    def test_df_two_closed_form(self):
        # For two degrees of freedom the upper quantile is -2 log(alpha).
        for alpha in (0.3, 0.05, 0.01, 1e-4):
            assert chi2_quantile(2, alpha) == pytest.approx(-2 * math.log(alpha), abs=1e-10)

    def test_rejects_bad_alpha(self):
        for alpha in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                chi2_quantile(2, alpha)

    def test_rejects_bad_df(self):
        with pytest.raises(ValueError):
            chi2_quantile(0, 0.05)

    def test_monotone_in_alpha(self):
        qs = [chi2_quantile(4, a) for a in (0.2, 0.1, 0.05, 0.01)]
        assert qs == sorted(qs)

    @pytest.mark.parametrize("df", range(1, 31))
    def test_against_scipy_isf_down_to_1e_300(self, df):
        # Bisection on the CDF against 1 - alpha lost precision below
        # alpha = 1e-12 and saturated below 1e-17 (82.34 for every such
        # alpha at df 4).
        for alpha in _ALPHAS:
            assert chi2_quantile(df, alpha) == pytest.approx(
                stats.chi2.isf(alpha, df), rel=1e-10), alpha

    @pytest.mark.parametrize("df", [1, 2, 4, 30])
    def test_smallest_alpha_has_a_finite_quantile(self, df):
        q = chi2_quantile(df, 5e-324)
        assert math.isfinite(q) and q >= chi2_quantile(df, 1e-300)


class TestCdf:
    @pytest.mark.parametrize("df", [1, 2, 5, 12])
    @pytest.mark.parametrize("x", [0.01, 0.5, 1.0, 3.0, 10.0, 40.0])
    def test_against_scipy(self, df, x):
        assert chi2_cdf(x, df) == pytest.approx(stats.chi2.cdf(x, df), abs=1e-12)

    def test_tails(self):
        assert chi2_cdf(0.0, 3) == 0.0
        assert chi2_cdf(-1.0, 3) == 0.0
        assert chi2_sf(0.0, 3) == 1.0
        assert chi2_sf(1e4, 3) < 1e-200

    @pytest.mark.parametrize("x, df", [(60.0, 2), (80.0, 4), (100.0, 2),
                                       (200.0, 10)])
    def test_small_upper_tail_keeps_relative_precision(self, x, df):
        # 1 - cdf loses these: 1.7e-4 and 27 % relative, then 0.0 for the
        # true 1.9e-22 and 1.6e-37.
        assert chi2_sf(x, df) == pytest.approx(stats.chi2.sf(x, df), rel=1e-10)

    @pytest.mark.parametrize("df", range(1, 11))
    @pytest.mark.parametrize("x", [1e308, math.inf])
    def test_far_tail_against_scipy(self, df, x):
        # Q(a, inf) = 0: the whole mass lies below x.
        assert chi2_cdf(x, df) == stats.chi2.cdf(x, df) == 1.0
        assert chi2_sf(x, df) == stats.chi2.sf(x, df) == 0.0

    def test_nan_stays_nan(self):
        assert math.isnan(chi2_cdf(math.nan, 2))
        assert math.isnan(chi2_sf(math.nan, 2))
        assert math.isnan(chi2_sf(math.nan, 3))

    def test_quantile_inverts_cdf(self):
        q = chi2_quantile(7, 0.03)
        assert chi2_sf(q, 7) == pytest.approx(0.03, abs=1e-10)


    def test_incomplete_gamma_grid(self):
        # P(a, x) = chi2_cdf(2x, 2a) on the half-integer shapes a chi-square
        # with integer df has.
        for a in (0.5, 1.0, 2.5, 10.0):
            for x in (0.1, 1.0, 5.0, 30.0):
                assert chi2_cdf(2 * x, int(2 * a)) == pytest.approx(
                    gammainc(a, x), abs=1e-13)

    def test_rejects_bad_df(self):
        for df in (0, -1, 2.5):
            for function in (chi2_cdf, chi2_sf):
                with pytest.raises(ValueError, match="degrees of freedom"):
                    function(1.0, df)

    def test_subnormal_x_is_below_every_mass(self):
        assert chi2_sf(5e-324, 3) == 1.0
        assert chi2_cdf(5e-324, 1) == 0.0


class TestSf:
    @pytest.mark.parametrize("df", range(1, 31))
    def test_relative_precision_against_scipy(self, df):
        # Every term of the closed form is positive, so the tail keeps its
        # relative precision down to the smallest normal numbers.
        for x in np.geomspace(1e-6, 700.0, 400):
            expected = stats.chi2.sf(x, df)
            if expected > 1e-300:
                assert chi2_sf(x, df) == pytest.approx(expected, rel=1e-12), x

    def test_underflows_to_zero_in_finite_x(self):
        assert chi2_sf(1500.0, 1) == 0.0 < chi2_sf(1400.0, 1)
