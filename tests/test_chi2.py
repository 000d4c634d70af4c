import math

import pytest
from scipy import stats

from spoofguard import chi2_cdf, chi2_quantile, chi2_sf
from spoofguard.chi2 import regularized_gamma_p


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
        assert math.isnan(regularized_gamma_p(1.0, math.nan))

    def test_quantile_inverts_cdf(self):
        q = chi2_quantile(7, 0.03)
        assert chi2_sf(q, 7) == pytest.approx(0.03, abs=1e-10)


class TestRegularizedGamma:
    def test_against_scipy(self):
        from scipy.special import gammainc
        for a in (0.5, 1.0, 2.5, 10.0):
            for x in (0.1, 1.0, 5.0, 30.0):
                assert regularized_gamma_p(a, x) == pytest.approx(
                    gammainc(a, x), abs=1e-13)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            regularized_gamma_p(0.0, 1.0)
        with pytest.raises(ValueError):
            regularized_gamma_p(1.0, -1.0)
