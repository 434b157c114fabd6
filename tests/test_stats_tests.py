"""Tests for the Ljung-Box / KS / runs statistical tests, validated
against distributions with known properties and scipy references."""

import numpy as np
import pytest
from scipy import stats as scipy_stats

from repro.mbpta import stats_tests
from repro.mbpta.stats_tests import (
    autocorrelations,
    ks_two_sample,
    ljung_box,
    runs_test,
)


RNG = np.random.default_rng(1234)


class TestAutocorrelations:
    def test_white_noise_near_zero(self):
        data = RNG.normal(size=5000)
        r = autocorrelations(data, 10)
        assert np.all(np.abs(r) < 0.05)

    def test_ar1_positive_lag1(self):
        noise = RNG.normal(size=5000)
        data = np.empty(5000)
        data[0] = noise[0]
        for i in range(1, 5000):
            data[i] = 0.8 * data[i - 1] + noise[i]
        r = autocorrelations(data, 3)
        assert r[0] > 0.7
        assert r[1] > r[2] > 0.3

    def test_constant_series_zero(self):
        assert np.all(autocorrelations(np.ones(100), 5) == 0)

    def test_lag_bound(self):
        with pytest.raises(ValueError):
            autocorrelations(np.arange(10.0), 10)


class TestLjungBox:
    def test_iid_passes(self):
        data = RNG.normal(size=2000)
        result = ljung_box(data, lags=20)
        assert result.passed
        assert result.p_value > 0.05

    def test_autocorrelated_fails(self):
        noise = RNG.normal(size=2000)
        data = np.empty(2000)
        data[0] = noise[0]
        for i in range(1, 2000):
            data[i] = 0.5 * data[i - 1] + noise[i]
        result = ljung_box(data, lags=20)
        assert not result.passed

    def test_false_positive_rate_near_alpha(self):
        """Under the null, rejections happen at roughly the alpha rate."""
        rng = np.random.default_rng(7)
        rejections = sum(
            not ljung_box(rng.normal(size=300), lags=20).passed
            for _ in range(200)
        )
        assert rejections < 0.15 * 200

    def test_statistic_positive(self):
        result = ljung_box(RNG.normal(size=500))
        assert result.statistic >= 0

    def test_needs_enough_samples(self):
        with pytest.raises(ValueError):
            ljung_box(np.arange(10.0), lags=20)


class TestKSTwoSample:
    def test_same_distribution_passes(self):
        a = RNG.normal(size=1500)
        b = RNG.normal(size=1500)
        assert ks_two_sample(a, b).passed

    def test_shifted_distribution_fails(self):
        a = RNG.normal(size=1500)
        b = RNG.normal(loc=0.5, size=1500)
        assert not ks_two_sample(a, b).passed

    def test_statistic_matches_scipy(self):
        a = RNG.normal(size=400)
        b = RNG.normal(size=600)
        ours = ks_two_sample(a, b)
        reference = scipy_stats.ks_2samp(a, b)
        assert ours.statistic == pytest.approx(reference.statistic, abs=1e-12)

    def test_p_value_close_to_scipy_asymptotic(self):
        a = RNG.normal(size=500)
        b = RNG.normal(size=500)
        ours = ks_two_sample(a, b)
        reference = scipy_stats.ks_2samp(a, b, method="asymp")
        assert ours.p_value == pytest.approx(reference.pvalue, abs=0.05)

    def test_identical_samples_statistic_zero(self):
        a = np.arange(100.0)
        result = ks_two_sample(a, a)
        assert result.statistic == 0.0
        assert result.p_value == pytest.approx(1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            ks_two_sample([], [1.0])


class TestRunsTest:
    def test_random_passes(self):
        assert runs_test(RNG.normal(size=1000)).passed

    def test_alternating_fails(self):
        data = np.array([0.0, 1.0] * 300)
        assert not runs_test(data).passed

    def test_blocked_fails(self):
        data = np.concatenate([np.zeros(300), np.ones(300)])
        assert not runs_test(data).passed

    def test_constant_neutral(self):
        result = runs_test(np.ones(100))
        assert result.passed


class TestTestResult:
    def test_passed_respects_alpha(self):
        from repro.mbpta.stats_tests import TestResult

        assert TestResult("x", 0.0, 0.06, alpha=0.05).passed
        assert not TestResult("x", 0.0, 0.04, alpha=0.05).passed


def _ar1(rng, phi, size):
    noise = rng.normal(size=size)
    data = np.empty(size)
    data[0] = noise[0]
    for i in range(1, size):
        data[i] = phi * data[i - 1] + noise[i]
    return data


class TestPValuesBitExactAgainstScipyStats:
    """The ``scipy.special`` p-values equal ``scipy.stats``' exactly.

    ``ljung_box`` and ``runs_test`` evaluate ``chdtrc`` and ``ndtr``;
    these tests pin them to ``chi2.sf`` / ``norm.sf`` with ``==``, not
    approx, so MBPTA admission verdicts (and every golden payload
    carrying a p-value) cannot move.
    """

    @pytest.mark.parametrize("lags", range(1, 41))
    def test_ljung_box_seeded_series(self, lags):
        rng = np.random.default_rng(1000 + lags)
        for phi in (0.0, 0.05, 0.15, 0.3, 0.6, 0.95):
            for size in (lags + 2, 120, 600):
                result = ljung_box(_ar1(rng, phi, size), lags=lags)
                expected = float(
                    scipy_stats.chi2.sf(result.statistic, df=lags)
                )
                assert result.p_value == expected

    def test_ljung_box_constant_series_q_zero(self):
        result = ljung_box(np.ones(64), lags=20)
        assert result.statistic == 0.0
        assert result.p_value == float(scipy_stats.chi2.sf(0.0, df=20))
        assert result.p_value == 1.0

    def test_ljung_box_ramp_huge_q(self):
        result = ljung_box(np.arange(5000.0), lags=40)
        assert result.statistic > 1e5
        assert result.p_value == float(
            scipy_stats.chi2.sf(result.statistic, df=40)
        )

    @pytest.mark.parametrize("target_q", [1e-300, 1e-10, 1e6, 1e300])
    @pytest.mark.parametrize("lags", [1, 20, 40])
    def test_ljung_box_q_edge_values(self, monkeypatch, target_q, lags):
        # Real autocorrelations are bounded, so feed ljung_box crafted
        # ones that put its statistic q at the edge being probed.
        n = 100
        weights = 1.0 / (n - np.arange(1, lags + 1))
        r_squared = target_q / (n * (n + 2) * float(np.sum(weights)))
        monkeypatch.setattr(
            stats_tests, "autocorrelations",
            lambda data, max_lag: np.full(max_lag, np.sqrt(r_squared)),
        )
        result = ljung_box(np.zeros(n), lags=lags)
        assert result.statistic == pytest.approx(target_q, rel=1e-9, abs=0)
        assert result.p_value == float(
            scipy_stats.chi2.sf(result.statistic, df=lags)
        )

    @pytest.mark.parametrize("seed", range(10))
    def test_runs_test_seeded_series(self, seed):
        rng = np.random.default_rng(2000 + seed)
        series = [
            rng.normal(size=rng.integers(3, 2000)),
            _ar1(rng, 0.7, 500),
            _ar1(rng, -0.7, 500),
            np.repeat(rng.normal(size=50), rng.integers(1, 20)),
            rng.integers(0, 3, size=400).astype(float),
        ]
        for data in series:
            result = runs_test(data)
            expected = 2.0 * float(scipy_stats.norm.sf(abs(result.statistic)))
            assert result.p_value == expected

    @pytest.mark.parametrize("data", [
        np.array([0.0, 1.0] * 300),
        np.array([0.0, 1.0] * 20000),
        np.concatenate([np.zeros(300), np.ones(300)]),
        np.array([0.0, 1.0, 0.0]),
    ], ids=["alternating", "alternating-huge-z", "blocked", "tiny"])
    def test_runs_test_extreme_z(self, data):
        result = runs_test(data)
        expected = 2.0 * float(scipy_stats.norm.sf(abs(result.statistic)))
        assert result.p_value == expected
