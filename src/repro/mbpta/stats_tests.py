"""Statistical admission tests used by MBPTA (paper §6.2.2).

MBPTA applies EVT, which requires the execution-time samples to be
independent and identically distributed.  The paper validates both
properties with the Ljung-Box independence test over 20 lags and the
two-sample Kolmogorov-Smirnov identical-distribution test, at the 5%
significance level.  Both tests are implemented here from their
definitions; SciPy provides only the chi-square and normal tail
probabilities, through the ``scipy.special`` ufuncs ``chdtrc`` and
``ndtr``.  These are the functions SciPy's ``chi2.sf`` and ``norm.sf``
evaluate internally, so the p-values are bit-identical to theirs
without loading the whole statistics package at import time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np
from scipy.special import chdtrc, ndtr


@dataclass(frozen=True)
class TestResult:
    """Outcome of a hypothesis test."""

    name: str
    statistic: float
    p_value: float
    alpha: float = 0.05

    @property
    def passed(self) -> bool:
        """True when the null hypothesis is *not* rejected."""
        return self.p_value >= self.alpha


def _as_array(samples: Sequence[float]) -> np.ndarray:
    data = np.asarray(samples, dtype=float)
    if data.ndim != 1:
        raise ValueError("samples must be one-dimensional")
    return data


def autocorrelations(samples: Sequence[float], max_lag: int) -> np.ndarray:
    """Sample autocorrelation coefficients r_1 .. r_max_lag."""
    data = _as_array(samples)
    n = data.size
    if max_lag >= n:
        raise ValueError(f"max_lag {max_lag} must be < sample size {n}")
    centered = data - data.mean()
    denominator = float(np.dot(centered, centered))
    if denominator == 0.0:
        # Constant series: autocorrelation undefined; report zeros so a
        # fully deterministic timing profile trivially "passes" LB (the
        # identical-distribution test is what flags such data).
        return np.zeros(max_lag)
    result = np.empty(max_lag)
    for lag in range(1, max_lag + 1):
        result[lag - 1] = float(
            np.dot(centered[:-lag], centered[lag:]) / denominator
        )
    return result


def ljung_box(samples: Sequence[float], lags: int = 20,
              alpha: float = 0.05) -> TestResult:
    """Ljung-Box portmanteau test for independence (Box & Pierce [9]).

    Tests the joint null that all autocorrelations up to ``lags`` are
    zero.  The paper uses 20 simultaneous lags, "a very strong
    independence test" (§6.2.2).
    """
    data = _as_array(samples)
    n = data.size
    if n <= lags + 1:
        raise ValueError(f"need more than {lags + 1} samples, got {n}")
    r = autocorrelations(data, lags)
    q = n * (n + 2) * float(np.sum(r * r / (n - np.arange(1, lags + 1))))
    p_value = float(chdtrc(lags, q))
    return TestResult("ljung_box", q, p_value, alpha)


def _ks_asymptotic_p_value(statistic: float, n: int, m: int) -> float:
    """Two-sided asymptotic KS p-value (Kolmogorov distribution tail)."""
    effective_n = n * m / (n + m)
    lam = (math.sqrt(effective_n) + 0.12 + 0.11 / math.sqrt(effective_n))
    lam *= statistic
    if lam <= 0:
        return 1.0
    # Kolmogorov Q-function: 2 * sum_{k>=1} (-1)^{k-1} exp(-2 k^2 lam^2).
    total = 0.0
    for k in range(1, 101):
        term = 2.0 * (-1.0) ** (k - 1) * math.exp(-2.0 * k * k * lam * lam)
        total += term
        if abs(term) < 1e-12:
            break
    return min(1.0, max(0.0, total))


def ks_two_sample(first: Sequence[float], second: Sequence[float],
                  alpha: float = 0.05) -> TestResult:
    """Two-sample Kolmogorov-Smirnov identical-distribution test.

    The paper (§6.2.2) applies it to verify the i.d. part of i.i.d.;
    typically the sample is split in two halves (see
    :meth:`repro.mbpta.analysis.MBPTAAnalysis.identical_distribution`).
    """
    a = np.sort(_as_array(first))
    b = np.sort(_as_array(second))
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be non-empty")
    everything = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, everything, side="right") / a.size
    cdf_b = np.searchsorted(b, everything, side="right") / b.size
    statistic = float(np.max(np.abs(cdf_a - cdf_b)))
    p_value = _ks_asymptotic_p_value(statistic, a.size, b.size)
    return TestResult("ks_two_sample", statistic, p_value, alpha)


def runs_test(samples: Sequence[float], alpha: float = 0.05) -> TestResult:
    """Wald-Wolfowitz runs test around the median (extra i. check)."""
    data = _as_array(samples)
    median = float(np.median(data))
    above = data > median  # ties count as "below"
    n1 = int(np.sum(above))
    n2 = int(data.size - n1)
    if n1 == 0 or n2 == 0:
        # Degenerate (e.g. constant) series: no evidence of dependence
        # from runs; report a neutral pass.
        return TestResult("runs", 0.0, 1.0, alpha)
    runs = 1 + int(np.sum(above[1:] != above[:-1]))
    expected = 1.0 + 2.0 * n1 * n2 / (n1 + n2)
    variance = (
        2.0 * n1 * n2 * (2.0 * n1 * n2 - n1 - n2)
        / ((n1 + n2) ** 2 * (n1 + n2 - 1.0))
    )
    if variance <= 0:
        return TestResult("runs", 0.0, 1.0, alpha)
    z = (runs - expected) / math.sqrt(variance)
    p_value = 2.0 * float(ndtr(-abs(z)))
    return TestResult("runs", z, p_value, alpha)
