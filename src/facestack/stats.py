"""Normality and rank tests with a self-contained chi-square tail.

The chi-square survival function rests on the regularized incomplete gamma
function, computed by the usual series/continued-fraction split (series for
x < a+1, Lentz's continued fraction otherwise). Good to ~1e-12 relative in
the regime these tests live in; the test suite checks 1e-10 absolute.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DataError

_MAX_ITER = 500
_EPS = 1e-15
_TINY = 1e-300


@dataclass(frozen=True)
class StatTestResult:
    statistic: float
    p_value: float
    test: str


def _gamma_series(a, x):
    """Regularized lower incomplete gamma P(a,x) via its power series."""
    term = 1.0 / a
    total = term
    for n in range(1, _MAX_ITER):
        term *= x / (a + n)
        total += term
        if abs(term) < abs(total) * _EPS:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def _gamma_cf(a, x):
    """Regularized upper incomplete gamma Q(a,x) by continued fraction."""
    b = x + 1.0 - a
    c = 1.0 / _TINY
    d = 1.0 / b
    h = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < _TINY:
            d = _TINY
        c = b + an / c
        if abs(c) < _TINY:
            c = _TINY
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _EPS:
            break
    return h * math.exp(-x + a * math.log(x) - math.lgamma(a))


def chi2_sf(x, df):
    """Chi-square survival function P(X > x) with df degrees of freedom."""
    if df <= 0:
        raise ConfigurationError("degrees of freedom must be positive")
    if x <= 0:
        return 1.0
    a = 0.5 * df
    h = 0.5 * x
    if h < a + 1.0:
        return 1.0 - _gamma_series(a, h)
    return _gamma_cf(a, h)


def jarque_bera(samples):
    """Normality test from sample skewness and kurtosis.

    JB = n/6 * (S^2 + (K-3)^2 / 4), approximately chi-square with 2 degrees
    of freedom under normality.
    """
    x = np.asarray(samples, dtype=np.float64).ravel()
    n = len(x)
    if n < 8:
        raise DataError(f"need at least 8 samples, got {n}")
    if not np.all(np.isfinite(x)):
        raise DataError("non-finite sample value")
    centered = x - x.mean()
    m2 = np.mean(centered ** 2)
    if m2 == 0:
        raise DataError("constant sample: skewness and kurtosis undefined")
    skew = np.mean(centered ** 3) / m2 ** 1.5
    kurt = np.mean(centered ** 4) / m2 ** 2
    jb = n / 6.0 * (skew ** 2 + 0.25 * (kurt - 3.0) ** 2)
    return StatTestResult(statistic=float(jb), p_value=chi2_sf(jb, 2), test="jarque_bera")


def _ranks_with_ties(values):
    """Ranks 1..n, tied values sharing the average of their rank range, and
    the size of each run of tied values in ascending order."""
    _, run, sizes = np.unique(values, return_inverse=True, return_counts=True)
    end = np.cumsum(sizes)  # a run holds the sorted positions end - size .. end - 1
    return (0.5 * (2 * end - sizes - 1) + 1.0)[run], sizes.astype(np.float64)


def kruskal_wallis(groups):
    """Rank-based test that several groups share a distribution.

    H statistic with tie correction; p-value from chi-square with
    (number of groups - 1) degrees of freedom.
    """
    groups = [np.asarray(g, dtype=np.float64).ravel() for g in groups]
    if len(groups) < 2:
        raise ConfigurationError("need at least 2 groups")
    if any(len(g) == 0 for g in groups):
        raise DataError("empty group")
    pooled = np.concatenate(groups)
    n = len(pooled)
    if n < 5:
        raise DataError(f"need at least 5 values in total, got {n}")
    if not np.all(np.isfinite(pooled)):
        raise DataError("non-finite sample value")

    ranks, tie_sizes = _ranks_with_ties(pooled)
    h = 0.0
    offset = 0
    for g in groups:
        r = ranks[offset : offset + len(g)]
        h += r.sum() ** 2 / len(g)
        offset += len(g)
    h = 12.0 / (n * (n + 1)) * h - 3.0 * (n + 1)

    correction = 1.0 - float(np.sum(tie_sizes ** 3 - tie_sizes)) / (n ** 3 - n)
    if correction <= 0:
        # every value identical: no evidence of any difference
        return StatTestResult(statistic=0.0, p_value=1.0, test="kruskal_wallis")
    h /= correction
    h = max(h, 0.0)
    return StatTestResult(statistic=float(h), p_value=chi2_sf(h, len(groups) - 1),
                          test="kruskal_wallis")
