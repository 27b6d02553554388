import numpy as np
import pytest
from scipy import special as ssp
from scipy import stats as ss

from facestack import ConfigurationError, DataError, chi2_sf, jarque_bera, kruskal_wallis
from facestack.stats import StatTestResult, _ranks_with_ties


def test_chi2_sf_matches_scipy():
    for df in (1, 2, 3, 5, 10):
        for x in (0.0, 0.01, 0.5, 1.0, 3.84, 6.63, 20.0, 80.0):
            assert chi2_sf(x, df) == pytest.approx(float(ss.chi2.sf(x, df)), abs=1e-10)


def test_jarque_bera_matches_scipy():
    rng = np.random.default_rng(1)
    for n in (50, 500, 5000):
        x = rng.standard_normal(n) + rng.exponential(size=n) * 0.2
        got = jarque_bera(x)
        want = ss.jarque_bera(x)
        assert got.statistic == pytest.approx(float(want.statistic), rel=1e-9)
        assert got.p_value == pytest.approx(float(want.pvalue), abs=1e-9)
        assert got.test == "jarque_bera"


def test_jarque_bera_simulation_behaviour():
    rng = np.random.default_rng(2)
    normal_ok = sum(jarque_bera(rng.standard_normal(10_000)).p_value > 0.01
                    for _ in range(20))
    assert normal_ok >= 19
    assert jarque_bera(rng.exponential(size=10_000)).p_value < 0.01


def test_jarque_bera_guards():
    with pytest.raises(DataError):
        jarque_bera([1.0, 2.0, 3.0])  # n < 8
    with pytest.raises(DataError):
        jarque_bera([5.0] * 20)  # zero variance
    with pytest.raises(DataError):
        jarque_bera([1.0, np.nan, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0])


def test_kruskal_wallis_published_machines_example():
    # worked example from Kruskal & Wallis (1952), section 7: H=5.656, P~0.059
    a = [340, 345, 330, 342, 338]
    b = [339, 333, 344]
    c = [347, 343, 349, 355]
    r = kruskal_wallis([a, b, c])
    assert r.statistic == pytest.approx(5.6564, abs=1e-3)
    assert r.p_value == pytest.approx(0.0591, abs=1e-3)
    assert r.test == "kruskal_wallis"


def test_kruskal_wallis_hand_example():
    r = kruskal_wallis([[1, 2, 3, 4, 5], [10, 11, 12, 13, 14]])
    # ranks 1..5 vs 6..10 give H = 12/(10*11) * (5*2.5^2 + 5*2.5^2)
    assert r.statistic == pytest.approx(6.818181818, rel=1e-9)
    assert r.p_value == pytest.approx(0.009023, abs=1e-5)
    assert r.p_value < 0.01


def test_kruskal_wallis_matches_scipy_with_ties():
    rng = np.random.default_rng(3)
    for _ in range(20):
        groups = [np.round(rng.normal(loc, 1, rng.integers(5, 20)), 1)
                  for loc in (0.0, 0.3, 0.8)]
        got = kruskal_wallis(groups)
        want = ss.kruskal(*groups)
        assert got.statistic == pytest.approx(float(want.statistic), rel=1e-9)
        assert got.p_value == pytest.approx(float(want.pvalue), abs=1e-9)


def test_kruskal_wallis_identical_groups():
    r = kruskal_wallis([[1, 2, 3], [1, 2, 3]])
    assert r.statistic == 0.0
    assert r.p_value == 1.0


def test_kruskal_wallis_monotone_invariance():
    rng = np.random.default_rng(4)
    groups = [rng.normal(0, 1, 12), rng.normal(0.5, 1, 9), rng.normal(1, 1, 15)]
    base = kruskal_wallis(groups).statistic
    warped = kruskal_wallis([np.exp(g) for g in groups]).statistic
    assert warped == pytest.approx(base, rel=1e-12)


def test_kruskal_wallis_guards():
    with pytest.raises(ConfigurationError):
        kruskal_wallis([[1.0, 2.0]])  # fewer than 2 groups
    with pytest.raises(DataError):
        kruskal_wallis([[1.0, 2.0], []])
    with pytest.raises(DataError):
        kruskal_wallis([[1.0], [2.0], [3.0]])  # total n < 5


def test_result_type():
    r = kruskal_wallis([[1, 2, 3], [4, 5, 6]])
    assert isinstance(r, StatTestResult)
    assert r.statistic >= 0
    assert 0.0 <= r.p_value <= 1.0


@pytest.mark.parametrize("seed", range(6))
def test_ranks_with_ties_equal_scipy_rankdata(seed):
    rng = np.random.default_rng(seed)
    values = rng.integers(0, 4 + 3 * seed, 12 + 9 * seed).astype(np.float64)
    if seed % 2:
        values = np.concatenate([values, rng.normal(size=7), [-0.0, 0.0]])
    ranks, tie_sizes = _ranks_with_ties(values)
    assert ranks.dtype == np.float64 and tie_sizes.dtype == np.float64
    assert ranks.tobytes() == ss.rankdata(values).tobytes()
    distinct = sorted(set(values.tolist()))
    assert tie_sizes.tolist() == [float(np.sum(values == v)) for v in distinct]
