import numpy as np
import pytest

import oracles
from facestack import ConfigurationError, DataError, pca_fit


def test_components_orthonormal():
    rng = np.random.default_rng(0)
    X = rng.normal(0, 1, (40, 12))
    m = pca_fit(X, 5)
    assert m.components.shape == (5, 12)
    np.testing.assert_allclose(m.components @ m.components.T, np.eye(5), atol=1e-10)
    assert (np.diff(m.eigenvalues) <= 1e-12).all()  # descending variance
    assert (m.eigenvalues >= 0).all()


def test_recovers_dominant_direction():
    rng = np.random.default_rng(1)
    direction = np.array([3.0, 4.0]) / 5.0
    X = rng.normal(0, 4, (300, 1)) * direction + rng.normal(0, 0.05, (300, 2))
    m = pca_fit(X, 1)
    assert abs(float(m.components[0] @ direction)) > 0.999


def test_transform_centers_data():
    rng = np.random.default_rng(2)
    X = rng.normal(7, 2, (30, 6))
    m = pca_fit(X, 3)
    Z = m.transform(X)
    assert Z.shape == (30, 3)
    np.testing.assert_allclose(Z.mean(axis=0), 0.0, atol=1e-9)
    # sample variance along component i equals its eigenvalue
    np.testing.assert_allclose(Z.var(axis=0, ddof=1), m.eigenvalues[:3], rtol=1e-6)
    single = m.transform(X[4])
    np.testing.assert_allclose(single, Z[4])


def test_reconstruction_improves_with_k():
    rng = np.random.default_rng(3)
    X = rng.normal(0, 1, (50, 10)) @ rng.normal(0, 1, (10, 10))
    errs = []
    for k in (1, 3, 6, 9):
        m = pca_fit(X, k)
        Z = m.transform(X)
        back = Z @ m.components + m.mean
        errs.append(float(((X - back) ** 2).sum()))
    assert errs == sorted(errs, reverse=True)
    assert errs[-1] < errs[0] / 2


def test_sign_convention_deterministic():
    rng = np.random.default_rng(4)
    X = rng.normal(0, 1, (25, 8))
    a = pca_fit(X, 4)
    b = pca_fit(-X + 2 * X.mean(axis=0), 4)  # mirrored data, same covariance
    np.testing.assert_allclose(a.components, b.components, atol=1e-9)
    # largest-magnitude coordinate of every component is positive
    for comp in a.components:
        assert comp[np.argmax(np.abs(comp))] > 0


def test_gram_fallback_matches_covariance_path():
    rng = np.random.default_rng(5)
    # d > n forces the gram-matrix route; compare against the covariance
    # route on the same data padded with enough duplicate rows
    X = rng.normal(0, 1, (12, 30))
    m = pca_fit(X, 6)
    assert m.components.shape == (6, 30)
    np.testing.assert_allclose(m.components @ m.components.T, np.eye(6), atol=1e-9)
    C = np.cov(X, rowvar=False)
    evals = np.linalg.eigvalsh(C)[::-1]
    np.testing.assert_allclose(m.eigenvalues[:6], evals[:6], atol=1e-9)
    # components diagonalize the covariance
    proj = m.components @ C @ m.components.T
    np.testing.assert_allclose(proj, np.diag(m.eigenvalues[:6]), atol=1e-9)


def test_k_clipped_to_rank_budget():
    rng = np.random.default_rng(6)
    X = rng.normal(0, 1, (5, 20))
    m = pca_fit(X, 50)
    assert m.components.shape[0] == 4  # n-1 at most


def test_errors():
    rng = np.random.default_rng(7)
    with pytest.raises(DataError):
        pca_fit(rng.normal(0, 1, (1, 5)), 1)
    with pytest.raises(ConfigurationError):
        pca_fit(rng.normal(0, 1, (10, 5)), 0)
    m = pca_fit(rng.normal(0, 1, (10, 5)), 2)
    with pytest.raises(DataError):
        m.transform(np.zeros((3, 4)))


@pytest.mark.parametrize("n, d, k", [(40, 12, 5), (30, 30, 40), (12, 30, 6), (80, 1475, 50),
                                     (5, 20, 50), (60, 8, 8)])
def test_fit_equals_the_two_branch_reference_bit_for_bit(n, d, k):
    # one eigh on the smaller Gram matrix, with a lift for d > n, against
    # the covariance and Gram routes written out separately
    X = np.random.default_rng(n * d + k).normal(3, 2, (n, d))
    m = pca_fit(X, k)
    mean, components, eigenvalues = oracles.ref_pca_fit(X, k)
    assert oracles.same_bits(m.mean, mean)
    assert oracles.same_bits(m.components, components)
    assert oracles.same_bits(m.eigenvalues, eigenvalues)
