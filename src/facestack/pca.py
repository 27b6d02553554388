"""Plain PCA used as the pixel-baseline feature reducer."""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DataError


@dataclass(frozen=True)
class PcaModel:
    mean: np.ndarray         # (d,)
    components: np.ndarray   # (k, d) rows are principal axes
    eigenvalues: np.ndarray  # (k,) descending sample variances along each axis

    def transform(self, X):
        X = np.asarray(X, dtype=np.float64)
        one = X.ndim == 1
        if one:
            X = X[None, :]
        if X.shape[1] != self.mean.shape[0]:
            raise DataError(f"expected {self.mean.shape[0]} dims, got {X.shape[1]}")
        Y = (X - self.mean) @ self.components.T
        return Y[0] if one else Y


def _fix_signs(components):
    # make the largest-magnitude coordinate of each axis positive so the
    # decomposition does not depend on eigensolver sign conventions
    idx = np.abs(components).argmax(axis=1)
    signs = np.sign(components[np.arange(components.shape[0]), idx])
    signs[signs == 0] = 1.0
    return components * signs[:, None]


def pca_fit(X, n_components):
    """Fit PCA on rows of X keeping at most min(n-1, d) components.

    Covariance eigendecomposition when dims <= samples, otherwise the Gram
    matrix of centered rows (same nonzero spectrum, far smaller problem).
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise DataError("expected a 2-D sample matrix")
    n, d = X.shape
    if n < 2:
        raise DataError("PCA needs at least 2 samples")
    if n_components < 1:
        raise ConfigurationError("n_components must be positive")
    k = min(n_components, n - 1, d)
    mean = X.mean(axis=0)
    Xc = X - mean

    evals, evecs = np.linalg.eigh(((Xc.T @ Xc) if d <= n else (Xc @ Xc.T)) / (n - 1))
    order = np.argsort(evals)[::-1][:k]
    evecs = evecs[:, order]
    components = evecs.T
    if d > n:
        # lift Gram eigenvectors back to feature space and normalize
        components = (Xc.T @ evecs).T
        norms = np.linalg.norm(components, axis=1)
        norms[norms == 0] = 1.0
        components = components / norms[:, None]
    eigenvalues = np.maximum(evals[order], 0.0)
    return PcaModel(mean=mean, components=_fix_signs(np.ascontiguousarray(components)),
                    eigenvalues=eigenvalues)
