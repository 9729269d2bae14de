"""Gaussian-process regression with a Matern 5/2 kernel.

Exact posterior via Cholesky factorization with escalating jitter, plus
the expected-improvement acquisition the optimizer maximizes.  Everything is
immutable after fitting; fit and posterior are pure functions, so models
can be shared freely across threads.  scipy.linalg and scipy.special are
imported inside the functions that call them, so importing the package
does not load them; distances are computed in numpy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_SQRT5 = np.sqrt(5.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)
_JITTERS = (0.0, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6)


def _distances(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Euclidean distances between the rows of X and Y, squares summed one
    dimension at a time in order as scipy's cdist sums them, so bit-identical
    to it (a pairwise ``sum`` over the last axis is not)."""
    s = np.zeros((len(X), len(Y)))
    for k in range(X.shape[1]):
        d = X[:, k, None] - Y[None, :, k]
        s = s + d * d
    return np.sqrt(s)


class ConditioningError(RuntimeError):
    """Kernel matrix stayed indefinite after maximum jitter."""


@dataclass(frozen=True)
class Matern52Kernel:
    """Matern 5/2 covariance with per-dimension lengthscales.

    k(x, y) = amplitude * (1 + sqrt(5) r + 5/3 r^2) exp(-sqrt(5) r) with
    r the Euclidean distance after dividing each coordinate by its
    lengthscale; noise_var is the observation noise added on the
    diagonal.
    """

    amplitude: float
    lengthscales: tuple[float, ...]
    noise_var: float = 0.0

    def __post_init__(self):
        if not self.amplitude > 0:
            raise ValueError("amplitude must be positive")
        if any(not l > 0 for l in self.lengthscales):
            raise ValueError("lengthscales must be positive")
        if not self.noise_var >= 0:
            raise ValueError("noise variance must be non-negative")

    def _scaled(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != len(self.lengthscales):
            raise ValueError(
                f"expected {len(self.lengthscales)} dims, got {X.shape[1]}")
        if not np.all(np.isfinite(X)):
            raise ValueError("inputs must be finite")
        return X / np.asarray(self.lengthscales)

    def matrix(self, X, Y) -> np.ndarray:
        """Cross-covariance matrix k(X, Y) without noise."""
        r = _distances(self._scaled(X), self._scaled(Y))
        s = _SQRT5 * r
        return self.amplitude * (1.0 + s + (5.0 / 3.0) * r * r) * np.exp(-s)


class GPModel:
    """Fitted Gaussian process; query with posterior()."""

    def __init__(self, X: np.ndarray, t: np.ndarray, kernel: Matern52Kernel,
                 t_mean: float, factor, solve_vec: np.ndarray):
        self.X = X
        self.t = t
        self.kernel = kernel
        self.t_mean = t_mean
        self._factor = factor
        self.solve_vec = solve_vec

    @property
    def n(self) -> int:
        return len(self.t)

    def posterior(self, x_star) -> tuple[float, float]:
        """Posterior mean and variance of the observation at one point."""
        mu, var = self.posterior_batch(np.atleast_2d(x_star))
        return float(mu[0]), float(var[0])

    def posterior_batch(self, X_star) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized posterior over rows of X_star.

        Variance is the predictive variance of a new observation,
        k(x*, x*) + noise - r^T K^-1 r, clamped at zero from below.
        """
        from scipy.linalg import cho_solve

        R = self.kernel.matrix(self.X, X_star)
        mu = self.t_mean + R.T @ self.solve_vec
        V = cho_solve(self._factor, R)
        prior = self.kernel.amplitude + self.kernel.noise_var
        var = prior - np.einsum("ij,ij->j", R, V)
        return mu, np.maximum(var, 0.0)


def fit(X, t, kernel: Matern52Kernel) -> GPModel:
    """Fit an exact GP to inputs X (n x d) and targets t (n).

    Targets are centered by their mean, which is added back in posterior
    predictions, so far from the data the posterior reverts to it.
    Factorization retries with jitter escalating to 1e-6 before giving up
    with a ConditioningError.
    """
    from scipy.linalg import cho_factor, cho_solve

    X = np.atleast_2d(np.asarray(X, dtype=float))
    t = np.asarray(t, dtype=float).ravel()
    if len(X) != len(t):
        raise ValueError("X and t length mismatch")
    if len(t) < 1:
        raise ValueError("need at least one observation")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(t))):
        raise ValueError("inputs and targets must be finite")
    if kernel.noise_var == 0.0 and len(X) > 1:
        diffs = _distances(X, X)
        np.fill_diagonal(diffs, np.inf)
        if np.min(diffs) == 0.0:
            raise ValueError("duplicate inputs need a positive noise variance")

    t_mean = float(np.mean(t))
    K = kernel.matrix(X, X)
    np.fill_diagonal(K, kernel.amplitude + kernel.noise_var)
    last_exc = None
    for jitter in _JITTERS:
        try:
            factor = cho_factor(K + jitter * np.eye(len(X)), lower=True)
        except np.linalg.LinAlgError as exc:
            last_exc = exc
            continue
        solve_vec = cho_solve(factor, t - t_mean)
        return GPModel(X, t, kernel, t_mean, factor, solve_vec)
    raise ConditioningError(
        f"kernel matrix not positive definite even with jitter {_JITTERS[-1]}"
    ) from last_exc


def expected_improvement(mu, sigma, f_best):
    """E[max(f - f_best, 0)] for f ~ N(mu, sigma^2).

    Closed form sigma * (g * Phi(g) + phi(g)) with g = (mu - f_best) / sigma;
    at sigma = 0 it degenerates to max(mu - f_best, 0).  Works on scalars
    and arrays.
    """
    from scipy.special import ndtr

    mu = np.asarray(mu, dtype=float)
    sigma = np.asarray(sigma, dtype=float)
    improve = mu - f_best
    with np.errstate(divide="ignore", invalid="ignore"):
        g = np.where(sigma > 0, improve / np.where(sigma > 0, sigma, 1.0), 0.0)
    phi = _INV_SQRT_2PI * np.exp(-0.5 * g * g)
    ei = np.where(sigma > 0, sigma * (g * ndtr(g) + phi), np.maximum(improve, 0.0))
    return float(ei) if ei.ndim == 0 else ei
