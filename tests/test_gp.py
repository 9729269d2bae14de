"""GP regression against a dense naive-inverse oracle and EI against
Monte-Carlo expectation."""

import math

import numpy as np
import pytest

from mctsopt.gp import Matern52Kernel, _distances, expected_improvement, fit


def separated_points(rng, n, d, lo, hi, min_dist):
    """Random points with a minimum pairwise distance (keeps the kernel
    matrix well conditioned at zero noise).  May return fewer than n
    points if the box fills up (tight packing in low dimension)."""
    pts = [rng.uniform(lo, hi, size=d)]
    for _ in range(2000):
        if len(pts) == n:
            break
        cand = rng.uniform(lo, hi, size=d)
        if min(np.linalg.norm(cand - p) for p in pts) >= min_dist:
            pts.append(cand)
    return np.array(pts)


def dense_posterior(X, t, kernel, x_star):
    """Oracle: posterior by explicit matrix inverse, with the targets
    centred on their mean, t_mean + r^T (K + noise I)^-1 (t - t_mean)."""
    X = np.atleast_2d(X)
    ell = np.asarray(kernel.lengthscales)

    def k(a, b):
        r = np.linalg.norm((a - b) / ell)
        s = math.sqrt(5.0) * r
        return kernel.amplitude * (1 + s + 5.0 / 3.0 * r * r) * math.exp(-s)

    n = len(X)
    K = np.array([[k(X[i], X[j]) for j in range(n)] for i in range(n)])
    K += kernel.noise_var * np.eye(n)
    Kinv = np.linalg.inv(K)
    r = np.array([k(X[i], np.asarray(x_star)) for i in range(n)])
    t_mean = np.mean(t)
    mu = t_mean + r @ Kinv @ (t - t_mean)
    var = kernel.amplitude + kernel.noise_var - r @ Kinv @ r
    return mu, var


class TestKernel:
    @pytest.mark.parametrize("d", [1, 2, 6, 8, 13])
    def test_distances_equal_scipy_cdist(self, d):
        from scipy.spatial.distance import cdist

        rng = np.random.default_rng(d)
        X = rng.normal(size=(40, d)) * 3.0
        Y = rng.uniform(-10.0, -4.0, size=(500, d))
        assert np.array_equal(_distances(X, Y), cdist(X, Y))
        assert np.array_equal(_distances(X, X), cdist(X, X))

    def test_diagonal_equals_amplitude(self):
        k = Matern52Kernel(amplitude=2.5, lengthscales=(1.0, 3.0))
        assert k.matrix([0.2, -1.0], [0.2, -1.0])[0, 0] == 2.5

    def test_unit_distance_closed_form(self):
        k = Matern52Kernel(amplitude=1.0, lengthscales=(1.0,))
        expected = (1 + math.sqrt(5) + 5.0 / 3.0) * math.exp(-math.sqrt(5))
        assert k.matrix([0.0], [1.0])[0, 0] == pytest.approx(expected, rel=1e-14)

    def test_lengthscale_rescaling(self):
        k1 = Matern52Kernel(amplitude=1.0, lengthscales=(1.0,))
        k7 = Matern52Kernel(amplitude=1.0, lengthscales=(7.0,))
        assert k7.matrix([0.0], [7.0])[0, 0] == pytest.approx(
            k1.matrix([0.0], [1.0])[0, 0], rel=1e-14)

    def test_long_distance_decay(self):
        k = Matern52Kernel(amplitude=1.0, lengthscales=(1.0,))
        assert k.matrix([0.0], [50.0])[0, 0] < 1e-15

    def test_symmetry(self):
        k = Matern52Kernel(amplitude=1.3, lengthscales=(2.0, 0.5))
        a, b = [0.1, 0.2], [1.4, -0.3]
        assert k.matrix(a, b)[0, 0] == pytest.approx(k.matrix(b, a)[0, 0])

    def test_gram_matrices_are_psd(self):
        rng = np.random.default_rng(6)
        k = Matern52Kernel(amplitude=1.0, lengthscales=(1.0,) * 4)
        for _ in range(20):
            X = rng.normal(size=(12, 4))
            eigs = np.linalg.eigvalsh(k.matrix(X, X))
            assert eigs.min() > -1e-10

    def test_input_validation(self):
        k = Matern52Kernel(amplitude=1.0, lengthscales=(1.0, 1.0))
        with pytest.raises(ValueError):
            k.matrix([0.0], [1.0])
        with pytest.raises(ValueError):
            k.matrix([0.0, np.nan], [1.0, 0.0])
        with pytest.raises(ValueError):
            Matern52Kernel(amplitude=0.0, lengthscales=(1.0,))
        with pytest.raises(ValueError):
            Matern52Kernel(amplitude=1.0, lengthscales=(-1.0,))
        for noise_var in (-1.0, np.nan):
            with pytest.raises(ValueError):
                Matern52Kernel(amplitude=1.0, lengthscales=(1.0,),
                               noise_var=noise_var)


class TestFit:
    def test_one_point_solve_vector(self):
        # The one target is its own mean, so its centred value is 0.
        k = Matern52Kernel(amplitude=4.0, lengthscales=(1.0,))
        model = fit([[0.0]], [2.0], k)
        assert model.t_mean == 2.0
        assert model.solve_vec == pytest.approx([0.0])

    def test_solve_identity(self):
        rng = np.random.default_rng(1)
        X = rng.uniform(size=(12, 3))
        t = rng.normal(size=12)
        k = Matern52Kernel(amplitude=1.0, lengthscales=(1.0,) * 3)
        model = fit(X, t, k)
        K = k.matrix(X, X)
        np.testing.assert_allclose(K @ model.solve_vec, t - np.mean(t), atol=1e-8)

    def test_duplicates_rejected_without_noise(self):
        k = Matern52Kernel(amplitude=1.0, lengthscales=(1.0,))
        with pytest.raises(ValueError):
            fit([[0.0], [0.0]], [0.0, 1.0], k)
        # With noise the same data is fine.
        noisy = Matern52Kernel(amplitude=1.0, lengthscales=(1.0,), noise_var=0.1)
        fit([[0.0], [0.0]], [0.0, 1.0], noisy)

    def test_near_duplicates_use_jitter(self):
        k = Matern52Kernel(amplitude=1.0, lengthscales=(1.0,))
        X = [[0.0], [1e-9], [2e-9], [1.0]]
        # Unjittered, the kernel matrix of these inputs does not factor...
        K = k.matrix(X, X)
        np.fill_diagonal(K, k.amplitude + k.noise_var)
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.cholesky(K)
        # ...so fit succeeds only through a jittered factorization.
        model = fit(X, [0.0, 0.0, 0.0, 1.0], k)
        mu, var = model.posterior([0.5])
        assert np.isfinite(mu) and var >= 0.0


class TestPosterior:
    def test_interpolates_training_points(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(-1, 1, size=(8, 2))
        t = rng.normal(size=8)
        k = Matern52Kernel(amplitude=1.5, lengthscales=(1.0, 1.0))
        model = fit(X, t, k)
        for i in range(8):
            mu, var = model.posterior(X[i])
            assert mu == pytest.approx(t[i], abs=1e-7)
            assert var <= 1e-7

    def test_far_query_reverts_to_prior(self):
        k = Matern52Kernel(amplitude=2.0, lengthscales=(1.0,))
        t = np.array([0.7, -0.7])          # zero mean
        model = fit([[0.0], [1.0]], t, k)
        mu, var = model.posterior([80.0])
        assert abs(mu) < 1e-12
        assert var == pytest.approx(2.0, rel=1e-10)

    def test_centered_far_query_reverts_to_target_mean(self):
        k = Matern52Kernel(amplitude=1.0, lengthscales=(1.0,))
        model = fit([[0.0], [1.0]], [3.0, 5.0], k)
        mu, _ = model.posterior([90.0])
        assert mu == pytest.approx(4.0, abs=1e-10)

    def test_matches_dense_oracle(self):
        # Points keep a minimum separation so the tau^2 = 0 system stays
        # well conditioned; otherwise the naive-inverse oracle is itself
        # inaccurate and the comparison meaningless.
        rng = np.random.default_rng(3)
        for trial in range(15):
            n = int(rng.integers(2, 21))
            d = int(rng.integers(1, 7))
            X = separated_points(rng, n, d, lo=-2.0, hi=2.0, min_dist=0.2)
            n = len(X)
            t = rng.normal(size=n)
            k = Matern52Kernel(amplitude=float(rng.uniform(0.5, 3.0)),
                               lengthscales=tuple(rng.uniform(0.5, 2.0, d)),
                               noise_var=float(rng.choice([0.0, 0.01])))
            model = fit(X, t, k)
            for _ in range(5):
                x_star = rng.uniform(-2, 2, size=d)
                mu, var = model.posterior(x_star)
                mu_o, var_o = dense_posterior(X, t, k, x_star)
                assert mu == pytest.approx(mu_o, rel=1e-8, abs=1e-8)
                assert var == pytest.approx(max(var_o, 0.0), rel=1e-8, abs=1e-8)

    def test_variance_never_exceeds_prior(self):
        rng = np.random.default_rng(8)
        k = Matern52Kernel(amplitude=1.2, lengthscales=(1.0, 1.0), noise_var=0.05)
        X = rng.uniform(size=(10, 2))
        model = fit(X, rng.normal(size=10), k)
        _, var = model.posterior_batch(rng.uniform(-3, 3, size=(50, 2)))
        assert np.all(var <= 1.2 + 0.05 + 1e-10)

    def test_observation_collapses_variance(self):
        k = Matern52Kernel(amplitude=1.0, lengthscales=(1.0,))
        x = [0.3]
        before = fit([[0.0]], [0.0], k)
        _, var_before = before.posterior(x)
        after = fit([[0.0], x], [0.0, 0.5], k)
        _, var_after = after.posterior(x)
        assert var_after <= 1e-8 < var_before



class TestAcquisitions:
    def test_ei_degenerate_sigma(self):
        assert expected_improvement(0.5, 0.0, 0.5) == 0.0
        assert expected_improvement(0.7, 0.0, 0.5) == pytest.approx(0.2)

    def test_ei_at_incumbent_mean(self):
        assert expected_improvement(0.5, 1.0, 0.5) == \
            pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=1e-12)

    def test_ei_one_sigma_above(self):
        phi1 = math.exp(-0.5) / math.sqrt(2 * math.pi)
        Phi1 = 0.5 * (1 + math.erf(1 / math.sqrt(2)))
        assert expected_improvement(1.5, 1.0, 0.5) == \
            pytest.approx(Phi1 + phi1, rel=1e-12)

    def test_ei_matches_monte_carlo(self):
        rng = np.random.default_rng(31)
        for mu, sigma, f_best in [(0.0, 1.0, 0.0), (0.2, 0.5, 0.4),
                                  (-1.0, 2.0, 0.5), (1.0, 0.3, 0.0)]:
            draws = rng.normal(mu, sigma, size=1_000_000)
            gains = np.maximum(draws - f_best, 0.0)
            mc = gains.mean()
            se = gains.std() / 1000.0
            assert abs(expected_improvement(mu, sigma, f_best) - mc) <= 3 * se

    def test_ei_nonnegative_and_monotone_in_sigma(self):
        sigmas = np.linspace(0.0, 3.0, 40)
        vals = expected_improvement(np.full_like(sigmas, 0.2), sigmas, 0.5)
        assert np.all(vals >= 0.0)
        assert np.all(np.diff(vals) >= -1e-14)
