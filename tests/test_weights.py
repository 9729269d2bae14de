"""Weight-profile construction checked against independent oracles.

The closed-form segment integration is verified against adaptive
numerical quadrature of exp(p) with p evaluated by np.interp, and the
recency-equivalent profiles are verified against a directly evaluated
geometric weight formula.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from mctsopt.weights import (build_weight_table, erwa_knots,
                             feedback_weight, FEEDBACK_PROFILES)


def quadrature_weight(knots, horizon, w0, t):
    """Oracle: w(t) by adaptive quadrature of exp(p) with interpolated p."""
    grid = np.linspace(0.0, horizon, len(knots))

    def integrand(s):
        return math.exp(np.interp(s, grid, knots))

    inner = [g for g in grid if 0.0 < g < t]
    val, err = quad(integrand, 0.0, t, points=inner or None,
                    limit=400, epsabs=0.0, epsrel=1e-12)
    return w0 + val


class TestBuildWeightTable:
    def test_constant_knots_zero_is_exactly_one_plus_t(self):
        profile = build_weight_table([0.0, 0.0, 0.0], horizon=50, w0=1.0)
        assert np.array_equal(profile.table, 1.0 + np.arange(51.0))

    @pytest.mark.parametrize("c", [-3.0, -0.5, 1.25])
    def test_constant_knots_match_linear_form(self, c):
        profile = build_weight_table([c] * 4, horizon=100, w0=1.0)
        expected = 1.0 + math.exp(c) * np.arange(101.0)
        np.testing.assert_allclose(profile.table, expected, rtol=1e-12)

    def test_exponential_family(self):
        # Knots on the line log(r*a) + r*s materialize (1-a) + a*e^(r t).
        r, a = 0.05, 0.3
        horizon, m = 80, 5
        grid = np.linspace(0.0, horizon, m)
        knots = np.log(r * a) + r * grid
        profile = build_weight_table(knots, horizon, w0=1.0)
        t = np.arange(horizon + 1.0)
        np.testing.assert_allclose(profile.table, (1 - a) + a * np.exp(r * t),
                                   rtol=1e-10)

    def test_matches_quadrature_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            m = int(rng.integers(2, 8))
            horizon = int(rng.integers(5, 120))
            knots = rng.uniform(-8.0, 2.0, size=m)
            profile = build_weight_table(knots, horizon, w0=1.0)
            for t in sorted(rng.choice(horizon, size=min(4, horizon),
                                       replace=False) + 1):
                oracle = quadrature_weight(knots, horizon, 1.0, int(t))
                assert abs(profile.table[int(t)] - oracle) <= 1e-8 * abs(oracle)

    def test_strictly_increasing(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            m = int(rng.integers(2, 9))
            knots = rng.uniform(-12.0, 2.0, size=m)
            profile = build_weight_table(knots, int(rng.integers(2, 200)), w0=1.0)
            assert np.all(np.diff(profile.table) > 0)

    def test_table_starts_at_w0(self):
        profile = build_weight_table([-2.0, 1.0], horizon=10, w0=0.25)
        assert profile.table[0] == 0.25

    def test_knot_spacing_finer_than_unit_steps(self):
        # More knots than horizon steps: several segments per unit step.
        knots = [-1.0, 0.5, -2.0, 0.0, -1.5, 0.3, -0.7]
        profile = build_weight_table(knots, horizon=3, w0=1.0)
        for t in (1, 2, 3):
            oracle = quadrature_weight(knots, 3, 1.0, t)
            assert abs(profile.table[t] - oracle) <= 1e-8 * oracle

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            build_weight_table([0.0], horizon=10, w0=1.0)
        with pytest.raises(ValueError):
            build_weight_table([0.0, float("nan")], horizon=10, w0=1.0)
        with pytest.raises(ValueError):
            build_weight_table([0.0, 800.0], horizon=10, w0=1.0)
        with pytest.raises(ValueError):
            build_weight_table([0.0, 0.0], horizon=0, w0=1.0)
        with pytest.raises(ValueError):
            build_weight_table([0.0, 0.0], horizon=10, w0=-1.0)

    def test_rejects_overflowing_table(self):
        with pytest.raises(ValueError):
            build_weight_table([700.0, 700.0], horizon=20000, w0=1.0)

    def test_log_slope_interpolates_knots(self):
        knots = (-4.0, -1.0, -6.0)
        profile = build_weight_table(knots, horizon=10, w0=1.0)
        assert profile.log_slope_at(0.0) == -4.0
        assert profile.log_slope_at(5.0) == -1.0
        assert profile.log_slope_at(10.0) == -6.0
        assert profile.log_slope_at(2.5) == pytest.approx(-2.5)
        with pytest.raises(ValueError):
            profile.log_slope_at(11.0)


class TestErwaKnots:
    def test_table_matches_geometric_weights(self):
        profile = erwa_knots(0.5, m=6, horizon=60)
        for t in range(61):
            expected = 0.5 * 2.0**t
            assert abs(profile.table[t] - expected) <= 1e-9 * expected

    def test_w0_equals_alpha(self):
        assert erwa_knots(0.1, m=4, horizon=30).table[0] == pytest.approx(0.1)

    @pytest.mark.parametrize("alpha", [0.5, 0.25, 0.1, 0.01])
    def test_weights_for_all_alphas(self, alpha):
        profile = erwa_knots(alpha, m=6, horizon=100)
        t = np.arange(101.0)
        expected = alpha * (1 - alpha) ** (-t)
        np.testing.assert_allclose(profile.table, expected, rtol=1e-9)

    def test_alpha_one_rejected(self):
        with pytest.raises(ValueError):
            erwa_knots(1.0, m=4, horizon=10)
        with pytest.raises(ValueError):
            erwa_knots(0.0, m=4, horizon=10)


class TestFeedbackWeight:
    @pytest.mark.parametrize("profile", FEEDBACK_PROFILES)
    def test_endpoints(self, profile):
        assert feedback_weight(profile, 0, 800, 64.0) == 1.0
        assert feedback_weight(profile, 800, 800, 64.0) == pytest.approx(64.0)

    def test_gax_segment_weights(self):
        # Independent table: 8 uniform segments, weight 1 + j*(K-1)/7.
        horizon, k = 800, 8.0
        for j in range(8):
            t = j * horizon // 8 + 1
            assert feedback_weight("GAX", t, horizon, k) == pytest.approx(1.0 + j)

    def test_gb_uses_doubling_partition(self):
        # Segment widths 1,2,4,... scaled by N/255: first boundary at N/255.
        horizon = 255 * 4
        assert feedback_weight("GBX", 3, horizon, 8.0) == 1.0
        assert feedback_weight("GBX", 5, horizon, 8.0) == 2.0
        # Last segment covers the top half of the range.
        assert feedback_weight("GBY", horizon // 2 + 10, horizon, 64.0) == \
            pytest.approx(64.0)

    def test_geometric_profile_values(self):
        for j in range(8):
            t = j * 800 // 8 + 1
            assert feedback_weight("GAY", t, 800, 64.0) == \
                pytest.approx(64.0 ** (j / 7))

    def test_constant_within_segment(self):
        vals = {feedback_weight("GAX", t, 800, 8.0) for t in range(0, 100)}
        assert vals == {1.0}

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            feedback_weight("GZX", 0, 100, 8.0)
        with pytest.raises(ValueError):
            feedback_weight("GAX", -1, 100, 8.0)
        with pytest.raises(ValueError):
            feedback_weight("GAX", 101, 100, 8.0)
        for ratio in (1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="final_ratio must exceed 1"):
                feedback_weight("GAX", 5, 100, ratio)
        with pytest.raises(ValueError):
            feedback_weight("GAX", 0, 0, 64.0)
