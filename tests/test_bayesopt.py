"""Optimization loop: proposal quality, determinism, efficacy."""

import numpy as np
import pytest

from mctsopt import bayesopt
from mctsopt.bayesopt import (OptimizeConfig, bayesopt_loop, fit_surrogate,
                              propose_next, random_search)
from mctsopt.gp import expected_improvement
from mctsopt.seeds import derive


def quadratic_with_noise(center, sd, seed):
    rng = np.random.Generator(np.random.Philox(key=derive(seed, "obj")))

    def objective(x):
        return float(-np.sum((np.asarray(x) - center) ** 2)
                     + rng.normal(0.0, sd))

    return objective


class TestConfigValidation:
    def test_rejects_bad_settings(self):
        good = dict(lo=0.0, hi=1.0, m=1, n_init=2, n_iter=4, noise_var=1e-4)
        OptimizeConfig(**good)
        with pytest.raises(ValueError):
            OptimizeConfig(lo=1.0, hi=1.0, m=1, noise_var=1e-4)
        for lo, hi in ((float("nan"), 1.0), (0.0, float("nan")),
                       (float("-inf"), 1.0), (0.0, float("inf"))):
            with pytest.raises(ValueError):
                OptimizeConfig(lo=lo, hi=hi, m=1, noise_var=1e-4)
        with pytest.raises(ValueError):
            OptimizeConfig(lo=0.0, hi=1.0, m=0, noise_var=1e-4)
        with pytest.raises(ValueError):
            OptimizeConfig(lo=0.0, hi=1.0, m=1, n_init=1, noise_var=1e-4)
        with pytest.raises(ValueError):
            OptimizeConfig(lo=0.0, hi=1.0, m=1, n_init=8, n_iter=4,
                           noise_var=1e-4)
        for noise_var in (-1.0, float("nan")):
            with pytest.raises(ValueError):
                OptimizeConfig(lo=0.0, hi=1.0, m=1, noise_var=noise_var)


class TestProposeNext:
    def setup_model(self):
        config = OptimizeConfig(lo=0.0, hi=1.0, m=1, n_init=2, n_iter=10,
                                noise_var=1e-6, seed=5)
        model = fit_surrogate([[0.0], [1.0]], [0.0, 1.0], config)
        return config, model

    def test_identical_candidates_returned(self):
        # The proposal is one of the seeded candidates, returned as is.
        config, model = self.setup_model()
        got = propose_next(model, config)
        assert got.shape == (1,)
        assert any(np.array_equal(got, row)
                   for row in bayesopt._candidates(model, config))

    def test_proposal_matches_grid_search_oracle(self):
        # Unique high-EI region; the proposal must be as good as a dense
        # grid's best point up to grid resolution.
        config, model = self.setup_model()
        proposal = propose_next(model, config)
        grid = np.linspace(0.0, 1.0, 10_001).reshape(-1, 1)
        mu, var = model.posterior_batch(grid)
        f_best = float(np.max(model.t))
        grid_ei = expected_improvement(mu, np.sqrt(var), f_best)
        mu_p, var_p = model.posterior(proposal)
        prop_ei = expected_improvement(mu_p, np.sqrt(var_p), f_best)
        assert prop_ei >= np.max(grid_ei) - 1e-6


class TestLoop:
    def test_constant_objective_runs_full_budget(self):
        config = OptimizeConfig(lo=0.0, hi=1.0, m=2,
                                n_init=4, n_iter=12, seed=3, noise_var=1e-4)
        best_x, history = bayesopt_loop(lambda x: 0.7, config)
        assert len(history) == 12
        assert all(e.value == 0.7 for e in history)

    def test_each_proposal_follows_a_fit_on_every_result(self, monkeypatch):
        # One point per round, so the surrogate holds only real results and
        # the candidate draws are keyed by how many there are.
        config = OptimizeConfig(lo=0.0, hi=1.0, m=2, n_init=3, n_iter=7,
                                seed=2, noise_var=1e-4)
        evaluated, fitted = [], []

        def spy(model, cfg):
            fitted.append((model.n, len(evaluated)))
            return propose_next(model, cfg)

        monkeypatch.setattr(bayesopt, "propose_next", spy)
        bayesopt_loop(lambda x: evaluated.append(x) or float(x[0]), config)
        assert fitted == [(n, n) for n in range(3, 7)]

    def test_deterministic_history(self):
        config = OptimizeConfig(lo=-1.0, hi=1.0, m=2, n_init=4,
                                n_iter=10, seed=12, noise_var=1e-4)
        obj = lambda x: float(-np.sum(np.asarray(x) ** 2))
        _, h1 = bayesopt_loop(obj, config)
        _, h2 = bayesopt_loop(obj, config)
        assert [e.point for e in h1] == [e.point for e in h2]
        assert [e.value for e in h1] == [e.value for e in h2]

    def test_nonfinite_objective_penalized(self):
        config = OptimizeConfig(lo=0.0, hi=1.0, m=1, n_init=2, n_iter=6,
                                seed=1, noise_var=1e-4)
        calls = []

        def objective(x):
            calls.append(tuple(x))
            return float("nan") if len(calls) == 3 else -len(calls)

        _, history = bayesopt_loop(objective, config)
        assert len(history) == 6
        failed = [e for e in history if e.failed]
        assert len(failed) == 1
        # Penalized with the worst value observed before the failure.
        assert failed[0].value == min(e.value for e in history[:2])

    def test_finds_quadratic_optimum_2d(self):
        center = np.array([0.3, -0.4])
        config = OptimizeConfig(lo=-1.0, hi=1.0, m=2,
                                n_init=6, n_iter=40, seed=7, noise_var=1e-4)
        best_x, history = bayesopt_loop(
            quadratic_with_noise(center, 0.01, seed=7), config)
        assert max(e.value for e in history) >= -0.02

    def test_beats_random_search_on_quadratic(self):
        center = np.array([-8.3, -5.1, -6.7])
        gp_bests, rs_bests = [], []
        for seed in range(3):
            config = OptimizeConfig(lo=-10.0, hi=-4.0, m=3, n_init=8,
                                    n_iter=40, seed=seed, noise_var=4e-4)
            obj = quadratic_with_noise(center, 0.02, seed)
            _, hist = bayesopt_loop(obj, config)
            gp_bests.append(max(e.value for e in hist))
            obj2 = quadratic_with_noise(center, 0.02, seed + 1000)
            _, rhist = random_search(obj2, config)
            rs_bests.append(max(e.value for e in rhist))
        assert np.mean(gp_bests) > np.mean(rs_bests)

    def test_random_search_deterministic(self):
        config = OptimizeConfig(lo=0.0, hi=1.0, m=2, n_init=2,
                                n_iter=9, seed=4, noise_var=1e-4)
        obj = lambda x: float(np.sum(x))
        _, h1 = random_search(obj, config)
        _, h2 = random_search(obj, config)
        assert [e.point for e in h1] == [e.point for e in h2]
        assert len(h1) == 9
