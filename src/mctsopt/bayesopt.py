"""Bayesian optimization loop over a box of knot parameters.

Quasi-random initialization, then one proposal per round: the GP
surrogate is refit on every result so far and the next point is the
expected-improvement argmax over a seeded candidate set (scrambled Sobol
over the whole box plus Gaussian perturbations of the incumbent at
several scales - a global-only candidate set cannot resolve optima much
finer than the box diameter divided by the candidate count**(1/d)).  The
candidate draws are keyed by the seed and the number of results, and
every result in the surrogate is a real evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.stats import qmc

from .gp import GPModel, Matern52Kernel, expected_improvement, fit
from .seeds import derive

# Candidates per proposal: half Sobol points over the box, the rest split
# evenly over the incumbent perturbation scales.
_CANDIDATE_COUNT = 4096
# Incumbent perturbation scales as fractions of the box width.
_LOCAL_SCALES = (0.1, 0.02, 0.004)

_AMPLITUDE_FLOOR = 1e-6


@dataclass(frozen=True)
class OptimizeConfig:
    """Settings for one optimization run over the cube [lo, hi]**m."""

    noise_var: float                   # GP observation noise
    lo: float = -10.0
    hi: float = -4.0
    m: int = 6
    n_init: int = 8
    n_iter: int = 40
    seed: int = 0

    def __post_init__(self):
        if not np.isfinite([self.lo, self.hi]).all() or self.hi <= self.lo:
            raise ValueError("bounds must be finite with lo < hi")
        if self.m < 1:
            raise ValueError("m must be at least 1")
        if self.n_init < 2:
            raise ValueError("n_init must be at least 2")
        if self.n_iter < self.n_init:
            raise ValueError("n_iter must cover the initial design")
        if not self.noise_var >= 0:
            raise ValueError("noise_var must be non-negative")


@dataclass
class Evaluation:
    """One objective evaluation; ``failed`` marks a non-finite result
    that was penalized with the worst value observed so far."""

    point: tuple
    value: float
    failed: bool = False


def _sobol(config: OptimizeConfig, count: int, *tags) -> np.ndarray:
    sampler = qmc.Sobol(d=config.m, scramble=True,
                        seed=derive(config.seed, *tags))
    # Draw the next power of two and slice: Sobol balance is only defined
    # at powers of two and scipy warns otherwise.
    pts = sampler.random_base2(max(0, (count - 1).bit_length()))[:count]
    return qmc.scale(pts, config.lo, config.hi)


def fit_surrogate(X, t, config: OptimizeConfig) -> GPModel:
    """Refit the GP: amplitude from target variance, every lengthscale equal
    to the box width."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    t = np.asarray(t, dtype=float)
    amplitude = max(float(np.var(t)), _AMPLITUDE_FLOOR)
    kernel = Matern52Kernel(amplitude=amplitude,
                            lengthscales=(config.hi - config.lo,) * config.m,
                            noise_var=config.noise_var)
    return fit(X, t, kernel)


def _fold_into_box(pts: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """Reflect points at the box walls (no probability atom on the bound,
    unlike clipping)."""
    width = hi - lo
    z = np.mod(pts - lo, 2.0 * width)
    return lo + width - np.abs(z - width)


def _candidates(model: GPModel, config: OptimizeConfig) -> np.ndarray:
    """Global Sobol candidates plus local perturbations of the incumbent."""
    n_global = _CANDIDATE_COUNT // 2
    per_scale = (_CANDIDATE_COUNT - n_global) // len(_LOCAL_SCALES)
    pts = [_sobol(config, n_global, "candidates", model.n)]
    incumbent = model.X[int(np.argmax(model.t))]
    width = config.hi - config.lo
    rng = np.random.Generator(np.random.Philox(
        key=derive(config.seed, "local", model.n)))
    for scale in _LOCAL_SCALES:
        jitter = rng.normal(0.0, 1.0, size=(per_scale, config.m))
        local = incumbent + jitter * (width * scale)
        pts.append(_fold_into_box(local, config.lo, config.hi))
    return np.vstack(pts)


def propose_next(model: GPModel, config: OptimizeConfig) -> np.ndarray:
    """The seeded candidate of highest expected improvement over the best
    observed value."""
    cands = _candidates(model, config)
    mu, var = model.posterior_batch(cands)
    ei = expected_improvement(mu, np.sqrt(var), float(np.max(model.t)))
    return cands[int(np.argmax(ei))]


def _record(history: list, objective, point, callback=None) -> None:
    """Evaluate ``point`` and append it to ``history``; a non-finite value is
    marked failed and replaced by the worst finite value so far (or 0.0)."""
    value = float(objective(np.asarray(point, dtype=float)))
    failed = not np.isfinite(value)
    if failed:
        finite = [e.value for e in history if not e.failed]
        value = min(finite) if finite else 0.0
    history.append(Evaluation(tuple(float(v) for v in point), value, failed))
    if callback is not None:
        callback(history[-1])


def _best_point(history: list) -> np.ndarray:
    return np.array(max(history, key=lambda e: e.value).point)


def bayesopt_loop(objective, config: OptimizeConfig,
                  callback=None) -> tuple[np.ndarray, list[Evaluation]]:
    """Maximize a noisy black-box objective over the configured box.

    Runs n_init quasi-random evaluations and then rounds of fit, propose
    one point and evaluate it until n_iter total evaluations.  Non-finite
    objective values are recorded as failures and penalized with the worst
    value seen so far.
    Returns the best observed point and the full evaluation history.
    """
    history: list[Evaluation] = []
    for point in _sobol(config, config.n_init, "init"):
        _record(history, objective, point, callback)

    while len(history) < config.n_iter:
        X = np.array([e.point for e in history])
        t = np.array([e.value for e in history])
        model = fit_surrogate(X, t, config)
        _record(history, objective, propose_next(model, config), callback)

    return _best_point(history), history


def random_search(objective, config: OptimizeConfig) -> tuple[np.ndarray, list[Evaluation]]:
    """Uniform-random baseline with the same evaluation budget and seed."""
    rng = np.random.Generator(np.random.Philox(
        key=derive(config.seed, "random-search")))
    history: list[Evaluation] = []
    for _ in range(config.n_iter):
        _record(history, objective,
                config.lo + rng.random(config.m) * (config.hi - config.lo))
    return _best_point(history), history
