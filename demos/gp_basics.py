"""Gaussian-process regression and expected improvement in one dimension.

Fits a GP to five noisy observations of a smooth function and prints the
posterior and expected improvement on a grid - the same machinery the
knot tuner uses in six dimensions.  Run:

    python3 demos/gp_basics.py
"""

import numpy as np

from mctsopt import Matern52Kernel, expected_improvement, fit

rng = np.random.default_rng(3)
truth = lambda x: np.sin(3.0 * x) * (1 - x) + x
X = np.array([[0.05], [0.25], [0.5], [0.75], [0.95]])
t = truth(X.ravel()) + rng.normal(0, 0.02, size=5)

kernel = Matern52Kernel(amplitude=0.5, lengthscales=(0.4,), noise_var=4e-4)
model = fit(X, t, kernel)
f_best = float(np.max(model.t))

print("observations:")
for x, y in zip(X.ravel(), t):
    print(f"  f({x:.2f}) ~ {y:+.4f}")
print(f"\nincumbent best: {f_best:+.4f}")
print(f"{'x':>6} {'truth':>8} {'mean':>8} {'sd':>8} {'EI':>9}")
for x in np.linspace(0.0, 1.0, 21):
    mu, var = model.posterior([x])
    sd = np.sqrt(var)
    ei = expected_improvement(mu, sd, f_best)
    marker = " <- training point" if any(abs(x - xi) < 1e-9 for xi in X.ravel()) else ""
    print(f"{x:6.2f} {truth(x):+8.4f} {mu:+8.4f} {sd:8.4f} {ei:9.5f}{marker}")

print("\nnotes: sd collapses at the training points, EI peaks where the")
print("posterior is both promising and uncertain, and far from the data")
print("the mean reverts to the target average.")
