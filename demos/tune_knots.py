"""Knot tuning with the Gaussian-process optimizer, on a cheap objective.

Uses the same loop the `optimize` subcommand runs, but with an analytic
noisy objective instead of self-play matches, so it finishes in seconds.
Swap in `winrate_objective` (see the tournament module) for the real
thing.  Run:

    python3 demos/tune_knots.py
"""

import numpy as np

from mctsopt import OptimizeConfig, bayesopt_loop, random_search
from mctsopt.seeds import derive

TARGET = np.array([-8.0, -5.5, -7.0, -9.0, -4.5, -6.0])
config = OptimizeConfig(lo=-10.0, hi=-4.0, m=6, n_init=10, n_iter=60,
                        seed=11, noise_var=4e-4)

rng = np.random.Generator(np.random.Philox(key=derive(11, "demo-noise")))


def objective(knots):
    return float(-np.sum((knots - TARGET) ** 2) + rng.normal(0, 0.02))


best, history = bayesopt_loop(objective, config)
running = -np.inf
print("eval   value      best-so-far")
for i, entry in enumerate(history):
    running = max(running, entry.value)
    marker = " *" if entry.value == running and entry.value > -0.5 else ""
    if i < 10 or i % 5 == 0 or i == len(history) - 1:
        print(f"{i:4d}  {entry.value:+9.4f}  {running:+9.4f}{marker}")

print(f"\nbest knots found: {np.round(best, 3)}")
print(f"true optimum at:  {TARGET}")
print(f"distance: {np.linalg.norm(best - TARGET):.3f}")

_, rs_history = random_search(objective, config)
print(f"\nGP best {max(e.value for e in history):+.4f} vs "
      f"random-search best {max(e.value for e in rs_history):+.4f} "
      f"on the same budget")
