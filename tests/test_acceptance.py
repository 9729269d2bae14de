"""Acceptance suite: one test per acceptance criterion.

Each test enforces its criterion at the stated tolerance and runtime
budget and prints one line:

    criterion N (<name>): PASS  <details>  [<elapsed>s]

Run with `pytest tests/test_acceptance.py -v` (add -s to see the lines
as they complete).  The two experiment-scale criteria parallelize over
MCTSOPT_WORKERS processes (default: all CPUs).

Tuned constants (trap pool shape, the softmax study profile, the
optimizer box) were selected by offline grid tuning on seed ranges
disjoint from the seeds used here.
"""

import csv
import json
import math
import os
import re
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from scipy.integrate import quad

from mctsopt.backup import (CoulomBackup, ErwaBackup, FeedbackBackup,
                            MonotoneBackup, SoftmaxBackup, StandardBackup,
                            softmax_parent_update)
from mctsopt.bayesopt import OptimizeConfig, bayesopt_loop, random_search
from mctsopt.cli import dispatch
from mctsopt.games.oracle import best_actions
from mctsopt.games.tictactoe import reachable_states
from mctsopt.gp import Matern52Kernel, expected_improvement, fit
from mctsopt.search import SearchConfig, SearchNode, run_search
from mctsopt.seeds import derive
from mctsopt.tournament import MatchConfig, SyntheticPool, run_match
from mctsopt.weights import WeightProfile, build_weight_table, erwa_knots

WORKERS = int(os.environ.get("MCTSOPT_WORKERS", os.cpu_count() or 1))

# Trap study configuration (offline-tuned; see module docstring).
TRAP_POOL = SyntheticPool(branching=4, depth=8, leaf_win_prob=0.75,
                          trap_level=3, trap_count=1, trap_prior=0.92,
                          trap_deviation_win_prob=0.95,
                          trap_sealed_win_prob=0.65)
STUDY_KNOTS = (-3.5, -3.0, -2.5)
STUDY_HORIZON = 1000

_REPORT = []


def report(line: str) -> None:
    _REPORT.append(line)
    print("\n" + line)


def flat_profile(w: float, horizon: int = 100) -> WeightProfile:
    return WeightProfile(knots=(-1.0, -1.0), horizon=horizon, w0=0.0,
                         table=np.full(horizon + 1, float(w)))


def feed_monotone(profile, returns):
    node = SearchNode(is_max=True)
    strategy = MonotoneBackup(profile)
    out = np.empty(len(returns))
    for i, r in enumerate(returns):
        strategy.backpropagate([node], float(r))
        out[i] = node.q
    return out


def test_c1_recency_equivalence():
    """Monotone backup with recency knots is the recency-weighted average.

    The geometric weights realize the bias-corrected recursion
    Q_n <- Q_{n-1} + a_n (r_n - Q_{n-1}), a_n = alpha / (1-(1-alpha)^(n+1)),
    exactly; the plain recursion seeded with the first return is approached
    at rate (1-alpha)^(n+1) (its first-return coefficient differs - see the
    decisions ledger for why the plain form cannot match within 1e-6).
    """
    start = time.perf_counter()
    rng = np.random.default_rng(20260811)
    length = 100
    for alpha in (0.5, 0.25, 0.1, 0.01):
        profile = erwa_knots(alpha, m=6, horizon=length)
        for _ in range(200):
            returns = rng.random(length)
            got = feed_monotone(profile, returns)
            corrected = np.empty(length)
            plain = np.empty(length)
            corrected[0] = plain[0] = returns[0]
            for n in range(1, length):
                a_n = alpha / (1.0 - (1.0 - alpha) ** (n + 1))
                corrected[n] = corrected[n - 1] + a_n * (returns[n] - corrected[n - 1])
                plain[n] = plain[n - 1] + alpha * (returns[n] - plain[n - 1])
            rel = np.max(np.abs(got - corrected) / np.abs(corrected))
            assert rel <= 1e-6
            envelope = (1.0 - alpha) ** (np.arange(length) + 1)
            assert np.all(np.abs(got - plain) <= envelope + 1e-12)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(f"criterion 1 (recency equivalence): PASS  4 alphas x 200 "
           f"sequences, max rel dev < 1e-6 vs corrected recursion, plain "
           f"recursion within (1-a)^(n+1)  [{elapsed:.2f}s]")


def test_c2_weight_table_machinery():
    """Tables strictly increase, match the linear closed form on constant
    knots, and agree with adaptive quadrature of exp(p)."""
    start = time.perf_counter()
    # Constant knots: closed form 1 + e^c t; bitwise at c = 0.
    zero = build_weight_table([0.0] * 4, horizon=200, w0=1.0)
    assert np.array_equal(zero.table, 1.0 + np.arange(201.0))
    for c in (-6.0, -2.5, 0.7):
        profile = build_weight_table([c] * 5, horizon=150, w0=1.0)
        expected = 1.0 + math.exp(c) * np.arange(151.0)
        np.testing.assert_allclose(profile.table, expected, rtol=1e-12)

    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(100):
        m = int(rng.integers(2, 9))
        horizon = int(rng.integers(5, 200))
        knots = rng.uniform(-12.0, 2.0, size=m)
        profile = build_weight_table(knots, horizon, w0=1.0)
        assert np.all(np.diff(profile.table) > 0.0)
        grid = np.linspace(0.0, horizon, m)
        for t in rng.choice(np.arange(1, horizon + 1),
                            size=min(3, horizon), replace=False):
            inner = [g for g in grid if 0.0 < g < t]
            val, _ = quad(lambda s: math.exp(np.interp(s, grid, knots)),
                          0.0, float(t), points=inner or None, limit=400,
                          epsabs=0.0, epsrel=1e-12)
            oracle = 1.0 + val
            assert abs(profile.table[int(t)] - oracle) <= 1e-8 * oracle
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0
    report(f"criterion 2 (weight-table machinery): PASS  100 random "
           f"profiles strictly increasing, {checked} quadrature checks "
           f"within 1e-8 rel  [{elapsed:.2f}s]")


def test_c3_softmax_limits():
    """w = 0 is the visit-weighted mean; w = 50 lands on the preferred
    child; shifting all child values shifts the parent exactly."""
    start = time.perf_counter()
    rng = np.random.default_rng(11)
    # w = 0: machine-precision agreement with the visit-weighted mean.
    for _ in range(200):
        k = int(rng.integers(2, 7))
        qs = rng.random(k)
        ns = rng.integers(1, 80, size=k)
        got = softmax_parent_update(list(zip(qs, ns)), True, flat_profile(0.0), 5)
        want = float(np.sum(qs * ns) / np.sum(ns))
        assert abs(got - want) <= 1e-15

    # w = 50 with a 0.1 gap: within 1e-3 of the preferred child.  Children
    # share a visit count and only the runner-up sits at the minimal gap
    # (with unbounded visit ratios the bound is unattainable; ledgered).
    for _ in range(200):
        k = int(rng.integers(2, 6))
        best = float(rng.uniform(0.5, 0.9))
        qs = [best, best - 0.1] + list(best - 0.25 - 0.5 * rng.random(k - 2))
        children = [(q, 10) for q in qs]
        hi = softmax_parent_update(children, True, flat_profile(50.0), 9)
        assert abs(hi - best) <= 1e-3
        lo_children = [(1.0 - q, 10) for q in qs]
        lo = softmax_parent_update(lo_children, False, flat_profile(50.0), 9)
        assert abs(lo - (1.0 - best)) <= 1e-3

    # Shift equivariance at 1e-10 over 1000 random child sets.
    for _ in range(1000):
        k = int(rng.integers(2, 6))
        qs = rng.random(k)
        ns = rng.integers(1, 60, size=k)
        w = float(rng.uniform(0.0, 80.0))
        shift = float(rng.uniform(-0.5, 0.5))
        base = softmax_parent_update(list(zip(qs, ns)), True, flat_profile(w), 5)
        moved = softmax_parent_update(list(zip(qs + shift, ns)), True,
                                      flat_profile(w), 5)
        assert abs(moved - (base + shift)) <= 1e-10
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    report(f"criterion 3 (softmax limits): PASS  mean/argmax limits and "
           f"shift equivariance over 1400 child sets  [{elapsed:.2f}s]")


def _separated(rng, n, d, lo, hi, min_dist):
    pts = [rng.uniform(lo, hi, size=d)]
    for _ in range(2000):
        if len(pts) == n:
            break
        cand = rng.uniform(lo, hi, size=d)
        if min(np.linalg.norm(cand - p) for p in pts) >= min_dist:
            pts.append(cand)
    return np.array(pts)


def test_c4_gp_correctness():
    """Posterior equals the dense naive-inverse oracle on targets centred
    on their mean; EI matches Monte-Carlo expectation."""
    start = time.perf_counter()
    rng = np.random.default_rng(4)
    instances = 0
    while instances < 100:
        n = int(rng.integers(2, 21))
        d = int(rng.integers(1, 7))
        X = _separated(rng, n, d, -2.0, 2.0, 0.2)
        n = len(X)
        t = rng.normal(size=n)
        noise = float(rng.choice([0.0, 0.01]))
        kernel = Matern52Kernel(amplitude=float(rng.uniform(0.5, 3.0)),
                                lengthscales=tuple(rng.uniform(0.5, 2.0, d)),
                                noise_var=noise)
        model = fit(X, t, kernel)
        ell = np.asarray(kernel.lengthscales)

        def k_pair(a, b):
            r = np.linalg.norm((a - b) / ell)
            s = math.sqrt(5.0) * r
            return kernel.amplitude * (1 + s + 5.0 / 3.0 * r * r) * math.exp(-s)

        K = np.array([[k_pair(X[i], X[j]) for j in range(n)] for i in range(n)])
        Kinv = np.linalg.inv(K + noise * np.eye(n))
        t_mean = float(np.mean(t))
        for _ in range(3):
            x_star = rng.uniform(-2, 2, size=d)
            rvec = np.array([k_pair(X[i], x_star) for i in range(n)])
            mu_o = t_mean + float(rvec @ Kinv @ (t - t_mean))
            var_o = kernel.amplitude + noise - float(rvec @ Kinv @ rvec)
            mu, var = model.posterior(x_star)
            assert mu == pytest.approx(mu_o, rel=1e-8, abs=1e-8)
            assert var == pytest.approx(max(var_o, 0.0), rel=1e-8, abs=1e-8)
        if noise == 0.0:
            for i in range(n):
                mu, var = model.posterior(X[i])
                assert mu == pytest.approx(t[i], abs=1e-8)
                assert var <= 1e-8
        instances += 1

    mc_rng = np.random.default_rng(99)
    for _ in range(20):
        mu = float(mc_rng.uniform(-1.0, 1.0))
        sigma = float(mc_rng.uniform(0.05, 2.0))
        # Keep f* within two sigma of mu so the Monte-Carlo estimate has
        # a usable standard error.
        f_best = mu + sigma * float(mc_rng.uniform(-2.0, 2.0))
        draws = mc_rng.normal(mu, sigma, size=1_000_000)
        gains = np.maximum(draws - f_best, 0.0)
        se = gains.std() / 1000.0
        assert abs(expected_improvement(mu, sigma, f_best) - gains.mean()) \
            <= 3 * se + 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    report(f"criterion 4 (GP correctness): PASS  100 dense-oracle "
           f"instances at 1e-8, training-point interpolation, 20 EI "
           f"Monte-Carlo checks at 3 SE  [{elapsed:.2f}s]")


def test_c5_bayesopt_efficacy():
    """The loop reaches the known optimum of a noisy 6-d quadratic within
    0.05 for at least 8 of 10 seeds in 80 evaluations, and beats random
    search on average."""
    start = time.perf_counter()
    center = np.array([-8.3, -5.1, -6.7, -9.2, -4.8, -7.5])
    gp_bests, rs_bests = [], []
    for seed in range(10):
        noise = np.random.Generator(np.random.Philox(key=derive(seed, "c5")))

        def objective(x):
            return float(-np.sum((x - center) ** 2) + noise.normal(0.0, 0.02))

        config = OptimizeConfig(lo=-10.0, hi=-4.0, m=6, n_init=10, n_iter=80,
                                seed=seed, noise_var=4e-4)
        _, history = bayesopt_loop(objective, config)
        gp_bests.append(max(e.value for e in history))

        rs_noise = np.random.Generator(np.random.Philox(key=derive(seed, "c5r")))
        _, rs_hist = random_search(
            lambda x: float(-np.sum((x - center) ** 2) + rs_noise.normal(0.0, 0.02)),
            config)
        rs_bests.append(max(e.value for e in rs_hist))

    hits = sum(b >= -0.05 for b in gp_bests)
    assert hits >= 8, gp_bests
    assert np.mean(gp_bests) > np.mean(rs_bests)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    report(f"criterion 5 (bayesopt efficacy): PASS  {hits}/10 seeds within "
           f"0.05 of the optimum; mean best {np.mean(gp_bests):+.4f} vs "
           f"random search {np.mean(rs_bests):+.4f}  [{elapsed:.1f}s]")


def _c6_trial(args):
    kind, seed = args
    root = TRAP_POOL.make(derive(seed, "c6-tree"))
    trap = root.tree.trap_actions[0]
    if kind == "standard":
        backup = StandardBackup()
    else:
        backup = SoftmaxBackup.from_knots(STUDY_KNOTS, STUDY_HORIZON)
    config = SearchConfig(simulations=1000, policy="PUCT", exploration=0.1,
                          backup=backup, seed=derive(seed, "c6-search", kind))
    return kind, run_search(root, config).best_action == trap


@pytest.mark.slow
def test_c6_trap_avoidance():
    """On 200 trees with one tempting level-3 trap each, tuned softmax
    picks the trap strictly less often than standard backup, with a
    significant two-proportion gap."""
    start = time.perf_counter()
    n = 200
    tasks = [(kind, 1_000_000 + i) for kind in ("standard", "softmax")
             for i in range(n)]
    counts = {"standard": 0, "softmax": 0}
    with ProcessPoolExecutor(max_workers=WORKERS) as pool:
        for kind, trapped in pool.map(_c6_trial, tasks, chunksize=25):
            counts[kind] += trapped
    p_std = counts["standard"] / n
    p_soft = counts["softmax"] / n
    pooled = (counts["standard"] + counts["softmax"]) / (2 * n)
    se = math.sqrt(pooled * (1 - pooled) * 2 / n)
    z = (p_std - p_soft) / se
    assert counts["softmax"] < counts["standard"]
    assert z > 1.959964, (p_std, p_soft, z)
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    report(f"criterion 6 (trap avoidance): PASS  standard trapped "
           f"{p_std:.1%}, softmax {p_soft:.1%} of 200 trees, "
           f"two-proportion z = {z:.2f}  [{elapsed:.1f}s]")


@pytest.mark.slow
def test_c7_optimize_pipeline(tmp_path):
    """End to end: tune softmax knots by 400-game evaluations (40 total),
    then confirm the best profile beats standard backup over 1000 fresh
    games with the whole confidence interval above 0.5."""
    start = time.perf_counter()
    config_path = tmp_path / "optimize.ini"
    config_path.write_text(f"""
[optimize]
kind = softmax
m = 6
horizon = {STUDY_HORIZON}
lo = -6
hi = -1
n_init = 8
n_iter = 40
seed = 2026

[match]
games = 400
sims_per_move = 400
seed = 90

[pool]
branching = 4
depth = 8
leaf_win_prob = 0.75
trap_level = 3
trap_count = 1
trap_prior = 0.92
trap_deviation_win_prob = 0.95
trap_sealed_win_prob = 0.65

[engine_a]
policy = PUCT
exploration = 0.1

[engine_b]
policy = PUCT
exploration = 0.1
""")
    out = tmp_path / "run"
    status = dispatch(["optimize", "--config", str(config_path),
                       "--out", str(out), "--workers", str(WORKERS)])
    assert status == 0
    with open(out / "history.csv") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 41                      # header + 40 evaluations
    best = json.loads((out / "best.json").read_text())
    assert len(best["knots"]) == 6

    engine = SearchConfig(simulations=400, policy="PUCT", exploration=0.1,
                          backup=SoftmaxBackup.from_knots(best["knots"],
                                                          STUDY_HORIZON))
    standard = SearchConfig(simulations=400, policy="PUCT", exploration=0.1,
                            backup=StandardBackup())
    confirm = MatchConfig(pool=TRAP_POOL, engine_a=engine, engine_b=standard,
                          games=1000, sims_per_move=400, seed=777_001)
    result, _ = run_match(confirm, workers=WORKERS)
    assert result.ci95[0] > 0.5, result
    elapsed = time.perf_counter() - start
    assert elapsed < 3600.0
    report(f"criterion 7 (optimize pipeline): PASS  best profile "
           f"{tuple(round(k, 2) for k in best['knots'])} confirmed at "
           f"{result.win_rate_a:.1%} over 1000 fresh games, ci95 "
           f"({result.ci95[0]:.3f}, {result.ci95[1]:.3f})  [{elapsed:.0f}s]")


def _strip_timestamps(text: str) -> str:
    return re.sub(r"\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}", "T", text)


def test_c8_determinism(tmp_path):
    """Every subcommand, rerun with the same config and seed, emits
    byte-identical tabular outputs at any worker count (timestamps
    excluded, as the result JSON's timestamp field varies by run)."""
    start = time.perf_counter()
    game_cfg = tmp_path / "game.ini"
    game_cfg.write_text("[game]\nbranching = 4\ndepth = 6\ntrap_level = 2\n"
                        "trap_count = 1\nseed = 5\n")
    analyze_cfg = tmp_path / "analyze.ini"
    analyze_cfg.write_text("[game]\nbranching = 4\ndepth = 6\nseed = 3\n\n"
                           "[search]\nsimulations = 400\npolicy = PUCT\n"
                           "exploration = 0.5\nbackup = softmax\n"
                           "knots = (-3.0, -2.0)\nhorizon = 400\nseed = 9\n")
    match_cfg = tmp_path / "match.ini"
    match_cfg.write_text("[match]\ngames = 16\nsims_per_move = 50\nseed = 4\n\n"
                         "[pool]\nbranching = 3\ndepth = 4\n\n"
                         "[engine_a]\nbackup = erwa\nalpha = 0.1\n\n"
                         "[engine_b]\nbackup = standard\n")
    opt_cfg = tmp_path / "opt.ini"
    opt_cfg.write_text("[optimize]\nm = 3\nlo = -3\nhi = 2\nn_init = 3\n"
                       "n_iter = 6\nseed = 5\n\n"
                       "[match]\ngames = 4\nsims_per_move = 20\n\n"
                       "[pool]\nbranching = 3\ndepth = 4\n\n"
                       "[engine_a]\n\n[engine_b]\n")
    profile_cfg = tmp_path / "profile.ini"
    profile_cfg.write_text("[profile]\nknots = (-9.0, -5.0, -7.0)\n"
                           "horizon = 500\nw0 = 1.0\n")

    runs = [
        ("gen-game", game_cfg, ["game.ini"]),
        ("analyze", analyze_cfg, ["children.csv", "analysis.json"]),
        ("tournament", match_cfg, ["games.csv", "match.json"]),
        ("optimize", opt_cfg, ["history.csv", "best.json"]),
        ("dump-profile", profile_cfg, ["profile.csv"]),
    ]
    for sub, cfg, artifacts in runs:
        texts = []
        for run_idx, workers in enumerate(("1", "2")):
            out = tmp_path / f"{sub}-{run_idx}"
            status = dispatch([sub, "--config", str(cfg), "--out", str(out),
                               "--workers", workers])
            assert status == 0
            bundle = ""
            for name in artifacts + ["manifest.ini"]:
                raw = (out / name).read_text()
                if name != "manifest.ini":
                    bundle += _strip_timestamps(raw)
                else:
                    bundle += re.sub(r"workers = \d+", "workers = N", raw)
            texts.append(bundle)
        assert texts[0] == texts[1], f"{sub} outputs differ across reruns"
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    report(f"criterion 8 (determinism): PASS  5 subcommands byte-identical "
           f"across reruns and worker counts (timestamps aside)  "
           f"[{elapsed:.1f}s]")


def _c9_strategies():
    return {
        "standard": StandardBackup(),
        "erwa": ErwaBackup(0.01),
        "coulom": CoulomBackup(2.0, 16),
        "feedback": FeedbackBackup("GBY", 64.0, 2000),
        "monotone": MonotoneBackup.from_knots((-4.0, -4.0, -4.0), 2000),
        "softmax": SoftmaxBackup.from_knots((-4.0, -2.0, -2.0), 2000),
    }


def _c9_positions():
    positions = []
    for state in reachable_states():
        if state.terminal or len(state.actions) < 2:
            continue
        moves, _ = best_actions(state)
        if len(moves) == 1:
            positions.append((state, moves[0]))
    rng = np.random.default_rng(910)
    picked = rng.choice(len(positions), size=50, replace=False)
    return [positions[i] for i in picked]


_C9_POSITIONS = None


def _c9_trial(args):
    global _C9_POSITIONS
    if _C9_POSITIONS is None:
        _C9_POSITIONS = _c9_positions()
    name, idx, seed = args
    state, optimal = _C9_POSITIONS[idx]
    config = SearchConfig(simulations=2000, policy="UCB1", exploration=1.0,
                          backup=_c9_strategies()[name],
                          seed=derive(seed, "c9", idx, name))
    return name, run_search(state, config).best_action == optimal


@pytest.mark.slow
def test_c9_minimax_convergence():
    """From 50 solved tic-tac-toe positions with a unique optimal move,
    every backup strategy at 2000 simulations finds it in at least 95%
    of position x seed trials."""
    start = time.perf_counter()
    names = list(_c9_strategies())
    tasks = [(name, idx, seed)
             for name in names for idx in range(50) for seed in range(10)]
    hits = {name: 0 for name in names}
    with ProcessPoolExecutor(max_workers=WORKERS) as pool:
        for name, ok in pool.map(_c9_trial, tasks, chunksize=50):
            hits[name] += ok
    rates = {name: hits[name] / 500 for name in names}
    for name, rate in rates.items():
        assert rate >= 0.95, (name, rate)
    elapsed = time.perf_counter() - start
    assert elapsed < 300.0
    summary = ", ".join(f"{n}={r:.1%}" for n, r in rates.items())
    report(f"criterion 9 (minimax convergence): PASS  {summary}  "
           f"[{elapsed:.1f}s]")


def test_zz_report_summary():
    print("\n" + "=" * 72)
    for line in _REPORT:
        print(line)
    print("=" * 72)
