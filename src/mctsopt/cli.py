"""Command-line entry point with five subcommands.

gen-game      write a synthetic-tree descriptor file (the reproducibility
              token other configs consume)
analyze       run one search and dump the root's child statistics
tournament    play a seeded match between two engines
optimize      tune weight-profile knots by match win-rate
dump-profile  materialize a weight profile as CSV for plotting

Every run reads one strict config file, writes its outputs atomically
under --out, and drops a manifest.ini capturing the resolved configuration
and package version, sufficient to reproduce the run bit-for-bit.  Each
section is read through one table of the keys the run reads, with their
types and defaults (Config.read), so any other key is a line-anchored
error: a match sets its engines' budget and seeds per move, and optimize
sets both backups, so those engine sections do not take those keys.  The
kind of a [game]/[pool] section and the evaluator and backup kinds of an
engine section choose the keys the section reads: each kind is declared
once (_KINDS) with its builder and the keys it reads, and a section is
read in one call and built into the object its run uses.
Exit status 0 on success, 2 on config/validation errors.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time
from dataclasses import replace

from . import __version__
from .backup import (CoulomBackup, ErwaBackup, FeedbackBackup, MonotoneBackup,
                     SoftmaxBackup, StandardBackup, format_knots, parse_knots)
from .bayesopt import OptimizeConfig, bayesopt_loop, sobol_max_dim
from .config import (Config, ConfigError, REQUIRED, format_sections,
                     read_config, write_atomic)
from .games.oracle import NoisyOracleEvaluator, RandomRolloutEvaluator
from .games.synthetic import SyntheticTreeSpec
from .search import SearchConfig, run_search
from .tournament import (MatchConfig, SyntheticPool, TicTacToePool, run_match,
                         wilson_interval, winrate_objective)
from .weights import build_weight_table

# Section tables: key -> (type, default).  The SyntheticTreeSpec fields a
# synthetic [game]/[pool] section may set, with the spec's defaults; gen-game
# writes its descriptor from the same list.  seed picks the tree for gen-game
# and analyze.
_SYNTHETIC_KEYS = {key: (convert, getattr(SyntheticTreeSpec, key))
                   for key, convert in (
    ("branching", int), ("depth", int), ("leaf_win_prob", float),
    ("trap_level", int), ("trap_count", int), ("trap_prior", float),
    ("trap_deviation_win_prob", float), ("trap_sealed_win_prob", float),
    ("seed", int))}
# The keys of a monotone profile: [profile] and a monotone backup read them.
_PROFILE_KEYS = {"knots": (str, REQUIRED), "horizon": (int, REQUIRED),
                 "w0": (float, 1.0)}
# The kinds a [game]/[pool] section chooses with its kind key and an engine
# section with its evaluator and backup keys (names are case-insensitive):
# kind -> (builder, which takes the values read from the section, and the
# table of the keys that kind reads).  The builders look the classes up when
# called, so a test or the benchmark's tracing can swap them.
_KINDS = {
    "kind": {
        # gen-game writes trap_actions into a descriptor; gen-game and
        # analyze check a stated list against the tree they draw (_root).
        "synthetic": (
            lambda keys: SyntheticPool(**{key: keys[key] for key in _SYNTHETIC_KEYS}),
            {**_SYNTHETIC_KEYS, "trap_actions": (str, None)}),
        "tictactoe": (lambda keys: TicTacToePool(), {}),
    },
    "evaluator": {
        "rollout": (lambda keys: RandomRolloutEvaluator(), {}),
        "noisy_oracle": (
            lambda keys: NoisyOracleEvaluator(keys["noise_sd"], keys["noise_seed"]),
            {"noise_sd": (float, 0.0), "noise_seed": (int, 0)}),
    },
    "backup": {
        "standard": (lambda keys: StandardBackup(), {}),
        "erwa": (lambda keys: ErwaBackup(keys["alpha"]),
                 {"alpha": (float, REQUIRED)}),
        "coulom": (lambda keys: CoulomBackup(keys["coulom_x"], keys["coulom_y"]),
                   {"coulom_x": (float, REQUIRED), "coulom_y": (int, REQUIRED)}),
        "feedback": (
            lambda keys: FeedbackBackup(keys["feedback_profile"],
                                        keys["final_ratio"], keys["horizon"]),
            {"feedback_profile": (str, REQUIRED), "final_ratio": (float, 64.0),
             "horizon": (int, REQUIRED)}),
        "monotone": (
            lambda keys: MonotoneBackup(build_weight_table(
                parse_knots(keys["knots"]), keys["horizon"], keys["w0"])),
            _PROFILE_KEYS),
        "softmax": (
            lambda keys: SoftmaxBackup.from_knots(parse_knots(keys["knots"]),
                                                  keys["horizon"]),
            {"knots": (str, REQUIRED), "horizon": (int, REQUIRED)}),
    },
}
# Every engine section reads these and the keys of its evaluator kind;
# each role adds its own keys (below) and, if they hold backup, the keys
# of its backup kind.  A match sets the budget and the seeds per move, so
# only [search] reads them; under optimize the optimiser sets both
# backups, so only analyze and tournament read backup.
_ENGINE_KEYS = {"policy": (str, SearchConfig.policy),
                "exploration": (float, SearchConfig.exploration),
                "evaluator": (str, "rollout")}
_BACKUP_KEY = {"backup": (str, "standard")}
_SEARCH_KEYS = {"simulations": (int, SearchConfig.simulations),
                "seed": (int, SearchConfig.seed), **_BACKUP_KEY}
_MATCH_KEYS = {"games": (int, REQUIRED), "sims_per_move": (int, REQUIRED),
               "seed": (int, MatchConfig.seed)}
# The keys from m to seed are OptimizeConfig's fields, with its defaults.
# horizon and noise_var (a field without a default) default to None, which
# _cmd_optimize resolves from the match.
_OPTIMIZE_KEYS = {"kind": (str, "softmax"),
                  **{key: (convert, getattr(OptimizeConfig, key))
                     for key, convert in (
                         ("m", int), ("lo", float), ("hi", float),
                         ("n_init", int), ("n_iter", int), ("seed", int))},
                  "horizon": (int, None), "noise_var": (float, None)}


def _load_game(config: Config, section: str):
    """The game of a [game]/[pool] section, a SyntheticPool or a
    TicTacToePool, following a descriptor reference (a file holding only a
    [game] section).  Returns (game, keys, config, section): the values read
    from the section, then the file and section that hold them, where errors
    about the game belong."""
    entries = config.section(section)
    if "descriptor" in entries:
        if len(entries) > 1:
            raise config.error(section, "descriptor",
                               "descriptor cannot be combined with other keys")
        ref = config.read(section, {"descriptor": (str, REQUIRED)})["descriptor"]
        config, section = read_config(ref), "game"
        for name in config.sections:
            if name != section:
                raise config.error(name, None, f"unknown section [{name}] in "
                                               f"a game descriptor")
    build, kind_keys = _choose(config, section, "kind", SyntheticTreeSpec.kind)
    keys = config.read(section, {"kind": (str, SyntheticTreeSpec.kind),
                                 **kind_keys})
    try:
        return build(keys), keys, config, section
    except ValueError as exc:
        raise config.error(section, None, str(exc)) from exc


def _root(game, keys: dict, config: Config, section: str):
    """The root position of ``game`` at the seed in ``keys`` (for gen-game
    and analyze).  A tree that cannot be drawn is an error anchored at its
    section, and a stated trap_actions list other than the drawn tree's is
    one anchored at that key."""
    seed = keys.get("seed", SyntheticTreeSpec.seed)
    try:
        root = game.make(seed)
    except ValueError as exc:
        raise config.error(section, None, str(exc)) from exc
    stated = keys.get("trap_actions")
    if stated is not None:
        traps = ", ".join(map(str, root.tree.trap_actions)) or "none"
        if stated.replace(" ", "") != traps.replace(" ", ""):
            raise config.error(section, "trap_actions",
                               f"trap_actions = {stated!r}, but the tree at "
                               f"seed {seed} has trap actions {traps}")
    return root


def _choose(config: Config, section: str, key: str, default: str):
    """The (builder, key table) of the kind that ``key`` names in a section."""
    name = config.section(section).get(key, default)
    try:
        return _KINDS[key][name.lower()]
    except KeyError:
        raise config.error(section, key, f"unknown {key} {name!r}") from None


def _load_engine(config: Config, section: str, role_keys: dict) -> SearchConfig:
    """The engine of one section, read in one go through _ENGINE_KEYS, the
    keys its role reads (``role_keys``) and the keys of the kinds it
    chooses; a kind's build error is anchored at the key that chose it."""
    table = {**_ENGINE_KEYS, **role_keys}
    fields = [key for key in table if key not in _KINDS]
    chosen = {key: _choose(config, section, key, table[key][1])
              for key in _KINDS if key in table}
    for _, kind_keys in chosen.values():
        table.update(kind_keys)
    keys = config.read(section, table)
    engine = {key: keys[key] for key in fields}
    for key, (build, _) in chosen.items():
        try:
            engine[key] = build(keys)
        except ValueError as exc:
            raise config.error(section, key, f"bad {key} spec: {exc}") from exc
    try:
        return SearchConfig(**engine)
    except ValueError as exc:
        raise config.error(section, None, str(exc)) from exc


def _write_manifest(out_dir: str, subcommand: str, config: Config,
                    args, resolved_extra: dict | None = None) -> None:
    sections = {"run": {
        "subcommand": subcommand,
        "version": __version__,
        "config": os.path.abspath(config.path),
        "seed_override": "none" if args.seed is None else str(args.seed),
        "workers": str(args.workers),
    }}
    for name, entries in config.sections.items():
        sections[f"config {name}"] = dict(entries)
    if resolved_extra:
        sections["resolved"] = {k: str(v) for k, v in resolved_extra.items()}
    write_atomic(os.path.join(out_dir, "manifest.ini"),
                 format_sections(sections))


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _cmd_gen_game(config: Config, args) -> int:
    game, keys, source, section = _load_game(config, "game")
    if game.kind != SyntheticTreeSpec.kind:
        raise source.error(section, "kind", f"gen-game emits synthetic tree "
                                            f"descriptors; got kind={game.kind}")
    if args.seed is not None:
        keys["seed"] = args.seed
    tree = _root(game, keys, source, section).tree
    descriptor = {"kind": game.kind}
    for key in _SYNTHETIC_KEYS:
        if keys[key] is not None:
            descriptor[key] = repr(keys[key])
    if tree.trap_actions:
        descriptor["trap_actions"] = ", ".join(map(str, tree.trap_actions))
    path = os.path.join(args.out, "game.ini")
    write_atomic(path, format_sections({"game": descriptor}))
    _write_manifest(args.out, "gen-game", config, args, descriptor)
    print(f"wrote {path}")
    print(f"trap_actions = {descriptor.get('trap_actions', 'none')}")
    return 0


def _cmd_analyze(config: Config, args) -> int:
    game, keys, source, section = _load_game(config, "game")
    state = _root(game, keys, source, section)
    engine = _load_engine(config, "search", _SEARCH_KEYS)
    if args.seed is not None:
        engine = replace(engine, seed=args.seed)
    result = run_search(state, engine)
    rows = [(a, node.visits, f"{node.q:.10g}", f"{node.prior:.10g}")
            for a, node in zip(result.root.child_actions, result.root.children)]
    table = _csv_text(("action", "visits", "q", "prior"), rows)
    summary = {
        "best_action": result.best_action,
        "root_q": result.root_q,
        "root_visits": result.root.visits,
        "principal_variation": list(result.principal_variation),
        "visit_distribution": {str(k): v
                               for k, v in result.visit_distribution.items()},
    }
    write_atomic(os.path.join(args.out, "children.csv"), table)
    write_atomic(os.path.join(args.out, "analysis.json"),
                 json.dumps(summary, indent=2, sort_keys=True) + "\n")
    _write_manifest(args.out, "analyze", config, args)
    print(json.dumps(summary, sort_keys=True))
    print(table, end="")
    return 0


def _load_match(config: Config, seed: int | None,
                engine_keys: dict) -> MatchConfig:
    """The match of the [match], [pool], [engine_a] and [engine_b]
    sections; ``seed``, when given, replaces the [match] seed, and
    ``engine_keys`` are the keys the engine sections add (_load_engine)."""
    match = config.read("match", _MATCH_KEYS)
    pool, keys, source, section = _load_game(config, "pool")
    if keys.get("trap_actions") is not None:
        raise source.error(section, "trap_actions",
                           "a pool draws a new tree for every pair, so it "
                           "takes no trap_actions")
    engine_a = _load_engine(config, "engine_a", engine_keys)
    engine_b = _load_engine(config, "engine_b", engine_keys)
    if seed is not None:
        match["seed"] = seed
    try:
        return MatchConfig(pool=pool, engine_a=engine_a, engine_b=engine_b,
                           **match)
    except ValueError as exc:
        raise config.error("match", None, str(exc)) from exc


def _cmd_tournament(config: Config, args) -> int:
    result, records = run_match(_load_match(config, args.seed, _BACKUP_KEY),
                                workers=args.workers)
    payload = {
        "games": result.games,
        "wins_a": result.wins_a,
        "wins_b": result.wins_b,
        "draws": result.draws,
        "win_rate_a": result.win_rate_a,
        "ci95": list(result.ci95),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    rows = [(r.index, r.pair_seed, r.first_mover, r.outcome,
             " ".join(map(str, r.moves)), f"{r.final_return:.10g}")
            for r in records]
    write_atomic(os.path.join(args.out, "match.json"),
                 json.dumps(payload, indent=2, sort_keys=True) + "\n")
    write_atomic(os.path.join(args.out, "games.csv"),
                 _csv_text(("game", "seed", "first_mover", "outcome", "moves",
                            "final_return"), rows))
    _write_manifest(args.out, "tournament", config, args)
    print(json.dumps(payload, sort_keys=True))
    return 0


def _cmd_optimize(config: Config, args) -> int:
    settings = config.read("optimize", _OPTIMIZE_KEYS)
    kind, horizon = settings.pop("kind").lower(), settings.pop("horizon")
    if kind not in ("softmax", "monotone"):
        raise config.error("optimize", "kind",
                           f"kind must be softmax or monotone, got {kind!r}")
    if settings["m"] < 2:
        raise config.error("optimize", "m",
                           f"m must be at least 2 (a profile needs two "
                           f"knots), got {settings['m']}")
    max_m = sobol_max_dim()
    if settings["m"] > max_m:
        raise config.error("optimize", "m",
                           f"m must be at most {max_m} (the Sobol "
                           f"direction table's dimensions), got {settings['m']}")
    if horizon is not None and horizon < 1:
        raise config.error("optimize", "horizon",
                           f"horizon must be >= 1, got {horizon}")
    if args.seed is not None:
        settings["seed"] = args.seed

    base = _load_match(config, None, {})
    if horizon is None:
        horizon = base.sims_per_move
    if settings["noise_var"] is None:
        # The binomial variance of a win-rate at p = 0.5.
        settings["noise_var"] = 0.25 / base.games
    try:
        opt = OptimizeConfig(**settings)
    except ValueError as exc:
        raise config.error("optimize", None, str(exc)) from exc
    # w(t) increases in every knot, so when the top corner of the box
    # gives a weight table, every candidate in the box does.
    backup = MonotoneBackup if kind == "monotone" else SoftmaxBackup
    try:
        backup.from_knots((opt.hi,) * opt.m, horizon)
    except ValueError as exc:
        raise config.error("optimize", "hi",
                           f"knots at hi = {opt.hi!r} give no {kind} "
                           f"profile: {exc}") from exc

    # Engine B's moves in this run's games, replayed by later evaluations.
    book = {}
    booked = 0
    history_rows = []
    history_path = os.path.join(args.out, "history.csv")
    incumbent = -math.inf
    start = time.perf_counter()

    def objective(x):
        i = len(history_rows)
        try:
            return winrate_objective(tuple(x), kind, base, horizon=horizon,
                                     workers=args.workers, book=book)
        except (ValueError, OSError) as exc:
            raise ValueError(f"evaluation {i + 1} of {opt.n_iter}: {exc}") from exc

    def on_evaluation(entry):
        nonlocal incumbent, booked
        knots = format_knots(entry.point)
        history_rows.append((
            len(history_rows), knots, f"{entry.value:.10g}",
            base.games, time.strftime("%Y-%m-%dT%H:%M:%S"),
        ))
        # Rewritten whole after every evaluation, so a run that stops early
        # keeps the evaluations it finished.
        write_atomic(history_path,
                     _csv_text(("eval", "knots", "win_rate", "games", "timestamp"),
                               history_rows))
        incumbent = max(incumbent, entry.value)
        done = len(history_rows)
        elapsed = time.perf_counter() - start
        eta = elapsed / done * (opt.n_iter - done)
        lo, hi = wilson_interval(entry.value * base.games, base.games)
        # Each position B searched this evaluation added one book entry.
        searched = sum(map(len, book.values())) - booked
        booked += searched
        print(f"optimize: {done}/{opt.n_iter} knots {knots} "
              f"win-rate {entry.value:.4f} ci95 [{lo:.4f}, {hi:.4f}] "
              f"best {incumbent:.4f} b-searched {searched} "
              f"elapsed {elapsed:.1f}s eta {eta:.1f}s", file=sys.stderr)

    best_x, history = bayesopt_loop(objective, opt, callback=on_evaluation)
    best_value = max(e.value for e in history)
    best_knots = format_knots(best_x)

    write_atomic(os.path.join(args.out, "best.json"), json.dumps({
        "kind": kind, "knots": [float(v) for v in best_x],
        "horizon": horizon, "best_value": best_value,
        "evaluations": len(history),
    }, indent=2, sort_keys=True) + "\n")
    _write_manifest(args.out, "optimize", config, args, {"horizon": horizon})
    print(f"best {kind} profile: {best_knots}")
    print(f"best objective value: {best_value:.6g} over {len(history)} evaluations")
    return 0


def _cmd_dump_profile(config: Config, args) -> int:
    keys = config.read("profile", _PROFILE_KEYS)
    try:
        knots = parse_knots(keys["knots"])
    except ValueError as exc:
        raise config.error("profile", "knots", str(exc)) from exc
    horizon, w0 = keys["horizon"], keys["w0"]
    try:
        profile = build_weight_table(knots, horizon, w0)
    except ValueError as exc:
        raise config.error("profile", None, str(exc)) from exc
    rows = [(t, f"{profile.log_slope_at(t):.10g}", f"{profile.table[t]:.10g}")
            for t in range(horizon + 1)]
    path = os.path.join(args.out, "profile.csv")
    write_atomic(path, _csv_text(("t", "p", "w"), rows))
    _write_manifest(args.out, "dump-profile", config, args)
    print(f"wrote {path} ({horizon + 1} rows)")
    return 0


_COMMANDS = {
    "gen-game": (_cmd_gen_game, {"game"},
                 "Generate a synthetic-tree descriptor (game.ini). "
                 f"Config: [game] {', '.join(_SYNTHETIC_KEYS)}."),
    "analyze": (_cmd_analyze, {"game", "search"},
                "Search one position and dump per-child statistics. "
                "Config: [game] (or descriptor = file), [search]. "
                "CSV columns: action, visits, q, prior."),
    "tournament": (_cmd_tournament,
                   {"match", "pool", "engine_a", "engine_b"},
                   "Play a head-to-head match. Config: [match] games, "
                   "sims_per_move, seed; [pool]; [engine_a]; [engine_b]. "
                   "CSV columns: game, seed, first_mover, outcome, moves, "
                   "final_return."),
    "optimize": (_cmd_optimize,
                 {"optimize", "match", "pool", "engine_a", "engine_b"},
                 "Tune weight-profile knots by match win-rate. Config: "
                 "[optimize] and the tournament sections. CSV columns: "
                 "eval, knots, win_rate, games, timestamp."),
    "dump-profile": (_cmd_dump_profile, {"profile"},
                     "Materialize a weight profile. Config: [profile] knots, "
                     "horizon, w0. CSV columns: t, p, w."),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mctsopt",
        description="Monte-Carlo tree search with tunable backup strategies.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _sections, help_text) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text.split(".")[0], description=help_text)
        p.add_argument("--config", required=True, help="path to the config file")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--workers", type=int, default=1,
                       help="worker processes for parallel games")
    return parser


def dispatch(argv) -> int:
    args = build_parser().parse_args(argv)
    handler, allowed_sections, _ = _COMMANDS[args.command]
    if args.workers < 1:
        print("error: --workers must be at least 1", file=sys.stderr)
        return 2
    try:
        config = read_config(args.config)
        for name in config.sections:
            if name not in allowed_sections:
                raise ConfigError(f"{config.anchor(name)}: unknown section "
                                  f"[{name}] for {args.command}")
        os.makedirs(args.out, exist_ok=True)
        return handler(config, args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
