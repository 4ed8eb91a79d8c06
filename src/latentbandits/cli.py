"""Command-line benchmark harness.

Subcommands:
  run <config>          run an experiment config (JSON file or recipe name)
  sweep <config>        run the config's sweep grid
  build-model <config>  build a reward model from a ratings dataset
  validate <config>     check a config and exit

Exit codes: 0 on success, 2 on configuration errors, 3 on runtime
failures.  The output root defaults to $LBL_OUT_DIR, then ./results.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field, replace

import numpy as np

from . import datasets
from .config import TypedConfig, check_type
from .harness import (
    ConfigError,
    ExperimentConfig,
    default_out_dir,
    emit_outputs,
    load_config,
    run_experiment,
    save_config,
    sweep,
)
from .models import save_model_json
from .recipes import RECIPES, get_recipe


def _resolve_config(ref: str, args) -> ExperimentConfig:
    if os.path.exists(ref):
        config = load_config(ref)
    elif ref in RECIPES:
        config = get_recipe(ref)
    else:
        raise ConfigError(f"{ref!r} is neither a config file nor a known recipe")
    flags = {"base_seed": args.seed, "num_runs": args.runs, "horizon": args.horizon, "out_dir": args.out_dir}
    return replace(config, **{key: value for key, value in flags.items() if value is not None})


def _out_dir_for(config: ExperimentConfig) -> str:
    return config.out_dir or os.path.join(default_out_dir(), config.name)


def _cmd_run(args) -> int:
    config = _resolve_config(args.config, args)
    out_dir = _out_dir_for(config)
    results = run_experiment(config, out_dir=out_dir)
    paths = emit_outputs(results, out_dir)
    final = {
        name: float(results.regret_matrix(name)[:, -1].mean())
        for name in results.policy_names
    }
    counters = results.runs[0].policy_counters
    print(f"ran {config.name}: {config.num_runs} runs x {config.horizon} steps")
    for name, value in final.items():
        print(f"  final mean regret {name}: {value:.3f}")
        # the policy's cost over all runs: its seconds and its summed counters
        counts = [f", {key} {sum(run.policy_counters[name][key] for run in results.runs)}" for key in counters[name]]
        print(f"    policy seconds {sum(run.policy_seconds[name] for run in results.runs):.3f}" + "".join(counts))
    print(f"wrote {paths['aggregate']} and traces under {out_dir}")
    return 0


def _cmd_sweep(args) -> int:
    config = _resolve_config(args.config, args)
    out_dir = _out_dir_for(config)
    rows = sweep(config, out_dir=out_dir)
    print(f"swept {config.name}: {len(rows)} grid points -> {out_dir}/sweep.csv")
    return 0


def _cmd_validate(args) -> int:
    config = _resolve_config(args.config, args)
    config.validate()
    print(f"config {config.name!r} is valid")
    return 0


@dataclass(frozen=True)
class DatasetConfig(TypedConfig):
    """``build-model``'s dataset config: each key with its type and default."""

    ratings_file: str
    min_user_ratings: int = 200
    min_item_ratings: int = 200
    d: int = 10
    lambda_u: float = 0.001
    lambda_v: float = 0.001
    learning_rate: float = 2e-4
    validation_fraction: float = 0.1
    epochs: int = 100
    num_states: int = 5
    pairing: tuple = ([1, 3], [2, 4])
    variance_mode: str = "fixed"
    variance_params: dict = field(default_factory=dict)
    seed: int = 0
    out_dir: str | None = None

    def __post_init__(self):
        super().__post_init__()
        lows = {"min_user_ratings": 1, "min_item_ratings": 1, "d": 1, "epochs": 1, "num_states": 2, "seed": 0,
                "lambda_u": 0, "lambda_v": 0, "learning_rate": 0}
        for key, low in lows.items():
            if not low <= getattr(self, key):
                raise ConfigError(f"{key} must be at least {low}, got {getattr(self, key)}")
        if not 0.0 < self.validation_fraction < 1.0:
            raise ConfigError(f"validation_fraction must lie in (0, 1), got {self.validation_fraction}")
        if self.variance_mode not in datasets.VARIANCE_MODES:
            raise ConfigError(f"variance_mode must be in {datasets.VARIANCE_MODES}, got {self.variance_mode!r}")
        wanted = datasets.VARIANCE_PARAMS[self.variance_mode]
        if set(self.variance_params) - set(wanted):
            raise ConfigError(f"variance mode {self.variance_mode!r} takes params {sorted(wanted)}, "
                              f"got {sorted(self.variance_params)}")
        object.__setattr__(self, "variance_params", {
            key: check_type(f"variance param {key!r}", value, wanted[key])
            for key, value in self.variance_params.items()
        })
        sigma = self.variance_params.get("sigma", 0.25)
        if not 0.0 < sigma:
            raise ConfigError(f"variance param 'sigma' must be positive, got {sigma}")
        for pair in self.pairing:
            states = [check_type("a paired state", state, int) for state in check_type("a pairing", pair, list)]
            if len(states) != 2 or not all(0 <= state < self.num_states for state in states):
                raise ConfigError(f"a pairing must be two states in [0, {self.num_states}), got {pair}")


def _cmd_build_model(args) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read dataset config: {exc}") from exc
    config = DatasetConfig.from_dict(doc)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    out_dir = args.out_dir or config.out_dir or os.path.join(default_out_dir(), "dataset_model")
    os.makedirs(out_dir, exist_ok=True)

    table = datasets.ingest_ratings(config.ratings_file, config.min_user_ratings, config.min_item_ratings)
    print(f"ingested {len(table)} ratings: {table.num_users} users x {table.num_items} items")
    pmf_keys = ("d", "lambda_u", "lambda_v", "learning_rate", "validation_fraction", "epochs")
    hyperparameters = {key: getattr(config, key) for key in pmf_keys}
    factors = datasets.pmf_train(table, **hyperparameters, seed=config.seed)
    print(f"trained factors, validation RMSE {factors.validation_rmse:.4f}")
    clusters = datasets.kmeans_users(factors, k=config.num_states, seed=config.seed)
    super_user = datasets.sample_super_user(factors, clusters, config.pairing, seed=config.seed)
    catalog = np.arange(table.num_items)
    model = datasets.build_reward_model(factors, super_user, catalog, variance_mode=config.variance_mode,
                                        params=config.variance_params, seed=config.seed)
    model_path = os.path.join(out_dir, "reward_model.json")
    save_model_json(model_path, model, features=factors.V[catalog])
    provenance = {
        "ratings_file": config.ratings_file,
        "seed": config.seed,
        "num_users": table.num_users,
        "num_items": table.num_items,
        "num_ratings": len(table),
        "validation_rmse": factors.validation_rmse,
        "pairing": config.pairing,
        "super_user": list(super_user.users),
        "variance_mode": config.variance_mode,
        "hyperparameters": hyperparameters,
    }
    with open(os.path.join(out_dir, "provenance.json"), "w", encoding="utf-8") as handle:
        json.dump(provenance, handle, indent=2, sort_keys=True)
        handle.write("\n")
    for graph in ("full", "skip", "branch"):
        run_config = get_recipe(f"movielens_{graph}", model_file=model_path)
        save_config(run_config, os.path.join(out_dir, f"movielens_{graph}.json"))
    print(f"wrote {model_path} plus provenance and run configs to {out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="latent-bandits", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, handler in (
        ("run", _cmd_run),
        ("sweep", _cmd_sweep),
        ("build-model", _cmd_build_model),
        ("validate", _cmd_validate),
    ):
        cmd = sub.add_parser(name)
        cmd.add_argument("config", help="config JSON path or recipe name")
        cmd.add_argument("--seed", type=int, default=None)
        if name != "build-model":
            cmd.add_argument("--runs", type=int, default=None)
            cmd.add_argument("--horizon", type=int, default=None)
        cmd.add_argument("--out-dir", default=None)
        cmd.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
