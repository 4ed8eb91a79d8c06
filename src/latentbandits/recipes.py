"""Named experiment configurations.

Each recipe reproduces one benchmark scenario at its default scale; the
CLI and tests override horizon/runs/seed as needed.  Dataset-backed
recipes need a model file produced by the ``build-model`` command.
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial

from .harness import ConfigError, EnvironmentSpec, ExperimentConfig, PolicySpec
from .policies import explore_commit_sample_size

# detector windows/thresholds are stated explicitly so they land in run
# metadata verbatim
_DETECTOR_PARAMS = {"window_size": 50, "threshold": 15.0}
_POLICIES_WITHOUT_MUCB = (
    PolicySpec("mts"),
    PolicySpec("agemts"),
    PolicySpec("cducb", dict(_DETECTOR_PARAMS)),
    PolicySpec("cdts", dict(_DETECTOR_PARAMS)),
    PolicySpec("exp4s"),
)
_FULL_POLICY_SET = _POLICIES_WITHOUT_MUCB + (PolicySpec("mucb"),)


def _config(name, environment, default_policies, default_horizon, default_runs, **overrides):
    config = ExperimentConfig(
        environment=environment,
        policies=tuple(PolicySpec(p) if isinstance(p, str) else p for p in default_policies),
        horizon=default_horizon,
        num_runs=default_runs,
        name=name,
    )
    return _override(config, overrides)


def _override(config: ExperimentConfig, overrides: dict) -> ExperimentConfig:
    allowed = {"horizon", "num_runs", "base_seed", "out_dir", "policies", "sweep_axes"}
    unknown = set(overrides) - allowed
    if unknown:
        raise ConfigError(f"unknown recipe overrides: {sorted(unknown)}")
    if "policies" in overrides:
        overrides["policies"] = tuple(PolicySpec(p) if isinstance(p, str) else p for p in overrides["policies"])
    return replace(config, **overrides)


def two_state_stationary(**overrides) -> ExperimentConfig:
    """Stationary two-state benchmark: tight probe arm, identity kernel."""
    env = EnvironmentSpec(model={"preset": "two_state"}, kernel={"identity": True})
    return _config("two_state_stationary", env, _FULL_POLICY_SET, 2000, 100, **overrides)


def _two_state_switching(**fields) -> EnvironmentSpec:
    """The two-state preset on the 0.995-stay switching chain."""
    kernel = {"graph": {"kind": "fully_connected", "num_states": 2, "stay_prob": 0.995}}
    return EnvironmentSpec(model={"preset": "two_state"}, kernel=kernel, **fields)


def two_state_random_switch(**overrides) -> ExperimentConfig:
    """Two-state chain switching randomly about every 200 steps."""
    env = _two_state_switching()
    return _config("two_state_random_switch", env, _POLICIES_WITHOUT_MUCB, 1000, 100, **overrides)


def two_state_fixed_200(**overrides) -> ExperimentConfig:
    """Two-state setting with state flips at fixed 200-step intervals.

    Policies still model the switching with the random 0.995-stay kernel;
    only the environment follows the fixed schedule.
    """
    env = _two_state_switching(schedule=(200, 400, 600, 800))
    return _config("two_state_fixed_200", env, _POLICIES_WITHOUT_MUCB, 1000, 100, **overrides)


def two_state_explore_strategies(**overrides) -> ExperimentConfig:
    """Posterior sampling vs explore-commit vs explore-then-PS.

    Uses the looser 0.05-std probe arm.  The explore-commit budget comes
    from the z-test sample size at delta 0.2 and std 0.5 (49 plays, the
    two-sided 95%/80% design); explore-then-PS picks its own budget by
    minimizing the forecast objective.
    """
    n_e = explore_commit_sample_size(0.2, 0.5, 0.5, 1.96, 0.84)
    env = EnvironmentSpec(model={"preset": "two_state_loose_probe"}, kernel={"identity": True})
    policies = (
        PolicySpec("mts"),
        PolicySpec("explore_commit", {"info_arm": 2, "n_e": n_e}),
        PolicySpec("explore_then_ps", {"info_arm": 2}),
    )
    return _config("two_state_explore_strategies", env, policies, 1000, 100, **overrides)


# the graph recipes' name suffixes -> their graph kinds
_KIND_BY_SUFFIX = {"full": "fully_connected", "skip": "skip_chain", "branch": "two_branch"}


def _five_state(name: str, kind: str, **overrides) -> ExperimentConfig:
    """The five-state benchmark on one graph family, from the start state."""
    env = EnvironmentSpec(
        model={"preset": "five_state"},
        kernel={"graph": {"kind": kind, "num_states": 5, "stay_prob": 0.995}},
        prior={"point": 0},
    )
    return _config(name, env, _FULL_POLICY_SET, 1000, 100, **overrides)


def five_state_nonuniform(**overrides) -> ExperimentConfig:
    """Branch graph with per-run random non-uniform off-diagonal masses
    spreading 0.05 of each row."""
    env = EnvironmentSpec(
        model={"preset": "five_state"},
        kernel={
            "graph": {
                "kind": "two_branch",
                "num_states": 5,
                "stay_prob": 0.95,
                "off_diagonal": "random_nonuniform",
            }
        },
        prior={"point": 0},
    )
    return _config("five_state_nonuniform", env, ("mts", "agemts"), 1000, 100, **overrides)


def _movielens(name: str, kind: str, model_file: str | None = None, **overrides) -> ExperimentConfig:
    """A ``build-model`` reward model on one graph family, with 20-arm slates."""
    if model_file is None:
        raise ConfigError(
            f"recipe {name!r} needs a model file; build one with the build-model command"
        )
    env = EnvironmentSpec(
        model={"file": model_file},
        kernel={"graph": {"kind": kind, "num_states": 5, "stay_prob": 0.95}},
        prior={"point": 0},
        arm_set_size=20,
    )
    return _config(name, env, _POLICIES_WITHOUT_MUCB, 1000, 100, **overrides)


_REGION_AXES = {
    "probe_gap": [0.1, 0.4, 0.8, 1.6, 3.2, 6.4],
    "probe_sigma": [0.01, 0.05, 0.25, 0.5],
}


def regions_stationary(**overrides) -> ExperimentConfig:
    """Probe-arm cost/noise sweep in the stationary two-state setting."""
    env = EnvironmentSpec(model={"preset": "two_state"}, kernel={"identity": True})
    config = _config("regions_stationary", env, ("mts", "agemts"), 1000, 100, **overrides)
    if config.sweep_axes is None:
        config = _override(config, {"sweep_axes": dict(_REGION_AXES)})
    return config


def regions_nonstationary(**overrides) -> ExperimentConfig:
    """Same sweep with random 200-step-scale switching."""
    env = _two_state_switching()
    config = _config("regions_nonstationary", env, ("mts", "agemts"), 1000, 100, **overrides)
    if config.sweep_axes is None:
        config = _override(config, {"sweep_axes": dict(_REGION_AXES)})
    return config


RECIPES = {
    "two_state_stationary": two_state_stationary,
    "two_state_random_switch": two_state_random_switch,
    "two_state_fixed_200": two_state_fixed_200,
    "two_state_explore_strategies": two_state_explore_strategies,
    **{f"five_state_{suffix}": partial(_five_state, f"five_state_{suffix}", kind)
       for suffix, kind in _KIND_BY_SUFFIX.items()},
    "five_state_nonuniform": five_state_nonuniform,
    **{f"movielens_{suffix}": partial(_movielens, f"movielens_{suffix}", kind)
       for suffix, kind in _KIND_BY_SUFFIX.items()},
    "regions_stationary": regions_stationary,
    "regions_nonstationary": regions_nonstationary,
}


def get_recipe(name: str, **overrides) -> ExperimentConfig:
    if name not in RECIPES:
        raise ConfigError(f"unknown recipe {name!r}; known: {sorted(RECIPES)}")
    return RECIPES[name](**overrides)
