"""Decision-making agents behind a common step/observe interface."""

from __future__ import annotations

import inspect
import numbers

import numpy as np

from ..models import RewardModel, TransitionKernel
from .agemts import AGEmTS
from .base import BeliefPolicy, Policy
from .baselines import (
    CDTS,
    CDUCB,
    EXP4S,
    MUCB,
    CDLinTS,
    CDLinUCB,
    OraclePolicy,
    UniformRandom,
    exp4s_update,
)
from .detectors import ChangeDetectorState, cd_linear_check, cd_scalar_check
from .explore import (
    ExploreCommit,
    ExploreThenPS,
    belief_forecast_two_state,
    explore_commit_sample_size,
    explore_then_ps_tau,
)
from .mts import MTS
from .rollout import (
    RolloutResult,
    reward_estimator,
    rollout_info_likelihood,
    rollout_likelihood_matrix,
)


def _number(name: str, value):
    """``value`` if it is a real number (a bool is not), else ValueError."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a number, got {value!r}")
    return value


def _count(name: str, value) -> int:
    """``value`` if it is a non-negative integer (a bool is not), else ValueError."""
    if not isinstance(_number(name, value), numbers.Integral) or value < 0:
        raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
    return value


def _explore_commit_budget(n_e=None, delta=None, std1=None, std2=None, z_alpha=1.96, z_beta=0.84):
    """Explore-commit's budget: ``n_e`` if given, else the z-test sample
    size from ``delta``, ``std1`` and ``std2``."""
    if n_e is not None:
        return _count("n_e", n_e)
    if delta is None or std1 is None or std2 is None:
        raise ValueError("explore_commit needs n_e, or all of delta, std1 and std2")
    return explore_commit_sample_size(delta, std1, std2, z_alpha, z_beta)


def _explore_commit(
    model, kernel, prior, rng, info_arm, n_e=None, delta=None, std1=None, std2=None,
    z_alpha=1.96, z_beta=0.84,
):
    """Explore-commit with its budget given as ``n_e`` or sized by the
    z-test from ``delta``, ``std1`` and ``std2``."""
    n_e = _explore_commit_budget(n_e, delta, std1, std2, z_alpha, z_beta)
    return ExploreCommit(model, kernel, prior, info_arm=info_arm, n_e=n_e, rng=rng)


# registry name -> factory; a factory's parameters other than the
# experiment quantities below are the policy's config params
POLICIES = {
    "mts": MTS,
    "agemts": AGEmTS,
    "explore_commit": _explore_commit,
    "explore_then_ps": ExploreThenPS,
    "cducb": CDUCB,
    "cdts": CDTS,
    "exp4s": EXP4S,
    "mucb": MUCB,
    "cd_linucb": CDLinUCB,
    "cd_lints": CDLinTS,
    "oracle": OraclePolicy,
    "uniform_random": UniformRandom,
}
POLICY_NAMES = tuple(POLICIES)
# registry name -> cheap check of the param values that binding them to
# the factory's signature cannot make; it takes the params its signature names
PARAM_CHECKS = {
    "agemts": lambda entropy_threshold=1.0: _number("entropy_threshold", entropy_threshold),
    "explore_commit": _explore_commit_budget,
    "explore_then_ps": lambda tau=None: tau is None or _count("tau", tau),
    # a detector's own checks want a positive even integer window
    "cducb": lambda window_size=50: ChangeDetectorState(window_size, threshold=0.0),
    "cdts": lambda window_size=50: ChangeDetectorState(window_size, threshold=0.0),
}
# registry name -> {param: what computes it when the config leaves it
# out}.  It takes the experiment quantities and params its signature
# names and depends on nothing that changes from run to run, so an
# experiment computes it once for all its runs (see experiment_params).
PARAM_DEFAULTS = {
    "explore_then_ps": {
        # looked up at call time, so the name can be wrapped after import
        "tau": lambda model, info_arm, horizon: explore_then_ps_tau(model, info_arm, horizon),
    },
}
_EXPERIMENT_QUANTITIES = ("model", "kernel", "prior", "horizon", "rng", "arm_features")


def _quantities_for(factory, quantities: dict) -> dict:
    """The entries of ``quantities`` that ``factory`` takes, by parameter name."""
    wanted = inspect.signature(factory).parameters
    return {key: value for key, value in quantities.items() if key in wanted}


def check_policy_params(name: str, params: dict, model: RewardModel, arm_features=None) -> None:
    """Raise TypeError unless ``params`` bind to the factory's signature,
    and ValueError if the policy still could not be built: its
    ``info_arm`` is not an arm of ``model``, its factory requires
    ``arm_features`` and there are none, or its entry in ``PARAM_CHECKS``
    rejects the params.

    Nothing is constructed, so this costs no per-policy set-up work.
    """
    factory = POLICIES[name]
    signature = inspect.signature(factory)
    placeholders = _quantities_for(factory, dict.fromkeys(_EXPERIMENT_QUANTITIES))
    # a param that PARAM_DEFAULTS fills in may be left out of the config
    defaults = {key: None for key in PARAM_DEFAULTS.get(name, ()) if key not in params}
    signature.bind(**defaults, **placeholders, **params)
    if "info_arm" in params and _count("info_arm", params["info_arm"]) >= model.num_arms:
        raise ValueError(f"info_arm must be an arm in [0, {model.num_arms}), got {params['info_arm']}")
    features = signature.parameters.get("arm_features")
    if features is not None and features.default is inspect.Parameter.empty and arm_features is None:
        raise ValueError(f"{name} requires arm features and the model has none")
    if name in PARAM_CHECKS:
        check = PARAM_CHECKS[name]
        check(**_quantities_for(check, params))


def experiment_params(name: str, params: dict | None, model: RewardModel, horizon: int) -> dict:
    """``params`` with the missing entries of ``PARAM_DEFAULTS[name]``
    computed from the experiment's model and horizon."""
    params = dict(params or {})
    for key, default in PARAM_DEFAULTS.get(name, {}).items():
        if params.get(key) is None:
            params[key] = default(**_quantities_for(default, {"model": model, "horizon": horizon, **params}))
    return params


def make_policy(
    name: str,
    model: RewardModel,
    kernel: TransitionKernel,
    prior,
    horizon: int,
    rng: np.random.Generator,
    params: dict | None = None,
    arm_features: np.ndarray | None = None,
) -> Policy:
    """Build a policy from its registry name and a parameter map.

    This is the construction path used by experiment configs.  The
    factory receives the experiment quantities its signature names
    (model, kernel, prior, horizon, rng, arm_features) plus ``params``
    as keywords, with ``experiment_params`` filling in any missing
    default; an experiment passes them already filled in.
    """
    if name not in POLICIES:
        raise ValueError(f"unknown policy name {name!r}")
    factory = POLICIES[name]
    quantities = dict(zip(_EXPERIMENT_QUANTITIES, (model, kernel, prior, horizon, rng, arm_features)))
    return factory(**_quantities_for(factory, quantities), **experiment_params(name, params, model, horizon))
