"""Decision-making agents behind a common step/observe interface."""

from __future__ import annotations

import functools
import inspect
import typing

import numpy as np

from ..config import check_type
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
    check_tau_forecast,
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


# registry name -> policy class; its constructor's parameters other than
# the experiment quantities below are the policy's config params, and its
# constructor is the one check on their values
POLICIES = {
    "mts": MTS,
    "agemts": AGEmTS,
    "explore_commit": ExploreCommit,
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
# registry name -> {param: (what computes it when the config leaves it
# out, what checks that it can be computed without computing it)}.  Both
# take the experiment quantities and params their signatures name; the
# first depends on nothing that changes from run to run, so an experiment
# computes it once for all its runs (see experiment_params).
PARAM_DEFAULTS = {
    "explore_then_ps": {
        # looked up at call time, so the name can be wrapped after import
        "tau": (lambda model, info_arm, horizon: explore_then_ps_tau(model, info_arm, horizon), check_tau_forecast),
    },
}
# rollout_memo: the roll-out results AGEmTS shares within one experiment
_EXPERIMENT_QUANTITIES = ("model", "kernel", "prior", "horizon", "rng", "arm_features", "rollout_memo")
# reflection once per factory; the modules postpone their annotations, so they are resolved here
_parameter_names = functools.cache(lambda factory: frozenset(inspect.signature(factory).parameters))
_type_hints = functools.cache(lambda factory: typing.get_type_hints(factory.__init__))


def _quantities_for(factory, quantities: dict) -> dict:
    """The entries of ``quantities`` that ``factory`` takes, by parameter name."""
    wanted = _parameter_names(factory)
    return {key: value for key, value in quantities.items() if key in wanted}


def check_policy_params(name: str, params: dict, env, horizon: int) -> None:
    """Raise TypeError unless every param is a config param of the policy,
    annotated in its constructor, and ValueError unless each value has the
    annotated type and the policy builds on the resolved environment ``env``
    and ``horizon``.

    The policy is built once, on a throwaway generator and memo; a param that
    ``PARAM_DEFAULTS`` computes and the config leaves out or null has its
    precondition checked and is given a placeholder 0, so no forecast runs.
    """
    factory = POLICIES[name]
    hints = _type_hints(factory)
    computed = PARAM_DEFAULTS.get(name, {})
    for key, value in params.items():
        if key in _EXPERIMENT_QUANTITIES or key not in hints:
            raise TypeError(f"{name} takes no param {key!r}")
        check_type(key, value, hints[key] | None if key in computed else hints[key])
    quantities = dict(zip(_EXPERIMENT_QUANTITIES, (env.model, env.kernel, env.prior, horizon,
                                                   np.random.default_rng(0), env.arm_features, {})))
    left_out = [key for key in computed if params.get(key) is None]
    for _, precondition in (computed[key] for key in left_out):
        precondition(**_quantities_for(precondition, {**quantities, **params}))
    _build(factory, quantities, {**params, **dict.fromkeys(left_out, 0)})


def _build(factory, quantities: dict, params: dict) -> Policy:
    """``factory`` called with the experiment quantities it takes and ``params``."""
    return factory(**_quantities_for(factory, quantities), **params)


def experiment_params(name: str, params: dict | None, model: RewardModel, horizon: int) -> dict:
    """``params`` with the missing entries of ``PARAM_DEFAULTS[name]``
    computed from the experiment's model and horizon."""
    params = dict(params or {})
    for key, (default, _) in PARAM_DEFAULTS.get(name, {}).items():
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
    rollout_memo: dict | None = None,
) -> Policy:
    """Build a policy from its registry name and a parameter map.

    This is the construction path used by experiment configs.  The
    policy class receives the experiment quantities its signature names
    (model, kernel, prior, horizon, rng, arm_features, rollout_memo)
    plus ``params`` as keywords, with ``experiment_params`` filling in
    any missing default; an experiment passes them already filled in.
    """
    if name not in POLICIES:
        raise ValueError(f"unknown policy name {name!r}")
    quantities = dict(zip(_EXPERIMENT_QUANTITIES, (model, kernel, prior, horizon, rng, arm_features, rollout_memo)))
    return _build(POLICIES[name], quantities, experiment_params(name, params, model, horizon))
