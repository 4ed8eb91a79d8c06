"""Reference oracle for the explore-then-PS budget search.

A copy, indexed [arm, state], of the full-scan ``explore_then_ps_tau``, the
per-call ``_expected_posterior`` and the ``belief_forecast_two_state``
loop as they stood before the bound-pruned search replaced them.  The
library's search must return the same budget, and its forecast the same
bits; this module is imported by tests only and is not a test file.
"""

from __future__ import annotations

import numpy as np

from latentbandits.models import RewardModel


# Gauss-Hermite rule for expectations over the reward noise; 64 nodes keep
# the quadrature error far below the Monte Carlo tolerance the forecast is
# held to
_GH_NODES, _GH_WEIGHTS = np.polynomial.hermite_e.hermegauss(64)
_GH_WEIGHTS = _GH_WEIGHTS / _GH_WEIGHTS.sum()


def _expected_posterior(p, model: RewardModel, arm: int, true_state: int):
    """E over reward noise of the one-step posterior P(true state).

    ``p`` may be a scalar or an array of current beliefs.  Rewards are
    drawn (by quadrature) from the arm's distribution in the true state,
    so this is the mean one-step Bayes update an agent playing ``arm``
    would experience, noise included.
    """
    other = 1 - true_state
    rewards = (
        model.means[arm, true_state]
        + model.stds[arm, true_state] * _GH_NODES
    )
    z_t = (rewards - model.means[arm, true_state]) / model.stds[arm, true_state]
    z_o = (rewards - model.means[arm, other]) / model.stds[arm, other]
    lik_t = np.exp(-0.5 * z_t * z_t) / model.stds[arm, true_state]
    lik_o = np.exp(-0.5 * z_o * z_o) / model.stds[arm, other]
    p = np.asarray(p, dtype=float)
    num = p[..., None] * lik_t
    den = num + (1.0 - p[..., None]) * lik_o
    post = np.where(den > 0, num / np.where(den > 0, den, 1.0), p[..., None])
    result = post @ _GH_WEIGHTS
    return np.clip(result, 0.0, 1.0)


def belief_forecast_two_state(
    p0: float,
    model: RewardModel,
    steps: int,
    true_state: int = 0,
    arm: int | None = None,
) -> np.ndarray:
    """Deterministic forecast of the belief filter's average trajectory.

    Iterates the expected one-step Bayes update: the reward is integrated
    out over the played arm's noise in the true state, and by default the
    played arm is the posterior-sampling mix (each state's best arm,
    weighted by the current belief).  Passing ``arm`` forecasts a fixed
    arm such as an information probe.  Returns the probability assigned
    to ``true_state`` at every step, length ``steps + 1`` including the
    starting point.
    """
    if model.num_states != 2:
        raise ValueError("the belief forecast is defined for two-state models only")
    if not 0.0 <= p0 <= 1.0:
        raise ValueError("p0 must be a probability")
    if true_state not in (0, 1):
        raise ValueError("true_state must be 0 or 1")

    best_true = int(np.argmax(model.means[:, true_state]))
    best_other = int(np.argmax(model.means[:, 1 - true_state]))

    trajectory = np.empty(steps + 1)
    trajectory[0] = p0
    p = float(p0)
    for t in range(steps):
        if arm is not None:
            p = float(_expected_posterior(p, model, arm, true_state))
        else:
            p = float(
                p * _expected_posterior(p, model, best_true, true_state)
                + (1.0 - p) * _expected_posterior(p, model, best_other, true_state)
            )
        trajectory[t + 1] = p
    return trajectory


def explore_then_ps_tau(
    model: RewardModel, info_arm: int, horizon: int
) -> int:
    """Probe budget minimizing forecast explore cost plus filtering regret.

    Evaluates every budget tau in [0, horizon]: tau plays of the probe arm
    cost tau times the per-step probe regret, after which the forecast
    posterior-sampling regret accumulates (1 - P_t) times the cross-state
    best-arm gap for the remaining steps.  The objective is a simple
    average over both possible true states, and tau = 0 encodes falling
    back to pure posterior sampling.  Ties break toward the smaller
    budget.
    """
    if model.num_states != 2:
        raise ValueError("explore_then_ps_tau is defined for two-state models only")
    if horizon < 1:
        raise ValueError("horizon must be at least 1")

    totals = np.zeros(horizon + 1)
    for true_state in (0, 1):
        other = 1 - true_state
        best_true = int(np.argmax(model.means[:, true_state]))
        best_other = int(np.argmax(model.means[:, other]))
        explore_cost = (
            model.means[best_true, true_state]
            - model.means[info_arm, true_state]
        )
        ps_gap = (
            model.means[best_true, true_state]
            - model.means[best_other, true_state]
        )

        # belief after tau probe plays, for every tau at once
        probe_path = belief_forecast_two_state(
            0.5, model, horizon, true_state=true_state, arm=info_arm
        )

        # run all posterior-sampling continuations in parallel: entry tau
        # becomes active at step tau and accumulates (1 - p) * gap per step
        p = probe_path.copy()
        ps_regret = np.zeros(horizon + 1)
        taus = np.arange(horizon + 1)
        for t in range(horizon):
            active = taus <= t
            ps_regret[active] += (1.0 - p[active]) * ps_gap
            pa = p[active]
            p[active] = pa * _expected_posterior(
                pa, model, best_true, true_state
            ) + (1.0 - pa) * _expected_posterior(pa, model, best_other, true_state)
        totals += 0.5 * (taus * explore_cost + ps_regret)
    return int(np.argmin(totals))
