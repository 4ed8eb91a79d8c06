"""Two-state exploration strategies: explore-commit and explore-then-filter.

Both strategies budget an up-front run of probe-arm plays for the
stationary two-state problem.  Explore-commit sizes the budget with a
two-sided z-test and then locks in the nearest-mean state forever;
explore-then-filter picks the budget by minimizing a deterministic
forecast of total regret and keeps filtering its belief afterwards, so a
bad initial read can still be corrected.
"""

from __future__ import annotations

import math

import numpy as np

from ..models import RewardModel
from .base import BeliefPolicy
from .mts import MTS


def explore_commit_sample_size(
    delta: float, std1: float, std2: float, z_alpha: float, z_beta: float
) -> int:
    """Probe plays needed to tell two reward means ``delta`` apart.

    Computes ceil((z_alpha + z_beta)**2 * std**2 / delta**2) for each
    state's std and keeps the larger, erring on the safe side when the
    two states are not equally noisy.
    """
    if delta <= 0:
        raise ValueError("a zero mean shift cannot be detected")
    if std1 <= 0 or std2 <= 0:
        raise ValueError("standard deviations must be positive")
    z_sum_sq = (z_alpha + z_beta) ** 2
    n1 = math.ceil(z_sum_sq * std1 * std1 / (delta * delta))
    n2 = math.ceil(z_sum_sq * std2 * std2 / (delta * delta))
    return max(n1, n2)


def _check_probe_budget(model: RewardModel, info_arm: int, name: str, budget: int) -> None:
    """ValueError unless ``info_arm`` is an arm of ``model`` and the probe
    budget ``budget``, called ``name``, is non-negative."""
    if not 0 <= info_arm < model.num_arms:
        raise ValueError(f"info_arm must be an arm in [0, {model.num_arms}), got {info_arm}")
    if budget < 0:
        raise ValueError(f"{name} must be non-negative, got {budget}")


class ExploreCommit(BeliefPolicy):
    """Play the probe arm ``n_e`` times, then commit to the nearest state.

    The commit compares the empirical probe mean against the probe arm's
    per-state means and plays the winning state's best arm forever.
    The budget is ``n_e`` if given, else the z-test sample size from
    ``delta``, ``std1`` and ``std2`` (``explore_commit_sample_size``).
    A zero budget commits immediately from the prior's argmax.  The
    belief is still filtered so traces stay comparable, but it no longer
    influences arm choice after the commit.
    """

    name = "explore_commit"

    def __init__(self, model, kernel, prior, info_arm: int, rng, n_e: int | None = None,
                 delta: float | None = None, std1: float | None = None, std2: float | None = None,
                 z_alpha: float = 1.96, z_beta: float = 0.84):
        super().__init__(model, kernel, prior, rng)
        if n_e is None:
            if delta is None or std1 is None or std2 is None:
                raise ValueError("explore_commit needs n_e, or all of delta, std1 and std2")
            n_e = explore_commit_sample_size(delta, std1, std2, z_alpha, z_beta)
        _check_probe_budget(model, info_arm, "n_e", n_e)
        self.info_arm = int(info_arm)
        self.n_e = int(n_e)
        self._probe_rewards: list[float] = []
        self._committed_state: int | None = None

    def _commit(self) -> int:
        if not self._probe_rewards:
            return self.prior.argmax()
        mean_reward = float(np.mean(self._probe_rewards))
        distances = np.abs(mean_reward - self.model.means[self.info_arm])
        return int(np.argmin(distances))

    def _choose(self, offered: np.ndarray, best_arms) -> int:
        if self.time <= self.n_e:
            self.last_info_play = True
            return self.info_arm
        if self._committed_state is None:
            self._committed_state = self._commit()
        return best_arms[self._committed_state]

    def _learn(self, arm, reward, likelihoods) -> None:
        super()._learn(arm, reward, likelihoods)
        if arm == self.info_arm and self._committed_state is None:
            self._probe_rewards.append(reward)


# Gauss-Hermite rule for expectations over the reward noise; 64 nodes keep
# the quadrature error far below the Monte Carlo tolerance the forecast is
# held to
_GH_NODES, _GH_WEIGHTS = np.polynomial.hermite_e.hermegauss(64)
_GH_WEIGHTS = _GH_WEIGHTS / _GH_WEIGHTS.sum()
_clip = (getattr(np, "_core", None) or np.core).umath.clip  # np.clip's ufunc, without its wrapper


def _quadrature_likelihoods(model: RewardModel, arm, true_state):
    """Likelihoods of the true and the other state at the quadrature rewards.

    Rewards are drawn (by quadrature) from ``arm``'s distribution in the
    true state.  They depend on nothing else, so a forecast computes them
    once and reuses them at every step.  ``arm`` and ``true_state`` may be
    integer arrays that broadcast together; the node axis comes last.
    """
    mean_t = model.means[arm, true_state][..., None]
    std_t = model.stds[arm, true_state][..., None]
    mean_o = model.means[arm, 1 - true_state][..., None]
    std_o = model.stds[arm, 1 - true_state][..., None]
    rewards = mean_t + std_t * _GH_NODES
    z_t = (rewards - mean_t) / std_t
    z_o = (rewards - mean_o) / std_o
    lik_t = np.exp(-0.5 * z_t * z_t) / std_t
    lik_o = np.exp(-0.5 * z_o * z_o) / std_o
    return lik_t, lik_o


def _expected_posterior(p, likelihoods, positive=False):
    """E over reward noise of the one-step posterior P(true state).

    ``p`` may be a scalar or an array of current beliefs that broadcasts
    against ``likelihoods`` (from ``_quadrature_likelihoods``) without its
    node axis: the mean one-step Bayes update of an agent playing that arm,
    noise included.  Where both likelihoods underflow the belief is kept,
    unless the caller passes ``positive``: that no denominator is zero.
    """
    lik_t, lik_o = likelihoods
    p = np.asarray(p, dtype=float)
    num = p[..., None] * lik_t
    den = num + (1.0 - p[..., None]) * lik_o
    if positive or (den > 0).all():
        post = num / den
    else:
        post = np.where(den > 0, num / np.where(den > 0, den, 1.0), p[..., None])
    return _clip(post @ _GH_WEIGHTS, 0.0, 1.0)


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

    if arm is not None:
        lik_arm = _quadrature_likelihoods(model, arm, true_state)
    else:
        best = model.best_arms()
        lik_true = _quadrature_likelihoods(model, best[true_state], true_state)
        lik_other = _quadrature_likelihoods(model, best[1 - true_state], true_state)

    trajectory = np.empty(steps + 1)
    trajectory[0] = p0
    p = float(p0)
    for t in range(steps):
        if arm is not None:
            p = float(_expected_posterior(p, lik_arm))
        else:
            p = float(
                p * _expected_posterior(p, lik_true)
                + (1.0 - p) * _expected_posterior(p, lik_other)
            )
        trajectory[t + 1] = p
    return trajectory


def _ps_regret(start, first_step: int, horizon: int, ps_gap, likelihoods) -> np.ndarray:
    """Forecast posterior-sampling regret of the continuations in ``start``.

    ``start`` has one row of beliefs per true state.  Continuation i takes
    over with belief ``start[:, i]`` at step ``first_step + i`` and adds
    (1 - P_t) times its row's ``ps_gap`` ([state, 1]) at every step up to
    the horizon, all at once: at step t the active ones are a prefix of
    each row.  ``likelihoods`` holds, per true state, those of its best arm
    and of the other state's best arm, shaped [state, 1, arm, node]; no
    denominator is zero unless one nears underflow, as max(p, 1 - p) >= 1/2.
    """
    p = np.array(start, dtype=float)
    positive = min(lik.min() for lik in likelihoods) >= 4.0 * np.finfo(float).tiny
    terms = np.zeros((max(horizon - first_step, 0),) + p.shape)
    for step in range(horizon - first_step):
        active = p[:, : step + 1]
        rest = 1.0 - active
        np.multiply(rest, ps_gap, out=terms[step, :, : active.shape[1]])
        expected = _expected_posterior(active[..., None], likelihoods, positive)
        active[:] = active * expected[..., 0] + rest * expected[..., 1]
    return np.add.reduce(terms, 0)  # in step order, as a running total adds


# relative slack on the seeded pruning bound, far above any rounding that
# could separate a total here from a full scan's or lift a probe cost over it
_PRUNE_MARGIN = 1e-9


def check_tau_forecast(model: RewardModel, horizon: int) -> None:
    """ValueError unless :func:`explore_then_ps_tau` is defined for
    ``model`` and ``horizon``; checked without forecasting."""
    if model.num_states != 2:
        raise ValueError("explore_then_ps_tau is defined for two-state models only")
    if horizon < 1:
        raise ValueError("horizon must be at least 1")


def explore_then_ps_tau(model: RewardModel, info_arm: int, horizon: int) -> int:
    """Probe budget minimizing forecast explore cost plus filtering regret.

    The objective for a budget tau in [0, horizon] averages over both
    possible true states: tau plays of the probe arm cost tau times the
    per-step probe regret, after which the forecast posterior-sampling
    regret accumulates (1 - P_t) times the cross-state best-arm gap for
    the remaining steps.  tau = 0 encodes falling back to pure posterior
    sampling.

    Not every budget is forecast.  The filtering regret is never
    negative, so the objective at tau is at least the explore cost alone,
    tau * (cost_0 + cost_1) / 2.  Budgets 0 and 1 are scored first, in one
    pass; a budget whose lower bound exceeds the smaller of their totals
    by more than the relative margin ``_PRUNE_MARGIN`` can neither tie nor
    win, so only the budgets 0..K at or below that line are scored, those
    past 1 in a second pass.  Ties break toward the smaller budget.
    """
    check_tau_forecast(model, horizon)
    states = np.arange(2)
    best = model.best_arms()
    explore_cost = model.means[best, states] - model.means[info_arm, states]
    ps_gap = (model.means[best, states] - model.means[best[::-1], states])[:, None]
    arms = np.stack([best, best[::-1]], axis=1)[:, None, :]
    likelihoods = _quadrature_likelihoods(model, arms, states[:, None, None])
    taus = np.arange(horizon + 1)

    def objective(first, probe_paths):
        ps_regret = _ps_regret(probe_paths, first, horizon, ps_gap, likelihoods)
        budgets = taus[first : first + ps_regret.shape[1]]
        return 0.5 * (budgets * explore_cost[0] + ps_regret[0]) + 0.5 * (budgets * explore_cost[1] + ps_regret[1])

    # the belief after 0 and 1 probe plays: budget tau takes over at step tau
    seeds = np.array([belief_forecast_two_state(0.5, model, 1, true_state=s, arm=info_arm) for s in (0, 1)])
    totals = list(objective(0, seeds))
    # the explore costs are never negative, so the survivors are a prefix
    lower_bound = 0.5 * (taus * explore_cost[0]) + 0.5 * (taus * explore_cost[1])
    last = int(np.count_nonzero(lower_bound <= min(totals) * (1.0 + _PRUNE_MARGIN))) - 1
    if last > 1:
        # each probe path continued from tau = 1 to the last survivor
        paths = [belief_forecast_two_state(p, model, last - 1, true_state=s, arm=info_arm)
                 for s, p in enumerate(seeds[:, 1])]
        totals.extend(objective(2, np.array(paths)[:, 1:]))
    return int(np.argmin(totals))


class ExploreThenPS(MTS):
    """Probe for a precomputed budget, then hand over to belief sampling.

    With a zero budget this is posterior sampling from the first step, so
    a shared seed reproduces the MTS trace exactly.
    """

    name = "explore_then_ps"

    def __init__(self, model, kernel, prior, info_arm: int, tau: int, rng):
        super().__init__(model, kernel, prior, rng)
        _check_probe_budget(model, info_arm, "tau", tau)
        self.info_arm = int(info_arm)
        self.tau = int(tau)

    def _choose(self, offered: np.ndarray, best_arms) -> int:
        if self.time <= self.tau:
            self.last_info_play = True
            return self.info_arm
        return super()._choose(offered, best_arms)
