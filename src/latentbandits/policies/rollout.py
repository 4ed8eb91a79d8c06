"""Deterministic trajectory roll-outs for valuing an information probe.

The estimator answers: starting from the current belief, is one play of
the probe arm worth its worst-case cost?  For every hypothetical true
state other than the belief's argmax it simulates two belief trajectories
over the expected dwell time, one seeded with a simulated probe play and
one without, accumulating the mean reward each trajectory's greedy play
mix would earn if that hypothetical state were the truth.  Both pseudo
reward streams are expectations over the trajectory's own belief, which
keeps the estimator free of sampling noise.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# posterior_update stays a name of this module for the benchmark's probes
from ..belief import entropy_bits, expected_dwell_time, filter_step, posterior_update  # noqa: F401
from ..models import (
    BeliefState,
    DegenerateEvidenceError,
    RewardModel,
    TransitionKernel,
)

_SQRT_2PI = np.sqrt(2.0 * np.pi)


@dataclass(frozen=True)
class RolloutResult:
    """Cumulative roll-out rewards, each averaged over the hypothetical states."""

    reward_ig: float
    reward_ps: float
    horizon_used: int
    # simulated filter steps that fell back to propagation
    degenerate_fallbacks: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.reward_ig) and np.isfinite(self.reward_ps)):
            raise ValueError("roll-out rewards must be finite")
        if self.horizon_used < 1:
            raise ValueError("a roll-out covers at least one step")


def _density(value, means, stds):
    z = (value - means) / stds
    return np.exp(-0.5 * z * z) / (stds * _SQRT_2PI)


def rollout_likelihood_matrix(
    model: RewardModel,
    hypothetical_state: int,
    policy_belief: BeliefState,
    best_arms=None,
) -> np.ndarray:
    """Pseudo-likelihood row for greedy play under a hypothetical state.

    Builds L[a, s] as the density of arm a's hypothetical-state mean
    reward under arm a's distribution in state s, then averages the rows
    of each state's greedy arm weighted by the belief.  The result is the
    expected per-state evidence one greedy play generates when the
    hypothetical state is the truth; states indistinguishable through the
    greedy arms yield a flat row.  ``best_arms[s]`` is state s's greedy
    arm, by default its best arm of all.
    """
    if best_arms is None:
        best_arms = model.best_arms()
    row = np.zeros(model.num_states)
    for s, weight in enumerate(policy_belief.probs):
        if weight == 0.0:
            continue
        arm = best_arms[s]
        probe = model.means[arm, hypothetical_state]
        row += weight * _density(probe, model.means[arm], model.stds[arm])
    total = row.sum()
    if total <= 0.0:
        raise DegenerateEvidenceError("greedy roll-out evidence underflowed everywhere")
    return row / total


def rollout_info_likelihood(
    model: RewardModel,
    info_arm: int,
    hypothetical_state: int,
    policy_belief: BeliefState,
) -> np.ndarray:
    """Pseudo-likelihood row for one probe-arm play, belief weighted.

    Component-wise product of the belief with the densities of the probe
    arm's hypothetical-state mean under its distribution in every state.
    A probe identical across states returns the belief unchanged.
    """
    probe = model.means[info_arm, hypothetical_state]
    densities = _density(probe, model.means[info_arm], model.stds[info_arm])
    row = policy_belief.probs * densities
    total = row.sum()
    if total <= 0.0:
        raise DegenerateEvidenceError("probe evidence has no overlap with the belief")
    return row / total


def reward_estimator(
    belief: BeliefState,
    model: RewardModel,
    kernel: TransitionKernel,
    greedy_arm: int,
    info_arm: int,
    r_u: float,
    horizon_cap: int,
    best_arms=None,
    entropy_threshold: float = 1.0,
) -> RolloutResult:
    """Compare probe-then-greedy against pure greedy filtering.

    For each hypothetical state the probe trajectory starts with one
    simulated probe play (cost ``-r_u``, worst-case single-step regret)
    and may re-probe during the roll-out while its entropy stays above
    the threshold and its lead exceeds ``r_u``.  Per-step rewards are the
    belief-weighted mean rewards of each trajectory's greedy arms under
    the hypothetical state, and both totals are averaged over the
    ``num_states - 1`` hypotheses.  A hypothesis the belief rules out
    entirely (zero mass, e.g. an unreachable start state) contributes
    zero to both strategies rather than polluting the comparison.
    ``best_arms[s]`` is state s's greedy arm among the offered arms, by
    default its best arm of all.
    """
    if info_arm == greedy_arm:
        raise ValueError("the probe arm must differ from the greedy arm")
    num_states = model.num_states
    t_exp = int(round(expected_dwell_time(kernel, belief, horizon_cap)))
    t_exp = max(1, min(t_exp, int(horizon_cap)))
    anchor = belief.argmax()
    greedy = model.best_arms() if best_arms is None else np.asarray(best_arms)

    matrix = kernel.matrix
    total_ig = 0.0
    total_ps = 0.0
    fallbacks = 0
    for s_hyp in range(num_states):
        if s_hyp == anchor or belief.probs[s_hyp] == 0.0:
            continue
        # pseudo-evidence rows are frozen at the decision-time belief
        try:
            info_row = rollout_info_likelihood(model, info_arm, s_hyp, belief)
        except DegenerateEvidenceError:
            # no evidence: every filter step with it falls back to propagation
            info_row = np.zeros(num_states)
        greedy_row = rollout_likelihood_matrix(model, s_hyp, belief, greedy)
        # mean reward of each state's greedy arm if s_hyp is the truth
        payoff = model.means[greedy, s_hyp]

        p_ig, fell_back = filter_step(belief.probs, matrix, info_row)
        fallbacks += fell_back
        p_ps = belief.probs
        r_ig = -r_u
        r_ps = 0.0
        for _ in range(t_exp):
            if entropy_bits(p_ig) >= entropy_threshold and (r_ig - r_ps) > r_u:
                p_ig, fell_back = filter_step(p_ig, matrix, info_row)
                r_ig -= r_u
            else:
                p_ig, fell_back = filter_step(p_ig, matrix, greedy_row)
            p_ps, fell_back_ps = filter_step(p_ps, matrix, greedy_row)
            fallbacks += fell_back + fell_back_ps
            r_ig += float(p_ig @ payoff)
            r_ps += float(p_ps @ payoff)
        total_ig += r_ig
        total_ps += r_ps

    scale = num_states - 1
    return RolloutResult(total_ig / scale, total_ps / scale, t_exp, fallbacks)
