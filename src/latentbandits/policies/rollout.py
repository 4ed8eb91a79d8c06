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
from ..belief import BeliefStack, entropy_bits, expected_dwell_time, posterior_update  # noqa: F401
from ..models import BeliefState, DegenerateEvidenceError, RewardModel, TransitionKernel

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
    hypotheses: np.ndarray,
    probs: np.ndarray,
    best_arms=None,
) -> np.ndarray:
    """Pseudo-likelihood rows for greedy play, one per hypothetical state.

    Row h is the expected per-state evidence one greedy play generates
    when ``hypotheses[h]`` is the truth: the density of each greedy arm's
    hypothetical-state mean under that arm's distribution in every
    state, averaged over the states' greedy arms weighted by the belief
    ``probs``.  States indistinguishable through the greedy arms yield a
    flat row.  The belief states are added in index order, so every row
    equals the one built for its hypothesis alone.  ``best_arms[s]`` is
    state s's greedy arm, by default its best arm of all.
    """
    if best_arms is None:
        best_arms = model.best_arms()
    hypotheses = np.asarray(hypotheses, dtype=int)
    rows = np.zeros((hypotheses.size, model.num_states))
    for s, weight in enumerate(probs):
        if weight == 0.0:
            continue
        arm = best_arms[s]
        rows += weight * _density(model.means[arm, hypotheses][:, None], model.means[arm], model.stds[arm])
    totals = rows.sum(axis=1)
    if (totals <= 0.0).any():
        raise DegenerateEvidenceError("greedy roll-out evidence underflowed everywhere")
    return rows / totals[:, None]


def rollout_info_likelihood(
    model: RewardModel,
    info_arm: int,
    hypotheses: np.ndarray,
    probs: np.ndarray,
) -> np.ndarray:
    """Pseudo-likelihood rows for one probe-arm play, belief weighted.

    Row h is the component-wise product of the belief ``probs`` with the
    densities of the probe arm's ``hypotheses[h]`` mean under its
    distribution in every state.  A probe identical across states
    returns the belief unchanged; a row with no overlap with the belief
    carries no evidence and is all zeros.
    """
    hypotheses = np.asarray(hypotheses, dtype=int)
    probes = model.means[info_arm, hypotheses][:, None]
    rows = probs * _density(probes, model.means[info_arm], model.stds[info_arm])
    totals = rows.sum(axis=1)[:, None]
    evidence = ~(totals <= 0.0)
    return np.divide(rows, totals, out=np.zeros_like(rows), where=evidence)


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

    Every hypothesis advances at once: the H probe trajectories and the
    H greedy-only ones are the rows of one ``[2H, S]`` belief stack,
    filtered together each step, and each row's arithmetic is that of
    the scalar filter.  The re-probe gate takes the lead first and the
    entropy only of the rows whose lead clears ``r_u``.
    """
    if info_arm == greedy_arm:
        raise ValueError("the probe arm must differ from the greedy arm")
    t_exp = int(round(expected_dwell_time(kernel, belief, horizon_cap)))
    t_exp = max(1, min(t_exp, int(horizon_cap)))
    probs = belief.probs
    hypotheses = np.flatnonzero(probs)
    hypotheses = hypotheses[hypotheses != belief.argmax()]
    count = hypotheses.size
    scale = model.num_states - 1
    if count == 0:
        return RolloutResult(0.0, 0.0, t_exp)
    greedy = model.best_arms() if best_arms is None else np.asarray(best_arms)

    # pseudo-evidence rows are frozen at the decision-time belief; with a
    # zero probe row every filter step falls back to propagation
    info_rows = rollout_info_likelihood(model, info_arm, hypotheses, probs)
    greedy_rows = rollout_likelihood_matrix(model, hypotheses, probs, greedy)
    if (info_rows < 0).any() or (greedy_rows < 0).any():
        raise ValueError("likelihoods must be non-negative")
    # row h: mean reward of each state's greedy arm if hypothesis h is the truth
    payoff = np.tile(model.means[greedy][:, hypotheses].T, (2, 1))[:, :, None]

    # rows [0, H): the probe trajectories; rows [H, 2H): greedy only
    probe = BeliefStack(np.tile(probs, (count, 1)), kernel.matrix)
    fallbacks = probe.filter(info_rows[:, None, :])
    beliefs = BeliefStack(np.concatenate([probe.rows, np.tile(probs, (count, 1))]), kernel.matrix)
    likelihoods = np.tile(greedy_rows, (2, 1))[:, None, :]
    # Python floats, added as the scalar loop added them
    rewards_ig = [-r_u] * count
    rewards_ps = [0.0] * count
    reprobing = [False] * count
    for _ in range(t_exp):
        for h in range(count):
            # the lead first: the entropy only where the lead clears r_u
            gate = rewards_ig[h] - rewards_ps[h] > r_u and entropy_bits(beliefs.rows[h]) >= entropy_threshold
            if gate:
                rewards_ig[h] -= r_u
            if gate != reprobing[h]:
                likelihoods[h, 0] = info_rows[h] if gate else greedy_rows[h]
                reprobing[h] = gate
        fallbacks += beliefs.filter(likelihoods)
        expected = beliefs.expect(payoff)
        for h in range(count):
            rewards_ig[h] += expected[h]
            rewards_ps[h] += expected[count + h]

    # the hypotheses add in index order, as the scalar loop added them
    total_ig = total_ps = 0.0
    for value_ig, value_ps in zip(rewards_ig, rewards_ps):
        total_ig += value_ig
        total_ps += value_ps
    return RolloutResult(total_ig / scale, total_ps / scale, t_exp, fallbacks)
