"""Reference oracle for the per-step belief filter and roll-out.

A copy of ``posterior_update``, ``propagate``, ``entropy``, the two
roll-out evidence rows and the ``reward_estimator`` loop as they stood
while every step built a validated ``BeliefState`` and the roll-out
walked one hypothesis at a time, and of the scalar likelihood row
(``reward_log_likelihoods`` and ``likelihoods_from_log``) as it stood
while every filter step built its own.  The belief stack, the
policies, the per-run evidence table and the stacked roll-out must
reproduce them bit for bit.  It also keeps the three statements of the
simplex rule that ``models._on_simplex`` replaced (the probability
vector's, the transition kernel's and the belief stack's), which must
accept and reject the same inputs.  This module is imported by tests
only and is not a test file.
"""

from __future__ import annotations

import math

import numpy as np

from latentbandits.belief import expected_dwell_time
from latentbandits.models import STOCHASTIC_ATOL, BeliefState, DegenerateEvidenceError
from step_reference import best_arm


_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def reward_log_likelihoods(model, arm, reward):
    means = model.means[arm]
    stds = model.stds[arm]
    z = (reward - means) / stds
    return -0.5 * z * z - np.log(stds) - _LOG_SQRT_2PI


def likelihoods_from_log(log_liks):
    log_liks = np.asarray(log_liks, dtype=float)
    return np.exp(log_liks - log_liks.max())


def posterior_update(belief, kernel, likelihoods):
    liks = np.asarray(likelihoods, dtype=float)
    if liks.shape != belief.probs.shape:
        raise ValueError("likelihoods must have one entry per state")
    if np.any(liks < 0):
        raise ValueError("likelihoods must be non-negative")
    weighted = belief.probs * liks
    propagated = weighted @ kernel.matrix
    total = propagated.sum()
    if total <= 0.0 or not np.isfinite(total):
        raise DegenerateEvidenceError("posterior update produced zero mass in every state")
    return BeliefState(propagated / total)


def propagate(belief, kernel):
    return BeliefState(belief.probs @ kernel.matrix)


def entropy(belief):
    probs = belief.probs[belief.probs > 0]
    return float(-(probs * np.log2(probs)).sum())


def _density(value, means, stds):
    z = (value - means) / stds
    return np.exp(-0.5 * z * z) / (stds * np.sqrt(2.0 * np.pi))


def rollout_likelihood_matrix(model, hypothetical_state, policy_belief, best_arms):
    """Pseudo-likelihood row for greedy play under one hypothetical state."""
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


def rollout_info_likelihood(model, info_arm, hypothetical_state, policy_belief):
    """Pseudo-likelihood row for one probe-arm play under one hypothetical state."""
    probe = model.means[info_arm, hypothetical_state]
    densities = _density(probe, model.means[info_arm], model.stds[info_arm])
    row = policy_belief.probs * densities
    total = row.sum()
    if total <= 0.0:
        raise DegenerateEvidenceError("probe evidence has no overlap with the belief")
    return row / total


def _updated(belief, kernel, pseudo_likelihood):
    """(belief, fell back): a step without evidence, or with degenerate
    evidence, propagates and counts as a fallback."""
    if pseudo_likelihood is None:
        return propagate(belief, kernel), True
    try:
        return posterior_update(belief, kernel, pseudo_likelihood), False
    except DegenerateEvidenceError:
        return propagate(belief, kernel), True


def reward_estimator(belief, model, kernel, greedy_arm, info_arm, r_u, horizon_cap, offered_arms=None,
                     entropy_threshold=1.0):
    """(reward_ig, reward_ps, horizon_used, degenerate_fallbacks) of the roll-out."""
    t_exp = int(round(expected_dwell_time(kernel, belief, horizon_cap)))
    t_exp = max(1, min(t_exp, int(horizon_cap)))
    anchor = belief.argmax()
    greedy = np.array([best_arm(model, s, offered_arms) for s in range(model.num_states)], dtype=int)
    total_ig = 0.0
    total_ps = 0.0
    fallbacks = 0
    for s_hyp in range(model.num_states):
        if s_hyp == anchor or belief.probs[s_hyp] == 0.0:
            continue
        try:
            info_row = rollout_info_likelihood(model, info_arm, s_hyp, belief)
        except DegenerateEvidenceError:
            info_row = None
        greedy_row = rollout_likelihood_matrix(model, s_hyp, belief, greedy)
        payoff = model.means[greedy, s_hyp]
        p_ig, fell_back = _updated(belief, kernel, info_row)
        fallbacks += fell_back
        p_ps = belief
        r_ig = -r_u
        r_ps = 0.0
        for _ in range(t_exp):
            if entropy(p_ig) >= entropy_threshold and (r_ig - r_ps) > r_u:
                p_ig, fell_back = _updated(p_ig, kernel, info_row)
                r_ig -= r_u
            else:
                p_ig, fell_back = _updated(p_ig, kernel, greedy_row)
            p_ps, fell_back_ps = _updated(p_ps, kernel, greedy_row)
            fallbacks += fell_back + fell_back_ps
            r_ig += float(p_ig.probs @ payoff)
            r_ps += float(p_ps.probs @ payoff)
        total_ig += r_ig
        total_ps += r_ps
    scale = model.num_states - 1
    return total_ig / scale, total_ps / scale, t_exp, fallbacks


def as_prob_vector(values, name):
    """The probability-vector rule, behind ``BeliefState`` and priors."""
    vec = np.array(values, dtype=float)
    if vec.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {vec.shape}")
    if not np.all(np.isfinite(vec)):
        raise ValueError(f"{name} contains non-finite entries")
    if np.any(vec < 0):
        raise ValueError(f"{name} contains negative entries")
    if abs(vec.sum() - 1.0) > STOCHASTIC_ATOL:
        raise ValueError(f"{name} must sum to 1 within {STOCHASTIC_ATOL}, got {vec.sum()!r}")
    return vec


def transition_matrix(values):
    """The transition kernel's rule."""
    matrix = np.array(values, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise ValueError(f"transition matrix must be square, got shape {matrix.shape}")
    if not np.all(np.isfinite(matrix)):
        raise ValueError("transition matrix contains non-finite entries")
    if np.any(matrix < 0) or np.any(matrix > 1):
        raise ValueError("transition probabilities must lie in [0, 1]")
    row_sums = matrix.sum(axis=1)
    if np.any(np.abs(row_sums - 1.0) > STOCHASTIC_ATOL):
        raise ValueError(f"every row must sum to 1 within {STOCHASTIC_ATOL}, got {row_sums}")
    return matrix


def on_simplex(rows):
    """The belief stack's rule, on the rows that enter it and its fallback rows."""
    sums = np.add.reduce(rows, 1).tolist()
    if not (min(rows.ravel().tolist()) >= 0.0 and all(abs(total - 1.0) <= STOCHASTIC_ATOL for total in sums)):
        raise ValueError(f"belief left the probability simplex: {rows!r}, row sums {sums}")
    return rows
