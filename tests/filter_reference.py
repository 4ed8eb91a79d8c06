"""Reference oracle for the per-step belief filter and roll-out.

A copy of ``posterior_update``, ``propagate``, ``entropy`` and the
``reward_estimator`` loop as they stood while every step built a
validated ``BeliefState``.  The raw-array filter step, the policies and
the roll-out must reproduce them bit for bit; this module is imported
by tests only and is not a test file.
"""

from __future__ import annotations

import numpy as np

from latentbandits.belief import expected_dwell_time
from latentbandits.models import BeliefState, DegenerateEvidenceError
from latentbandits.policies.rollout import rollout_info_likelihood, rollout_likelihood_matrix
from step_reference import best_arm


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


def filtered(belief, kernel, likelihoods):
    """A policy's filter step: degenerate evidence falls back to propagation."""
    try:
        return posterior_update(belief, kernel, likelihoods)
    except DegenerateEvidenceError:
        return propagate(belief, kernel)


def _updated(belief, kernel, pseudo_likelihood):
    if pseudo_likelihood is None:
        return propagate(belief, kernel)
    return filtered(belief, kernel, pseudo_likelihood)


def reward_estimator(belief, model, kernel, greedy_arm, info_arm, r_u, horizon_cap, offered_arms=None,
                     entropy_threshold=1.0):
    """(reward_ig, reward_ps, horizon_used) of the roll-out."""
    t_exp = int(round(expected_dwell_time(kernel, belief, horizon_cap)))
    t_exp = max(1, min(t_exp, int(horizon_cap)))
    anchor = belief.argmax()
    greedy = np.array([best_arm(model, s, offered_arms) for s in range(model.num_states)], dtype=int)
    total_ig = 0.0
    total_ps = 0.0
    for s_hyp in range(model.num_states):
        if s_hyp == anchor or belief.probs[s_hyp] == 0.0:
            continue
        try:
            info_row = rollout_info_likelihood(model, info_arm, s_hyp, belief)
        except DegenerateEvidenceError:
            info_row = None
        greedy_row = rollout_likelihood_matrix(model, s_hyp, belief, greedy)
        payoff = model.means[greedy, s_hyp]
        p_ig = _updated(belief, kernel, info_row)
        p_ps = belief
        r_ig = -r_u
        r_ps = 0.0
        for _ in range(t_exp):
            if entropy(p_ig) >= entropy_threshold and (r_ig - r_ps) > r_u:
                p_ig = _updated(p_ig, kernel, info_row)
                r_ig -= r_u
            else:
                p_ig = _updated(p_ig, kernel, greedy_row)
            p_ps = _updated(p_ps, kernel, greedy_row)
            r_ig += float(p_ig.probs @ payoff)
            r_ps += float(p_ps.probs @ payoff)
        total_ig += r_ig
        total_ps += r_ps
    scale = model.num_states - 1
    return total_ig / scale, total_ps / scale, t_exp
