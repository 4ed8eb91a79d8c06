"""Reference oracle for the per-run step tables and per-step kernels.

Copies of the scalar code that the tables replaced: the trajectory walk
that drew every state with ``rng.choice(p=row)``, the per-state best-arm
argmax, and mUCB's per-state consistency loop; EXP4S's step as it
drew its arm with ``rng.choice`` and projected every update with the
floor loop; cducb/cdts's choice as it scanned its counts for an
unplayed state every step; and the harness's step loop as it summed
each step's Python-float reward and regret into running totals.  The
CDF walk, the best-arm tables, the broadcast mUCB, EXP4S, the warm-up
counter and the run record gathered after the step loop must reproduce
them bit for bit; this module is imported by tests only and is not a
test file.
"""

from __future__ import annotations

import math

import numpy as np

from latentbandits.environments import Trajectory, sample_arm_set
from latentbandits.harness import _run_kernel
from latentbandits.policies import experiment_params, make_policy


def best_arm(model, state, arms=None):
    """Index of the highest-mean arm in ``state``, ties to the arm listed first."""
    if arms is None:
        return int(np.argmax(model.means[:, state]))
    arms = np.asarray(arms, dtype=int)
    return int(arms[np.argmax(model.means[arms, state])])


def _advance_state(state, time, kernel, rng, schedule):
    if schedule is None:
        return int(rng.choice(kernel.num_states, p=kernel.matrix[state]))
    if time not in schedule:
        return state
    row = kernel.matrix[state].copy()
    row[state] = 0.0
    total = row.sum()
    if total <= 0:
        row = np.ones_like(row)
        row[state] = 0.0
        total = row.sum()
    return int(rng.choice(row.size, p=row / total))


def generate_trajectory(model, kernel, prior, horizon, rng, schedule=None, arm_set_size=None):
    prior = np.asarray(prior, dtype=float)
    state = int(rng.choice(prior.size, p=prior))
    schedule = frozenset(int(t) for t in schedule) if schedule else None
    states = np.empty(horizon, dtype=int)
    arm_sets = []
    for t in range(horizon):
        states[t] = state
        if arm_set_size is None:
            arm_sets.append(np.arange(model.num_arms))
        else:
            arm_sets.append(sample_arm_set(model.num_arms, arm_set_size, rng))
        state = _advance_state(state, t + 1, kernel, rng, schedule)
    noise = rng.standard_normal(horizon)
    return Trajectory(states=states, arm_sets=arm_sets, noise=noise)


def consistent_states(policy):
    """mUCB's surviving-state test, one state at a time."""
    model = policy.model
    played = np.flatnonzero(policy.counts > 0)
    alive = np.ones(model.num_states, dtype=bool)
    if played.size == 0:
        return alive
    means = policy.sums[played] / policy.counts[played]
    log_t = math.log(max(policy.time, 2))
    for s in range(model.num_states):
        predicted = model.means[played, s]
        radius = model.stds[played, s] * np.sqrt(log_t / policy.counts[played])
        alive[s] = bool(np.all(np.abs(means - predicted) <= radius))
    if not alive.any():
        alive[:] = True
    return alive


def mucb_arm(model, offered, surviving):
    """mUCB's optimistic arm over the surviving states."""
    optimistic = model.means[np.ix_(offered, np.flatnonzero(surviving))]
    return int(offered[np.argmax(optimistic.max(axis=1))])


def state_model_choose(policy, offered, best_arms):
    """cducb/cdts's ``_choose``: the first state unplayed since the last
    reset, else the policy's own pick."""
    unplayed = np.flatnonzero(policy.counts == 0)
    state = int(unplayed[0]) if unplayed.size else policy._pick_state()
    policy._last_meta = state
    return best_arms[state]


def exp4s_mixture(model, weights, best_arms):
    """EXP4S's arm probabilities and its advice matrix [expert, arm]."""
    advice = np.zeros((model.num_states, model.num_arms))
    advice[np.arange(model.num_states), best_arms] = 1.0
    probs = weights @ advice
    return probs / probs.sum(), advice


def exp4s_choose(model, weights, best_arms, rng):
    """EXP4S's arm and its advice matrix."""
    probs, advice = exp4s_mixture(model, weights, best_arms)
    return int(rng.choice(model.num_arms, p=probs)), advice


def exp4s_update(weights, chosen_expert_probs, reward, arm, learning_rate, weight_floor):
    weights = np.asarray(weights, dtype=float)
    advice_col = np.asarray(chosen_expert_probs, dtype=float)
    if advice_col.ndim == 2:
        advice_col = advice_col[:, arm]
    prob_arm = float(weights @ advice_col)
    if prob_arm <= 0:
        raise ValueError("the played arm had zero probability under the weights")
    estimate = advice_col * (reward / prob_arm)
    updated = weights * np.exp(learning_rate * estimate)
    updated = updated / updated.sum()
    return _floor_project(updated, weight_floor)


def _floor_project(weights, floor):
    k = weights.size
    if floor * k > 1.0 + 1e-12:
        raise ValueError("weight_floor is infeasible for this many experts")
    pinned = np.zeros(k, dtype=bool)
    weights = weights.copy()
    for _ in range(k):
        below = (weights < floor) & ~pinned
        if not below.any():
            break
        pinned |= below
        weights[pinned] = floor
        free = ~pinned
        remaining = 1.0 - floor * pinned.sum()
        total_free = weights[free].sum()
        if total_free > 0:
            weights[free] *= remaining / total_free
        else:
            weights[free] = remaining / max(free.sum(), 1)
    return weights


def run_policies(config, run_index):
    """Each policy's ``(arms, rewards, cum_regret, cum_realized_regret,
    info_flags)`` lists on run ``run_index`` of ``config``, stepped one
    scalar at a time: each reward as ``mean + std * noise`` in Python
    floats, and regret as running totals that start at 0.0."""
    env = config.validate()
    model, horizon = env.model, config.horizon
    kernel = _run_kernel(env, config, run_index)
    trajectory = generate_trajectory(model, kernel, env.prior, horizon,
                                     np.random.default_rng([config.base_seed + run_index, 0]),
                                     schedule=env.schedule, arm_set_size=env.arm_set_size)
    means, stds = model.means.tolist(), model.stds.tolist()
    record = {}
    for i, spec in enumerate(config.policies):
        policy = make_policy(spec.name, model, kernel, env.prior, horizon,
                             np.random.default_rng([config.base_seed + run_index, i + 1]),
                             params=experiment_params(spec.name, spec.params, model, horizon),
                             arm_features=env.arm_features)
        columns = arms, rewards, regret, realized, flags = [], [], [], [], []
        total = total_realized = 0.0
        for state, offered, draw in zip(trajectory.states.tolist(), trajectory.arm_sets, trajectory.noise.tolist()):
            if policy.wants_true_state:
                policy.set_true_state(state)
            arm = policy.step(offered)
            mean = means[arm][state]
            reward = mean + stds[arm][state] * draw
            policy.observe(reward)
            optimal = means[best_arm(model, state, offered)][state]
            total += optimal - mean
            total_realized += optimal - reward
            for column, value in zip(columns, (arm, reward, total, total_realized, int(policy.last_info_play))):
                column.append(value)
        record[spec.name] = columns
    return record
