"""Reference oracle for the per-run step tables and per-step kernels.

Copies of the scalar and numpy code that the tables and the list-based
baselines replaced: the trajectory walk that drew every state with
``rng.choice(p=row)``, the per-state best-arm argmax, and mUCB's
per-state consistency loop; EXP4S's step as it drew its arm with
``rng.choice`` and projected every update with the numpy floor loop;
cducb/cdts's choice as it scanned its counts for an unplayed state every
step, their numpy picks (cdts drawing ``rng.normal(means, scales)``) and
the scalar detector that read its deque window with ``np.fromiter``;
and the harness's step loop as it summed each step's Python-float reward
and regret into running totals.  ``StateModelBandit`` and ``MUCB`` step
these copies on numpy arrays.  The CDF walk, the best-arm tables, the
baselines' Python-float steps, the doubled-ring detector, the warm-up
counter and the run record gathered after the step loop must reproduce
them bit for bit; this module is imported by tests only and is not a
test file.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np
from policy_rows import likelihoods

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
    counts, sums = np.asarray(policy.counts), np.asarray(policy.sums, dtype=float)
    played = np.flatnonzero(counts > 0)
    alive = np.ones(model.num_states, dtype=bool)
    if played.size == 0:
        return alive
    means = sums[played] / counts[played]
    log_t = math.log(max(policy.time, 2))
    for s in range(model.num_states):
        predicted = model.means[played, s]
        radius = model.stds[played, s] * np.sqrt(log_t / counts[played])
        alive[s] = bool(np.all(np.abs(means - predicted) <= radius))
    if not alive.any():
        alive[:] = True
    return alive


def mucb_arm(model, offered, surviving):
    """mUCB's optimistic arm over the surviving states."""
    optimistic = model.means[np.ix_(offered, np.flatnonzero(surviving))]
    return int(offered[np.argmax(optimistic.max(axis=1))])


class MUCB:
    """mUCB on numpy arrays: the per-state consistency loop, sticky
    elimination and the optimistic arm."""

    def __init__(self, model):
        self.model = model
        self.time = 1
        self.counts = np.zeros(model.num_arms, dtype=int)
        self.sums = np.zeros(model.num_arms)
        self.surviving = np.ones(model.num_states, dtype=bool)

    def step(self, offered):
        alive = self.surviving & consistent_states(self)
        if not alive.any():
            alive = np.ones(self.model.num_states, dtype=bool)
        self.surviving = alive
        return mucb_arm(self.model, offered, alive)

    def observe(self, arm, reward):
        self.counts[arm] += 1
        self.sums[arm] += reward
        self.time += 1


def state_model_choose(policy, offered, best_arms):
    """cducb/cdts's ``_choose``: the first state unplayed since the last
    reset, else the policy's own pick."""
    unplayed = np.flatnonzero(np.asarray(policy.counts) == 0)
    state = int(unplayed[0]) if unplayed.size else policy._pick_state()
    policy._last_meta = state
    return best_arms[state]


def cducb_pick_state(self):
    """CDUCB's ``_pick_state`` on numpy arrays."""
    means = self.sums / self.counts
    bonus = self._scale * np.sqrt(2.0 * math.log(max(self.time, 2)) / self.counts)
    return int(np.argmax(means + bonus))


def cdts_pick_state(self):
    """CDTS's ``_pick_state`` on numpy arrays: ``rng.normal`` draws the samples."""
    means = self.sums / self.counts
    samples = self.rng.normal(means, self._scale / np.sqrt(self.counts))
    return int(np.argmax(samples))


class DequeDetector:
    """The scalar detector's window as a deque."""

    def __init__(self, window_size, threshold):
        self.window_size = window_size
        self.threshold = threshold
        self.window = deque(maxlen=window_size)

    @property
    def full(self):
        return len(self.window) == self.window_size

    def push(self, item):
        self.window.append(item)


def cd_scalar_check(state):
    """True when the two half-window reward sums differ by more than b."""
    if not state.full:
        return False
    half = state.window_size // 2
    rewards = np.fromiter(state.window, dtype=float, count=state.window_size)
    return bool(abs(rewards[half:].sum() - rewards[:half].sum()) > state.threshold)


class StateModelBandit:
    """cducb (``pick_state=cducb_pick_state``) or cdts on numpy arrays:
    per-state counts and sums, a deque detector per state, the unplayed
    scan and a full reset on detection."""

    def __init__(self, model, rng, pick_state, window_size=50, threshold=15.0):
        self.model, self.rng, self.pick_state = model, rng, pick_state
        self.window_size, self.threshold = window_size, threshold
        self._scale = float(model.stds.max())
        self.time = 1
        self.detector_resets = 0
        self._reset_stats()

    def _reset_stats(self):
        k = self.model.num_states
        self.counts = np.zeros(k, dtype=int)
        self.sums = np.zeros(k)
        self.detectors = [DequeDetector(self.window_size, self.threshold) for _ in range(k)]

    def step(self, best_arms):
        unplayed = np.flatnonzero(self.counts == 0)
        self._last_meta = int(unplayed[0]) if unplayed.size else self.pick_state(self)
        return best_arms[self._last_meta]

    def observe(self, reward):
        meta = self._last_meta
        self.counts[meta] += 1
        self.sums[meta] += reward
        detector = self.detectors[meta]
        detector.push(reward)
        if cd_scalar_check(detector):
            self.detector_resets += 1
            self._reset_stats()
        self.time += 1


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
            arm = policy.step(offered, model.best_arms(offered))
            mean = means[arm][state]
            reward = mean + stds[arm][state] * draw
            policy.observe(reward, None if policy.belief_probs is None else likelihoods(model, arm, reward))
            optimal = means[best_arm(model, state, offered)][state]
            total += optimal - mean
            total_realized += optimal - reward
            for column, value in zip(columns, (arm, reward, total, total_realized, int(policy.last_info_play))):
                column.append(value)
        record[spec.name] = columns
    return record
