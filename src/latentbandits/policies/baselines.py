"""Baseline agents: restart-on-change bandits, exponential weights over
state experts, and confidence-set elimination.

All of them treat the per-state conditional reward models as their arms
or experts: choosing "state s" means playing state s's best offered arm.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import chain

import numpy as np

from ..models import RewardModel, TransitionKernel
from .base import Policy
from .detectors import ChangeDetectorState, cd_linear_check, cd_scalar_check


class _StateModelBandit(Policy):
    """Shared scaffolding: one meta-arm per latent state, scalar change
    detector per meta-arm, full reset on detection; a subclass picks the
    state with ``_pick_state``.  Per-state play counts and reward sums are
    Python lists, so a step is O(S) work on Python floats."""

    counters = ("detector_resets",)

    def __init__(self, model: RewardModel, rng, window_size: int = 50, threshold: float = 15.0):
        super().__init__(rng)
        self.model = model
        self._scale = float(model.stds.max())
        self.detector_resets = 0
        self.detectors = [ChangeDetectorState(window_size, threshold) for _ in range(model.num_states)]
        self._reset_stats()

    def _reset_stats(self) -> None:
        k = self.model.num_states
        self.counts = [0] * k
        self.sums = [0.0] * k
        for detector in self.detectors:
            detector.clear()
        # plays since the reset: the first k play states 0..k-1 in order
        self._plays = 0

    def _choose(self, offered: np.ndarray, best_arms) -> int:
        state = self._plays if self._plays < len(self.counts) else self._pick_state()
        self._last_meta = state
        return best_arms[state]

    def _learn(self, arm, reward, likelihoods) -> None:
        meta = self._last_meta
        self._plays += 1
        self.counts[meta] += 1
        self.sums[meta] += reward
        detector = self.detectors[meta]
        detector.push(reward)
        if cd_scalar_check(detector):
            self.detector_resets += 1
            self._reset_stats()


class CDUCB(_StateModelBandit):
    """UCB over the state models with a scalar change detector."""

    name = "cducb"

    def _pick_state(self) -> int:
        width, scale = 2.0 * math.log(max(self.time, 2)), self._scale
        indices = [total / n + scale * math.sqrt(width / n) for total, n in zip(self.sums, self.counts)]
        # the first state of the highest index, as np.argmax picks it
        return indices.index(max(indices))


class CDTS(_StateModelBandit):
    """Gaussian Thompson sampling over the state models, same detector."""

    name = "cdts"

    @cached_property
    def _normals(self):
        """The stream's standard normals in order, drawn 256 at a time: the
        values ``rng.normal(loc, scale)`` draws as ``loc + scale * z``."""
        return chain.from_iterable(iter(lambda: self.rng.standard_normal(256).tolist(), None))

    def _pick_state(self) -> int:
        scale = self._scale
        # zip takes one normal per state: the sums run out first
        samples = [total / n + scale / math.sqrt(n) * z
                   for total, n, z in zip(self.sums, self.counts, self._normals)]
        return samples.index(max(samples))


def exp4s_update(weights: np.ndarray, chosen_expert_probs: np.ndarray, reward: float, arm: int,
                 learning_rate: float, weight_floor: float) -> np.ndarray:
    """One exponential-weights update with an enforced weight floor.

    ``chosen_expert_probs`` is the advice matrix [expert, arm]; column
    ``arm`` gives each expert's probability of the played arm.  The
    reward is importance weighted by the mixture probability of the arm,
    credited to each expert by its advice, and the floor is enforced by
    pinning violating entries and renormalizing the rest, so experts can
    never be starved out after a change.
    """
    weights = np.asarray(weights, dtype=float)
    advice_col = np.asarray(chosen_expert_probs, dtype=float)
    if advice_col.ndim == 2:
        advice_col = advice_col[:, arm]
    prob_arm = float(weights @ advice_col)
    if prob_arm <= 0:
        raise ValueError("the played arm had zero probability under the weights")
    # element-wise on Python floats; np.exp and the normalising sum stay numpy's
    estimate = reward / prob_arm
    gains = np.exp([learning_rate * (advice * estimate) for advice in advice_col.tolist()]).tolist()
    updated = [weight * gain for weight, gain in zip(weights.tolist(), gains)]
    total = float(np.add.reduce(updated))
    return _floor_project([value / total for value in updated], weight_floor)


def _floor_project(values: list, floor: float) -> np.ndarray:
    """Project a list of weights onto the simplex subset {w : w_i >= floor}:
    pin the entries below the floor and rescale the free ones, until none
    is below.  The loop runs on Python floats; the free mass is numpy's
    pairwise sum."""
    k = len(values)
    if floor * k > 1.0 + 1e-12:
        raise ValueError("weight_floor is infeasible for this many experts")
    values = list(values)
    free = range(k)
    for _ in range(k):
        below = [i for i in free if values[i] < floor]
        if not below:
            break
        free = [i for i in free if not values[i] < floor]
        for i in below:
            values[i] = floor
        remaining = 1.0 - floor * (k - len(free))
        total_free = float(np.add.reduce([values[i] for i in free]))
        for i in free:
            values[i] = values[i] * (remaining / total_free) if total_free > 0 else remaining / len(free)
    return np.array(values)


# the tolerance of Generator.choice on the sum of p
_CHOICE_ATOL = math.sqrt(np.finfo(np.float64).eps)


class EXP4S(Policy):
    """Exponential weights over the state experts with a weight floor.

    Expert s deterministically advises the best arm of state s; the
    floor keeps every expert alive, which is what lets the algorithm
    re-adapt after the latent state moves.
    """

    name = "exp4s"

    def __init__(self, model: RewardModel, horizon: int, rng, learning_rate: float | None = None,
                 weight_floor: float | None = None):
        super().__init__(rng)
        self.model = model
        k = model.num_states
        self.learning_rate = learning_rate if learning_rate is not None else math.sqrt(math.log(k) / horizon)
        floor = weight_floor if weight_floor is not None else 1.0 / math.sqrt(k * horizon)
        if not (self.learning_rate > 0 and floor >= 0):
            raise ValueError(f"need learning_rate > 0 and weight_floor >= 0, got {self.learning_rate} and {floor}")
        self.weight_floor = min(floor, 1.0 / k)
        self.weights = np.full(k, 1.0 / k)
        self._experts = np.arange(k)
        # the advice matrix [expert, arm], rewritten in place when the
        # best-arm row it was written from changes
        self._advice = np.zeros((k, model.num_arms))
        self._advised = None

    def _choose(self, offered: np.ndarray, best_arms) -> int:
        best_arms = list(best_arms)
        if best_arms != self._advised:
            self._advice.fill(0.0)
            self._advice[self._experts, best_arms] = 1.0
            self._advised = best_arms
        probs = self.weights @ self._advice
        probs = probs / np.add.reduce(probs)
        # rng.choice(num_arms, p=probs) as numpy draws it: its check on p,
        # then one uniform against the normalised CDF
        cdf = probs.cumsum()
        if not (np.minimum.reduce(probs) >= 0.0 and abs(cdf[-1] - 1.0) <= _CHOICE_ATOL):
            raise ValueError(f"arm probabilities must be a distribution, got {probs!r}")
        cdf /= cdf[-1]
        return int(cdf.searchsorted(self.rng.random(), side="right"))

    def _learn(self, arm, reward, likelihoods) -> None:
        self.weights = exp4s_update(self.weights, self._advice[:, arm], reward, arm, self.learning_rate,
                                    self.weight_floor)


class MUCB(Policy):
    """Confidence-set elimination over latent states, for the stationary
    setting.

    A state survives while every played arm's empirical mean is within a
    shrinking confidence radius of that state's predicted mean; the agent
    plays the arm with the highest mean over any surviving state.  An
    empty survivor set resets to all states.
    """

    name = "mucb"

    def __init__(self, model: RewardModel, rng):
        super().__init__(rng)
        self.model = model
        self.counts = [0] * model.num_arms
        self.sums = [0.0] * model.num_arms
        self.surviving = [True] * model.num_states
        self._means, self._stds = model.means.tolist(), model.stds.tolist()

    def consistent_states(self) -> list:
        log_t = math.log(max(self.time, 2))
        alive = [True] * self.model.num_states
        # the played arms are read from the counts every step
        for arm, n in enumerate(self.counts):
            if n:
                mean, root = self.sums[arm] / n, math.sqrt(log_t / n)
                alive = [ok and abs(mean - mu) <= sd * root
                         for ok, mu, sd in zip(alive, self._means[arm], self._stds[arm])]
        return alive if any(alive) else [True] * self.model.num_states

    def _choose(self, offered: np.ndarray, best_arms) -> int:
        # elimination is sticky; an empty intersection resets to all states
        alive = [kept and ok for kept, ok in zip(self.surviving, self.consistent_states())]
        if not any(alive):
            alive = [True] * self.model.num_states
        self.surviving = alive
        states = [s for s, ok in enumerate(alive) if ok]
        arms = offered.tolist()
        optimism = [max([self._means[arm][s] for s in states]) for arm in arms]
        return arms[optimism.index(max(optimism))]

    def _learn(self, arm, reward, likelihoods) -> None:
        self.counts[arm] += 1
        self.sums[arm] += reward


class _LinearBandit(Policy):
    """Ridge regression on arm feature vectors with a linear-drift
    change detector; reset on detection."""

    counters = ("detector_resets",)

    def __init__(self, model: RewardModel, arm_features: np.ndarray, rng, ridge: float = 1.0,
                 window_size: int = 50, threshold: float = 5.0):
        super().__init__(rng)
        if arm_features is None:
            raise ValueError(f"{self.name} requires arm features")
        self.model = model
        self.features = features = np.asarray(arm_features, dtype=float)
        if features.ndim != 2 or len(features) != model.num_arms or not np.isfinite(features).all():
            raise ValueError("need one finite feature vector per arm")
        if not 0 < ridge < math.inf:
            raise ValueError(f"ridge must be finite and positive, got {ridge}")
        self.ridge = ridge
        self.detector = ChangeDetectorState(window_size, threshold, (features.shape[1] + 1,))
        self.detector_resets = 0
        self._reset_regression()

    def _reset_regression(self) -> None:
        d = self.features.shape[1]
        self.a_matrix = self.ridge * np.eye(d)
        self.b_vector = np.zeros(d)
        self.detector.clear()

    def _scores(self, offered: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _choose(self, offered: np.ndarray, best_arms) -> int:
        return int(offered[np.argmax(self._scores(offered))])

    def _learn(self, arm, reward, likelihoods) -> None:
        x = self.features[arm]
        self.a_matrix += np.outer(x, x)
        self.b_vector += reward * x
        self.detector.push(np.append(x, reward))
        if cd_linear_check(self.detector):
            self.detector_resets += 1
            self._reset_regression()


class CDLinUCB(_LinearBandit):
    name = "cd_linucb"

    def __init__(self, model, arm_features, rng, ridge: float = 1.0, window_size: int = 50,
                 threshold: float = 5.0, alpha: float = 1.0):
        super().__init__(model, arm_features, rng, ridge, window_size, threshold)
        self.alpha = alpha

    def _scores(self, offered: np.ndarray) -> np.ndarray:
        inv = np.linalg.inv(self.a_matrix)
        weights = inv @ self.b_vector
        x = self.features[offered]
        return x @ weights + self.alpha * np.sqrt(np.einsum("ij,jk,ik->i", x, inv, x))


class CDLinTS(_LinearBandit):
    name = "cd_lints"

    def __init__(self, model, arm_features, rng, ridge: float = 1.0, window_size: int = 50,
                 threshold: float = 5.0, scale: float = 1.0):
        super().__init__(model, arm_features, rng, ridge, window_size, threshold)
        self.scale = scale

    def _scores(self, offered: np.ndarray) -> np.ndarray:
        inv = np.linalg.inv(self.a_matrix)
        weights = inv @ self.b_vector
        sampled = self.rng.multivariate_normal(weights, self.scale**2 * inv)
        return self.features[offered] @ sampled


class OraclePolicy(Policy):
    """Plays the true state's best arm; the harness feeds it the state."""

    name = "oracle"
    wants_true_state = True

    def __init__(self, model: RewardModel, rng):
        super().__init__(rng)
        self.model = model
        self.true_state = 0

    def set_true_state(self, state: int) -> None:
        self.true_state = int(state)

    def _choose(self, offered: np.ndarray, best_arms) -> int:
        return best_arms[self.true_state]


class UniformRandom(Policy):
    name = "uniform_random"

    def _choose(self, offered: np.ndarray, best_arms) -> int:
        return int(self.rng.choice(offered))
