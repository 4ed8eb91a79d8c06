"""Greedy belief-state Thompson sampling with active information probes
(AGEmTS).

The agent plays the best arm of its most likely state.  Whenever the
belief entropy reaches the trigger threshold it scores every offered arm
by mean pairwise divergence over squared mean reward gap, and if the best
probe arm differs from the greedy arm it runs the roll-out estimator.
The probe is played only when the estimated gain is positive and exceeds
the worst-case single-step regret, which keeps the agent conservative
about paying for information.  A roll-out draws no randomness, so its
result is kept in ``rollout_memo`` under the bits of its inputs, the model
aside: agents share a memo only within one model (the harness's experiment).
"""

from __future__ import annotations

import numpy as np

from ..belief import best_info_arm, entropy_reaches, single_step_regret_bound
from ..models import BeliefState, RewardModel, TransitionKernel
from .base import BeliefPolicy
from .rollout import reward_estimator


class AGEmTS(BeliefPolicy):
    name = "agemts"
    counters = BeliefPolicy.counters + ("rollouts_run", "info_plays", "rollout_fallbacks")

    def __init__(
        self,
        model: RewardModel,
        kernel: TransitionKernel,
        prior,
        horizon: int,
        rng: np.random.Generator,
        entropy_threshold: float = 1.0,
        rollout_memo: dict | None = None,
    ):
        super().__init__(model, kernel, prior, rng)
        if horizon < 1:
            raise ValueError("horizon must be at least 1")
        self.horizon = int(horizon)
        self.entropy_threshold = float(entropy_threshold)
        self.r_u = single_step_regret_bound(model)
        self.rollouts_run = 0
        self.info_plays = 0
        # roll-out filter steps that fell back to propagation
        self.rollout_fallbacks = 0
        self.rollout_memo = {} if rollout_memo is None else rollout_memo
        self._memo_tag = (kernel.matrix.tobytes(), np.array([self.r_u, self.entropy_threshold]).tobytes())

    def _choose(self, offered: np.ndarray, best_arms) -> int:
        probs = self.belief_probs
        arm = best_arms[int(probs.argmax())]
        if not entropy_reaches(probs, self.entropy_threshold):
            return arm
        info_arm, _ = best_info_arm(self.model, arms=offered)
        if info_arm == arm:
            return arm
        remaining = max(1, self.horizon - self.time + 1)
        key = (probs.tobytes(), arm, info_arm, remaining, tuple(best_arms), *self._memo_tag)
        result = self.rollout_memo.get(key)
        if result is None:
            result = self.rollout_memo[key] = reward_estimator(
                BeliefState(probs), self.model, self.kernel, greedy_arm=arm, info_arm=info_arm, r_u=self.r_u,
                horizon_cap=remaining, best_arms=best_arms, entropy_threshold=self.entropy_threshold)
        self.rollouts_run += 1
        self.rollout_fallbacks += result.degenerate_fallbacks
        gain = result.reward_ig - result.reward_ps
        if gain > 0 and gain > self.r_u:
            self.last_info_play = True
            self.info_plays += 1
            return info_arm
        return arm
