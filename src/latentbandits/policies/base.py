"""Common policy interface.

Every agent exposes ``step(offered_arms) -> arm`` followed by
``observe(reward)``.  A policy instance serves one run and is
single-threaded: it owns its mutable belief or statistics and consumes
randomness only through the generator injected at construction, so
identical seeds yield identical traces.  Checking that the chosen arm
was offered is the harness's job.
"""

from __future__ import annotations

import numpy as np

from ..belief import likelihoods_from_log, posterior_update, propagate, reward_log_likelihoods
from ..models import BeliefState, DegenerateEvidenceError, RewardModel, TransitionKernel


class Policy:
    """Base class; subclasses implement ``_choose`` and optionally ``_learn``."""

    name = "policy"
    wants_true_state = False

    def __init__(self, rng: np.random.Generator | None = None):
        self.rng = rng if rng is not None else np.random.default_rng()
        self.time = 1
        self._pending: tuple[np.ndarray, int] | None = None
        self.last_info_play = False

    @property
    def belief(self) -> BeliefState | None:
        return None

    def step(self, offered_arms) -> int:
        offered = np.asarray(offered_arms, dtype=int)
        self.last_info_play = False
        arm = int(self._choose(offered))
        self._pending = (offered, arm)
        return arm

    def observe(self, reward: float) -> None:
        if self._pending is None:
            raise RuntimeError("observe() called before step()")
        offered, arm = self._pending
        self._pending = None
        self._learn(offered, arm, float(reward))
        self.time += 1

    def _choose(self, offered: np.ndarray) -> int:
        raise NotImplementedError

    def _learn(self, offered: np.ndarray, arm: int, reward: float) -> None:
        pass


class BeliefPolicy(Policy):
    """Shared machinery for policies that filter a belief state.

    The update attaches the observed reward's likelihood to the
    pre-transition state and then propagates through the kernel.  If the
    evidence is degenerate (all posterior mass underflows) the belief is
    reset to the transition-propagated prior.
    """

    def __init__(
        self,
        model: RewardModel,
        kernel: TransitionKernel,
        prior,
        rng: np.random.Generator | None = None,
    ):
        super().__init__(rng)
        self.model = model
        self.kernel = kernel
        self.prior = BeliefState(np.asarray(prior, dtype=float))
        self._belief = self.prior

    @property
    def belief(self) -> BeliefState:
        return self._belief

    def _learn(self, offered: np.ndarray, arm: int, reward: float) -> None:
        log_liks = reward_log_likelihoods(self.model, arm, reward)
        try:
            self._belief = posterior_update(self._belief, self.kernel, likelihoods_from_log(log_liks))
        except DegenerateEvidenceError:
            self._belief = propagate(self._belief, self.kernel)
