"""Common policy interface.

Every agent exposes ``step(offered_arms, best_arms=None) -> arm``
followed by ``observe(reward, likelihoods=None)``.  ``best_arms[s]`` is
state s's best offered arm and ``likelihoods[s]`` the reward's scaled
likelihood in state s: the harness passes each step's row of tables it
builds once per run, and a policy computes a row a caller leaves out.
A policy instance serves one run and is single-threaded: it owns its
mutable belief or statistics and consumes randomness only through the
generator injected at construction, so identical seeds yield identical
traces.  Checking that the chosen arm was offered is the harness's job.
"""

from __future__ import annotations

import numpy as np

# posterior_update stays a name of this module for the benchmark's probes
from ..belief import filter_step, likelihoods_from_log, posterior_update, reward_log_likelihoods  # noqa: F401
from ..models import BeliefState, RewardModel, TransitionKernel


class Policy:
    """Base class; subclasses implement ``_choose`` and optionally ``_learn``."""

    name = "policy"
    wants_true_state = False
    # raw belief vector, for policies that filter one
    belief_probs: np.ndarray | None = None
    # names of the integer attributes that run_meta.json records per run
    counters: tuple = ()
    # the reward model, for policies that act on one
    model: RewardModel | None = None

    def __init__(self, rng: np.random.Generator | None = None):
        self.rng = rng if rng is not None else np.random.default_rng()
        self.time = 1
        self._pending: int | None = None
        self.last_info_play = False

    @property
    def belief(self) -> BeliefState | None:
        """The belief as a validated value, or None for policies without one."""
        return None if self.belief_probs is None else BeliefState(self.belief_probs)

    def step(self, offered_arms, best_arms=None) -> int:
        offered = np.asarray(offered_arms, dtype=int)
        if best_arms is None and self.model is not None:
            best_arms = self.model.best_arms(offered)
        self.last_info_play = False
        arm = self._pending = int(self._choose(offered, best_arms))
        return arm

    def observe(self, reward: float, likelihoods=None) -> None:
        if self._pending is None:
            raise RuntimeError("observe() called before step()")
        arm, self._pending = self._pending, None
        reward = float(reward)
        if likelihoods is None and self.belief_probs is not None:
            likelihoods = likelihoods_from_log(reward_log_likelihoods(self.model, arm, reward))
        self._learn(arm, reward, likelihoods)
        self.time += 1

    def _choose(self, offered: np.ndarray, best_arms) -> int:
        """The arm to play; ``best_arms[s]`` is state s's best offered arm."""
        raise NotImplementedError

    def _learn(self, arm: int, reward: float, likelihoods) -> None:
        """Learn from the reward (and its likelihood row, if the policy filters a belief)."""


class BeliefPolicy(Policy):
    """Shared machinery for policies that filter a belief state.

    The update attaches the observed reward's likelihood to the
    pre-transition state and then propagates through the kernel.  If the
    evidence is degenerate (all posterior mass underflows) the belief is
    reset to the transition-propagated prior, and
    ``degenerate_fallbacks`` counts it.  The belief is held as a raw
    vector, ``belief_probs``, and validated only where ``belief`` hands
    it out.
    """

    counters = ("degenerate_fallbacks",)

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
        self.belief_probs = self.prior.probs
        self.degenerate_fallbacks = 0

    def _learn(self, arm: int, reward: float, likelihoods) -> None:
        self.belief_probs, degenerate = filter_step(self.belief_probs, self.kernel.matrix, likelihoods)
        self.degenerate_fallbacks += degenerate
