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

    def __init__(self, rng: np.random.Generator | None = None):
        self.rng = rng if rng is not None else np.random.default_rng()
        self.time = 1
        self._pending: tuple[np.ndarray, int] | None = None
        self.last_info_play = False

    @property
    def belief(self) -> BeliefState | None:
        """The belief as a validated value, or None for policies without one."""
        return None if self.belief_probs is None else BeliefState(self.belief_probs)

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

    def _learn(self, offered: np.ndarray, arm: int, reward: float) -> None:
        liks = likelihoods_from_log(reward_log_likelihoods(self.model, arm, reward))
        self.belief_probs, degenerate = filter_step(self.belief_probs, self.kernel.matrix, liks)
        self.degenerate_fallbacks += degenerate
