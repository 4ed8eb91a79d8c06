"""Common policy interface.

Every agent exposes ``step(offered_arms, best_arms) -> arm`` followed
by ``observe(reward, likelihoods)``.  ``best_arms[s]`` is state s's best
offered arm and ``likelihoods[s]`` the reward's scaled likelihood in
state s: the harness passes each step's row of tables it builds once per
run, and None as the likelihood row of a policy without a belief.
A policy instance serves one run and is single-threaded: it owns its
mutable belief or statistics and consumes randomness only through the
generator injected at construction, so identical seeds yield identical
traces.  Checking that the chosen arm was offered is the harness's job.
"""

from __future__ import annotations

import numpy as np

# posterior_update stays a name of this module for the benchmark's probes
from ..belief import BeliefStack, posterior_update  # noqa: F401
from ..models import BeliefState, RewardModel, TransitionKernel


class Policy:
    """Base class; subclasses implement ``_choose`` and optionally ``_learn``."""

    name = "policy"
    wants_true_state = False
    # raw belief vector, for policies that filter one: a live row that observe overwrites
    belief_probs: np.ndarray | None = None
    # names of the integer attributes that run_meta.json records per run
    counters: tuple = ()

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.time = 1
        self._pending: int | None = None
        self.last_info_play = False

    @property
    def belief(self) -> BeliefState | None:
        """A validated snapshot of the belief, or None for policies without one."""
        return None if self.belief_probs is None else BeliefState(self.belief_probs)

    def step(self, offered_arms, best_arms) -> int:
        self.last_info_play = False
        arm = self._pending = int(self._choose(np.asarray(offered_arms, dtype=int), best_arms))
        return arm

    def observe(self, reward: float, likelihoods) -> None:
        if self._pending is None:
            raise RuntimeError("observe() called before step()")
        arm, self._pending = self._pending, None
        self._learn(arm, float(reward), likelihoods)
        self.time += 1

    def _choose(self, offered: np.ndarray, best_arms) -> int:
        """The arm to play; ``best_arms[s]`` is state s's best offered arm."""
        raise NotImplementedError

    def _learn(self, arm: int, reward: float, likelihoods) -> None:
        """Learn from the reward (and its likelihood row, if the policy filters a belief)."""


class BeliefPolicy(Policy):
    """Shared machinery for policies that filter a belief state.

    The belief is a one-row :class:`~latentbandits.belief.BeliefStack`,
    the filter the roll-outs run too: the update attaches the observed
    reward's likelihood to the pre-transition state and then propagates
    through the kernel.  If the evidence is degenerate (all posterior
    mass underflows) the belief is reset to the transition-propagated
    prior, and ``degenerate_fallbacks`` counts it.  A likelihood row
    without one non-negative entry per state raises ValueError at the
    ``observe`` boundary.  The stack's row is ``belief_probs``, updated
    in place and validated only where ``belief`` hands out a snapshot.
    """

    counters = ("degenerate_fallbacks",)

    def __init__(
        self,
        model: RewardModel,
        kernel: TransitionKernel,
        prior,
        rng: np.random.Generator,
    ):
        super().__init__(rng)
        self.model = model
        self.kernel = kernel
        self.prior = BeliefState(prior)
        if not model.num_states == kernel.num_states == self.prior.num_states:
            raise ValueError(f"the model, the kernel and the prior must have the same number of states, "
                             f"got {model.num_states}, {kernel.num_states} and {self.prior.num_states}")
        self._beliefs = BeliefStack(self.prior.probs, kernel.matrix)
        self.belief_probs = self._beliefs.rows[0]
        self.degenerate_fallbacks = 0

    def _learn(self, arm: int, reward: float, likelihoods) -> None:
        row = likelihoods if isinstance(likelihoods, np.ndarray) else np.array(likelihoods, dtype=float)
        # on Python floats; a NaN passes, and the filter counts it as degenerate evidence
        if row.shape != self.belief_probs.shape or any(value < 0.0 for value in row.tolist()):
            raise ValueError(f"likelihoods must be one non-negative entry per state, got {likelihoods!r}")
        self.degenerate_fallbacks += self._beliefs.filter(row)
