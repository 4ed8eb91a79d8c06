"""Model-based Thompson sampling over latent states (mTS).

Samples a state from the current belief, plays that state's best arm,
and filters the belief with the observed reward.  The stationary setting
is the special case of an identity transition kernel.
"""

from __future__ import annotations

import numpy as np

from .base import BeliefPolicy


class MTS(BeliefPolicy):
    name = "mts"

    def _sample_state(self) -> int:
        # inverse-CDF draw; cheaper than rng.choice for tiny state spaces
        u = self.rng.random()
        probs = self.belief_probs
        return min(int(np.searchsorted(np.cumsum(probs), u, side="right")), probs.size - 1)

    def _choose(self, offered: np.ndarray) -> int:
        return self.model.best_arm(self._sample_state(), offered)
