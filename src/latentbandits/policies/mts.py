"""Model-based Thompson sampling over latent states (mTS).

Samples a state from the current belief, plays that state's best arm,
and filters the belief with the observed reward.  The stationary setting
is the special case of an identity transition kernel.
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import accumulate

import numpy as np

from .base import BeliefPolicy


class MTS(BeliefPolicy):
    name = "mts"

    def _sample_state(self) -> int:
        # inverse-CDF draw: accumulate adds in order, as np.cumsum does, so
        # this is np.searchsorted(np.cumsum(probs), u, side="right")
        u = self.rng.random()
        probs = self.belief_probs.tolist()
        return min(bisect_right(list(accumulate(probs)), u), len(probs) - 1)

    def _choose(self, offered: np.ndarray, best_arms) -> int:
        return best_arms[self._sample_state()]
