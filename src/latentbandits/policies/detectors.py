"""Windowed change-point detectors.

The scalar detector compares reward sums between the two halves of a
sliding window; the linear detector compares least-squares weight vectors
fitted on each half, measured in the norm weighted by the window's
empirical feature covariance.  Both abstain until their window is full.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np


@dataclass
class ChangeDetectorState:
    """Ring buffer of recent observations plus detection parameters.

    ``window`` holds plain rewards for the scalar detector or
    ``(feature, reward)`` pairs for the linear one.  ``window_size`` must
    be even so the window splits into equal halves.
    """

    window_size: int
    threshold: float
    window: deque = field(init=False)

    def __post_init__(self):
        if self.window_size % 2 != 0 or self.window_size <= 0:
            raise ValueError("window_size must be a positive even number")
        self.window = deque(maxlen=self.window_size)

    @property
    def full(self) -> bool:
        return len(self.window) == self.window_size

    def push(self, item) -> None:
        self.window.append(item)

    def clear(self) -> None:
        self.window.clear()


def cd_scalar_check(state: ChangeDetectorState) -> bool:
    """True when the two half-window reward sums differ by more than b."""
    if not state.full:
        return False
    half = state.window_size // 2
    rewards = np.fromiter(state.window, dtype=float, count=state.window_size)
    return bool(abs(rewards[half:].sum() - rewards[:half].sum()) > state.threshold)


def cd_linear_check(state: ChangeDetectorState) -> bool:
    """True when half-window regression weights drift by at least b.

    Fits minimum-norm least squares on each half (rank-deficient halves
    are fine) and returns whether the weight difference, measured in the
    norm of the full window's empirical covariance sum(x x^T), reaches
    the threshold.
    """
    if not state.full:
        return False
    half = state.window_size // 2
    features = np.array([np.asarray(x, dtype=float) for x, _ in state.window])
    rewards = np.array([float(r) for _, r in state.window])
    w_old, *_ = np.linalg.lstsq(features[:half], rewards[:half], rcond=None)
    w_new, *_ = np.linalg.lstsq(features[half:], rewards[half:], rcond=None)
    covariance = features.T @ features
    diff = w_new - w_old
    statistic = float(np.sqrt(diff @ covariance @ diff))
    return statistic >= state.threshold
