"""Windowed change-point detectors.

The scalar detector compares reward sums between the two halves of a
sliding window; the linear detector compares least-squares weight vectors
fitted on each half, measured in the norm weighted by the window's
empirical feature covariance.  Both abstain until their window is full.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class ChangeDetectorState:
    """The last ``window_size`` observations plus detection parameters.

    An observation is a reward for the scalar detector, and a row
    ``[*features, reward]`` of shape ``row_shape`` for the linear one.
    They are kept in a doubled ring (slot i is written at i and at
    i + window_size), so ``window``, oldest first, is always one
    contiguous view.  ``window_size`` must be even so the window splits
    into equal halves.
    """

    window_size: int
    threshold: float
    row_shape: tuple = ()

    def __post_init__(self):
        if self.window_size % 2 != 0 or self.window_size <= 0:
            raise ValueError("window_size must be a positive even number")
        self._ring = np.empty((2 * self.window_size, *self.row_shape))
        self.clear()

    @property
    def full(self) -> bool:
        return self._size == self.window_size

    @property
    def window(self) -> np.ndarray:
        end = self._head + self.window_size
        return self._ring[end - self._size:end]

    def push(self, item) -> None:
        head = self._head
        self._ring[head] = self._ring[head + self.window_size] = item
        self._head = (head + 1) % self.window_size
        self._size = min(self._size + 1, self.window_size)

    def clear(self) -> None:
        self._head = self._size = 0


def cd_scalar_check(state: ChangeDetectorState) -> bool:
    """True when the two half-window reward sums differ by more than b."""
    if not state.full:
        return False
    # each half's pairwise sum, one row of the window at a time
    old, new = np.add.reduce(state.window.reshape(2, -1), 1).tolist()
    return abs(new - old) > state.threshold


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
    window = state.window
    features, rewards = np.ascontiguousarray(window[:, :-1]), np.ascontiguousarray(window[:, -1])
    w_old, *_ = np.linalg.lstsq(features[:half], rewards[:half], rcond=None)
    w_new, *_ = np.linalg.lstsq(features[half:], rewards[half:], rcond=None)
    covariance = features.T @ features
    diff = w_new - w_old
    statistic = float(np.sqrt(diff @ covariance @ diff))
    return statistic >= state.threshold
