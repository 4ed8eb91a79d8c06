"""Core value types for latent bandit problems.

A latent bandit instance is described by two known objects: a reward model
giving the Gaussian reward distribution of every (arm, state) pair, and a
row-stochastic transition kernel over the hidden states.  Policies
additionally maintain a belief state, a probability vector over the
hidden states.  All three are immutable after construction and are
validated eagerly, so downstream numerical code can assume well-formed
inputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

STOCHASTIC_ATOL = 1e-12


class DegenerateEvidenceError(ValueError):
    """Raised when a Bayes update has zero posterior mass everywhere.

    Callers decide the fallback; the belief filter itself refuses to
    renormalize an all-zero vector.
    """


def _as_prob_vector(values, name: str) -> np.ndarray:
    # a copy, so the vector neither aliases nor freezes the caller's array
    vec = np.array(values, dtype=float)
    if vec.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {vec.shape}")
    if not np.all(np.isfinite(vec)):
        raise ValueError(f"{name} contains non-finite entries")
    if np.any(vec < 0):
        raise ValueError(f"{name} contains negative entries")
    if abs(vec.sum() - 1.0) > STOCHASTIC_ATOL:
        raise ValueError(f"{name} must sum to 1 within {STOCHASTIC_ATOL}, got {vec.sum()!r}")
    return vec


@dataclass(frozen=True)
class RewardModel:
    """Known Gaussian reward distributions, indexed [arm, state].

    Model files store [arm, context, state] tables with one context; such
    a table loads with that axis dropped, and one with more contexts is
    rejected.
    """

    means: np.ndarray
    stds: np.ndarray

    def __post_init__(self):
        # copies, so the model neither aliases nor freezes the caller's arrays
        means = np.array(self.means, dtype=float)
        stds = np.array(self.stds, dtype=float)
        if means.shape != stds.shape:
            raise ValueError(f"means shape {means.shape} != stds shape {stds.shape}")
        if means.ndim == 3:
            if means.shape[1] != 1:
                raise ValueError(f"reward models have one context, got {means.shape[1]}")
            means = means[:, 0, :]
            stds = stds[:, 0, :]
        if means.ndim != 2:
            raise ValueError(f"means must be [arm, state], got shape {means.shape}")
        if not np.all(np.isfinite(means)):
            raise ValueError("means contains non-finite entries")
        if not np.all(np.isfinite(stds)) or np.any(stds <= 0):
            raise ValueError("stds must be strictly positive and finite")
        if means.shape[0] < 2:
            raise ValueError("a reward model needs at least 2 arms")
        if means.shape[1] < 2:
            raise ValueError("a reward model needs at least 2 states")
        means.setflags(write=False)
        stds.setflags(write=False)
        object.__setattr__(self, "means", means)
        object.__setattr__(self, "stds", stds)

    @property
    def num_arms(self) -> int:
        return self.means.shape[0]

    @property
    def num_states(self) -> int:
        return self.means.shape[1]

    def best_arms(self, arms=None) -> np.ndarray:
        """Every state's highest-mean arm, in one argmax: entry s is state
        s's best arm.

        ``arms`` restricts the search to an offered subset, and ties
        break toward the arm listed first (the lowest index when the
        subset is sorted).  A stack of subsets, shaped [..., k], gives a
        stack of rows, shaped [..., num_states].
        """
        if arms is None:
            return self.means.argmax(axis=0)
        arms = np.asarray(arms, dtype=int)
        return np.take_along_axis(arms, self.means[arms].argmax(axis=-2), axis=-1)

    def best_arm(self, state: int, arms=None) -> int:
        """Index of the highest-mean arm in ``state``; see ``best_arms``."""
        return int(self.best_arms(arms)[state])


@dataclass(frozen=True)
class TransitionKernel:
    """Row-stochastic state transition matrix.

    The identity matrix encodes the stationary setting.
    """

    matrix: np.ndarray

    def __post_init__(self):
        matrix = np.array(self.matrix, dtype=float)  # a copy, as RewardModel's tables are
        if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"transition matrix must be square, got shape {matrix.shape}")
        if not np.all(np.isfinite(matrix)):
            raise ValueError("transition matrix contains non-finite entries")
        if np.any(matrix < 0) or np.any(matrix > 1):
            raise ValueError("transition probabilities must lie in [0, 1]")
        row_sums = matrix.sum(axis=1)
        if np.any(np.abs(row_sums - 1.0) > STOCHASTIC_ATOL):
            raise ValueError(f"every row must sum to 1 within {STOCHASTIC_ATOL}, got {row_sums}")
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)

    @property
    def num_states(self) -> int:
        return self.matrix.shape[0]

    @classmethod
    def identity(cls, num_states: int) -> "TransitionKernel":
        return cls(np.eye(num_states))

    def stay_probabilities(self) -> np.ndarray:
        return np.diag(self.matrix).copy()


@dataclass(frozen=True)
class BeliefState:
    """Probability vector over the hidden states."""

    probs: np.ndarray

    def __post_init__(self):
        probs = _as_prob_vector(self.probs, "belief")
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)

    @property
    def num_states(self) -> int:
        return self.probs.shape[0]

    def argmax(self) -> int:
        # np.argmax already breaks ties toward the lowest index
        return int(np.argmax(self.probs))


@dataclass(frozen=True)
class InfoArmStats:
    """Per-arm information-gathering diagnostics.

    ``ratio`` is ``mean_kl / mean_gap**2`` wherever the gap is nonzero.
    A zero gap with positive divergence scores +inf (free information
    dominates); a zero gap with zero divergence scores -inf, which drops
    the arm out of any argmax.
    """

    arms: np.ndarray
    mean_kl: np.ndarray
    mean_gap: np.ndarray
    ratio: np.ndarray = field(default=None)

    def __post_init__(self):
        arms = np.asarray(self.arms, dtype=int)
        mean_kl = np.asarray(self.mean_kl, dtype=float)
        mean_gap = np.asarray(self.mean_gap, dtype=float)
        if not (arms.shape == mean_kl.shape == mean_gap.shape):
            raise ValueError("arms, mean_kl and mean_gap must be aligned vectors")
        if np.any(mean_kl < 0):
            raise ValueError("mean pairwise KL divergences cannot be negative")
        ratio = np.where(mean_gap != 0.0, mean_kl / np.where(mean_gap != 0.0, mean_gap, 1.0) ** 2, 0.0)
        zero_gap = mean_gap == 0.0
        ratio[zero_gap & (mean_kl > 0)] = np.inf
        ratio[zero_gap & (mean_kl == 0)] = -np.inf
        for name, arr in (("arms", arms), ("mean_kl", mean_kl), ("mean_gap", mean_gap), ("ratio", ratio)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def model_to_dict(model: RewardModel, kernel: TransitionKernel | None = None, features=None) -> dict:
    """Serialize a reward model (and optional kernel and arm features) to the JSON schema.

    Schema: ``means`` and ``stds`` are row-major nested lists indexed
    [arm][context][state] with a single context, ``num_contexts`` is
    always 1, ``transition`` is [state][state], ``features`` [arm][dim].
    """
    doc = {
        "num_contexts": 1,
        "means": model.means[:, None, :].tolist(),
        "stds": model.stds[:, None, :].tolist(),
    }
    if kernel is not None:
        doc["transition"] = kernel.matrix.tolist()
    if features is not None:
        doc["features"] = np.asarray(features, dtype=float).tolist()
    return doc


def model_from_dict(doc: dict) -> tuple[RewardModel, TransitionKernel | None]:
    """Inverse of :func:`model_to_dict`; [arm][state] tables are accepted
    too, and ``num_contexts``, when given, must be 1."""
    if doc.get("num_contexts", 1) != 1:
        raise ValueError(f"reward models have one context, got num_contexts {doc['num_contexts']}")
    means = np.asarray(doc["means"], dtype=float)
    stds = np.asarray(doc["stds"], dtype=float)
    model = RewardModel(means=means, stds=stds)
    kernel = None
    if doc.get("transition") is not None:
        kernel = TransitionKernel(doc["transition"])
    return model, kernel


def save_model_json(path, model: RewardModel, kernel: TransitionKernel | None = None, features=None) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(model_to_dict(model, kernel, features), handle, sort_keys=True)
        handle.write("\n")


def load_model_json(path) -> tuple[RewardModel, TransitionKernel | None]:
    with open(path, "r", encoding="utf-8") as handle:
        return model_from_dict(json.load(handle))
