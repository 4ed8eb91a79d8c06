"""Bayesian belief filtering and closed-form arm statistics.

The filter follows the likelihood-then-propagate order: the reward
likelihood is attached to the pre-transition state, after which the
kernel propagates the reweighted mass one step forward.  It is stated
once, as :class:`BeliefStack`, which filters a stack of beliefs in
place; a policy's belief is a one-row stack, the roll-out's hypotheses
are the rows of another, and ``posterior_update`` wraps a one-row stack
around a validated ``BeliefState``, so all of them compute the same
bits.  Everything else here is a pure function of immutable inputs.
"""

from __future__ import annotations

import math

import numpy as np

from .models import (
    BeliefState,
    DegenerateEvidenceError,
    InfoArmStats,
    RewardModel,
    TransitionKernel,
    _on_simplex,
)

_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def reward_log_likelihoods(model: RewardModel, arms, rewards, out=(None, None)) -> np.ndarray:
    """Per-state log density of each reward under its arm, shaped
    ``[..., state]`` for ``arms`` and ``rewards`` of one shape ``[...]``.

    Kept in log space because tight arms (std around 0.01) produce
    densities spanning hundreds of orders of magnitude.  ``out``, if
    given, is the result and a scratch array of its shape; the gathers
    into it clip (a raising ``take`` allocates a copy), so arms must be in range.
    """
    mode = "raise" if out[0] is None else "clip"
    log_liks, stds = model.means.take(arms, 0, out[0], mode), model.stds.take(arms, 0, out[1], mode)
    rewards = np.asarray(rewards, dtype=float)[..., None]
    z = np.divide(np.subtract(rewards, log_liks, out=log_liks), stds, out=log_liks)
    np.multiply(np.multiply(-0.5, z, out=stds), z, out=log_liks)
    np.subtract(log_liks, np.log(model.stds).take(arms, axis=0, out=stds, mode=mode), out=log_liks)
    return np.subtract(log_liks, _LOG_SQRT_2PI, out=log_liks)


def likelihoods_from_log(log_liks: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Exponentiate log likelihoods, into ``out`` if given, after
    subtracting each row's maximum (over the last axis).

    The common scale factor cancels in any normalized Bayes update, so
    this guards against underflow without changing the posterior.
    """
    log_liks = np.asarray(log_liks, dtype=float)
    # the row maximum over column views: exact, NaN-propagating, and far
    # cheaper than a reduction over a short last axis
    top = log_liks[..., 0].copy()
    for k in range(1, log_liks.shape[-1]):
        np.maximum(top, log_liks[..., k], out=top)
    shifted = np.subtract(log_liks, top[..., None], out=out)
    return np.exp(shifted, out=shifted)


class BeliefStack:
    """Beliefs filtered together in place, one row per filter: the scaled
    forward recursion (Rabiner 1989, section V.A).

    ``filter`` weights each row by its likelihoods, propagates it through
    the kernel and normalises it; a row whose total is zero or not finite
    is propagated alone and counted as a fallback.  Each row goes through
    its own gemv, ``(W[:, None, :] @ K)[:, 0]``, with the bits of the 1-D
    ``W[r] @ K`` (a plain ``W @ K`` goes through gemm and does not), so a
    row's bits do not depend on what else is stacked (through the identity:
    the product plus 0.0, as the gemv turns -0.0 into +0.0).  Rows raise
    ValueError as they enter unless on the simplex with one entry per
    kernel state, and after a fallback unless on the simplex; a normalised
    row needs no check, as the kernel is row-stochastic (negative
    likelihoods are the caller's to reject).  ``rows`` is updated in place.
    """

    def __init__(self, rows, kernel: TransitionKernel):
        self.rows = _on_simplex(np.array(rows, dtype=float, ndmin=2), "belief")
        self.matrix, self._identity = kernel.matrix, kernel.is_identity
        count, size = self.rows.shape
        if size != kernel.num_states:
            raise ValueError(f"belief rows need one entry per kernel state, got {size} for {kernel.num_states}")
        self._stacked = self.rows[:, None, :]
        self._weighted = np.empty((count, 1, size))
        self._propagated = np.empty((count, 1, size))
        self._totals = np.empty((count, 1, 1))
        self._propagated_rows, self._masses = self._propagated[:, 0], self._totals[:, 0, 0]
        self._expected = np.empty((count, 1, 1))

    def filter(self, likelihoods: np.ndarray) -> int:
        """One filter step of every row, with likelihoods shaped [rows, 1,
        states] (or [states], shared by every row); returns the number of
        rows that fell back to propagation."""
        stacked, propagated, totals = self._stacked, self._propagated, self._totals
        if self._identity:
            np.add(np.multiply(stacked, likelihoods, out=propagated), 0.0, out=propagated)
        else:
            np.matmul(np.multiply(stacked, likelihoods, out=self._weighted), self.matrix, out=propagated)
        masses = np.add.reduce(self._propagated_rows, 1, None, self._masses).tolist()
        fallen = 0
        # a NaN or an infinity makes the sum non-finite
        if 0.0 < min(masses) and sum(masses) < math.inf:
            np.divide(propagated, totals, out=stacked)
        else:
            dropped = np.array([not 0.0 < mass < math.inf for mass in masses])
            fallen = int(dropped.sum())
            np.divide(propagated, totals, out=stacked, where=~dropped[:, None, None])
            self.rows[dropped] = _on_simplex((stacked[dropped] @ self.matrix)[:, 0], "belief")
        return fallen

    def expect(self, values: np.ndarray) -> list:
        """Each row's expectation of its own row of ``values``, shaped
        [rows, states, 1], with the bits of the 1-D ``rows[r] @ values[r]``."""
        return np.matmul(self._stacked, values, out=self._expected).ravel().tolist()


def entropy_bits(probs: np.ndarray) -> float:
    """:func:`entropy` of a raw probability vector."""
    probs = probs[probs > 0]
    return float(-(probs * np.log2(probs)).sum())


# how far below the threshold the entropy bound must fall, against rounding of about 1e-15
ENTROPY_SLACK = 1e-9


def entropy_reaches(probs: np.ndarray, threshold: float) -> bool:
    """``entropy_bits(probs) >= threshold`` for a non-negative row, without
    the entropy where Fano's bound (Cover & Thomas 2006, section 2.10) is
    below ``threshold - ENTROPY_SLACK``: ``h(top) + h(rest) + rest log2(S - 1)``
    with ``h(x) = -x log2 x``, ``top`` the largest entry and ``rest`` the sum
    of the others (a NaN entry makes the bound NaN, which skips nothing)."""
    values = probs.tolist()
    top = max(values)
    rest = sum(values) - top
    bound = rest * math.log2(len(values) - 1 or 1)
    if top > 0.0:
        bound -= top * math.log2(top)
    if rest > 0.0:
        bound -= rest * math.log2(rest)
    return not bound < threshold - ENTROPY_SLACK and entropy_bits(probs) >= threshold


def posterior_update(belief: BeliefState, kernel: TransitionKernel, likelihoods) -> BeliefState:
    """One Bayes-rule filter step.

    The new mass of state s' is proportional to
    ``sum_s belief[s] * likelihood[s] * kernel[s, s']``.  Raises
    ValueError on a negative likelihood, and
    :class:`DegenerateEvidenceError` when every state ends up with zero
    mass; the caller chooses the fallback (policies reset to the
    transition-propagated prior).
    """
    liks = np.asarray(likelihoods, dtype=float)
    if liks.shape != belief.probs.shape:
        raise ValueError("likelihoods must have one entry per state")
    if (liks < 0).any():
        raise ValueError("likelihoods must be non-negative")
    stack = BeliefStack(belief.probs, kernel)
    if stack.filter(liks):
        raise DegenerateEvidenceError("posterior update produced zero mass in every state")
    return BeliefState(stack.rows[0])


def propagate(belief: BeliefState, kernel: TransitionKernel) -> BeliefState:
    """Pure transition propagation (uniform-evidence update)."""
    return BeliefState(belief.probs @ kernel.matrix)


def entropy(belief: BeliefState) -> float:
    """Shannon entropy of the belief in bits, with 0*log2(0) == 0."""
    return entropy_bits(belief.probs)


def gaussian_kl(mean1: float, std1: float, mean2: float, std2: float) -> float:
    """KL divergence between two normals, D(N1 || N2), in nats."""
    if std1 <= 0 or std2 <= 0:
        raise ValueError("standard deviations must be strictly positive")
    return (
        math.log(std2 / std1)
        + (std1 * std1 + (mean1 - mean2) ** 2) / (2.0 * std2 * std2)
        - 0.5
    )


def _arm_set(model: RewardModel, arms) -> np.ndarray:
    if arms is None:
        return np.arange(model.num_arms)
    return np.asarray(arms, dtype=int)


def info_arm_stats(model: RewardModel, arms=None) -> InfoArmStats:
    """Divergence, gap, and usefulness ratio for every arm in the set.

    ``mean_kl`` is the average divergence of every competing arm's
    distribution from the scored arm's.  The double average runs over
    states and the other arms of the (optionally restricted) arm set,
    with 1/|S| and 1/|A| normalization.  The scored arm's distribution
    sits in the reference slot of the divergence, so arms whose rewards
    are tight and far from the rest of the set score high; this is what
    makes a low-variance probe arm stand out as informative.

    ``mean_gap`` is the signed mean reward advantage of the scored arm
    over the rest of the set, with the same double average and
    normalization.  Probe arms with deliberately low reward come out
    negative.

    Both come from one [state, other, scored] broadcast; a scored arm's
    term against itself is exactly zero.  Sums over a leading axis of a
    C-ordered array add in index order, so the totals equal those of the
    scalar double loop (the divergence up to numpy's and libm's
    logarithms differing in the last bit).
    """
    arm_set = _arm_set(model, arms)
    # C order, so the sums below run over the leading axes in index order
    means = np.ascontiguousarray(model.means[arm_set].T)
    stds = np.ascontiguousarray(model.stds[arm_set].T)
    other_mean, arm_mean = means[:, :, None], means[:, None, :]
    other_std, arm_std = stds[:, :, None], stds[:, None, :]
    kl = (
        np.log(arm_std / other_std)
        + (other_std * other_std + (other_mean - arm_mean) ** 2) / (2.0 * arm_std * arm_std)
        - 0.5
    )
    gap = arm_mean - other_mean

    def average(terms: np.ndarray) -> np.ndarray:
        return (terms.sum(axis=1) / arm_set.size).sum(axis=0) / model.num_states

    return InfoArmStats(arms=arm_set, mean_kl=average(kl), mean_gap=average(gap))


def mean_pairwise_kl(model: RewardModel, arm: int, arms=None) -> float:
    """``mean_kl`` of :func:`info_arm_stats` for one arm of the set."""
    stats = info_arm_stats(model, arms)
    return float(stats.mean_kl[stats.arms == arm][0])


def mean_pairwise_gap(model: RewardModel, arm: int, arms=None) -> float:
    """``mean_gap`` of :func:`info_arm_stats` for one arm of the set."""
    stats = info_arm_stats(model, arms)
    return float(stats.mean_gap[stats.arms == arm][0])


def best_info_arm(model: RewardModel, arms=None) -> tuple[int, InfoArmStats]:
    """Arm maximizing mean divergence over squared mean gap.

    Ties break toward the lowest arm index.  Arms with both zero
    divergence and zero gap carry a -inf ratio and can only win when no
    arm discriminates at all, in which case the first arm is returned.
    """
    stats = info_arm_stats(model, arms)
    winner = int(stats.arms[np.argmax(stats.ratio)])
    return winner, stats


def single_step_regret_bound(model: RewardModel, arms=None) -> float:
    """Largest max-arm minus min-arm mean gap over the states."""
    sub = model.means[_arm_set(model, arms)]
    return float((sub.max(axis=0) - sub.min(axis=0)).max())


def expected_dwell_time(kernel: TransitionKernel, belief: BeliefState, horizon_cap: float = math.inf) -> float:
    """Belief-weighted expected steps before the chain leaves its state.

    A state with self-transition probability p contributes the geometric
    dwell time 1/(1-p); absorbing states contribute the horizon cap, and
    the weighted total is itself capped there.
    """
    if horizon_cap <= 0:
        raise ValueError("horizon_cap must be positive")
    stay = kernel.stay_probabilities()
    per_state = np.where(stay < 1.0, 1.0 / np.where(stay < 1.0, 1.0 - stay, 1.0), horizon_cap)
    value = float(belief.probs @ per_state)
    return min(value, horizon_cap)
