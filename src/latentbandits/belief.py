"""Bayesian belief filtering and closed-form arm statistics.

Everything here is a pure function of immutable inputs.  The filter
follows the likelihood-then-propagate order: the reward likelihood is
attached to the pre-transition state, after which the kernel propagates
the reweighted mass one step forward.  Policies call the raw-array
cores ``filter_step`` and ``entropy_bits`` once per step (the roll-out
filters a stack of beliefs with the same per-row arithmetic);
``posterior_update`` and ``entropy`` validate around them, so both
compute the same bits.
"""

from __future__ import annotations

import math

import numpy as np

from .models import (
    STOCHASTIC_ATOL,
    BeliefState,
    DegenerateEvidenceError,
    InfoArmStats,
    RewardModel,
    TransitionKernel,
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


def filter_step(probs: np.ndarray, matrix: np.ndarray, likelihoods: np.ndarray) -> tuple[np.ndarray, bool]:
    """:func:`posterior_update` on raw arrays: the new probabilities and
    False, or, when the evidence is degenerate (zero or non-finite total
    mass), the propagated probabilities and True.  A negative likelihood
    or a result off the simplex raises ValueError: the checks of
    :class:`BeliefState`, where a NaN fails the minimum and an inf the sum.
    """
    if (likelihoods < 0).any():
        raise ValueError("likelihoods must be non-negative")
    propagated = (probs * likelihoods) @ matrix
    total = propagated.sum()
    degenerate = not 0.0 < total < math.inf
    new = probs @ matrix if degenerate else propagated / total
    if not (new.min() >= 0.0 and abs(new.sum() - 1.0) <= STOCHASTIC_ATOL):
        raise ValueError(f"belief left the probability simplex: {new!r}")
    return new, degenerate


def entropy_bits(probs: np.ndarray) -> float:
    """:func:`entropy` of a raw probability vector."""
    probs = probs[probs > 0]
    return float(-(probs * np.log2(probs)).sum())


def posterior_update(belief: BeliefState, kernel: TransitionKernel, likelihoods) -> BeliefState:
    """One Bayes-rule filter step.

    The new mass of state s' is proportional to
    ``sum_s belief[s] * likelihood[s] * kernel[s, s']``.  Raises
    :class:`DegenerateEvidenceError` when every state ends up with zero
    mass; the caller chooses the fallback (policies reset to the
    transition-propagated prior).
    """
    liks = np.asarray(likelihoods, dtype=float)
    if liks.shape != belief.probs.shape:
        raise ValueError("likelihoods must have one entry per state")
    probs, degenerate = filter_step(belief.probs, kernel.matrix, liks)
    if degenerate:
        raise DegenerateEvidenceError("posterior update produced zero mass in every state")
    return BeliefState(probs)


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
