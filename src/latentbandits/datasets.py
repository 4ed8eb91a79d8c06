"""Contextual reward models from collaborative-filtering data.

Pipeline: ingest and threshold-filter a ratings table, impute the full
matrix with probabilistic matrix factorization, cluster the user factors,
draw one representative user per cluster (a "super user"), and turn the
predicted ratings of those users into a per-state Gaussian reward model.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from .models import RewardModel

log = logging.getLogger(__name__)

SIGMA_FLOOR = 0.01
FIXED_SIGMA = 0.25  # the ``fixed`` variance mode's sigma when its params leave it out
# the ways build_reward_model sets its stds -> the params each one reads, with their types
VARIANCE_PARAMS = {"fixed": {"sigma": float}, "three_nn": {}, "sampled_normal": {}}
VARIANCE_MODES = tuple(VARIANCE_PARAMS)


@dataclass(frozen=True)
class RatingsTable:
    """Filtered (user, item, rating) triples with contiguous indices."""

    users: np.ndarray
    items: np.ndarray
    ratings: np.ndarray
    user_ids: tuple
    item_ids: tuple

    @property
    def num_users(self) -> int:
        return len(self.user_ids)

    @property
    def num_items(self) -> int:
        return len(self.item_ids)

    def __len__(self) -> int:
        return self.ratings.shape[0]


@dataclass
class FactorModel:
    """Learned user/item factor matrices."""

    U: np.ndarray
    V: np.ndarray
    d: int
    validation_rmse: float = math.nan
    best_rmse_history: list = field(default_factory=list)


@dataclass(frozen=True)
class SuperUser:
    """One user index per cluster, with optional nearest-neighbor pairing
    constraints between states."""

    users: tuple
    pairing: tuple = ()

    def __post_init__(self):
        if len(set(self.users)) != len(self.users):
            raise ValueError("super-user members must be distinct")


def _parse_line(line: str, delimiter: str, line_number: int):
    parts = line.split(delimiter)
    if len(parts) < 3:
        raise ValueError(f"line {line_number}: expected at least 3 fields, got {len(parts)}")
    try:
        user, item, rating = int(parts[0]), int(parts[1]), float(parts[2])
        if not math.isfinite(rating):
            raise ValueError(f"rating {rating} is not finite")
        return user, item, rating
    except ValueError as exc:
        raise ValueError(f"line {line_number}: could not parse {line!r}") from exc


def ingest_ratings(path, min_user_ratings: int, min_item_ratings: int) -> RatingsTable:
    """Read and threshold-filter a ratings file.

    Format: one rating per line, ``user<sep>item<sep>rating`` with extra
    trailing fields ignored.  The separator is ``::`` when the first data
    line contains it, otherwise a comma.  A leading header line (user
    field not an integer) is skipped; any other line that does not parse,
    or whose rating is not finite, raises ValueError naming its line.  Users
    below ``min_user_ratings`` and items below ``min_item_ratings`` are
    removed, re-running both passes until the surviving table satisfies
    both thresholds.
    """
    triples = []
    delimiter = None
    with open(path, "r", encoding="utf-8", errors="replace") as handle:
        for line_number, raw in enumerate(handle, start=1):
            line = raw.strip()
            if not line:
                continue
            if delimiter is None:
                delimiter = "::" if "::" in line else ","
                try:
                    int(line.split(delimiter, 1)[0])
                except ValueError:
                    continue  # a header line
            triples.append(_parse_line(line, delimiter, line_number))
    if not triples:
        raise ValueError(f"no ratings found in {path}")

    users = np.array([t[0] for t in triples])
    items = np.array([t[1] for t in triples])
    ratings = np.array([t[2] for t in triples])

    keep = np.ones(len(ratings), dtype=bool)
    while True:
        changed = False
        ids, counts = np.unique(users[keep], return_counts=True)
        weak = set(ids[counts < min_user_ratings].tolist())
        if weak:
            keep &= ~np.isin(users, list(weak))
            changed = True
        ids, counts = np.unique(items[keep], return_counts=True)
        weak = set(ids[counts < min_item_ratings].tolist())
        if weak:
            keep &= ~np.isin(items, list(weak))
            changed = True
        if not changed:
            break
    if not keep.any():
        raise ValueError("no ratings survive the filtering thresholds")

    user_ids, users = np.unique(users[keep], return_inverse=True)
    item_ids, items = np.unique(items[keep], return_inverse=True)
    return RatingsTable(users=users, items=items, ratings=ratings[keep],
                        user_ids=tuple(user_ids.tolist()), item_ids=tuple(item_ids.tolist()))


def pmf_train(
    table: RatingsTable,
    d: int,
    lambda_u: float,
    lambda_v: float,
    learning_rate: float,
    validation_fraction: float,
    epochs: int,
    seed: int,
) -> FactorModel:
    """Probabilistic matrix factorization by stochastic gradient descent.

    Minimizes squared prediction error with per-matrix L2 regularization,
    holding out a validation split.  Each epoch applies one update per
    training rating, in a freshly shuffled order, scheduled in levels: a
    rating's level is one past the last level of its user and of its
    item, and each level is one batched update.  An update touches only
    its user's and its item's rows, and a level's ratings share neither,
    so each reads the rows, and takes the float steps, of the one-rating-
    at-a-time loop: the factors come out bit-identical to it.  Returns
    the factors with the best validation RMSE seen; raises on divergence,
    reporting the epoch.
    """
    if len(table) == 0:
        raise ValueError("cannot train on an empty ratings table")
    if not 0.0 < validation_fraction < 1.0:
        raise ValueError("validation_fraction must lie strictly between 0 and 1")
    rng = np.random.default_rng(seed)
    n = len(table)
    order = rng.permutation(n)
    n_val = max(1, int(round(validation_fraction * n)))
    val_idx, train_idx = order[:n_val], order[n_val:]
    if train_idx.size == 0:
        raise ValueError("validation split leaves no training data")

    U = 0.1 * rng.standard_normal((table.num_users, d))
    V = 0.1 * rng.standard_normal((table.num_items, d))

    val_users = table.users[val_idx]
    val_items = table.items[val_idx]
    val_ratings = table.ratings[val_idx]

    def validation_rmse() -> float:
        # huge factors or ratings overflow to a non-finite RMSE, which an epoch reports as divergence
        with np.errstate(over="ignore", invalid="ignore"):
            predictions = np.einsum("ij,ij->i", U[val_users], V[val_items])
            return float(np.sqrt(np.mean((predictions - val_ratings) ** 2)))

    best = FactorModel(U=U.copy(), V=V.copy(), d=d, validation_rmse=validation_rmse())
    best.best_rmse_history.append(best.validation_rmse)

    train_users = table.users[train_idx]
    train_items = table.items[train_idx]
    train_ratings = table.ratings[train_idx]
    m = train_idx.size
    for epoch in range(1, epochs + 1):
        visit = rng.permutation(m)
        user_level, item_level, levels = [0] * U.shape[0], [0] * V.shape[0], []
        for i, j in zip(train_users[visit].tolist(), train_items[visit].tolist()):
            user_last, item_last = user_level[i], item_level[j]  # max() would double the pass's time
            level = user_level[i] = item_level[j] = 1 + (user_last if user_last > item_last else item_last)
            levels.append(level)
        by_level = visit[np.argsort(levels, kind="stable")]
        users, items, ratings = train_users[by_level], train_items[by_level], train_ratings[by_level]
        bounds = np.cumsum(np.bincount(levels)).tolist()
        # divergence is detected per epoch, so intermediate overflow is
        # expected rather than a warning condition
        with np.errstate(over="ignore", invalid="ignore"):
            for lo, hi in zip(bounds, bounds[1:]):
                i, j = users[lo:hi], items[lo:hi]
                u, v = U.take(i, axis=0), V.take(j, axis=0)
                error = (ratings[lo:hi] - (u[:, None, :] @ v[:, :, None])[:, 0, 0])[:, None]
                U[i] = u = u + learning_rate * (error * v - lambda_u * u)
                V[j] = v + learning_rate * (error * u - lambda_v * v)
        if not (np.all(np.isfinite(U)) and np.all(np.isfinite(V))):
            raise FloatingPointError(f"training diverged at epoch {epoch}")
        rmse = validation_rmse()
        if not math.isfinite(rmse):
            raise FloatingPointError(f"training diverged at epoch {epoch}")
        if rmse < best.validation_rmse:
            best = FactorModel(
                U=U.copy(),
                V=V.copy(),
                d=d,
                validation_rmse=rmse,
                best_rmse_history=best.best_rmse_history,
            )
            best.best_rmse_history.append(rmse)
    return best


def _lloyd(points: np.ndarray, k: int, rng: np.random.Generator, max_iter: int = 300):
    n = points.shape[0]
    # greedy farthest-point seeding from a seeded first pick
    centroids = [points[rng.integers(n)]]
    d2 = np.sum((points - centroids[0]) ** 2, axis=1)
    for _ in range(1, k):
        centroids.append(points[int(np.argmax(d2))])
        d2 = np.minimum(d2, np.sum((points - centroids[-1]) ** 2, axis=1))
    centroids = np.array(centroids)

    labels = np.zeros(n, dtype=int)
    history = []
    for _ in range(max_iter):
        distances = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_labels = distances.argmin(axis=1)
        history.append(float(distances[np.arange(n), new_labels].sum()))
        for c in range(k):
            members = points[new_labels == c]
            if members.shape[0] == 0:
                # re-seed an empty cluster from the globally farthest point
                farthest = int(np.argmax(distances[np.arange(n), new_labels]))
                centroids[c] = points[farthest]
                new_labels[farthest] = c
            else:
                centroids[c] = members.mean(axis=0)
        if np.array_equal(new_labels, labels) and len(history) > 1:
            labels = new_labels
            break
        labels = new_labels
    return labels, centroids, history


def kmeans_users(model: FactorModel, k: int, seed: int):
    """Cluster the user factor vectors with Lloyd iterations.

    Seeding is greedy farthest-point from a seeded initial pick; empty
    clusters are re-seeded from the farthest point.  Converges when the
    assignment stabilizes or the iteration cap is hit.
    """
    if k > model.U.shape[0]:
        raise ValueError("cannot make more clusters than users")
    rng = np.random.default_rng(seed)
    return _lloyd(model.U, k, rng)[0]


def sample_super_user(model: FactorModel, clusters: np.ndarray, pairing, seed: int) -> SuperUser:
    """Draw one user per cluster, honoring nearest-neighbor pairings.

    ``pairing`` lists (state_a, state_b) constraints: after the uniform
    per-cluster draw, member b is replaced by the nearest neighbor (in
    squared user-factor distance) of member a within cluster b.
    """
    rng = np.random.default_rng(seed)
    clusters = np.asarray(clusters)
    k = int(clusters.max()) + 1
    members = [np.flatnonzero(clusters == c) for c in range(k)]
    for c, candidates in enumerate(members):
        if candidates.size == 0:
            raise ValueError(f"cluster {c} has no members")
    chosen = [int(rng.choice(candidates)) for candidates in members]
    for a, b in pairing:
        anchor_vec = model.U[chosen[a]]
        candidates = members[b]
        d2 = np.sum((model.U[candidates] - anchor_vec) ** 2, axis=1)
        chosen[b] = int(candidates[np.argmin(d2)])
    if len(set(chosen)) != len(chosen):
        # a pairing can collapse two states onto one user; re-draw the
        # duplicates uniformly from the remaining cluster members
        seen = set()
        for idx, user in enumerate(chosen):
            if user in seen:
                pool = [u for u in members[idx] if u not in seen]
                if not pool:
                    raise ValueError(f"cluster {idx} too small to keep members distinct")
                chosen[idx] = int(rng.choice(pool))
            seen.add(chosen[idx])
    return SuperUser(users=tuple(chosen), pairing=tuple(tuple(p) for p in pairing))


def _three_nn_stds(model: FactorModel, super_user: SuperUser, catalog: np.ndarray) -> np.ndarray:
    item_vectors = model.V[catalog]
    n_items = catalog.size
    stds = np.zeros((n_items, len(super_user.users)))
    d2 = ((item_vectors[:, None, :] - item_vectors[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(d2, np.inf)
    neighbors = np.argsort(d2, axis=1)[:, :3]
    for s, user in enumerate(super_user.users):
        predicted = model.V[catalog] @ model.U[user]
        stds[:, s] = predicted[neighbors].std(axis=1)
    return stds


def build_reward_model(
    model: FactorModel,
    super_user: SuperUser,
    catalog,
    variance_mode: str = "fixed",
    params: dict | None = None,
    seed: int = 0,
) -> RewardModel:
    """Reward model whose state s means are super-user s's predicted ratings.

    Means are exactly the factor inner products U[i_s] . V[item].  Stds
    come from the chosen mode: ``fixed`` uses a constant sigma (default
    ``FIXED_SIGMA``); ``three_nn`` uses, per (item, state), the standard
    deviation of that user's predicted ratings over the item's three
    nearest neighbors in item-factor space; ``sampled_normal`` draws one
    sigma per item from Normal(2, 0.8), resampling up to 100 times until
    positive.  Sigmas below ``SIGMA_FLOOR`` are clamped to it and logged.
    """
    params = dict(params or {})
    catalog = np.asarray(catalog, dtype=int)
    if catalog.size == 0:
        raise ValueError("catalog must not be empty")
    num_states = len(super_user.users)
    user_vectors = model.U[list(super_user.users)]
    means = model.V[catalog] @ user_vectors.T  # [item, state]

    if variance_mode == "fixed":
        sigma = params.get("sigma", FIXED_SIGMA)
        stds = np.full((catalog.size, num_states), sigma)
    elif variance_mode == "three_nn":
        stds = _three_nn_stds(model, super_user, catalog)
    elif variance_mode == "sampled_normal":
        rng = np.random.default_rng(seed)
        sigmas = np.empty(catalog.size)
        for idx in range(catalog.size):
            value = -1.0
            for _ in range(100):
                value = rng.normal(2.0, 0.8)
                if value > 0:
                    break
            sigmas[idx] = value
        stds = np.repeat(sigmas[:, None], num_states, axis=1)
    else:
        raise ValueError(f"unknown variance mode {variance_mode!r}")

    clamped = stds < SIGMA_FLOOR
    if clamped.any():
        log.warning("clamping %d sigma entries to the %.2f floor", int(clamped.sum()), SIGMA_FLOOR)
        stds = np.where(clamped, SIGMA_FLOOR, stds)
    return RewardModel(means=means, stds=stds)
