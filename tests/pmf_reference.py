"""Reference oracle for PMF training.

A copy of ``pmf_train`` as it stood when every epoch made one SGD update
per rating, in the epoch's visit order.  The library's level schedule
must give the same factors, validation RMSE and best-RMSE history bit
for bit, and raise at the same epoch; this module is imported by tests
only and is not a test file.
"""

from __future__ import annotations

import math

import numpy as np

from latentbandits.datasets import FactorModel, RatingsTable


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
    """Probabilistic matrix factorization by per-rating gradient descent.

    Minimizes squared prediction error with per-matrix L2 regularization,
    visiting the training ratings in a freshly shuffled order each epoch
    and holding out a validation split.  Returns the factors with the best
    validation RMSE seen; raises on divergence, reporting the epoch.
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
        # divergence is detected per epoch, so intermediate overflow is
        # expected rather than a warning condition
        with np.errstate(over="ignore", invalid="ignore"):
            for idx in visit:
                i = train_users[idx]
                j = train_items[idx]
                u = U[i]
                v = V[j]
                error = train_ratings[idx] - u @ v
                U[i] = u + learning_rate * (error * v - lambda_u * u)
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
