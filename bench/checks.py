"""Checks of a pass's outputs, computed apart from the library.

Every check names the (chunk, run, policy) triples it fails; the runner
counts each as a failed operation.  The mean tables are the
benchmark's own copies, so a fault in the library's accounting cannot
hide behind the library's own numbers.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

# means[arm][state] of the two-state presets (both probe widths share them)
TWO_STATE_MEANS = np.array([[2.1, 2.05], [2.05, 2.1], [1.7, 1.5]])
# means[arm][state] of the five-state preset, in any column order
FIVE_STATE_MEANS = np.array(
    [
        [2.1, 2.05, 1.40, 1.45, 1.0],
        [2.05, 2.1, 1.45, 1.40, 0.95],
        [2.0, 1.9, 1.50, 1.55, 1.05],
        [2.05, 2.1, 1.55, 1.50, 1.1],
        [1.0, 0.9, 0.8, 0.7, 0.6],
    ]
)
BELIEF_TOL = 1e-9
REGRET_TOL = 1e-9
MAX_RMSE = 0.1

# (winner, loser) pairs of final mean regret that the paper's results
# imply and that hold by a wide margin at the benchmark's scale
ORDERINGS = {
    "stationary_traced": [("agemts", "mts")],
    "explore_budget": [("explore_then_ps", "mts"), ("explore_then_ps", "explore_commit")],
    "slates_catalogue": [("agemts", "mts")],
}


def _means_table(workload, model_dir: str) -> np.ndarray:
    if workload.slates:
        with open(os.path.join(model_dir, "reward_model.json"), encoding="utf-8") as handle:
            means = np.asarray(json.load(handle)["means"], dtype=float)
        return means[:, 0, :]
    return FIVE_STATE_MEANS if workload.recipe.startswith("five_state") else TWO_STATE_MEANS


def trace_digests(out_dir: str) -> dict:
    """sha256 of every trace file, by file name."""
    trace_dir = os.path.join(out_dir, "traces")
    digests = {}
    for name in sorted(os.listdir(trace_dir)):
        with open(os.path.join(trace_dir, name), "rb") as handle:
            digests[name] = hashlib.sha256(handle.read()).hexdigest()
    return digests


def _recomputed_regret_failures(chunk, means: np.ndarray) -> set:
    """Cumulative pseudo-regret from each trace record's arm and state
    (every arm offered), against the trace and the in-memory results."""
    failed = set()
    best = means.max(axis=0)
    horizon = chunk.results.config.horizon
    for run in chunk.results.runs:
        path = os.path.join(chunk.out_dir, "traces", f"run_{run.run_index:04d}.jsonl")
        records: dict = {}
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                record = json.loads(line)
                records.setdefault(record["policy"], []).append(record)
        for name, expected in run.cum_regret.items():
            rows = records.get(name, [])
            total = 0.0
            ok = len(rows) == horizon
            for t, row in enumerate(rows):
                total += best[row["state"]] - means[row["arm"], row["state"]]
                ok = ok and row["t"] == t + 1
                ok = ok and abs(total - row["regret"]) <= REGRET_TOL
                ok = ok and abs(total - expected[t]) <= REGRET_TOL
            if not ok:
                failed.add((chunk.index, run.run_index, name))
    return failed


def pass_failures(workload, chunks: list, model_dir: str, num_items: int | None) -> set:
    """(chunk, run, policy) triples whose outputs fail a check, over the
    chunks of one pass that ran to their end."""
    runs = [(chunk, run) for chunk in chunks for run in chunk.results.runs]
    if not runs:
        return set()
    names = chunks[0].results.policy_names
    triples = {(chunk.index, run.run_index, name) for chunk, run in runs for name in names}
    failed = set()
    means = _means_table(workload, model_dir)
    max_step = float((means.max(axis=0) - means.min(axis=0)).max())
    horizon = workload.horizon

    for chunk, run in runs:
        for name in names:
            regret = np.asarray(run.cum_regret[name])
            steps = np.diff(regret, prepend=0.0)
            belief = run.final_beliefs[name]
            ok = regret.shape == (horizon,) and steps.min() >= 0.0
            ok = ok and steps.max() <= max_step + REGRET_TOL
            if belief is not None:
                probs = np.asarray(belief)
                ok = ok and probs.min() >= 0.0 and abs(probs.sum() - 1.0) <= BELIEF_TOL
            if not ok:
                failed.add((chunk.index, run.run_index, name))

    if workload.name == "stationary_traced":
        for chunk in chunks:
            failed |= _recomputed_regret_failures(chunk, means)

    if "explore_then_ps" in names:
        # probe flags cover exactly the first tau steps, one tau for all runs
        taus = set()
        for chunk, run in runs:
            flags = np.asarray(run.info_flags["explore_then_ps"])
            tau = int(np.argmin(flags)) if flags.min() == 0 else horizon
            if not (flags[:tau].all() and not flags[tau:].any() and 0 < tau < horizon):
                failed.add((chunk.index, run.run_index, "explore_then_ps"))
            taus.add(tau)
        if len(taus) != 1:
            failed |= {t for t in triples if t[2] == "explore_then_ps"}

    # the orderings are taken over all the workload's runs, not per chunk
    for winner, loser in ORDERINGS.get(workload.name, ()):
        final = {name: float(np.mean([run.cum_regret[name][-1] for _, run in runs])) for name in (winner, loser)}
        if not final[winner] < final[loser]:
            failed |= {t for t in triples if t[2] in (winner, loser)}

    if workload.slates:
        with open(os.path.join(model_dir, "provenance.json"), encoding="utf-8") as handle:
            provenance = json.load(handle)
        planted = provenance["validation_rmse"] < MAX_RMSE and provenance["num_items"] == num_items
        if not (planted and means.shape == (num_items, 5)):
            failed |= triples
    return failed
