"""The benchmark's workloads: their inputs, and one pass of each.

A pass does what a user of the library does: import it, resolve the
experiment config, then run experiments and write their outputs.  It
goes through the public entry points the CLI uses (``get_recipe`` or
``load_config`` with the CLI's overrides, ``cli.main(["build-model",
...])``, ``run_experiment`` and ``emit_outputs``).  The library is
imported afresh in every pass, so each pass pays the same set-up.

A workload's runs are split into chunks: one experiment of a few runs
each, timed on its own.  A chunk takes a fraction of a second, so the
runner times every chunk many times within a run and takes the median
of each.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import importlib
import io
import json
import os
import shutil
import sys
import time
from dataclasses import dataclass, field

import numpy as np

PACKAGE = "latentbandits"

# planted-factor ratings for slates_catalogue, shaped like acceptance
# criterion 10: user factors drawn around one centre per cluster, exact
# ratings u . v on a random 90% of the (user, item) pairs.  The file is
# the catalogue and stays fixed, as the MovieLens file it stands in for
# does: drawn per benchmark seed, the model it yields changed a round's
# cost by up to 1.7x from seed to seed.
CATALOGUE_SEED = 2207
SLATE_USERS = 50
SLATE_ITEMS = 40
SLATE_DENSITY = 0.9
SLATE_RANK = 4
SLATE_CLUSTERS = 5
SLATE_DATASET = {
    "min_user_ratings": 1,
    "min_item_ratings": 1,
    "d": SLATE_RANK,
    "epochs": 40,
    "learning_rate": 0.03,
    "num_states": SLATE_CLUSTERS,
}


@dataclass(frozen=True)
class Workload:
    name: str
    recipe: str
    chunks: int
    chunk_runs: int
    horizon: int
    # written to disk the way `latent-bandits run` does (traces and CSVs)
    traced: bool
    # ratings file built into a catalogue model with `build-model`
    slates: bool = False
    # fields replacing the recipe's own environment fields
    environment: dict = field(default_factory=dict)

    @property
    def runs(self) -> int:
        return self.chunks * self.chunk_runs


WORKLOADS = {
    w.name: w
    for w in (
        Workload("stationary_traced", "two_state_stationary", chunks=8, chunk_runs=2, horizon=400, traced=True),
        # the recipe's point prior leaves roll-outs to random state
        # switches, so their count changes tenfold from seed to seed; a
        # uniform prior makes every run start uncertain and pay them.
        # Left out of BENCHMARK.json: the machine's drift moves its times
        # more than any other workload's (see README.md)
        Workload(
            "five_state_rollouts",
            "five_state_full",
            chunks=32,
            chunk_runs=2,
            horizon=20,
            traced=False,
            environment={"prior": "uniform"},
        ),
        Workload("explore_budget", "two_state_explore_strategies", chunks=6, chunk_runs=1, horizon=300,
                 traced=False),
        Workload("slates_catalogue", "movielens_full", chunks=10, chunk_runs=2, horizon=300, traced=True,
                 slates=True),
    )
}


def base_seed(seed: int) -> int:
    """Experiment base seed for a benchmark seed; runs of different
    benchmark seeds never share a trajectory."""
    return 1000 * seed


@dataclass
class Inputs:
    """What one workload run is made from: the experiment's base seed,
    and for slates_catalogue the catalogue's ratings file plus its
    dataset config."""

    base_seed: int
    dataset_config: str | None = None
    num_items: int | None = None


def write_ratings(directory: str) -> tuple[str, int]:
    """Write the planted-factor ``user::item::rating`` file; returns its
    path and the number of items in it."""
    rng = np.random.default_rng(CATALOGUE_SEED)
    centres = rng.normal(0.0, 1.2, size=(SLATE_CLUSTERS, SLATE_RANK))
    labels = np.repeat(np.arange(SLATE_CLUSTERS), SLATE_USERS // SLATE_CLUSTERS)
    users = centres[labels] + rng.normal(0.0, 0.12, size=(labels.size, SLATE_RANK))
    items = rng.normal(0.0, 0.8, size=(SLATE_ITEMS, SLATE_RANK))
    ratings = users @ items.T
    rated = rng.random(ratings.shape) < SLATE_DENSITY
    path = os.path.join(directory, "ratings.dat")
    with open(path, "w", encoding="utf-8") as handle:
        for u, i in zip(*np.nonzero(rated)):
            handle.write(f"{u + 1}::{i + 1}::{float(ratings[u, i])!r}\n")
    num_items = int(np.unique(np.nonzero(rated)[1]).size)
    return path, num_items


def make_inputs(workload: Workload, seed: int, directory: str) -> Inputs:
    """Generate a workload's inputs from a seed (not timed)."""
    inputs = Inputs(base_seed=base_seed(seed))
    if workload.slates:
        os.makedirs(directory, exist_ok=True)
        ratings, inputs.num_items = write_ratings(directory)
        inputs.dataset_config = os.path.join(directory, "dataset.json")
        with open(inputs.dataset_config, "w", encoding="utf-8") as handle:
            json.dump(dict(SLATE_DATASET, ratings_file=ratings, seed=CATALOGUE_SEED), handle)
    return inputs


class Library:
    """The package's modules, imported afresh."""

    def __init__(self):
        for name in [m for m in sys.modules if m == PACKAGE or m.startswith(PACKAGE + ".")]:
            del sys.modules[name]
        for module in ("cli", "harness", "recipes", "datasets", "models", "policies",
                       "policies.agemts", "policies.base", "policies.rollout"):
            setattr(self, module.replace("policies.", ""), importlib.import_module(f"{PACKAGE}.{module}"))


def resolve_config(lib: Library, workload: Workload, inputs: Inputs, model_dir: str):
    """The experiment config of chunk 0, resolved as `latent-bandits run`
    resolves it."""
    if workload.slates:
        with contextlib.redirect_stdout(io.StringIO()):
            code = lib.cli.main(["build-model", inputs.dataset_config, "--out-dir", model_dir])
        if code != 0:
            raise RuntimeError(f"build-model exited with {code}")
        config = lib.harness.load_config(os.path.join(model_dir, f"{workload.recipe}.json"))
    else:
        config = lib.recipes.get_recipe(workload.recipe)
    doc = config.to_dict()
    doc.update(base_seed=inputs.base_seed, num_runs=workload.chunk_runs, horizon=workload.horizon, out_dir=None)
    doc["environment"].update(workload.environment)
    return lib.harness.ExperimentConfig.from_dict(doc)


def _failure(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


@dataclass
class Setup:
    """The freshly imported library and the resolved config of a pass."""

    model_dir: str
    lib: Library | None = None
    config: object = None
    setup_s: float = 0.0
    error: str | None = None


def set_up(workload: Workload, inputs: Inputs, work_dir: str, instrument=None) -> Setup:
    """Import the library and resolve the config; ``instrument(lib)`` is
    called right after the import to wrap the library's functions."""
    result = Setup(model_dir=os.path.join(work_dir, "model"))
    shutil.rmtree(result.model_dir, ignore_errors=True)
    start = time.perf_counter()
    try:
        lib = Library()
        if instrument is not None:
            instrument(lib)
        config = resolve_config(lib, workload, inputs, result.model_dir)
        config.validate()
    except Exception as exc:  # noqa: BLE001 - a failing pass is counted, not fatal
        result.error = _failure(exc)
        return result
    result.setup_s = time.perf_counter() - start
    result.lib, result.config = lib, config
    return result


@dataclass
class Chunk:
    """What one chunk's experiment produced and how long it took."""

    index: int
    results: object = None
    out_dir: str | None = None
    run_s: float = 0.0
    error: str | None = None


def run_chunk(workload: Workload, setup: Setup, index: int, work_dir: str, runs: int | None = None) -> Chunk:
    """Run chunk ``index`` as one experiment and write its outputs.  Its
    run ``r`` draws its trajectory from ``base_seed + index * chunk_runs
    + r``, so no two chunks share a trajectory."""
    chunk = Chunk(index=index)
    if workload.traced:
        chunk.out_dir = os.path.join(work_dir, "out", f"chunk_{index:02d}")
        shutil.rmtree(chunk.out_dir, ignore_errors=True)
    config = dataclasses.replace(
        setup.config,
        base_seed=setup.config.base_seed + index * workload.chunk_runs,
        num_runs=runs or workload.chunk_runs,
        out_dir=chunk.out_dir,
    )
    harness = setup.lib.harness
    # a collection left over from the previous chunk is not this chunk's cost
    gc.collect()
    start = time.perf_counter()
    try:
        results = harness.run_experiment(config, out_dir=chunk.out_dir)
        if chunk.out_dir:
            harness.emit_outputs(results, chunk.out_dir)
    except Exception as exc:  # noqa: BLE001 - a failing chunk is counted, not fatal
        chunk.error = _failure(exc)
        return chunk
    chunk.run_s = time.perf_counter() - start
    chunk.results = results
    return chunk


@dataclass
class Pass:
    setup: Setup
    chunks: list


def run_pass(workload: Workload, inputs: Inputs, work_dir: str, instrument=None) -> Pass:
    """Set up once, then run every chunk of the workload in order."""
    shutil.rmtree(os.path.join(work_dir, "out"), ignore_errors=True)
    setup = set_up(workload, inputs, work_dir, instrument)
    if setup.error:
        return Pass(setup, [])
    return Pass(setup, [run_chunk(workload, setup, k, work_dir) for k in range(workload.chunks)])
