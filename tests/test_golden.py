"""Golden behaviour record: arm sequences, final pseudo-regret and trace
digests, locked across code versions.

Each config runs 2 runs with full traces.  For every (config, run,
policy) the record holds the sha256 of the arm sequence (read back from
the trace) and the final cumulative pseudo-regret; for every config, the
sha256 of every trace file.  A refactor must reproduce all of them
exactly.  Regenerate the fixture only in a change that means to alter
behaviour, and say so in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import tempfile

import numpy as np

from latentbandits import EnvironmentSpec, ExperimentConfig, PolicySpec, get_recipe, run_experiment

FIXTURE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden", "golden.json")
RUNS = 2


def _random_slates() -> ExperimentConfig:
    """Inline 30-arm, 5-state model offering random 10-arm slates.

    The 0.8 stay probability keeps the propagated belief above AGEmTS's
    1-bit trigger, so info-arm scoring and roll-outs run on fresh slates
    at almost every step.
    """
    rng = np.random.default_rng(2207)
    means = np.round(rng.uniform(0.0, 2.0, size=(30, 5)), 3)
    stds = np.round(rng.uniform(0.05, 0.5, size=(30, 5)), 3)
    env = EnvironmentSpec(
        model={"means": means.tolist(), "stds": stds.tolist()},
        kernel={"graph": {"kind": "fully_connected", "num_states": 5, "stay_prob": 0.8}},
        prior="uniform",
        arm_set_size=10,
    )
    policies = tuple(PolicySpec(name) for name in ("mts", "agemts", "cducb", "cdts", "exp4s"))
    return ExperimentConfig(env, policies, horizon=200, num_runs=RUNS, name="random_slates")


def golden_configs() -> dict:
    configs = {}
    for name in ("two_state_stationary", "two_state_fixed_200", "two_state_explore_strategies"):
        configs[name] = get_recipe(name, horizon=300, num_runs=RUNS)
    for name in ("five_state_full", "five_state_skip", "five_state_branch", "five_state_nonuniform"):
        configs[name] = get_recipe(name, horizon=200, num_runs=RUNS)
    configs["random_slates"] = _random_slates()
    return configs


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def record(config: ExperimentConfig, out_dir: str) -> dict:
    """The golden entry of one config, run with traces into ``out_dir``."""
    results = run_experiment(config, out_dir=out_dir)
    trace_dir = os.path.join(out_dir, "traces")
    entry = {"pairs": {}, "traces": {}}
    for run in results.runs:
        name = f"run_{run.run_index:04d}.jsonl"
        with open(os.path.join(trace_dir, name), "rb") as handle:
            data = handle.read()
        entry["traces"][name] = _sha256(data)
        arms: dict = {}
        for line in data.decode("utf-8").splitlines():
            row = json.loads(line)
            arms.setdefault(row["policy"], []).append(row["arm"])
        for policy in results.policy_names:
            entry["pairs"][f"{run.run_index}/{policy}"] = {
                "arms_sha256": _sha256(",".join(map(str, arms[policy])).encode()),
                "final_regret": float(run.cum_regret[policy][-1]),
            }
    return entry


def record_all(work_dir: str) -> dict:
    return {name: record(config, os.path.join(work_dir, name)) for name, config in golden_configs().items()}


def test_behaviour_matches_golden_record(tmp_path):
    with open(FIXTURE, encoding="utf-8") as handle:
        expected = json.load(handle)
    actual = record_all(str(tmp_path))
    assert sorted(actual) == sorted(expected)
    for name in expected:
        assert actual[name]["pairs"] == expected[name]["pairs"], name
        assert actual[name]["traces"] == expected[name]["traces"], name


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    with tempfile.TemporaryDirectory() as work_dir:
        golden = record_all(work_dir)
    os.makedirs(os.path.dirname(FIXTURE), exist_ok=True)
    with open(FIXTURE, "w", encoding="utf-8") as handle:
        json.dump(golden, handle, indent=1, sort_keys=True)
        handle.write("\n")
