import json
import os

import numpy as np
import pytest

from latentbandits.cli import main
from latentbandits.harness import load_config
from latentbandits.recipes import RECIPES, get_recipe


def small_config_file(tmp_path, horizon=30, runs=2):
    config = get_recipe("two_state_stationary", horizon=horizon, num_runs=runs)
    path = tmp_path / "config.json"
    from latentbandits.harness import save_config

    save_config(config, path)
    return path


class TestValidate:
    @pytest.mark.parametrize("recipe", sorted(set(RECIPES) - {"movielens_full",
                                                              "movielens_skip",
                                                              "movielens_branch"}))
    def test_recipes_validate(self, recipe, capsys):
        assert main(["validate", recipe]) == 0
        assert "valid" in capsys.readouterr().out

    def test_unknown_reference_is_config_error(self, capsys):
        assert main(["validate", "no_such_thing"]) == 2

    def test_malformed_json_is_config_error(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["validate", str(path)]) == 2

    def test_movielens_without_model_is_config_error(self):
        assert main(["validate", "movielens_full"]) == 2

    @pytest.mark.parametrize("edit", [
        lambda doc: doc["policies"].append(dict(doc["policies"][0])),
        lambda doc: doc["policies"].append({"name": "agemts", "params": {"bogus": 1}}),
        lambda doc: doc["policies"].append({"name": "explore_commit", "params": {"n_e": 5}}),
        lambda doc: doc["environment"].update(schedule=[5, 5]),
        lambda doc: doc["policies"].append({"name": "explore_commit", "params": {"info_arm": 2}}),
        lambda doc: doc["policies"].append({"name": "cd_linucb", "params": {}}),
        lambda doc: doc["policies"].append({"name": "cd_lints", "params": {}}),
        lambda doc: doc["policies"].append({"name": "explore_commit", "params": {"info_arm": 7, "n_e": 5}}),
        lambda doc: doc["policies"].append({"name": "explore_commit", "params": {"info_arm": -1, "n_e": 5}}),
        lambda doc: doc["policies"].append({"name": "explore_then_ps", "params": {"info_arm": 7}}),
        lambda doc: doc["policies"].append({"name": "explore_then_ps", "params": {"info_arm": -1}}),
        lambda doc: doc["environment"].update(prior={"point": 7}),
        lambda doc: doc["environment"].update(prior={"point": -1}),
        lambda doc: doc["environment"].update(prior=[0.9, 0.3]),
        lambda doc: doc["environment"].update(arm_set_size=0),
        lambda doc: doc["environment"].update(
            model={"means": np.full((3, 2, 2), 2.0).tolist(), "stds": np.ones((3, 2, 2)).tolist()}
        ),
    ], ids=["duplicate_names", "unknown_param", "missing_info_arm", "duplicate_schedule",
            "explore_commit_without_budget", "cd_linucb_without_features", "cd_lints_without_features",
            "explore_commit_info_arm_7", "explore_commit_info_arm_-1", "explore_then_ps_info_arm_7",
            "explore_then_ps_info_arm_-1", "point_prior_7", "point_prior_-1", "prior_not_summing_to_1",
            "empty_arm_set", "two_context_inline_model"])
    def test_unrunnable_configs_are_config_errors(self, tmp_path, edit):
        doc = get_recipe("two_state_random_switch", horizon=10, num_runs=2).to_dict()
        doc["policies"] = [p for p in doc["policies"] if p["name"] != "agemts"]
        edit(doc)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 2

    def test_two_context_model_file_is_config_error(self, tmp_path):
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps({
            "num_contexts": 2,
            "means": np.full((3, 2, 2), 2.0).tolist(),
            "stds": np.ones((3, 2, 2)).tolist(),
        }))
        doc = get_recipe("two_state_stationary", horizon=10, num_runs=2).to_dict()
        doc["environment"]["model"] = {"file": str(model_path)}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 2


class TestRun:
    def test_run_writes_outputs(self, tmp_path, capsys):
        path = small_config_file(tmp_path)
        out = tmp_path / "out"
        assert main(["run", str(path), "--out-dir", str(out)]) == 0
        assert (out / "aggregate.csv").exists()
        assert (out / "curves.csv").exists()
        assert (out / "traces" / "run_0000.jsonl").exists()
        assert (out / "run_meta.json").exists()
        assert "final mean regret" in capsys.readouterr().out

    def test_flag_overrides(self, tmp_path):
        path = small_config_file(tmp_path, horizon=30, runs=2)
        out = tmp_path / "out"
        assert main(["run", str(path), "--horizon", "12", "--runs", "3",
                     "--seed", "9", "--out-dir", str(out)]) == 0
        meta = json.loads((out / "run_meta.json").read_text())
        assert meta["config"]["horizon"] == 12
        assert meta["config"]["num_runs"] == 3
        assert meta["config"]["base_seed"] == 9
        traces = sorted(p.name for p in (out / "traces").iterdir())
        assert traces == ["run_0000.jsonl", "run_0001.jsonl", "run_0002.jsonl"]

    def test_recipe_name_accepted(self, tmp_path, monkeypatch):
        monkeypatch.setenv("LBL_OUT_DIR", str(tmp_path))
        assert main(["run", "two_state_stationary", "--horizon", "10", "--runs", "2"]) == 0
        assert (tmp_path / "two_state_stationary" / "aggregate.csv").exists()

    def test_runtime_failure_is_exit_3(self, tmp_path):
        path = small_config_file(tmp_path)
        blocker = tmp_path / "blocker"
        blocker.write_text("file")
        assert main(["run", str(path), "--out-dir", str(blocker / "sub"),
                     "--horizon", "5"]) == 3


class TestSweepCommand:
    def test_sweep_writes_table(self, tmp_path):
        config = get_recipe("regions_stationary", horizon=15, num_runs=2)
        doc = config.to_dict()
        doc["sweep_axes"] = {"probe_sigma": [0.05, 0.5]}
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert main(["sweep", str(path), "--out-dir", str(out)]) == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 3


class TestBuildModel:
    def make_ratings(self, tmp_path, rng):
        lines = []
        for u in range(40):
            for i in range(30):
                if rng.random() < 0.9:
                    lines.append(f"{u}::{i}::{rng.uniform(1, 5):.2f}::0")
        path = tmp_path / "ratings.dat"
        path.write_text("\n".join(lines) + "\n")
        return path

    def test_build_model_end_to_end(self, tmp_path, rng, capsys):
        ratings = self.make_ratings(tmp_path, rng)
        config = {
            "ratings_file": str(ratings),
            "min_user_ratings": 5,
            "min_item_ratings": 5,
            "d": 4,
            "learning_rate": 0.02,
            "epochs": 10,
            "num_states": 5,
            "pairing": [[1, 3], [2, 4]],
            "seed": 3,
        }
        config_path = tmp_path / "dataset.json"
        config_path.write_text(json.dumps(config))
        out = tmp_path / "model_out"
        assert main(["build-model", str(config_path), "--out-dir", str(out)]) == 0
        model_doc = json.loads((out / "reward_model.json").read_text())
        assert set(model_doc) >= {"means", "stds", "num_contexts", "features"}
        provenance = json.loads((out / "provenance.json").read_text())
        assert provenance["seed"] == 3
        assert provenance["num_users"] == 40
        for graph in ("full", "skip", "branch"):
            run_config = load_config(out / f"movielens_{graph}.json")
            run_config.validate()

    def test_missing_ratings_file_is_config_error(self, tmp_path):
        config_path = tmp_path / "dataset.json"
        config_path.write_text(json.dumps({"ratings_file": str(tmp_path / "nope.dat")}))
        assert main(["build-model", str(config_path), "--out-dir",
                     str(tmp_path / "out")]) == 3
