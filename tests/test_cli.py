import inspect
import json
import os
import typing
from dataclasses import replace

import numpy as np
import pmf_reference
import pytest

from latentbandits import datasets, harness
from latentbandits.cli import main
from latentbandits.config import ConfigError, check_type
from latentbandits.harness import load_config
from latentbandits.policies import _EXPERIMENT_QUANTITIES, POLICIES
from latentbandits.presets import two_state_model
from latentbandits.recipes import RECIPES, get_recipe


def small_config_file(tmp_path, horizon=30, runs=2):
    config = get_recipe("two_state_stationary", horizon=horizon, num_runs=runs)
    path = tmp_path / "config.json"
    from latentbandits.harness import save_config

    save_config(config, path)
    return path


def set_axes(**axes):
    """A config edit that sets the config's sweep axes."""
    def edit(doc):
        doc["sweep_axes"] = axes
    return edit


def probe_first(**axes):
    """A config edit that sets sweep axes on the two-state model with its
    probe arm moved from last to first."""
    def edit(doc):
        model = two_state_model()
        doc["environment"]["model"] = {"means": model.means[::-1].tolist(), "stds": model.stds[::-1].tolist()}
        doc["sweep_axes"] = axes
    return edit


def set_params(name, **params):
    """A config edit that sets params of the config's policy ``name``."""
    def edit(doc):
        next(p for p in doc["policies"] if p["name"] == name).setdefault("params", {}).update(params)
    return edit


def set_graph(**fields):
    """A config edit that sets fields of the config's transition graph."""
    def edit(doc):
        doc["environment"]["kernel"]["graph"].update(fields)
    return edit


def with_features(features, policy, **params):
    """A config edit that moves the config onto a two-state model file with
    arm ``features``, written to the working directory, and adds
    ``policy`` with ``params``."""
    def edit(doc):
        model = two_state_model()
        with open("model.json", "w", encoding="utf-8") as handle:
            json.dump({"means": model.means.tolist(), "stds": model.stds.tolist(), "features": features}, handle)
        doc["environment"]["model"] = {"file": "model.json"}
        doc["policies"].append({"name": policy, "params": params})
    return edit


def on_five_states(policy, **params):
    """A config edit that moves the config onto the five-state benchmark's
    environment and adds ``policy`` with ``params``."""
    def edit(doc):
        doc["environment"] = get_recipe("five_state_full").to_dict()["environment"]
        doc["policies"].append({"name": policy, "params": params})
    return edit


# params with which each policy validates; the others need none
VALID_PARAMS = {"explore_commit": {"info_arm": 2, "n_e": 5}, "explore_then_ps": {"info_arm": 2, "tau": 3}}


def _config_hints(name):
    """The annotations of a policy constructor's config params."""
    hints = typing.get_type_hints(POLICIES[name].__init__)
    return {key: value for key, value in hints.items() if key not in _EXPERIMENT_QUANTITIES + ("return",)}


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
        set_params("cducb", window_size=3),
        set_params("cdts", window_size=3),
        lambda doc: doc["policies"].append({"name": "agemts", "params": {"entropy_threshold": "x"}}),
        lambda doc: doc["policies"].append({"name": "explore_commit", "params": {"info_arm": 1.5, "n_e": 5}}),
        lambda doc: doc["policies"].append({"name": "explore_commit", "params": {"info_arm": 2, "n_e": -3}}),
        lambda doc: doc["policies"].append({"name": "explore_then_ps", "params": {"info_arm": 2, "tau": -2}}),
        lambda doc: doc["environment"].update(arm_set_size=2.5),
        set_params("cducb", threshold="x"),
        set_params("cducb", threshold=True),
        set_params("exp4s", learning_rate="x"),
        set_params("exp4s", weight_floor="x"),
        lambda doc: doc.update(horizon=2.7),
        lambda doc: doc.update(horizon=True),
        lambda doc: doc.update(horizon="x"),
        lambda doc: doc.update(horizon=1000.0),
        lambda doc: doc.update(num_runs=2.9),
        lambda doc: doc.update(base_seed="7"),
        lambda doc: doc.update(base_seed=-5),
        lambda doc: doc.update(bogus=1),
        lambda doc: doc["environment"].update(bogus=1),
        lambda doc: doc["policies"][0].update(params=[1]),
        lambda doc: doc["environment"].update(prior={"point": True}),
        set_axes(bogus=[1]),
        set_axes(arm_set_size=[2.5]),
        set_axes(arm_set_size=[2, 9]),
        set_axes(probe_sigma=["x"]),
        set_axes(probe_sigma=[0.05, -1]),
        set_axes(probe_gap=[True]),
        set_axes(probe_sigma=0.05),
        set_axes(probe_sigma=[]),
        lambda doc: doc["environment"].update(schedule=[1.5, 3]),
        lambda doc: doc["environment"].update(schedule=["x"]),
        lambda doc: doc["environment"].update(schedule=[True]),
        lambda doc: doc["environment"].update(schedule=[0]),
        probe_first(probe_sigma=[0.05]),
        probe_first(probe_gap=[0.4]),
        with_features(np.eye(3)[:2].tolist(), "cd_linucb"),
        with_features(np.eye(3).tolist(), "cd_lints", ridge=0),
        set_graph(stay_prob=True),
        set_graph(seed=True),
        set_graph(kind="custom", edges=[[0, 1.7], [1, 0]]),
        set_graph(kind="custom", edges=[[0, -1], [1, 0]]),
        with_features([[1, 0], [0, 1], [1, "x"]], "cd_linucb"),
        with_features([1, 0, 1], "cd_linucb"),
        with_features([[1, 0], [0, 1], [1, float("inf")]], "cd_linucb"),
        set_params("exp4s", learning_rate=float("nan")),
        set_params("exp4s", weight_floor=float("nan")),
        set_params("exp4s", learning_rate=-0.5),
        set_params("exp4s", weight_floor=-0.1),
        set_params("exp4s", learning_rate=10**400),
        set_params("cducb", threshold=float("nan")),
        lambda doc: doc["policies"].append({"name": "agemts", "params": {"entropy_threshold": float("nan")}}),
        on_five_states("explore_then_ps", info_arm=4),
        on_five_states("explore_then_ps", info_arm=4, tau=None),
        lambda doc: doc["environment"].update(schedule=[]),
    ], ids=["duplicate_names", "unknown_param", "missing_info_arm", "duplicate_schedule",
            "explore_commit_without_budget", "cd_linucb_without_features", "cd_lints_without_features",
            "explore_commit_info_arm_7", "explore_commit_info_arm_-1", "explore_then_ps_info_arm_7",
            "explore_then_ps_info_arm_-1", "point_prior_7", "point_prior_-1", "prior_not_summing_to_1",
            "empty_arm_set", "two_context_inline_model", "cducb_odd_window", "cdts_odd_window",
            "agemts_threshold_not_a_number", "explore_commit_info_arm_1.5", "explore_commit_negative_n_e",
            "explore_then_ps_negative_tau", "fractional_arm_set_size", "cducb_threshold_x",
            "cducb_threshold_true", "exp4s_learning_rate_x", "exp4s_weight_floor_x", "horizon_2.7",
            "horizon_true", "horizon_x", "horizon_1000.0", "num_runs_2.9", "base_seed_string", "negative_base_seed",
            "unknown_top_level_key", "unknown_environment_key", "params_not_a_map", "point_prior_true",
            "unknown_sweep_axis", "fractional_arm_set_size_axis", "arm_set_size_axis_9", "probe_sigma_axis_x",
            "probe_sigma_axis_-1", "probe_gap_axis_true", "axis_not_a_list", "axis_without_values",
            "fractional_schedule_time", "schedule_time_x", "schedule_time_true", "schedule_time_0",
            "probe_sigma_axis_probe_not_last", "probe_gap_axis_probe_not_last", "features_one_row_short",
            "cd_lints_ridge_0", "graph_stay_prob_true", "graph_seed_true", "graph_fractional_edge",
            "graph_edge_outside_states", "features_not_numbers", "features_one_dimensional",
            "features_not_finite", "exp4s_learning_rate_nan", "exp4s_weight_floor_nan",
            "exp4s_negative_learning_rate", "exp4s_negative_weight_floor", "exp4s_learning_rate_past_floats",
            "cducb_threshold_nan", "agemts_threshold_nan", "explore_then_ps_forecast_on_five_states",
            "explore_then_ps_null_forecast_on_five_states", "empty_schedule"])
    def test_unrunnable_configs_are_config_errors(self, tmp_path, monkeypatch, edit):
        monkeypatch.chdir(tmp_path)  # where an edit writes its model file
        doc = get_recipe("two_state_random_switch", horizon=10, num_runs=2).to_dict()
        doc["policies"] = [p for p in doc["policies"] if p["name"] != "agemts"]
        edit(doc)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 2

    @pytest.mark.parametrize("field,spec", [
        ("model", {"preset": "two_state", "means": [[1.0, 0.0]] * 3}),
        ("model", {"preset": "two_state", "typo": 1}),
        ("kernel", {"identity": True, "matrix": [[1.0, 0.0], [0.0, 1.0]]}),
        ("kernel", {"identity": False, "matrix": [[1.0, 0.0], [0.0, 1.0]]}),
        ("prior", {"point": 0, "x": 1}),
        ("kernel", {"graph": {"kind": "fully_connected", "num_states": 2, "edges": [[0, 1], [1, 0]]}}),
    ], ids=["model_preset_and_means", "model_unknown_key", "kernel_identity_and_matrix",
            "kernel_identity_false_and_matrix", "prior_unknown_key", "graph_edges_not_custom"])
    def test_environment_spec_keys_are_config_errors(self, tmp_path, capsys, field, spec):
        doc = get_recipe("two_state_stationary", horizon=10, num_runs=2).to_dict()
        doc["environment"][field] = spec
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("name", sorted(POLICIES))
    def test_every_config_param_is_annotated(self, name):
        hints = _config_hints(name)
        params = inspect.signature(POLICIES[name]).parameters
        assert {key for key in params if key not in _EXPERIMENT_QUANTITIES} <= set(hints)

    @pytest.mark.parametrize("name,param,value", [
        (name, param, value)
        for name in sorted(POLICIES)
        for param, annotation in _config_hints(name).items()
        if {int, float} & {annotation, *typing.get_args(annotation)}
        for value in ("x", True)
    ])
    def test_mistyped_numeric_param_is_config_error(self, tmp_path, two_state, name, param, value):
        # the base params validate, so the mistyped value alone is rejected
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps({"means": two_state.means.tolist(), "stds": two_state.stds.tolist(),
                                          "features": np.eye(3).tolist()}))
        doc = get_recipe("two_state_stationary", horizon=10, num_runs=2).to_dict()
        doc["environment"]["model"] = {"file": str(model_path)}
        doc["policies"] = [{"name": name, "params": dict(VALID_PARAMS.get(name, {}))}]
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 0
        doc["policies"][0]["params"][param] = value
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 2

    def test_explicit_tau_on_five_states_is_valid(self, tmp_path):
        doc = get_recipe("two_state_random_switch", horizon=10, num_runs=2).to_dict()
        on_five_states("explore_then_ps", info_arm=4, tau=3)(doc)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 0

    def test_forecast_param_accepts_null(self, tmp_path):
        doc = get_recipe("two_state_explore_strategies", horizon=10, num_runs=2).to_dict()
        set_params("explore_then_ps", tau=None)(doc)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc))
        assert main(["validate", str(path)]) == 0

    # Python 3.10's get_type_hints turns a None-defaulted param's ``int | None``
    # into ``Optional[int]``: both spellings must take the same values
    @pytest.mark.parametrize("annotation", [int | None, typing.Optional[int]])
    def test_both_union_spellings_are_checked(self, annotation):
        assert check_type("n_e", 3, annotation) == 3
        assert check_type("n_e", None, annotation) is None
        for value in ("x", True, 2.5):
            with pytest.raises(ConfigError):
                check_type("n_e", value, annotation)

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

    def test_summary_prints_each_policys_cost(self, tmp_path, capsys):
        # detectors on a short window over planted switches, so resets count
        config = get_recipe("two_state_fixed_200", horizon=400, num_runs=2)
        config = replace(config, policies=tuple(
            replace(spec, params={"window_size": 10, "threshold": 1.0}) if spec.name in ("cducb", "cdts") else spec
            for spec in config.policies))
        path = tmp_path / "config.json"
        harness.save_config(config, path)
        out = tmp_path / "out"
        assert main(["run", str(path), "--out-dir", str(out)]) == 0
        lines = capsys.readouterr().out.splitlines()
        meta = json.loads((out / "run_meta.json").read_text())
        for spec in config.policies:
            name = spec.name
            regret = next(k for k, line in enumerate(lines) if line.startswith(f"  final mean regret {name}:"))
            seconds, *counts = lines[regret + 1].split(", ")
            assert seconds == f"    policy seconds {sum(run[name] for run in meta['policy_seconds']):.3f}"
            counters = {key: sum(run[name][key] for run in meta["policy_counters"])
                        for key in meta["policy_counters"][0][name]}
            assert dict(count.split(" ") for count in counts) == {key: str(v) for key, v in counters.items()}
            if name in ("cducb", "cdts"):
                assert counters["detector_resets"] > 0

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
    def test_bad_axis_value_fails_before_any_grid_point(self, tmp_path, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("a grid point ran")

        monkeypatch.setattr(harness, "run_experiment", no_run)
        doc = get_recipe("regions_stationary", horizon=15, num_runs=2).to_dict()
        doc["sweep_axes"] = {"probe_sigma": [0.05, -1]}
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(doc))
        assert main(["sweep", str(path), "--out-dir", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("flag", ["--runs", "--horizon"])
    def test_run_flags_are_usage_errors(self, tmp_path, capsys, flag):
        config_path = tmp_path / "dataset.json"
        config_path.write_text("{}")
        with pytest.raises(SystemExit) as exited:
            main(["build-model", str(config_path), flag, "3"])
        assert exited.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("entry", [
        {"d": "x"},
        {"d": 4.7},
        {"d": 0},
        {"epochs": -1},
        {"epoch": 3},
        {"learning_rate": "0.02"},
        {"variance_mode": "bogus"},
        {"num_states": 0},
        {"num_states": 1},
        {"num_states": True},
        {"min_user_ratings": 0},
        {"validation_fraction": 1.5},
        {"pairing": [[1, 7]]},
        {"pairing": [[1, 3, 4]]},
        {"pairing": [[1, 2.0]]},
        {"pairing": [1, 3]},
        {"seed": "3"},
        {"seed": -1},
        {"ratings_file": None},
        {"variance_params": {"sigma": "x"}},
        {"variance_params": {"sigma": "0.3"}},
        {"variance_params": {"sigma": True}},
        {"variance_params": {"sigma": 0.3, "scale": 2}},
        {"variance_mode": "three_nn", "variance_params": {"sigma": 0.3}},
        {"learning_rate": float("nan")},
        {"learning_rate": -0.5},
        {"learning_rate": float("inf")},
        {"lambda_u": float("inf")},
        {"lambda_u": -1e-3},
        {"lambda_v": float("nan")},
        {"lambda_v": -1},
        {"variance_params": {"sigma": -1.0}},
        {"variance_params": {"sigma": 0}},
        {"variance_params": {"sigma": float("nan")}},
        {"variance_params": {"sigma": float("inf")}},
    ])
    def test_bad_dataset_config_fails_before_ingest(self, tmp_path, rng, capsys, entry):
        config = {"ratings_file": str(self.make_ratings(tmp_path, rng)), "min_user_ratings": 5,
                  "min_item_ratings": 5, "d": 4, "learning_rate": 0.02, "epochs": 2, **entry}
        config_path = tmp_path / "dataset.json"
        config_path.write_text(json.dumps(config))
        out = tmp_path / "model_out"
        assert main(["build-model", str(config_path), "--out-dir", str(out)]) == 2
        assert "ingested" not in capsys.readouterr().out
        assert not out.exists()

    def test_float_given_as_int_is_written_as_float(self, tmp_path, rng):
        config = {"ratings_file": str(self.make_ratings(tmp_path, rng)), "min_user_ratings": 5,
                  "min_item_ratings": 5, "d": 4, "learning_rate": 0.02, "epochs": 2, "lambda_u": 0, "lambda_v": 0}
        config_path = tmp_path / "dataset.json"
        config_path.write_text(json.dumps(config))
        out = tmp_path / "model_out"
        assert main(["build-model", str(config_path), "--out-dir", str(out)]) == 0
        assert '"lambda_u": 0.0,' in (out / "provenance.json").read_text()
        assert '"lambda_v": 0.0,' in (out / "provenance.json").read_text()

    @pytest.mark.parametrize("variance_mode", ["fixed", "three_nn", "sampled_normal"])
    def test_outputs_byte_identical_to_per_rating_training(self, tmp_path, rng, monkeypatch, variance_mode):
        config = {"ratings_file": str(self.make_ratings(tmp_path, rng)), "min_user_ratings": 5,
                  "min_item_ratings": 5, "d": 4, "learning_rate": 0.02, "epochs": 10,
                  "variance_mode": variance_mode, "seed": 3}
        config_path = tmp_path / "dataset.json"
        config_path.write_text(json.dumps(config))
        assert main(["build-model", str(config_path), "--out-dir", str(tmp_path / "levels")]) == 0
        monkeypatch.setattr(datasets, "pmf_train", pmf_reference.pmf_train)
        assert main(["build-model", str(config_path), "--out-dir", str(tmp_path / "per_rating")]) == 0
        for name in ("reward_model.json", "provenance.json"):
            assert (tmp_path / "levels" / name).read_bytes() == (tmp_path / "per_rating" / name).read_bytes()

    def test_missing_ratings_file_is_config_error(self, tmp_path):
        config_path = tmp_path / "dataset.json"
        config_path.write_text(json.dumps({"ratings_file": str(tmp_path / "nope.dat")}))
        assert main(["build-model", str(config_path), "--out-dir",
                     str(tmp_path / "out")]) == 3
