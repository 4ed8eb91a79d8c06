import copy
import csv
import json
import os
from dataclasses import replace

import numpy as np
import pytest

from latentbandits import (
    ConfigError,
    EnvironmentSpec,
    ExperimentConfig,
    PolicySpec,
    bayes_regret,
    emit_outputs,
    run_experiment,
    sweep,
)
from latentbandits.environments import ProtocolViolationError
from latentbandits.harness import default_out_dir, load_config, resolve_environment, save_config


def tiny_config(policies=("mts",), horizon=50, num_runs=3, seed=0, **env_kwargs):
    env = EnvironmentSpec(
        model=env_kwargs.pop("model", {"preset": "two_state"}),
        kernel=env_kwargs.pop("kernel", {"identity": True}),
        **env_kwargs,
    )
    return ExperimentConfig(
        environment=env,
        policies=tuple(PolicySpec(p) if isinstance(p, str) else p for p in policies),
        horizon=horizon,
        num_runs=num_runs,
        base_seed=seed,
    )


class TestConfig:
    def test_round_trip_is_identity(self, tmp_path):
        config = tiny_config(policies=("mts", PolicySpec("agemts", {"entropy_threshold": 0.9})),
                             schedule=(10, 20), arm_set_size=2)
        path = tmp_path / "config.json"
        save_config(config, path)
        loaded = load_config(path)
        assert loaded == config
        save_config(loaded, tmp_path / "config2.json")
        assert (tmp_path / "config.json").read_text() == (tmp_path / "config2.json").read_text()

    def test_unknown_policy_rejected(self):
        config = tiny_config(policies=("nonsense",))
        with pytest.raises(ConfigError, match="unknown policy"):
            config.validate()

    @pytest.mark.parametrize("field,value", [("horizon", 0), ("num_runs", 0)])
    def test_bad_sizes_rejected(self, field, value):
        doc = tiny_config().to_dict()
        doc[field] = value
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(doc).validate()

    def test_empty_policy_list_rejected(self):
        doc = tiny_config().to_dict()
        doc["policies"] = []
        with pytest.raises(ConfigError, match="policy"):
            ExperimentConfig.from_dict(doc).validate()

    def test_kernel_model_mismatch_rejected(self):
        config = tiny_config(model={"preset": "five_state"},
                             kernel={"matrix": [[0.5, 0.5], [0.5, 0.5]]})
        with pytest.raises(ConfigError, match="disagree"):
            config.validate()

    def test_duplicate_policy_names_rejected(self):
        # results are keyed by name: a second agemts would overwrite the first's curve
        config = tiny_config(policies=(PolicySpec("agemts", {"entropy_threshold": 1.0}),
                                       PolicySpec("agemts", {"entropy_threshold": 0.5})))
        with pytest.raises(ConfigError, match="duplicate policy names"):
            config.validate()

    @pytest.mark.parametrize("spec", [
        PolicySpec("agemts", {"bogus": 1}),
        PolicySpec("explore_commit", {"n_e": 5}),
        PolicySpec("mts", {"rng": 3}),
    ])
    def test_params_not_binding_to_the_factory_rejected(self, spec):
        with pytest.raises(ConfigError, match=f"policy '{spec.name}' params"):
            tiny_config(policies=(spec,)).validate()

    @pytest.mark.parametrize("spec", [
        PolicySpec("explore_commit", {"info_arm": 2}),
        PolicySpec("explore_commit", {"info_arm": 2, "delta": 0.2, "std1": 0.5}),
        PolicySpec("explore_commit", {"info_arm": 2, "delta": 0.0, "std1": 0.5, "std2": 0.5}),
        PolicySpec("cd_linucb"),
        PolicySpec("cd_lints", {"scale": 0.5}),
    ], ids=["no_budget", "partial_triple", "zero_delta", "cd_linucb", "cd_lints"])
    def test_params_that_cannot_build_rejected(self, spec):
        # these bind to the factory but would fail at run
        with pytest.raises(ConfigError, match=f"policy '{spec.name}' params"):
            tiny_config(policies=(spec,)).validate()

    def test_z_test_budget_and_features_accepted(self, tmp_path, two_state):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"means": two_state.means.tolist(), "stds": two_state.stds.tolist(),
                                    "features": np.eye(3).tolist()}))
        config = tiny_config(model={"file": str(path)}, policies=(
            PolicySpec("explore_commit", {"info_arm": 2, "delta": 0.2, "std1": 0.5, "std2": 0.5}),
            PolicySpec("cd_linucb"),
            PolicySpec("cd_lints"),
        ))
        assert config.validate().arm_features.shape == (3, 3)
        assert set(run_experiment(config).policy_names) == {"explore_commit", "cd_linucb", "cd_lints"}

    def test_valid_params_accepted_without_forecasting_tau(self, monkeypatch):
        from latentbandits import policies

        def no_tau(*args, **kwargs):
            raise AssertionError("validate must not forecast tau")

        monkeypatch.setattr(policies, "explore_then_ps_tau", no_tau)
        config = tiny_config(policies=(PolicySpec("agemts", {"entropy_threshold": 0.5}),
                                       PolicySpec("explore_then_ps", {"info_arm": 2})))
        assert config.validate().model.num_arms == 3

    @pytest.mark.parametrize("tau", ["absent", None])
    def test_validate_builds_each_policy_once_through_neither_hook(self, monkeypatch, tau):
        # the benchmark's lock wraps harness.make_policy to record arms in
        # build order, and its probes count explore_then_ps_tau's forecasts
        from latentbandits import harness as harness_module
        from latentbandits import models, policies
        from latentbandits.recipes import get_recipe

        calls, built = [], []
        for module, name in ((harness_module, "make_policy"), (policies, "explore_then_ps_tau")):
            monkeypatch.setattr(module, name, lambda *args, hook=name, **kwargs: calls.append(hook))
        real = models.BeliefState.__post_init__
        monkeypatch.setattr(models.BeliefState, "__post_init__", lambda belief: built.append(real(belief)))
        config = get_recipe("two_state_explore_strategies", horizon=10, num_runs=2)
        if tau is None:
            explore_then_ps = PolicySpec("explore_then_ps", {"info_arm": 2, "tau": None})
            config = replace(config, policies=config.policies[:2] + (explore_then_ps,))
        assert config.policies[2].params.get("tau") is None
        config.validate()
        assert calls == []
        # mts, explore_commit and explore_then_ps each build their prior's belief once
        assert len(built) == 3

    def test_duplicate_schedule_times_rejected(self):
        config = tiny_config(kernel={"graph": {"kind": "fully_connected", "num_states": 2}},
                             schedule=(5, 5))
        with pytest.raises(ConfigError, match="schedule"):
            config.validate()

    def test_point_prior_resolves(self):
        env = resolve_environment(tiny_config(prior={"point": 1}).environment)
        np.testing.assert_array_equal(env.prior, [0.0, 1.0])


class TestRunExperiment:
    def test_oracle_has_zero_regret(self):
        config = tiny_config(policies=("oracle",), horizon=100, num_runs=2,
                             kernel={"graph": {"kind": "fully_connected",
                                               "num_states": 2, "stay_prob": 0.9}})
        results = run_experiment(config)
        for run in results.runs:
            np.testing.assert_array_equal(run.cum_regret["oracle"], np.zeros(100))

    def test_single_step_optimal_play(self):
        config = tiny_config(policies=("oracle",), horizon=1, num_runs=1)
        results = run_experiment(config)
        assert results.runs[0].cum_regret["oracle"][0] == 0.0

    def test_uniform_random_matches_mean_gap(self, five_state_raw):
        # stationary state 1: optimal 2.1, mean over arms 1.81, gap 0.29
        config = tiny_config(
            policies=("uniform_random",), horizon=10_000, num_runs=1,
            model={"means": five_state_raw.means.tolist(),
                   "stds": five_state_raw.stds.tolist()},
            kernel={"identity": True},
            prior={"point": 1},
        )
        results = run_experiment(config)
        per_step = results.runs[0].cum_regret["uniform_random"][-1] / 10_000
        gaps = 2.1 - five_state_raw.means[:, 1]
        se = gaps.std() / np.sqrt(10_000)
        assert abs(per_step - gaps.mean()) <= 3 * se

    def test_cumulative_regret_exactly_non_decreasing(self):
        config = tiny_config(policies=("mts", "uniform_random"), horizon=300, num_runs=3,
                             kernel={"graph": {"kind": "fully_connected",
                                               "num_states": 2, "stay_prob": 0.95}})
        results = run_experiment(config)
        for run in results.runs:
            for name, curve in run.cum_regret.items():
                assert np.all(np.diff(curve) >= -1e-12)

    def test_paired_policies_share_the_trajectory(self, tmp_path):
        config = tiny_config(policies=("mts", "agemts", "cducb"), horizon=80, num_runs=2,
                             kernel={"graph": {"kind": "fully_connected",
                                               "num_states": 2, "stay_prob": 0.9}})
        run_experiment(config, out_dir=str(tmp_path))
        for r in range(2):
            lines = [json.loads(line) for line in
                     (tmp_path / "traces" / f"run_{r:04d}.jsonl").read_text().splitlines()]
            states = {}
            for record in lines:
                states.setdefault(record["policy"], []).append(record["state"])
            reference = states["mts"]
            assert all(seq == reference for seq in states.values())

    def test_traces_byte_identical_across_reruns(self, tmp_path):
        config = tiny_config(policies=("mts", "agemts"), horizon=60, num_runs=2, seed=33,
                             kernel={"graph": {"kind": "fully_connected",
                                               "num_states": 2, "stay_prob": 0.9}})
        run_experiment(config, out_dir=str(tmp_path / "a"))
        run_experiment(config, out_dir=str(tmp_path / "b"))
        for r in range(2):
            a = (tmp_path / "a" / "traces" / f"run_{r:04d}.jsonl").read_bytes()
            b = (tmp_path / "b" / "traces" / f"run_{r:04d}.jsonl").read_bytes()
            assert a == b

    def test_tau_is_forecast_once_per_experiment(self, monkeypatch):
        from latentbandits import policies

        calls = []
        forecast = policies.explore_then_ps_tau

        def counted(*args, **kwargs):
            calls.append(args)
            return forecast(*args, **kwargs)

        monkeypatch.setattr(policies, "explore_then_ps_tau", counted)
        config = tiny_config(policies=(PolicySpec("explore_then_ps", {"info_arm": 2}),), horizon=40, num_runs=5,
                             model={"preset": "two_state_loose_probe"})
        results = run_experiment(config)
        assert len(calls) == 1
        tau = forecast(*calls[0])
        assert 0 < tau < 40
        for run in results.runs:
            assert run.info_flags["explore_then_ps"].tolist() == [1] * tau + [0] * (40 - tau)

    def test_run_meta_counts_policy_counters(self, tmp_path):
        # tight arms, a point belief on state 0 and a switch to state 1
        # after step 5 that the identity kernel rules out: every later
        # reward's evidence underflows in the only state the belief allows
        config = tiny_config(policies=("mts", "agemts", "cducb"), horizon=20, num_runs=2,
                             model={"means": [[0.0, 1.0], [1.0, 0.0]], "stds": [[0.01, 0.01], [0.01, 0.01]]},
                             prior={"point": 0}, schedule=(5,))
        run_experiment(config, out_dir=str(tmp_path))
        counters = json.loads((tmp_path / "run_meta.json").read_text())["policy_counters"]
        assert len(counters) == 2
        for run in counters:
            assert run["mts"]["degenerate_fallbacks"] == 15
            assert set(run["agemts"]) == {"degenerate_fallbacks", "rollouts_run", "info_plays", "rollout_fallbacks"}
            assert run["agemts"]["degenerate_fallbacks"] > 0
            # a 20-step run never fills cducb's 50-reward detector window
            assert run["cducb"] == {"detector_resets": 0}

    def test_run_meta_times_every_policy_of_every_run(self, tmp_path):
        config = tiny_config(policies=("mts", "agemts", "cducb"), horizon=20, num_runs=3)
        results = run_experiment(config, out_dir=str(tmp_path))
        meta = json.loads((tmp_path / "run_meta.json").read_text())
        assert len(meta["policy_seconds"]) == 3
        for run, seconds in zip(results.runs, meta["policy_seconds"]):
            # run_meta.json sorts its keys
            assert sorted(seconds) == sorted(results.policy_names)
            assert seconds == run.policy_seconds
            assert all(0.0 < value <= run.wall_clock_seconds for value in seconds.values())
            assert sum(seconds.values()) <= run.wall_clock_seconds

    def test_run_meta_counts_detector_resets(self, tmp_path):
        # every state's best arm is arm 2, and every arm's mean rises by 10
        # when the chain switches after step 30: the two halves of a
        # detector's window straddling the switch differ by far more than
        # its threshold, while 0.01 noise never trips it otherwise
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"means": [[0.0, 10.0], [0.5, 10.5], [1.0, 11.0]], "stds": [[0.01] * 2] * 3,
                                    "features": np.eye(3).tolist()}))
        detectors = ("cducb", "cdts", "cd_linucb", "cd_lints")
        window = {"window_size": 10, "threshold": 5.0}
        for schedule, planted in (((30,), True), (None, False)):
            config = tiny_config(policies=tuple(PolicySpec(name, window) for name in detectors), horizon=60,
                                 num_runs=2, model={"file": str(path)}, prior={"point": 0}, schedule=schedule)
            out = tmp_path / str(planted)
            run_experiment(config, out_dir=str(out))
            for run in json.loads((out / "run_meta.json").read_text())["policy_counters"]:
                for name in detectors:
                    assert set(run[name]) == {"detector_resets"}
                    assert (run[name]["detector_resets"] > 0) == planted

    def test_protocol_violation_aborts_with_diagnostics(self, monkeypatch):
        from latentbandits import harness as harness_module
        from latentbandits.policies.base import Policy

        class Rogue(Policy):
            name = "rogue"

            def _choose(self, offered, best_arms):
                return int(offered.max()) + 7

        real = harness_module.make_policy

        def patched(name, *args, **kwargs):
            if name == "mts":
                return Rogue(rng=np.random.default_rng(0))
            return real(name, *args, **kwargs)

        monkeypatch.setattr(harness_module, "make_policy", patched)
        config = tiny_config(policies=("mts",), horizon=5, num_runs=1)
        with pytest.raises(ProtocolViolationError, match="step 1"):
            run_experiment(config)


class TestBenchmarkHooks:
    def test_wrapped_make_policy_and_step_record_every_arm(self, monkeypatch):
        """The benchmark's behaviour lock wraps ``harness.make_policy`` and
        every instance's ``step``, and its probes every ``observe``, with
        wrappers that forward positional arguments only; they must see
        every arm of every (run, policy) pair, run by run."""
        from latentbandits import harness as harness_module

        real = harness_module.make_policy
        recorded = []

        def recording(*args, **kwargs):
            policy = real(*args, **kwargs)
            played = []
            recorded.append(played)
            step, observe = policy.step, policy.observe

            def step_and_record(*step_args):
                arm = step(*step_args)
                played.append((arm, np.asarray(step_args[0]).tolist()))
                return arm

            def observe_positionally(*observe_args):
                return observe(*observe_args)

            policy.step, policy.observe = step_and_record, observe_positionally
            return policy

        monkeypatch.setattr(harness_module, "make_policy", recording)
        for arm_set_size, extra in ((None, (PolicySpec("explore_then_ps", {"info_arm": 2}), "oracle")), (2, ())):
            recorded.clear()
            config = tiny_config(policies=("mts", "agemts", "cducb", "exp4s") + extra, horizon=40, num_runs=3,
                                 kernel={"graph": {"kind": "fully_connected", "num_states": 2, "stay_prob": 0.9}},
                                 arm_set_size=arm_set_size)
            results = run_experiment(config)
            means = resolve_environment(config.environment).model.means.tolist()
            names = results.policy_names
            assert len(recorded) == len(results.runs) * len(names)
            for k, played in enumerate(recorded):
                run, name = results.runs[k // len(names)], names[k % len(names)]
                assert len(played) == config.horizon
                total, regret = 0.0, []
                for (arm, offered), state in zip(played, run.states.tolist()):
                    total += max(means[a][state] for a in offered) - means[arm][state]
                    regret.append(total)
                assert regret == run.cum_regret[name].tolist()

    def test_wrapped_trace_line_sees_every_line(self, monkeypatch, tmp_path):
        """The benchmark's probes wrap ``harness._trace_line`` with a wrapper
        that forwards positional arguments; the writer must call it through
        the module global once per trace line, and write the same bytes."""
        from latentbandits import harness as harness_module

        config = tiny_config(policies=("mts", "cducb"), horizon=30, num_runs=2)
        run_experiment(config, out_dir=str(tmp_path / "plain"))
        real, calls = harness_module._trace_line, []

        def counting(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(harness_module, "_trace_line", counting)
        run_experiment(config, out_dir=str(tmp_path / "wrapped"))
        assert len(calls) == config.num_runs * len(config.policies) * config.horizon
        for name in ("run_0000.jsonl", "run_0001.jsonl"):
            plain, wrapped = (tmp_path / side / "traces" / name for side in ("plain", "wrapped"))
            assert wrapped.read_bytes() == plain.read_bytes()


class TestBayesRegret:
    def test_needs_two_runs(self):
        results = run_experiment(tiny_config(num_runs=1))
        with pytest.raises(ValueError):
            bayes_regret(results)

    def test_identical_runs_zero_band(self):
        results = run_experiment(tiny_config(num_runs=2))
        results.runs[1] = copy.deepcopy(results.runs[0])
        bands = bayes_regret(results)
        mean, lo, hi = bands["mts"]
        np.testing.assert_array_equal(lo, hi)
        np.testing.assert_array_equal(mean, results.runs[0].cum_regret["mts"])

    def test_two_run_mean_is_pointwise_average(self):
        results = run_experiment(tiny_config(num_runs=2, horizon=40))
        mean, _, _ = bayes_regret(results)["mts"]
        expected = 0.5 * (results.runs[0].cum_regret["mts"] + results.runs[1].cum_regret["mts"])
        np.testing.assert_allclose(mean, expected)

    def test_band_width_shrinks_like_root_runs(self):
        config = tiny_config(policies=("mts",), horizon=120, num_runs=100,
                             kernel={"graph": {"kind": "fully_connected",
                                               "num_states": 2, "stay_prob": 0.9}})
        results = run_experiment(config)
        halved = copy.deepcopy(results)
        halved.runs = halved.runs[:25]
        _, lo_full, hi_full = bayes_regret(results)["mts"]
        _, lo_half, hi_half = bayes_regret(halved)["mts"]
        width_full = (hi_full - lo_full)[-1]
        width_half = (hi_half - lo_half)[-1]
        assert width_half / width_full == pytest.approx(2.0, rel=0.5)


class TestSweep:
    def test_single_point_matches_plain_run(self):
        base = tiny_config(policies=("mts",), horizon=40, num_runs=2)
        doc = base.to_dict()
        doc["sweep_axes"] = {"probe_sigma": [0.01]}
        config = ExperimentConfig.from_dict(doc)
        rows = sweep(config)
        assert len(rows) == 1
        plain = run_experiment(tiny_config(policies=("mts",), horizon=40, num_runs=2))
        assert rows[0]["regret"]["mts"] == pytest.approx(
            float(plain.regret_matrix("mts")[:, -1].mean())
        )

    def test_grid_bookkeeping(self, tmp_path):
        doc = tiny_config(policies=("mts",), horizon=20, num_runs=2).to_dict()
        doc["sweep_axes"] = {"probe_gap": [0.4, 3.0], "probe_sigma": [0.05, 0.5]}
        config = ExperimentConfig.from_dict(doc)
        # a Python caller may give an axis as a tuple
        config = replace(config, sweep_axes={**config.sweep_axes, "probe_gap": (0.4, 3.0)})
        rows = sweep(config, out_dir=str(tmp_path))
        assert len(rows) == 4
        assert {(r["probe_gap"], r["probe_sigma"]) for r in rows} == {
            (0.4, 0.05), (0.4, 0.5), (3.0, 0.05), (3.0, 0.5)
        }
        header = (tmp_path / "sweep.csv").read_text().splitlines()[0]
        assert header == "probe_gap,probe_sigma,regret_mts"

    def test_grid_points_write_no_traces(self, tmp_path):
        doc = tiny_config(policies=("mts",), horizon=20, num_runs=2).to_dict()
        doc["sweep_axes"] = {"arm_set_size": [2, 3]}
        doc["out_dir"] = str(tmp_path / "parent")
        rows = sweep(ExperimentConfig.from_dict(doc), out_dir=str(tmp_path / "sweep"))
        assert [row["arm_set_size"] for row in rows] == [2, 3]
        assert not (tmp_path / "parent").exists()

    def test_unknown_axis_rejected(self):
        doc = tiny_config().to_dict()
        doc["sweep_axes"] = {"mystery": [1]}
        with pytest.raises(ConfigError, match="axis"):
            sweep(ExperimentConfig.from_dict(doc))

    def test_empty_axes_rejected(self):
        with pytest.raises(ConfigError):
            sweep(tiny_config())


class TestEmitOutputs:
    def test_aggregate_shape(self, tmp_path):
        config = tiny_config(policies=("mts", "oracle"), horizon=30, num_runs=2)
        results = run_experiment(config)
        paths = emit_outputs(results, str(tmp_path))
        rows = open(paths["aggregate"]).read().splitlines()
        assert rows[0] == "step,policy,mean_regret,ci_low,ci_high"
        assert len(rows) == 1 + 30 * 2

    @pytest.mark.parametrize("num_runs", [1, 3])
    def test_cells_are_plain_floats(self, tmp_path, num_runs):
        # every value cell parses with float() and is the regret matrix's mean
        results = run_experiment(tiny_config(policies=("mts", "oracle"), horizon=20, num_runs=num_runs))
        paths = emit_outputs(results, str(tmp_path))
        means = {name: results.regret_matrix(name).mean(axis=0).tolist() for name in results.policy_names}
        with open(paths["aggregate"], newline="") as handle:
            rows = list(csv.reader(handle))[1:]
        assert len(rows) == 20 * 2
        for step, name, mean, low, high in rows:
            assert float(mean) == means[name][int(step) - 1]
            assert float(low) <= float(mean) <= float(high)
        with open(paths["curves"], newline="") as handle:
            header, *rows = list(csv.reader(handle))
        assert len(rows) == 20
        for step, *cells in rows:
            assert [float(cell) for cell in cells] == [means[name][int(step) - 1] for name in header[1:]]

    def test_byte_stable_regeneration(self, tmp_path):
        config = tiny_config(policies=("mts",), horizon=25, num_runs=2, seed=5)
        emit_outputs(run_experiment(config), str(tmp_path / "x"))
        emit_outputs(run_experiment(config), str(tmp_path / "y"))
        assert (tmp_path / "x" / "aggregate.csv").read_bytes() == \
            (tmp_path / "y" / "aggregate.csv").read_bytes()
        assert (tmp_path / "x" / "curves.csv").read_bytes() == \
            (tmp_path / "y" / "curves.csv").read_bytes()

    def test_unwritable_path_fails_before_compute(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("a file, not a directory")
        results = run_experiment(tiny_config(horizon=5, num_runs=2))
        with pytest.raises(OSError):
            emit_outputs(results, str(blocker / "sub"))


def test_out_dir_env_var(monkeypatch):
    monkeypatch.setenv("LBL_OUT_DIR", "/tmp/somewhere")
    assert default_out_dir() == "/tmp/somewhere"
    monkeypatch.delenv("LBL_OUT_DIR")
    assert default_out_dir() == "results"


def test_nonuniform_graph_resamples_kernel_per_run():
    config = tiny_config(
        policies=("oracle",), horizon=5, num_runs=2,
        model={"preset": "five_state"},
        kernel={"graph": {"kind": "two_branch", "num_states": 5, "stay_prob": 0.9,
                          "off_diagonal": "random_nonuniform", "seed": 3}},
        prior={"point": 0},
    )
    # runs should see different kernels; surface via differing trajectories
    results = run_experiment(config)
    assert len(results.runs) == 2
