import json

import numpy as np
import pytest

from latentbandits import (
    EnvironmentSpec,
    ExperimentConfig,
    PolicySpec,
    ProtocolViolationError,
    TransitionGraphSpec,
    build_transition_kernel,
    generate_trajectory,
    run_experiment,
    sample_arm_set,
)
from latentbandits.policies.base import Policy


def _config(model, policies, horizon, kernel=None, **env_kwargs):
    env = EnvironmentSpec(model=model, kernel=kernel or {"identity": True}, **env_kwargs)
    specs = tuple(PolicySpec(name) for name in policies)
    return ExperimentConfig(environment=env, policies=specs, horizon=horizon, num_runs=1, base_seed=5)


class TestBuildTransitionKernel:
    def test_two_state_switching_kernel(self):
        spec = TransitionGraphSpec(kind="fully_connected", num_states=2, stay_prob=0.995)
        kernel = build_transition_kernel(spec)
        np.testing.assert_allclose(kernel.matrix, [[0.995, 0.005], [0.005, 0.995]])

    def test_branch_graph_structural_zeros(self):
        spec = TransitionGraphSpec(kind="two_branch", num_states=5, stay_prob=0.995)
        kernel = build_transition_kernel(spec).matrix
        # start state forks to the two branch heads with no self mass
        np.testing.assert_allclose(kernel[0], [0.0, 0.5, 0.0, 0.5, 0.0])
        # branch A cycles 1 <-> 2, branch B cycles 3 <-> 4
        assert kernel[1, 3] == 0.0 and kernel[1, 4] == 0.0
        assert kernel[3, 1] == 0.0 and kernel[3, 2] == 0.0
        assert kernel[2, 0] == 0.0 and kernel[4, 0] == 0.0
        np.testing.assert_allclose(kernel.sum(axis=1), np.ones(5), atol=1e-12)

    def test_skip_graph_adds_cross_edges(self):
        spec = TransitionGraphSpec(kind="skip_chain", num_states=5, stay_prob=0.995)
        kernel = build_transition_kernel(spec).matrix
        assert kernel[1, 4] > 0.0  # branch head A can skip to branch B's tail
        assert kernel[3, 2] > 0.0
        assert kernel[2, 4] == 0.0
        np.testing.assert_allclose(kernel.sum(axis=1), np.ones(5), atol=1e-12)

    def test_random_nonuniform_is_seeded_and_stochastic(self):
        spec = TransitionGraphSpec(
            kind="fully_connected", num_states=4, stay_prob=0.95,
            off_diagonal="random_nonuniform", seed=11,
        )
        k1 = build_transition_kernel(spec).matrix
        k2 = build_transition_kernel(spec).matrix
        np.testing.assert_array_equal(k1, k2)
        np.testing.assert_allclose(k1.sum(axis=1), np.ones(4), atol=1e-12)
        off = k1[0].copy()
        off[0] = 0.0
        assert off.std() > 0  # actually non-uniform

    def test_isolated_state_with_leak_rejected(self):
        spec = TransitionGraphSpec(
            kind="custom", num_states=3, stay_prob=0.9, edges=((0, 1), (1, 0)),
        )
        with pytest.raises(ValueError, match="no out-edges"):
            build_transition_kernel(spec)

    def test_isolated_state_allowed_when_absorbing(self):
        spec = TransitionGraphSpec(
            kind="custom", num_states=3, stay_prob=1.0, edges=((0, 1), (1, 0)),
        )
        kernel = build_transition_kernel(spec).matrix
        assert kernel[2, 2] == 1.0

    def test_bad_specs_rejected(self):
        with pytest.raises(ValueError):
            TransitionGraphSpec(kind="ring", num_states=3)
        with pytest.raises(ValueError):
            TransitionGraphSpec(kind="fully_connected", num_states=3, stay_prob=0.0)
        with pytest.raises(ValueError):
            TransitionGraphSpec(kind="two_branch", num_states=4)


class TestEnvStep:
    """One environment step as the harness takes it: the trajectory fixes
    the state, the harness draws the reward and accounts the regret."""

    def test_tiny_noise_reward_is_the_mean(self, tmp_path):
        means = [[1.0, 2.0], [2.0, 1.0]]
        model = {"means": means, "stds": np.full((2, 2), 1e-12).tolist()}
        run_experiment(_config(model, ["uniform_random"], 50), out_dir=str(tmp_path))
        lines = (tmp_path / "traces" / "run_0000.jsonl").read_text().splitlines()
        for record in map(json.loads, lines):
            assert record["reward"] == pytest.approx(means[record["arm"]][record["state"]], abs=1e-9)

    def test_identity_kernel_keeps_state(self, two_state, identity2, rng):
        trajectory = generate_trajectory(two_state, identity2, [0.0, 1.0], 50, rng)
        assert trajectory.states.tolist() == [1] * 50

    def test_schedule_flips_exactly_at_change_points(self, two_state, switch_kernel, rng):
        trajectory = generate_trajectory(
            two_state, switch_kernel, [1.0, 0.0], 500, rng, schedule=[200, 400]
        )
        states = trajectory.states.tolist()
        assert states[:200] == [0] * 200
        assert states[200:400] == [1] * 200
        assert states[400:] == [0] * 100

    def test_arm_outside_offered_set_is_violation(self, monkeypatch):
        from latentbandits import harness

        class AlwaysArmTwo(Policy):
            def _choose(self, offered, best_arms):
                return 2

        monkeypatch.setattr(harness, "make_policy", lambda *args, **kwargs: AlwaysArmTwo(rng=np.random.default_rng(0)))
        config = _config({"preset": "two_state"}, ["mts"], 50, arm_set_size=2)
        with pytest.raises(ProtocolViolationError, match="arm 2 not offered"):
            run_experiment(config)

    def test_optimal_mean_over_offered_subset(self):
        # the oracle plays the best offered arm, so regret measured against
        # the best offered arm is exactly zero on every slate
        config = _config({"preset": "five_state"}, ["oracle"], 200, arm_set_size=2,
                         prior="uniform")
        results = run_experiment(config)
        assert not results.runs[0].cum_regret["oracle"].any()


class TestSampleArmSet:
    def test_full_catalog(self, rng):
        np.testing.assert_array_equal(sample_arm_set(5, 5, rng), np.arange(5))

    def test_twenty_from_catalog(self, rng):
        arms = sample_arm_set(1132, 20, rng)
        assert arms.size == 20
        assert np.unique(arms).size == 20

    def test_seeded_replay(self):
        seq1 = [sample_arm_set(50, 10, np.random.default_rng(7)) for _ in range(5)]
        rng = np.random.default_rng(7)
        seq2 = [sample_arm_set(50, 10, rng) for _ in range(5)]
        # fresh generator replays only the first draw; one stream replays all
        np.testing.assert_array_equal(seq1[0], seq2[0])
        rng_a, rng_b = np.random.default_rng(9), np.random.default_rng(9)
        for _ in range(5):
            np.testing.assert_array_equal(
                sample_arm_set(50, 10, rng_a), sample_arm_set(50, 10, rng_b)
            )

    def test_oversized_request_rejected(self, rng):
        with pytest.raises(ValueError):
            sample_arm_set(5, 6, rng)


class TestChainStatistics:
    def test_empirical_transition_frequencies(self):
        # symmetric two-state chain: switches are iid, so the trajectory can
        # be built vectorized and checked against the kernel entries
        rng = np.random.default_rng(42)
        n = 1_000_000
        switches = rng.random(n) < 0.005
        states = np.cumsum(switches) % 2
        stays = np.count_nonzero(states[1:] == states[:-1])
        p_hat = stays / (n - 1)
        se = np.sqrt(0.995 * 0.005 / (n - 1))
        assert abs(p_hat - 0.995) <= 3 * se

    def test_mean_dwell_time_near_200(self):
        rng = np.random.default_rng(43)
        switches = np.flatnonzero(rng.random(2_500_000) < 0.005)
        segments = np.diff(switches)[:10_000]
        assert segments.size == 10_000
        assert abs(segments.mean() - 200.0) / 200.0 < 0.05

    def test_branch_trajectories_respect_structural_zeros(self, five_state):
        spec = TransitionGraphSpec(kind="two_branch", num_states=5, stay_prob=0.9)
        kernel = build_transition_kernel(spec)
        allowed = kernel.matrix > 0
        rng = np.random.default_rng(3)
        prior = [1.0, 0.0, 0.0, 0.0, 0.0]
        states = generate_trajectory(five_state, kernel, prior, 10_000, rng).states
        assert allowed[states[:-1], states[1:]].all()

    def test_regret_accounting_nonnegative(self):
        kernel = {"graph": {"kind": "fully_connected", "num_states": 5, "stay_prob": 0.9}}
        config = _config({"preset": "five_state"}, ["uniform_random"], 500, kernel=kernel)
        regret = run_experiment(config).runs[0].cum_regret["uniform_random"]
        assert np.diff(regret, prepend=0.0).min() >= -1e-12


def test_generate_trajectory_reproducible(two_state, switch_kernel):
    t1 = generate_trajectory(
        two_state, switch_kernel, [0.5, 0.5], 200, np.random.default_rng(5), arm_set_size=2
    )
    t2 = generate_trajectory(
        two_state, switch_kernel, [0.5, 0.5], 200, np.random.default_rng(5), arm_set_size=2
    )
    np.testing.assert_array_equal(t1.states, t2.states)
    np.testing.assert_array_equal(t1.noise, t2.noise)
    for a, b in zip(t1.arm_sets, t2.arm_sets):
        np.testing.assert_array_equal(a, b)
