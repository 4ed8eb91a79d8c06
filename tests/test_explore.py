import explore_reference as reference
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latentbandits import RewardModel
from latentbandits.policies import (
    ExploreCommit,
    ExploreThenPS,
    MTS,
    belief_forecast_two_state,
    explore_commit_sample_size,
    explore_then_ps_tau,
)
from latentbandits.policies.explore import _quadrature_likelihoods

ARMS3 = np.arange(3)


class TestSampleSize:
    def test_benchmark_design_needs_49(self):
        assert explore_commit_sample_size(0.2, 0.5, 0.5, 1.96, 0.84) == 49

    def test_tight_probe_needs_one(self):
        assert explore_commit_sample_size(0.2, 0.05, 0.05, 1.96, 0.84) == 1

    def test_max_rule_dominated_by_noisier_state(self):
        mixed = explore_commit_sample_size(0.2, 0.5, 0.05, 1.96, 0.84)
        assert mixed == explore_commit_sample_size(0.2, 0.5, 0.5, 1.96, 0.84) == 49

    def test_zero_shift_rejected(self):
        with pytest.raises(ValueError):
            explore_commit_sample_size(0.0, 0.5, 0.5, 1.96, 0.84)

    def test_monotonicity(self, rng):
        for _ in range(1000):
            delta = rng.uniform(0.05, 1.0)
            std = rng.uniform(0.05, 1.0)
            z_a, z_b = rng.uniform(0.5, 3.0, size=2)
            base = explore_commit_sample_size(delta, std, std, z_a, z_b)
            wider = explore_commit_sample_size(delta, std * 1.5, std * 1.5, z_a, z_b)
            easier = explore_commit_sample_size(delta * 1.5, std, std, z_a, z_b)
            assert wider >= base
            assert easier <= base


class TestExploreCommit:
    def run_probe_phase(self, policy, rewards):
        for reward in rewards:
            arm = policy.step(ARMS3)
            assert arm == 2
            assert policy.last_info_play
            policy.observe(reward)

    def test_commits_to_nearest_mean_state(self, two_state_loose, identity2):
        policy = ExploreCommit(
            two_state_loose, identity2, [0.5, 0.5], info_arm=2, n_e=1,
            rng=np.random.default_rng(0),
        )
        # probe means are 1.7 (state 0) and 1.5 (state 1)
        self.run_probe_phase(policy, [1.69])
        assert policy.step(ARMS3) == 0  # state 0's best arm

    def test_midway_average_commits_to_lower_state(self, two_state_loose, identity2):
        policy = ExploreCommit(
            two_state_loose, identity2, [0.5, 0.5], info_arm=2, n_e=2,
            rng=np.random.default_rng(0),
        )
        self.run_probe_phase(policy, [1.7, 1.5])  # mean exactly 1.6
        assert policy.step(ARMS3) == 0

    def test_zero_budget_commits_from_prior(self, two_state_loose, identity2):
        policy = ExploreCommit(
            two_state_loose, identity2, [0.2, 0.8], info_arm=2, n_e=0,
            rng=np.random.default_rng(0),
        )
        assert policy.step(ARMS3) == 1  # prior argmax is state 1

    def test_committed_forever(self, two_state_loose, identity2, rng):
        policy = ExploreCommit(
            two_state_loose, identity2, [0.5, 0.5], info_arm=2, n_e=1,
            rng=np.random.default_rng(0),
        )
        self.run_probe_phase(policy, [1.51])
        for _ in range(30):
            assert policy.step(ARMS3) == 1
            policy.observe(float(rng.normal(2.1, 0.5)))

    def test_z_test_budget_is_the_sample_size(self, two_state_loose, identity2):
        policy = ExploreCommit(two_state_loose, identity2, [0.5, 0.5], info_arm=2,
                               delta=0.2, std1=0.5, std2=0.5)
        assert policy.n_e == explore_commit_sample_size(0.2, 0.5, 0.5, 1.96, 0.84) == 49


class TestProbeBudgetConstructors:
    """The explore constructors are the one check on their params."""

    @pytest.mark.parametrize("cls,budget", [(ExploreCommit, "n_e"), (ExploreThenPS, "tau")])
    @pytest.mark.parametrize("info_arm,value,message", [
        (3, 4, r"info_arm must be an arm in \[0, 3\), got 3"),
        (-1, 4, r"info_arm must be an arm in \[0, 3\), got -1"),
        (2, -1, "{budget} must be non-negative, got -1"),
    ], ids=["info_arm_3", "info_arm_-1", "negative_budget"])
    def test_out_of_range_params_rejected(self, two_state, identity2, cls, budget, info_arm, value, message):
        with pytest.raises(ValueError, match=message.format(budget=budget)):
            cls(two_state, identity2, [0.5, 0.5], info_arm=info_arm, **{budget: value})

    @pytest.mark.parametrize("triple", [{}, {"delta": 0.2}, {"delta": 0.2, "std1": 0.5},
                                        {"std1": 0.5, "std2": 0.5}])
    def test_incomplete_z_test_triple_rejected(self, two_state, identity2, triple):
        with pytest.raises(ValueError, match="needs n_e, or all of delta, std1 and std2"):
            ExploreCommit(two_state, identity2, [0.5, 0.5], info_arm=2, **triple)


class TestBeliefForecast:
    def test_identical_distributions_fixed_point(self, identity2):
        model = RewardModel(
            means=[[1.0, 1.0], [0.4, 0.4]], stds=[[0.3, 0.3], [0.3, 0.3]]
        )
        path = belief_forecast_two_state(0.37, model, 50)
        np.testing.assert_allclose(path, np.full(51, 0.37), atol=1e-12)

    def test_certainty_is_absorbing(self, two_state):
        path = belief_forecast_two_state(1.0, two_state, 100)
        np.testing.assert_allclose(path, np.ones(101))

    def test_stays_in_unit_interval(self, rng):
        for _ in range(20):
            means = rng.normal(1.0, 1.0, size=(3, 1, 2))
            stds = rng.uniform(0.05, 1.0, size=(3, 1, 2))
            model = RewardModel(means=means, stds=stds)
            path = belief_forecast_two_state(float(rng.random()), model, 200)
            assert np.all(path >= 0.0) and np.all(path <= 1.0)

    def test_rejects_non_two_state(self, five_state):
        with pytest.raises(ValueError):
            belief_forecast_two_state(0.5, five_state, 10)

    def test_tracks_monte_carlo_average(self, two_state):
        steps, n_runs = 400, 4000
        rng = np.random.default_rng(17)
        means = two_state.means
        stds = two_state.stds
        best = [int(np.argmax(means[:, s])) for s in range(2)]
        p = np.full(n_runs, 0.5)
        mc = [0.5]
        for _ in range(steps):
            pick_true = rng.random(n_runs) < p
            arms = np.where(pick_true, best[0], best[1])
            r = rng.normal(means[arms, 0], stds[arms, 0])
            l0 = np.exp(-0.5 * ((r - means[arms, 0]) / stds[arms, 0]) ** 2) / stds[arms, 0]
            l1 = np.exp(-0.5 * ((r - means[arms, 1]) / stds[arms, 1]) ** 2) / stds[arms, 1]
            p = p * l0 / (p * l0 + (1 - p) * l1)
            mc.append(float(p.mean()))
        forecast = belief_forecast_two_state(0.5, two_state, steps, true_state=0)
        assert np.abs(forecast - np.array(mc)).max() < 0.05


class TestExploreThenPSTau:
    def test_free_information_explores(self):
        # probe matches the best arm's reward: exploring costs nothing
        model = RewardModel(
            means=[[2.1, 2.05], [2.05, 2.1], [2.1, 2.1]],
            stds=[[0.5, 0.5], [0.5, 0.5], [0.05, 0.05]],
        )
        assert explore_then_ps_tau(model, 2, 500) > 0

    def test_prohibitive_probe_falls_back(self):
        model = RewardModel(
            means=[[2.1, 2.05], [2.05, 2.1], [-9.9, -10.1]],
            stds=[[0.5, 0.5], [0.5, 0.5], [0.05, 0.05]],
        )
        assert explore_then_ps_tau(model, 2, 1000) == 0

    def test_benchmark_budget_consistent_with_sample_size(self, two_state_loose):
        tau = explore_then_ps_tau(two_state_loose, 2, 1000)
        n_e = explore_commit_sample_size(
            0.2,
            two_state_loose.stds[2, 0],
            two_state_loose.stds[2, 1],
            1.96,
            0.84,
        )
        assert tau > 0
        assert n_e / 2 <= tau <= 2 * n_e


class TestExploreThenPSPolicy:
    def test_zero_budget_replays_mts_trace(self, two_state, identity2):
        mts = MTS(two_state, identity2, [0.5, 0.5], rng=np.random.default_rng(21))
        etps = ExploreThenPS(
            two_state, identity2, [0.5, 0.5], info_arm=2, tau=0,
            rng=np.random.default_rng(21),
        )
        env_rng = np.random.default_rng(22)
        for _ in range(200):
            arm_a = mts.step(ARMS3)
            arm_b = etps.step(ARMS3)
            assert arm_a == arm_b
            reward = float(env_rng.normal(two_state.means[arm_a, 0], two_state.stds[arm_a, 0]))
            mts.observe(reward)
            etps.observe(reward)

    def test_probes_through_budget_then_filters(self, two_state, identity2, rng):
        policy = ExploreThenPS(
            two_state, identity2, [0.5, 0.5], info_arm=2, tau=3,
            rng=np.random.default_rng(2),
        )
        for _ in range(3):
            assert policy.step(ARMS3) == 2
            policy.observe(float(rng.normal(1.7, 0.01)))
        assert policy.belief.probs[0] > 0.999
        assert policy.step(ARMS3) == 0


@st.composite
def two_state_models(draw):
    """Random two-state models with a probe arm, reaching the corners of
    the budget search: a probe that is some state's best arm, one arm best
    in both states (a zero best-arm gap), and stds down to 1e-3, where
    the other state's quadrature likelihoods underflow to zero."""
    num_arms = draw(st.integers(min_value=2, max_value=4))
    means = np.array(
        draw(st.lists(st.floats(min_value=-1.0, max_value=3.0), min_size=2 * num_arms, max_size=2 * num_arms))
    ).reshape(num_arms, 2)
    stds = np.array(
        draw(st.lists(st.floats(min_value=1e-3, max_value=1.0), min_size=2 * num_arms, max_size=2 * num_arms))
    ).reshape(num_arms, 2)
    info_arm = draw(st.integers(min_value=0, max_value=num_arms - 1))
    corner = draw(st.sampled_from(["none", "probe_best", "zero_gap"]))
    if corner == "probe_best":
        state = draw(st.integers(min_value=0, max_value=1))
        means[info_arm, state] = means[:, state].max() + 0.1
    elif corner == "zero_gap":
        arm = draw(st.integers(min_value=0, max_value=num_arms - 1))
        means[arm, :] = means.max() + 0.2
    return RewardModel(means=means, stds=stds), info_arm


TIGHT = RewardModel(means=[[2.1, 1.5], [1.6, 2.1], [1.7, 1.5]],
                    stds=[[0.5, 0.5], [0.5, 0.5], [1e-3, 1e-3]])


class TestBudgetSearchMatchesFullScan:
    """The bound-pruned search against the full scan it replaced."""

    @given(two_state_models(), st.integers(min_value=1, max_value=400))
    @example((TIGHT, 2), 400)
    @example((RewardModel(means=[[2.1, 2.0], [1.9, 1.8], [1.7, 1.5]], stds=np.full((3, 2), 0.5)), 2), 300)
    @example((RewardModel(means=[[2.1, 1.5], [1.6, 2.1], [2.2, 1.5]], stds=np.full((3, 2), 0.5)), 2), 300)
    @settings(max_examples=40, deadline=None)
    def test_budget_equals_reference(self, model_and_probe, horizon):
        model, info_arm = model_and_probe
        assert explore_then_ps_tau(model, info_arm, horizon) == reference.explore_then_ps_tau(
            model, info_arm, horizon
        )

    @given(two_state_models(), st.sampled_from([0.0, 0.5, 1.0, 0.37]), st.integers(0, 1),
           st.booleans(), st.integers(min_value=0, max_value=200))
    @example((TIGHT, 2), 0.0, 1, True, 50)
    @settings(max_examples=60, deadline=None)
    def test_forecast_bit_identical(self, model_and_probe, p0, true_state, probe, steps):
        model, info_arm = model_and_probe
        arm = info_arm if probe else None
        ours = belief_forecast_two_state(p0, model, steps, true_state=true_state, arm=arm)
        theirs = reference.belief_forecast_two_state(p0, model, steps, true_state=true_state, arm=arm)
        np.testing.assert_array_equal(ours, theirs)

    def test_zero_denominator_keeps_the_belief(self):
        # from a zero belief in the true state, every node where the other
        # state's likelihood underflows has a zero denominator
        _, lik_other = _quadrature_likelihoods(TIGHT, 2, 1)
        assert (lik_other == 0).all()
        path = belief_forecast_two_state(0.0, TIGHT, 5, true_state=1, arm=2)
        np.testing.assert_array_equal(path, np.zeros(6))

    @pytest.mark.parametrize("probe_std", [0.01, 0.05])
    @pytest.mark.parametrize("horizon", [1, 2, 300])
    def test_presets_match(self, probe_std, horizon):
        from latentbandits import two_state_model

        model = two_state_model(probe_std=probe_std)
        assert explore_then_ps_tau(model, 2, horizon) == reference.explore_then_ps_tau(model, 2, horizon)
