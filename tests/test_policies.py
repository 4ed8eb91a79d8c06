import numpy as np
import pytest
from policy_rows import likelihoods as likelihood_row
from scipy.stats import norm

from latentbandits import BeliefState, RewardModel, TransitionKernel
from latentbandits.belief import entropy
from latentbandits.policies import (
    AGEmTS,
    MTS,
    ExploreCommit,
    RolloutResult,
    make_policy,
    reward_estimator,
    rollout_info_likelihood,
    rollout_likelihood_matrix,
)

ALL_ARMS3 = np.arange(3)


def flat_probe_model():
    """Probe arm identical in both states: zero information content."""
    return RewardModel(
        means=[[2.1, 2.05], [2.05, 2.1], [1.6, 1.6]],
        stds=[[0.5, 0.5], [0.5, 0.5], [0.01, 0.01]],
    )


class TestMTS:
    def test_degenerate_belief_plays_that_state(self, two_state, identity2, rng):
        policy = MTS(two_state, identity2, [1.0, 0.0], rng=rng)
        for _ in range(25):
            assert policy.step(ALL_ARMS3, two_state.best_arms()) == 0
            policy._pending = None  # skip observe; belief untouched

    def test_uniform_belief_samples_arms_evenly(self, two_state, identity2):
        policy = MTS(two_state, identity2, [0.5, 0.5], rng=np.random.default_rng(0))
        counts = np.zeros(3, dtype=int)
        best_arms = two_state.best_arms()
        for _ in range(100_000):
            counts[policy.step(ALL_ARMS3, best_arms)] += 1
            policy._pending = None
        freq = counts / counts.sum()
        assert freq[0] == pytest.approx(0.5, abs=0.01)
        assert freq[1] == pytest.approx(0.5, abs=0.01)
        assert counts[2] == 0

    def test_stationary_no_evidence_keeps_belief(self, identity2, rng):
        # both states give the chosen arm the same distribution
        model = RewardModel(
            means=[[1.0, 1.0], [0.5, 0.5]], stds=[[0.3, 0.3], [0.3, 0.3]]
        )
        policy = MTS(model, identity2, [0.7, 0.3], rng=rng)
        for _ in range(20):
            arm = policy.step(np.arange(2), model.best_arms())
            reward = float(rng.normal(1.0, 0.3))
            policy.observe(reward, likelihood_row(model, arm, reward))
            np.testing.assert_allclose(policy.belief.probs, [0.7, 0.3], atol=1e-12)

    def test_belief_filters_toward_truth(self, two_state, identity2):
        policy = MTS(two_state, identity2, [0.5, 0.5], rng=np.random.default_rng(3))
        env_rng = np.random.default_rng(4)
        for _ in range(400):
            arm = policy.step(ALL_ARMS3, two_state.best_arms())
            reward = float(env_rng.normal(two_state.means[arm, 0], two_state.stds[arm, 0]))
            policy.observe(reward, likelihood_row(two_state, arm, reward))
        assert policy.belief.probs[0] > 0.9

    def test_leaves_the_callers_prior_writable(self, two_state, identity2, rng):
        prior = np.array([0.5, 0.5])
        policy = MTS(two_state, identity2, prior, rng=rng)
        prior[0] = 0.9
        assert policy.prior.probs.tolist() == [0.5, 0.5]
        assert policy.belief_probs.tolist() == [0.5, 0.5]

    def test_belief_is_a_snapshot_of_the_live_row(self, two_state, identity2, rng):
        policy = MTS(two_state, identity2, [0.5, 0.5], rng=rng)
        row, snapshot = policy.belief_probs, policy.belief
        arm = policy.step(ALL_ARMS3, two_state.best_arms())
        policy.observe(2.0, likelihood_row(two_state, arm, 2.0))
        assert policy.belief_probs is row and row.tolist() != [0.5, 0.5]
        assert snapshot.probs.tolist() == [0.5, 0.5]

    @pytest.mark.parametrize("kernel,prior", [
        (TransitionKernel(np.eye(2)), [1.0]),
        (TransitionKernel(np.eye(3)), [0.5, 0.5]),
        (TransitionKernel(np.eye(2)), [0.2, 0.3, 0.5]),
    ], ids=["one_entry_prior", "three_state_kernel", "three_entry_prior"])
    @pytest.mark.parametrize("cls", [MTS, AGEmTS])
    def test_rejects_state_counts_that_differ(self, two_state, rng, cls, kernel, prior):
        extra = {"horizon": 10} if cls is AGEmTS else {}
        with pytest.raises(ValueError, match="same number of states"):
            cls(two_state, kernel, prior, rng=rng, **extra)

    @pytest.mark.parametrize("likelihoods", [
        np.array([0.5]), np.array([0.5, 0.5, 0.5]), np.array([[0.5, 0.5]]), [0.5], [0.5, 0.5, 0.5], None,
        np.array([0.5, -0.5]),
    ], ids=["one_entry", "three_entries", "one_by_two", "one_entry_list", "three_entry_list", "none", "negative"])
    @pytest.mark.parametrize("cls", [MTS, AGEmTS, ExploreCommit])
    def test_observe_rejects_a_row_not_one_entry_per_state(self, two_state, identity2, rng, cls, likelihoods):
        extra = {MTS: {}, AGEmTS: {"horizon": 10}, ExploreCommit: {"info_arm": 2, "n_e": 2}}[cls]
        policy = cls(two_state, identity2, [0.3, 0.7], rng=rng, **extra)
        arm = policy.step(ALL_ARMS3, two_state.best_arms())
        with pytest.raises(ValueError, match="one non-negative entry per state"):
            policy.observe(1.9, likelihoods)
        assert policy.belief_probs.tolist() == [0.3, 0.7]
        # a rejected observe is a no-op: nothing recorded, the step still pending
        assert policy.time == 1 and getattr(policy, "_probe_rewards", []) == []
        policy.observe(1.9, likelihood_row(two_state, arm, 1.9))
        assert policy.time == 2 and getattr(policy, "_probe_rewards", [1.9]) == [1.9]

    def test_observe_takes_a_list_row(self, two_state, identity2):
        from_list, from_array = (MTS(two_state, identity2, [0.3, 0.7], rng=np.random.default_rng(5))
                                 for _ in range(2))
        for policy, likelihoods in ((from_list, [0.2, 0.9]), (from_array, np.array([0.2, 0.9]))):
            policy.step(ALL_ARMS3, two_state.best_arms())
            policy.observe(2.0, likelihoods)
        assert from_list.belief_probs.tobytes() == from_array.belief_probs.tobytes()
        assert from_list.belief_probs.tolist() != [0.3, 0.7]

    def test_time_advances_by_one_per_step(self, two_state, identity2, rng):
        policy = MTS(two_state, identity2, [0.5, 0.5], rng=rng)
        for expected in range(1, 10):
            assert policy.time == expected
            arm = policy.step(ALL_ARMS3, two_state.best_arms())
            policy.observe(2.0, likelihood_row(two_state, arm, 2.0))


class TestRolloutLikelihoodMatrix:
    def test_indistinguishable_states_give_uniform_row(self):
        model = RewardModel(
            means=[[1.5, 1.5], [0.8, 0.8]], stds=[[0.4, 0.4], [0.4, 0.4]]
        )
        row = rollout_likelihood_matrix(model, [1], np.array([0.3, 0.7]), model.best_arms())[0]
        np.testing.assert_allclose(row, [0.5, 0.5], atol=1e-12)

    def test_disjoint_means_concentrate_on_hypothetical_state(self):
        model = RewardModel(
            means=[[10.0, -10.0], [9.0, -9.0]], stds=np.full((2, 2), 0.1)
        )
        row = rollout_likelihood_matrix(model, [1], np.array([0.5, 0.5]), model.best_arms())[0]
        assert row[1] > 1 - 1e-12

    def test_matches_naive_reimplementation(self, five_state):
        belief = BeliefState(np.full(5, 0.2))
        for s_hyp in range(5):
            row = rollout_likelihood_matrix(five_state, [s_hyp], belief.probs, five_state.best_arms())[0]
            expected = np.zeros(5)
            for s in range(5):
                arm = int(np.argmax(five_state.means[:, s]))
                probe = five_state.means[arm, s_hyp]
                for s_i in range(5):
                    expected[s_i] += belief.probs[s] * norm.pdf(
                        probe, five_state.means[arm, s_i], five_state.stds[arm, s_i]
                    )
            expected /= expected.sum()
            np.testing.assert_allclose(row, expected, atol=1e-12)


class TestRolloutInfoLikelihood:
    def test_flat_probe_returns_belief(self):
        model = flat_probe_model()
        belief = BeliefState([0.35, 0.65])
        row = rollout_info_likelihood(model, 2, [0], belief.probs)[0]
        np.testing.assert_allclose(row, belief.probs, atol=1e-12)

    def test_tight_probe_concentrates(self, two_state):
        row = rollout_info_likelihood(two_state, 2, [0], np.array([0.5, 0.5]))[0]
        assert row[0] >= 1 - 1e-6

    def test_symmetric_model_swaps_with_states(self, two_state):
        belief = BeliefState([0.5, 0.5])
        row0 = rollout_info_likelihood(two_state, 2, [0], belief.probs)[0]
        row1 = rollout_info_likelihood(two_state, 2, [1], belief.probs)[0]
        np.testing.assert_allclose(row0, row1[::-1], atol=1e-12)


class TestRewardEstimator:
    def test_uninformative_probe_never_wins(self, identity2):
        model = flat_probe_model()
        result = reward_estimator(
            BeliefState([0.5, 0.5]), model, identity2,
            greedy_arm=0, info_arm=2, r_u=0.6, horizon_cap=500, best_arms=model.best_arms(), entropy_threshold=1.0,
        )
        assert result.reward_ig <= result.reward_ps

    def test_benchmark_probe_clears_the_bar(self, two_state, identity2):
        result = reward_estimator(
            BeliefState([0.5, 0.5]), two_state, identity2,
            greedy_arm=0, info_arm=2, r_u=0.6, horizon_cap=2000, best_arms=two_state.best_arms(),
            entropy_threshold=1.0,
        )
        assert result.reward_ig - result.reward_ps > 0.6

    def test_monte_carlo_ordering_agrees(self, two_state, identity2):
        horizon = 400
        estimate = reward_estimator(
            BeliefState([0.5, 0.5]), two_state, identity2,
            greedy_arm=0, info_arm=2, r_u=0.6, horizon_cap=horizon, best_arms=two_state.best_arms(),
            entropy_threshold=1.0,
        )
        mc_ig, mc_ps = _mc_two_policy_rewards(two_state, horizon, n_runs=10_000)
        assert (estimate.reward_ig > estimate.reward_ps) == (mc_ig > mc_ps)

    def test_single_step_arithmetic(self, identity2):
        model = RewardModel(
            means=[[1.0, 0.0], [0.0, 1.0], [0.55, 0.45]],
            stds=[[0.3, 0.3], [0.3, 0.3], [0.05, 0.05]],
        )
        belief = BeliefState([0.6, 0.4])
        r_u = 1.0
        result = reward_estimator(
            belief, model, identity2, greedy_arm=0, info_arm=2, r_u=r_u, horizon_cap=1,
            best_arms=model.best_arms(), entropy_threshold=1.0,
        )
        assert result.horizon_used == 1
        # recompute by the definition: one probe update, then one greedy step
        info_row = rollout_info_likelihood(model, 2, [1], belief.probs)[0]
        greedy_row = rollout_likelihood_matrix(model, [1], belief.probs, model.best_arms())[0]
        payoff = np.array([model.means[0, 1], model.means[1, 1]])
        p_ig = belief.probs * info_row
        p_ig = p_ig / p_ig.sum()
        p_ig_next = p_ig * greedy_row
        p_ig_next /= p_ig_next.sum()
        p_ps = belief.probs * greedy_row
        p_ps /= p_ps.sum()
        assert result.reward_ig == pytest.approx(-r_u + float(p_ig_next @ payoff), abs=1e-12)
        assert result.reward_ps == pytest.approx(float(p_ps @ payoff), abs=1e-12)

    def test_hypothetical_labeling_permutation_symmetry(self, identity2, rng):
        means = rng.normal(1.0, 0.5, size=(4, 1, 3))
        stds = rng.uniform(0.1, 0.6, size=(4, 1, 3))
        model = RewardModel(means=means, stds=stds)
        kernel = TransitionKernel.identity(3)
        belief = BeliefState([0.2, 0.5, 0.3])
        base = reward_estimator(belief, model, kernel, 0, 1, 0.5, 50, model.best_arms(), 1.0)
        # relabel the two non-anchor states; the averaged result cannot move
        perm = [0, 2, 1]
        permuted_model = RewardModel(means=means[:, :, perm], stds=stds[:, :, perm])
        permuted_belief = BeliefState(belief.probs[perm])
        swapped = reward_estimator(permuted_belief, permuted_model, kernel, 0, 1, 0.5, 50,
                                   permuted_model.best_arms(), 1.0)
        assert base.reward_ig == pytest.approx(swapped.reward_ig, abs=1e-9)
        assert base.reward_ps == pytest.approx(swapped.reward_ps, abs=1e-9)

    def test_same_arm_rejected(self, two_state, identity2):
        with pytest.raises(ValueError):
            reward_estimator(BeliefState([0.5, 0.5]), two_state, identity2, 2, 2, 0.6, 10, two_state.best_arms(), 1.0)


def _mc_two_policy_rewards(model, horizon, n_runs, seed=99, true_state=1):
    """Vectorized simulation: probe-once-then-greedy vs greedy filtering,
    both against the fixed true state; returns mean cumulative rewards."""
    rng = np.random.default_rng(seed)
    means = model.means
    stds = model.stds
    best = np.array([int(np.argmax(means[:, s])) for s in range(2)])
    other = 1 - true_state

    def run(probe_first):
        p = np.full(n_runs, 0.5)  # P(true_state)
        total = np.zeros(n_runs)
        for t in range(horizon):
            if probe_first and t == 0:
                arms = np.full(n_runs, 2)
            else:
                arms = np.where(p >= 0.5, best[true_state], best[other])
            mu = means[arms, true_state]
            r = rng.normal(mu, stds[arms, true_state])
            total += mu
            lt = np.exp(-0.5 * ((r - means[arms, true_state]) / stds[arms, true_state]) ** 2) / stds[arms, true_state]
            lo = np.exp(-0.5 * ((r - means[arms, other]) / stds[arms, other]) ** 2) / stds[arms, other]
            denom = p * lt + (1 - p) * lo
            p = np.where(denom > 0, p * lt / np.where(denom > 0, denom, 1.0), p)
        return float(total.mean())

    return run(True), run(False)


class TestAGEmTS:
    def make(self, model, kernel, prior, horizon=2000, seed=0, **kwargs):
        return AGEmTS(model, kernel, prior, horizon=horizon,
                      rng=np.random.default_rng(seed), **kwargs)

    def test_low_entropy_skips_rollout(self, two_state, identity2):
        policy = self.make(two_state, identity2, [0.9, 0.1])
        arm = policy.step(ALL_ARMS3, two_state.best_arms())
        assert arm == 0
        assert policy.rollouts_run == 0
        assert not policy.last_info_play

    def test_uniform_prior_probes_first(self, two_state, identity2):
        policy = self.make(two_state, identity2, [0.5, 0.5])
        assert policy.step(ALL_ARMS3, two_state.best_arms()) == 2
        assert policy.last_info_play
        assert policy.rollouts_run == 1

    def test_probe_equal_to_greedy_skips_rollout(self, identity2):
        # probe arm is also the greedy arm: highest mean and informative
        model = RewardModel(
            means=[[2.6, 0.2], [2.0, 2.05], [2.05, 2.0]],
            stds=[[0.01, 0.01], [0.5, 0.5], [0.5, 0.5]],
        )
        policy = self.make(model, identity2, [0.5, 0.5])
        arm = policy.step(ALL_ARMS3, model.best_arms())
        assert arm == 0
        assert policy.rollouts_run == 0

    def test_never_probes_below_entropy_threshold(self, two_state, switch_kernel):
        policy = self.make(two_state, switch_kernel, [0.5, 0.5], horizon=500, seed=5)
        env_rng = np.random.default_rng(11)
        state = 0
        for _ in range(500):
            h = entropy(policy.belief)
            arm = policy.step(ALL_ARMS3, two_state.best_arms())
            if h < 1.0:
                assert arm != 2
            reward = float(env_rng.normal(two_state.means[arm, state], two_state.stds[arm, state]))
            policy.observe(reward, likelihood_row(two_state, arm, reward))
            if env_rng.random() < 0.005:
                state = 1 - state

    def test_flat_probe_reduces_to_greedy_choices(self, identity2):
        model = flat_probe_model()
        policy = self.make(model, identity2, [0.5, 0.5], horizon=300, seed=7)
        reference = self.make(model, identity2, [0.5, 0.5], horizon=300, seed=7)
        env_rng = np.random.default_rng(13)
        best_arms = model.best_arms()
        for _ in range(300):
            arm = policy.step(ALL_ARMS3, best_arms)
            # reference greedy choice: best arm of the argmax state
            assert arm == best_arms[reference.belief.argmax()]
            reward = float(env_rng.normal(model.means[arm, 0], model.stds[arm, 0]))
            policy.observe(reward, likelihood_row(model, arm, reward))
            reference_arm = reference.step(ALL_ARMS3, best_arms)
            reference.observe(reward, likelihood_row(model, reference_arm, reward))

    def test_entropy_threshold_knob(self, two_state, identity2):
        eager = self.make(two_state, identity2, [0.77, 0.23], entropy_threshold=0.5)
        assert entropy(eager.belief) < 1.0
        eager.step(ALL_ARMS3, two_state.best_arms())
        assert eager.rollouts_run == 1

    def test_arm_always_in_offered_set(self, five_state, rng):
        kernel = TransitionKernel.identity(5)
        policy = self.make(five_state, kernel, np.full(5, 0.2), horizon=50, seed=2)
        for _ in range(50):
            offered = np.sort(rng.choice(5, size=3, replace=False))
            arm = policy.step(offered, five_state.best_arms(offered))
            assert arm in offered
            reward = float(rng.normal(2.0, 0.5))
            policy.observe(reward, likelihood_row(five_state, arm, reward))


class TestPolicyRegistry:
    @pytest.mark.parametrize(
        "name", ["mts", "agemts", "cducb", "cdts", "exp4s", "mucb", "oracle", "uniform_random"]
    )
    def test_registry_builds_and_steps(self, name, two_state, switch_kernel):
        policy = make_policy(
            name, two_state, switch_kernel, [0.5, 0.5], horizon=100,
            rng=np.random.default_rng(0),
        )
        if policy.wants_true_state:
            policy.set_true_state(0)
        arm = policy.step(ALL_ARMS3, two_state.best_arms())
        assert arm in ALL_ARMS3
        policy.observe(1.9, likelihood_row(two_state, arm, 1.9) if policy.belief_probs is not None else None)

    def test_unknown_name_rejected(self, two_state, identity2):
        with pytest.raises(ValueError, match="unknown policy"):
            make_policy("zorp", two_state, identity2, [0.5, 0.5], 10, np.random.default_rng(0))

    def test_linear_policies_need_features(self, two_state, identity2):
        with pytest.raises(ValueError, match="features"):
            make_policy("cd_linucb", two_state, identity2, [0.5, 0.5], 10,
                        np.random.default_rng(0))


def test_rollout_result_validation():
    with pytest.raises(ValueError):
        RolloutResult(reward_ig=float("nan"), reward_ps=0.0, horizon_used=5)
    with pytest.raises(ValueError):
        RolloutResult(reward_ig=0.0, reward_ps=0.0, horizon_used=0)
