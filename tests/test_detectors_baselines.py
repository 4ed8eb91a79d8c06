import numpy as np
import pytest

from latentbandits import RewardModel, TransitionKernel
from latentbandits.policies import (
    CDTS,
    CDUCB,
    EXP4S,
    MUCB,
    CDLinTS,
    CDLinUCB,
    ChangeDetectorState,
    cd_linear_check,
    cd_scalar_check,
    exp4s_update,
)
from latentbandits.policies.baselines import OraclePolicy, UniformRandom

ARMS3 = np.arange(3)


class TestScalarDetector:
    def make(self, rewards, window_size=10, threshold=2.0):
        state = ChangeDetectorState(window_size=window_size, threshold=threshold)
        for r in rewards:
            state.push(r)
        return state

    def test_constant_rewards_silent(self):
        assert not cd_scalar_check(self.make([1.3] * 10))

    def test_step_change_detected(self):
        # height 0.5 over a half-window of 5 gives a sum gap of 2.5 > b = 2
        state = self.make([0.0] * 5 + [0.5] * 5)
        assert cd_scalar_check(state)

    def test_partial_window_abstains(self):
        assert not cd_scalar_check(self.make([9.0] * 7))

    def test_invariant_to_reward_offset(self, rng):
        rewards = rng.normal(0, 1, size=10)
        base = cd_scalar_check(self.make(list(rewards)))
        shifted = cd_scalar_check(self.make(list(rewards + 57.0)))
        assert base == shifted

    def test_odd_window_rejected(self):
        with pytest.raises(ValueError):
            ChangeDetectorState(window_size=7, threshold=1.0)


class TestLinearDetector:
    def make(self, pairs, window_size, threshold):
        # the linear detector's observations are rows [*features, reward]
        state = ChangeDetectorState(window_size=window_size, threshold=threshold, row_shape=(pairs[0][0].size + 1,))
        for x, reward in pairs:
            state.push(np.append(x, reward))
        return state

    def test_stable_weights_silent(self, rng):
        w = np.array([1.0, -2.0])
        pairs = []
        for _ in range(12):
            x = rng.normal(0, 1, size=2)
            pairs.append((x, float(x @ w)))
        assert not cd_linear_check(self.make(pairs, 12, threshold=1e-6))

    def test_weight_jump_measured_in_euclidean_norm(self):
        # basis-vector features scaled so the window covariance is identity
        scale = 1.0 / 2.0  # 8 samples: each basis vector appears 4 times
        w_old = np.array([1.0, 1.0])
        w_new = np.array([2.0, -1.0])
        pairs = []
        for w in (w_old, w_new):
            for _ in range(2):
                for basis in (np.array([scale, 0.0]), np.array([0.0, scale])):
                    pairs.append((basis, float(basis @ w)))
        delta = np.linalg.norm(w_new - w_old)
        state = self.make(pairs, 8, threshold=delta + 1e-9)
        assert not cd_linear_check(state)
        state = self.make(pairs, 8, threshold=delta - 1e-9)
        assert cd_linear_check(state)

    def test_zero_threshold_always_fires_when_full(self, rng):
        pairs = [(rng.normal(0, 1, size=2), float(rng.normal())) for _ in range(8)]
        assert cd_linear_check(self.make(pairs, 8, threshold=0.0))
        assert not cd_linear_check(self.make(pairs[:5], 8, threshold=0.0))

    def test_rank_deficient_half_uses_min_norm(self):
        # every feature lies on one axis; lstsq must not blow up
        pairs = [(np.array([1.0, 0.0]), 1.0)] * 8
        assert isinstance(cd_linear_check(self.make(pairs, 8, threshold=0.5)), bool)


class TestExp4sUpdate:
    def test_identical_advice_keeps_relative_weights(self):
        weights = np.array([0.6, 0.3, 0.1])
        advice = np.zeros((3, 4))
        advice[:, 2] = 1.0
        out = exp4s_update(weights, advice, reward=1.7, arm=2,
                           learning_rate=0.3, weight_floor=0.05)
        np.testing.assert_allclose(out, weights, atol=1e-12)

    def test_floor_at_uniform_saturates(self):
        weights = np.array([0.5, 0.5])
        advice = np.array([[1.0, 0.0], [0.0, 1.0]])
        out = weights
        for _ in range(20):
            out = exp4s_update(out, advice, reward=2.0, arm=0,
                               learning_rate=0.5, weight_floor=0.5)
            np.testing.assert_allclose(out, [0.5, 0.5])

    def test_winning_expert_approaches_ceiling(self, rng):
        floor = 0.02
        weights = np.array([1 / 3] * 3)
        advice = np.eye(3)
        for _ in range(3000):
            probs = weights @ advice
            arm = int(rng.choice(3, p=probs))
            reward = 2.0 if arm == 1 else 0.5
            weights = exp4s_update(weights, advice, reward, arm, 0.05, floor)
        assert weights[1] == pytest.approx(1 - 2 * floor, abs=0.02)

    def test_simplex_and_floor_invariant(self, rng):
        weights = np.array([0.25] * 4)
        floor = 0.03
        for _ in range(500):
            advice = rng.dirichlet(np.ones(5), size=4)
            arm = int(rng.integers(5))
            if (weights @ advice)[arm] <= 0:
                continue
            weights = exp4s_update(weights, advice, float(rng.normal(1, 1)), arm,
                                   0.1, floor)
            assert weights.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(weights >= floor - 1e-12)


class TestMUCB:
    def test_no_data_plays_global_optimist(self, two_state):
        policy = MUCB(two_state, rng=np.random.default_rng(0))
        assert policy.step(ARMS3, two_state.best_arms()) == 0  # 2.1 tops both states, arm 0 first
        assert np.asarray(policy.surviving).all()

    def test_single_survivor_plays_its_best_arm(self, two_state):
        policy = MUCB(two_state, rng=np.random.default_rng(0))
        policy.surviving = np.array([False, True])
        # force the consistent set by feeding state-1 evidence on the probe arm
        policy.counts[2] = 50
        policy.sums[2] = 50 * 1.5
        policy.time = 51
        assert policy.step(ARMS3, two_state.best_arms()) == 1

    def test_empty_consistent_set_resets(self, two_state):
        policy = MUCB(two_state, rng=np.random.default_rng(0))
        policy.counts[0] = 100
        policy.sums[0] = 100 * -50.0  # impossible under either state
        policy.time = 101
        assert np.asarray(policy.consistent_states()).all()

    def test_eliminates_wrong_state_in_stationary_runs(self, two_state):
        # simulation check over seeds: by n = 2000 the wrong state should be
        # knocked out in at least 90% of runs
        wins = 0
        seeds = 100
        for seed in range(seeds):
            rng = np.random.default_rng(seed)
            true_state = seed % 2
            policy = MUCB(two_state, rng=np.random.default_rng(seed + 1000))
            best_arms = two_state.best_arms(ARMS3)
            for _ in range(2000):
                arm = policy.step(ARMS3, best_arms)
                reward = float(rng.normal(
                    two_state.means[arm, true_state], two_state.stds[arm, true_state]))
                policy.observe(reward, None)
            if policy.surviving[true_state] and not policy.surviving[1 - true_state]:
                wins += 1
        assert wins >= 0.9 * seeds


class TestRestartBandits:
    def drive(self, policy, means, stds, rng, steps):
        best_arms = policy.model.best_arms(ARMS3)
        for _ in range(steps):
            arm = policy.step(ARMS3, best_arms)
            policy.observe(float(rng.normal(means[arm], stds[arm])), None)

    def test_cducb_prefers_better_state_model(self, two_state):
        policy = CDUCB(two_state, rng=np.random.default_rng(0), threshold=50.0)
        rng = np.random.default_rng(1)
        # true state 0: state-0 model plays arm 0 (2.1), state-1 model arm 1 (2.05)
        self.drive(policy, two_state.means[:, 0], two_state.stds[:, 0], rng, 2000)
        assert policy.counts[0] > policy.counts[1]

    def test_cdts_runs_and_keeps_stats(self, two_state):
        policy = CDTS(two_state, rng=np.random.default_rng(0), threshold=50.0)
        rng = np.random.default_rng(1)
        self.drive(policy, two_state.means[:, 1], two_state.stds[:, 1], rng, 500)
        assert np.asarray(policy.counts).sum() == 500

    def test_detector_reset_on_large_shift(self, two_state):
        policy = CDUCB(two_state, rng=np.random.default_rng(0),
                       window_size=20, threshold=5.0)
        rng = np.random.default_rng(2)
        self.drive(policy, np.array([2.1, 2.05, 1.7]), np.array([0.01] * 3), rng, 100)
        before = np.asarray(policy.counts).sum()
        assert before > 0
        # huge level shift on every arm trips the windowed sum difference
        self.drive(policy, np.array([12.0, 12.0, 12.0]), np.array([0.01] * 3), rng, 60)
        assert np.asarray(policy.counts).sum() < before + 60


class TestLinearBandits:
    def test_linucb_learns_feature_weights(self):
        rng = np.random.default_rng(0)
        features = rng.normal(0, 1, size=(6, 3))
        w_true = np.array([1.0, -0.5, 0.2])
        model = RewardModel(means=np.zeros((6, 1, 2)) + 1.0, stds=np.full((6, 1, 2), 1.0))
        policy = CDLinUCB(model, features, rng=np.random.default_rng(1),
                          alpha=0.5, threshold=100.0)
        env_rng = np.random.default_rng(2)
        offered = np.arange(6)
        best_arms = model.best_arms(offered)
        for _ in range(400):
            arm = policy.step(offered, best_arms)
            reward = float(features[arm] @ w_true + env_rng.normal(0, 0.05))
            policy.observe(reward, None)
        best = int(np.argmax(features @ w_true))
        assert policy.step(offered, best_arms) == best

    def test_lints_stays_in_offered_set(self):
        rng = np.random.default_rng(0)
        features = rng.normal(0, 1, size=(5, 2))
        model = RewardModel(means=np.ones((5, 1, 2)), stds=np.full((5, 1, 2), 1.0))
        policy = CDLinTS(model, features, rng=np.random.default_rng(3), threshold=100.0)
        for _ in range(50):
            offered = np.sort(rng.choice(5, size=3, replace=False))
            arm = policy.step(offered, model.best_arms(offered))
            assert arm in offered
            policy.observe(0.5, None)

    @pytest.mark.parametrize("cls", [CDLinUCB, CDLinTS])
    @pytest.mark.parametrize("ridge", [0.0, -1.0, float("inf"), float("nan")])
    def test_ridge_must_be_finite_and_positive(self, two_state, cls, ridge):
        with pytest.raises(ValueError, match="ridge must be finite and positive"):
            cls(two_state, np.eye(3), np.random.default_rng(0), ridge=ridge)


def test_oracle_plays_true_state_best_arm(two_state):
    policy = OraclePolicy(two_state, rng=np.random.default_rng(0))
    policy.set_true_state(1)
    assert policy.step(ARMS3, two_state.best_arms()) == 1
    policy.observe(2.0, None)
    policy.set_true_state(0)
    assert policy.step(ARMS3, two_state.best_arms()) == 0


def test_uniform_random_covers_offered(rng):
    policy = UniformRandom(rng=np.random.default_rng(0))
    seen = set()
    for _ in range(200):
        # a uniform draw acts on neither row
        arm = policy.step(np.array([1, 3, 4]), None)
        seen.add(arm)
        policy.observe(0.0, None)
    assert seen == {1, 3, 4}
