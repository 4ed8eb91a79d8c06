"""The per-run step tables and the baselines' Python-float steps against
the code they replaced.

``step_reference`` keeps the trajectory walk that drew each state with
``rng.choice``, the per-state best-arm argmax, mUCB's per-state
consistency loop, EXP4S's ``rng.choice`` step and numpy floor loop,
cducb/cdts's scan for an unplayed state and their numpy picks, the
deque-window scalar detector and the harness's per-step running totals;
the CDF walk, the best-arm tables, mUCB, cducb, cdts and EXP4S on
Python floats, the doubled-ring detector, the warm-up counter and each
run's record must match them bit for bit.
"""

import functools
import math
import json
import tempfile

import numpy as np
import pytest
import step_reference as reference
from hypothesis import given, settings
from hypothesis import strategies as st

from latentbandits import EnvironmentSpec, ExperimentConfig, PolicySpec, RewardModel, TransitionKernel, run_experiment
from latentbandits.environments import generate_trajectory
from latentbandits.policies import CDTS, CDUCB, EXP4S, MUCB, ChangeDetectorState, cd_scalar_check
from latentbandits.policies.baselines import _floor_project

seeds = st.integers(min_value=0, max_value=2**32 - 1)


def tied_model(rng, num_arms, num_states):
    """Means on a coarse grid, so many arms tie for a state's best."""
    means = rng.integers(0, 3, size=(num_arms, num_states)).astype(float)
    return RewardModel(means=means, stds=rng.uniform(0.2, 1.0, size=(num_arms, num_states)))


def random_kernel(rng, n):
    """Identity, dense or nearly sparse rows, with a planted absorbing
    row, so a schedule's off-diagonal draw meets every case."""
    kind = rng.integers(3)
    if kind == 0:
        return TransitionKernel.identity(n)
    matrix = rng.dirichlet(np.full(n, 1.0 if kind == 1 else 0.1), size=n)
    absorbing = rng.integers(n)
    matrix[absorbing] = np.eye(n)[absorbing]
    return TransitionKernel(matrix)


def random_offered(rng, num_arms):
    return np.sort(rng.choice(num_arms, size=int(rng.integers(1, num_arms + 1)), replace=False))


class TestTrajectory:
    @given(seeds, st.integers(min_value=2, max_value=6), st.integers(min_value=1, max_value=200))
    @settings(max_examples=200, deadline=None)
    def test_cdf_walk_equals_the_choice_walk(self, seed, n, horizon):
        rng = np.random.default_rng(seed)
        model = tied_model(rng, int(rng.integers(2, 12)), n)
        kernel = random_kernel(rng, n)
        prior = rng.dirichlet(np.full(n, 0.5)) if rng.random() < 0.7 else np.eye(n)[rng.integers(n)]
        schedule = [None, [], sorted(rng.choice(np.arange(1, horizon + 1), size=min(horizon, 5), replace=False))][
            rng.integers(3)
        ]
        size = None if rng.random() < 0.5 else int(rng.integers(1, model.num_arms + 1))
        walk_seed = int(rng.integers(2**32))
        got = generate_trajectory(model, kernel, prior, horizon, np.random.default_rng(walk_seed), schedule, size)
        want = reference.generate_trajectory(model, kernel, prior, horizon, np.random.default_rng(walk_seed),
                                             schedule, size)
        assert got.states.tobytes() == want.states.tobytes()
        assert got.noise.tobytes() == want.noise.tobytes()
        assert len(got.arm_sets) == len(want.arm_sets) == horizon
        for arms, expected in zip(got.arm_sets, want.arm_sets):
            assert arms.tolist() == expected.tolist()

    def test_shared_arm_set_is_read_only(self, two_state, identity2, rng):
        trajectory = generate_trajectory(two_state, identity2, [0.5, 0.5], 5, rng)
        assert all(arms is trajectory.arm_sets[0] for arms in trajectory.arm_sets)
        with pytest.raises(ValueError):
            trajectory.arm_sets[0][0] = 2

    def test_prior_off_the_simplex_raises(self, two_state, identity2, rng):
        with pytest.raises(ValueError, match="prior"):
            generate_trajectory(two_state, identity2, [0.9, 0.3], 5, rng)


class TestBestArms:
    @given(seeds, st.integers(min_value=2, max_value=6), st.integers(min_value=2, max_value=12))
    @settings(max_examples=200, deadline=None)
    def test_rows_and_tables_equal_the_scalar_argmax(self, seed, n, num_arms):
        rng = np.random.default_rng(seed)
        model = tied_model(rng, num_arms, n)
        assert model.best_arms().tolist() == [reference.best_arm(model, s) for s in range(n)]
        offered = random_offered(rng, num_arms)
        assert model.best_arms(offered).tolist() == [reference.best_arm(model, s, offered) for s in range(n)]
        size = int(rng.integers(1, num_arms + 1))
        slates = np.stack([np.sort(rng.choice(num_arms, size=size, replace=False)) for _ in range(7)])
        table = model.best_arms(slates)
        assert table.shape == (7, n)
        assert table.tolist() == [[reference.best_arm(model, s, arms) for s in range(n)] for arms in slates]

    def test_ties_go_to_the_first_listed_arm(self):
        model = RewardModel(means=[[1.0, 0.0], [1.0, 2.0], [0.0, 2.0]], stds=np.ones((3, 2)))
        assert model.best_arms().tolist() == [0, 1]
        assert model.best_arms([1, 2]).tolist() == [1, 1]
        assert model.best_arms([[0, 2], [1, 2]]).tolist() == [[0, 2], [1, 1]]


class TestMUCB:
    @given(seeds, st.integers(min_value=2, max_value=6))
    @settings(max_examples=60, deadline=None)
    def test_broadcast_elimination_equals_the_per_state_loop(self, seed, n):
        rng = np.random.default_rng(seed)
        shape = (int(rng.integers(2, 8)), n)
        model = RewardModel(means=rng.normal(0.0, 1.0, size=shape), stds=rng.uniform(0.1, 1.0, size=shape))
        policy = MUCB(model, rng=np.random.default_rng(seed))
        truth = int(rng.integers(n))
        for _ in range(60):
            offered = random_offered(rng, model.num_arms)
            expected_alive = np.asarray(policy.surviving) & reference.consistent_states(policy)
            if not expected_alive.any():
                expected_alive[:] = True
            assert np.asarray(policy.consistent_states()).tolist() == reference.consistent_states(policy).tolist()
            arm = policy.step(offered, model.best_arms(offered))
            assert np.asarray(policy.surviving).tolist() == expected_alive.tolist()
            assert arm == reference.mucb_arm(model, offered, expected_alive)
            policy.observe(float(model.means[arm, truth] + model.stds[arm, truth] * rng.normal()), None)


class TestStateModelWarmUp:
    @pytest.mark.parametrize("cls", [CDUCB, CDTS])
    @pytest.mark.parametrize("num_states", [2, 3, 5])
    def test_arms_match_the_unplayed_scan_across_resets(self, cls, num_states):
        rng = np.random.default_rng(num_states)
        model = RewardModel(means=rng.normal(size=(4, num_states)), stds=np.full((4, num_states), 0.01))
        policy, scan = (cls(model, rng=np.random.default_rng(3), window_size=4, threshold=5.0) for _ in range(2))
        scan._choose = functools.partial(reference.state_model_choose, scan)
        offered = np.arange(4)
        best_arms = model.best_arms(offered)
        for t in range(240):
            arm = policy.step(offered, best_arms)
            assert scan.step(offered, best_arms) == arm, t
            # every mean rises by 10 each 40 steps, so detectors fire and the warm-up restarts
            reward = float(model.means[arm, 0] + 10.0 * (t // 40) + 0.01 * rng.normal())
            policy.observe(reward, None)
            scan.observe(reward, None)
        assert policy.detector_resets == scan.detector_resets >= 5
        assert np.asarray(policy.counts).tolist() == np.asarray(scan.counts).tolist()


class TestEXP4S:
    @given(seeds, st.integers(min_value=2, max_value=20), st.integers(min_value=2, max_value=12), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_same_arms_and_weights_as_the_choice_draw(self, seed, n, num_arms, slates):
        rng = np.random.default_rng(seed)
        # tied means: experts often share a best arm, and the weights of
        # the experts behind one arm add up in the gemv
        model = tied_model(rng, num_arms, n)
        horizon = 80
        # a floor of at least 0.01 keeps exp() of the importance-weighted
        # reward finite at these learning rates
        learning_rate = None if rng.random() < 0.3 else float(rng.uniform(0.05, 1.0))
        weight_floor = None if rng.random() < 0.3 else float(rng.uniform(0.01, 1.0 / n))
        policy = EXP4S(model, horizon, np.random.default_rng(seed), learning_rate, weight_floor)
        draws = np.random.default_rng(seed)
        weights = policy.weights.copy()
        for _ in range(horizon):
            offered = random_offered(rng, num_arms) if slates else np.arange(num_arms)
            best_arms = model.best_arms(offered)
            arm = policy.step(offered, best_arms)
            expected, advice = reference.exp4s_choose(model, weights, best_arms, draws)
            assert arm == expected
            reward = float(rng.normal(model.means[arm].mean(), 1.0))
            policy.observe(reward, None)
            weights = reference.exp4s_update(weights, advice, reward, arm, policy.learning_rate, policy.weight_floor)
            assert policy.weights.tobytes() == weights.tobytes()

    @given(seeds, st.integers(min_value=2, max_value=20), st.integers(min_value=2, max_value=12), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_draws_on_the_cdf_boundaries(self, seed, n, num_arms, slates):
        # a uniform equal to an entry of the choice CDF: an arm one bit
        # off in the mixture, or a bisection from the other side, moves it
        rng = np.random.default_rng(seed)
        model = tied_model(rng, num_arms, n)
        horizon = 40
        draws = FixedDraws()
        policy = EXP4S(model, horizon, draws, float(rng.uniform(0.05, 1.0)), float(rng.uniform(0.01, 1.0 / n)))
        weights = policy.weights.copy()
        for _ in range(horizon):
            offered = random_offered(rng, num_arms) if slates else np.arange(num_arms)
            best_arms = model.best_arms(offered)
            probs, advice = reference.exp4s_mixture(model, weights, best_arms)
            # the CDF as Generator.choice builds it; a uniform is in [0, 1)
            cdf = probs.cumsum()
            cdf /= cdf[-1]
            draws.value = float(rng.choice(np.append(cdf[cdf < 1.0], 0.0)))
            arm = policy.step(offered, best_arms)
            assert arm == int(np.searchsorted(cdf, draws.value, side="right"))
            reward = float(rng.normal(model.means[arm].mean(), 1.0))
            policy.observe(reward, None)
            weights = reference.exp4s_update(weights, advice, reward, arm, policy.learning_rate, policy.weight_floor)
            assert policy.weights.tobytes() == weights.tobytes()


class TestBaselineOracles:
    """cducb, cdts, mUCB, EXP4S's floor projection and the scalar detector
    on Python floats against their numpy oracles in ``step_reference``:
    the arm of every step, and the counts, sums and surviving states after
    it, for 2 to 20 states (so numpy's pairwise sums run past 8 terms)."""

    @staticmethod
    def drive_state_model(cls, seed, n, slated, listed, window_size, threshold, horizon=200):
        rng = np.random.default_rng(seed)
        num_arms = int(rng.integers(2, 12))
        model = RewardModel(means=rng.normal(size=(num_arms, n)), stds=rng.uniform(0.05, 1.0, size=(num_arms, n)))
        policy = cls(model, np.random.default_rng(seed), window_size, threshold)
        pick = reference.cducb_pick_state if cls is CDUCB else reference.cdts_pick_state
        oracle = reference.StateModelBandit(model, np.random.default_rng(seed), pick, window_size, threshold)
        for t in range(horizon):
            offered = random_offered(rng, num_arms) if slated else np.arange(num_arms)
            best_arms = model.best_arms(offered)
            best_arms = best_arms.tolist() if listed else best_arms
            arm = policy.step(offered, best_arms)
            assert arm == oracle.step(best_arms), t
            # the level jumps by 4 every 60 steps: planted detector resets
            reward = float(model.means[arm, 0] + 4.0 * (t // 60) + 0.3 * rng.normal())
            policy.observe(reward, None)
            oracle.observe(reward)
            assert policy.counts == oracle.counts.tolist(), t
            assert np.array(policy.sums).tobytes() == oracle.sums.tobytes(), t
            assert policy.detector_resets == oracle.detector_resets, t
        return policy

    @pytest.mark.parametrize("cls", [CDUCB, CDTS])
    @given(seeds, st.integers(min_value=2, max_value=20), st.booleans(), st.booleans(),
           st.integers(min_value=1, max_value=20), st.floats(min_value=0.5, max_value=5.0))
    @settings(max_examples=40, deadline=None)
    def test_state_model_bandits_equal_the_numpy_oracle(self, cls, seed, n, slated, listed, half, threshold):
        self.drive_state_model(cls, seed, n, slated, listed, 2 * half, threshold)

    @pytest.mark.parametrize("cls", [CDUCB, CDTS])
    @pytest.mark.parametrize("n", [2, 8, 20])
    def test_planted_resets_equal_the_numpy_oracle(self, cls, n):
        policy = self.drive_state_model(cls, n, n, True, True, 4, 2.0, horizon=400)
        assert policy.detector_resets >= 3

    @pytest.mark.parametrize("cls", [CDUCB, CDTS])
    @given(seeds, st.integers(min_value=2, max_value=20))
    @settings(max_examples=100, deadline=None)
    def test_picks_break_bit_level_ties_as_the_oracle(self, cls, seed, n):
        # states whose oracle index (cducb) or sample (cdts) ties the best
        # state's to the bit: a pick that rounds any other way moves
        rng = np.random.default_rng(seed)
        model = RewardModel(means=np.zeros((2, n)), stds=rng.uniform(0.1, 2.0, size=(2, n)))
        policy = cls(model, np.random.default_rng(seed))
        pick = reference.cducb_pick_state if cls is CDUCB else reference.cdts_pick_state
        oracle = reference.StateModelBandit(model, np.random.default_rng(seed), pick)
        counts = rng.integers(1, 100, size=n)
        time = int(rng.integers(counts.sum(), 10 * counts.sum()))
        # the oracle's arithmetic; cdts's normals are the first n of its stream
        z = np.random.default_rng(seed).standard_normal(n)
        if cls is CDUCB:
            def values(sums):
                return sums / counts + oracle._scale * np.sqrt(2.0 * math.log(max(time, 2)) / counts)
        else:
            def values(sums):
                return sums / counts + oracle._scale / np.sqrt(counts) * z
        sums = (rng.normal(size=n) - 100.0) * counts
        best = int(rng.integers(n))
        sums[best] = rng.normal() * counts[best]
        target = values(sums)[best]
        for j in np.flatnonzero(rng.random(n) < 0.5):
            trial = sums.copy()
            trial[j] = (target - values(np.zeros(n))[j]) * counts[j]
            for _ in range(256):
                value = values(trial)[j]
                if value == target:
                    sums = trial
                    break
                trial[j] = np.nextafter(trial[j], -np.inf if value > target else np.inf)
        policy.counts, policy.sums, policy.time = counts.tolist(), sums.tolist(), time
        oracle.counts, oracle.sums, oracle.time = counts, sums, time
        assert policy._pick_state() == oracle.pick_state(oracle)

    @given(seeds, st.integers(min_value=2, max_value=20), st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_mucb_equals_the_numpy_oracle(self, seed, n, slated):
        rng = np.random.default_rng(seed)
        num_arms = int(rng.integers(2, 10))
        # tied means half the time, so optimistic arms tie
        model = tied_model(rng, num_arms, n) if rng.random() < 0.5 else RewardModel(
            means=rng.normal(size=(num_arms, n)), stds=rng.uniform(0.1, 1.0, size=(num_arms, n)))
        policy, oracle = MUCB(model, rng=np.random.default_rng(seed)), reference.MUCB(model)
        truth = int(rng.integers(n))
        # rewards off every state's model empty the consistent set
        offset = float(rng.choice([0.0, 3.0]))
        for t in range(150):
            offered = random_offered(rng, num_arms) if slated else np.arange(num_arms)
            arm = policy.step(offered, model.best_arms(offered))
            assert arm == oracle.step(offered), t
            assert policy.surviving == oracle.surviving.tolist(), t
            reward = float(model.means[arm, truth] + offset + model.stds[arm, truth] * rng.normal())
            policy.observe(reward, None)
            oracle.observe(arm, reward)
            assert policy.counts == oracle.counts.tolist(), t
            assert np.array(policy.sums).tobytes() == oracle.sums.tobytes(), t

    @given(seeds, st.integers(min_value=2, max_value=20))
    @settings(max_examples=100, deadline=None)
    def test_mucb_radius_boundary_as_the_oracle(self, seed, n):
        # every played arm's mean sits on one state's radius to the bit
        rng = np.random.default_rng(seed)
        num_arms = int(rng.integers(2, 7))
        model = RewardModel(means=rng.normal(size=(num_arms, n)), stds=rng.uniform(0.1, 1.0, size=(num_arms, n)))
        policy, oracle = MUCB(model, rng=np.random.default_rng(seed)), reference.MUCB(model)
        counts, sums = rng.integers(0, 50, size=num_arms), np.zeros(num_arms)
        time, state = int(rng.integers(2, 5000)), int(rng.integers(n))
        for arm in np.flatnonzero(counts):
            mu = model.means[arm, state]
            radius = model.stds[arm, state] * np.sqrt(math.log(time) / counts[arm])
            total = (mu + rng.choice([-1.0, 1.0]) * radius) * counts[arm]
            for _ in range(256):
                mean = total / counts[arm]
                if abs(mean - mu) == radius:
                    break
                total = np.nextafter(total, -np.inf if (abs(mean - mu) > radius) == (mean > mu) else np.inf)
            sums[arm] = total
        policy.counts, policy.sums, policy.time = counts.tolist(), sums.tolist(), time
        oracle.counts, oracle.sums, oracle.time = counts, sums, time
        assert policy.consistent_states() == reference.consistent_states(oracle).tolist()

    @given(seeds, st.integers(min_value=2, max_value=20))
    @settings(max_examples=300, deadline=None)
    def test_floor_projection_equals_the_numpy_loop(self, seed, k):
        rng = np.random.default_rng(seed)
        weights = rng.dirichlet(np.full(k, rng.choice([0.05, 0.5, 5.0])))
        floor = float(rng.choice([0.0, rng.uniform(0.0, 1.0 / k), 1.0 / k]))
        assert _floor_project(weights.tolist(), floor).tobytes() == reference._floor_project(weights, floor).tobytes()

    @given(seeds, st.integers(min_value=1, max_value=20))
    @settings(max_examples=100, deadline=None)
    def test_ring_window_equals_the_deque_window(self, seed, half):
        rng = np.random.default_rng(seed)
        state, oracle = ChangeDetectorState(2 * half, 1.0), reference.DequeDetector(2 * half, 1.0)
        for _ in range(int(rng.integers(1, 10 * half))):
            if rng.random() < 0.02:
                state.clear()
                oracle.window.clear()
            # rewards over twelve decades, so the order of the sums shows
            reward = float(rng.normal() * 10.0 ** rng.integers(-6, 7))
            state.push(reward)
            oracle.push(reward)
            assert state.window.tolist() == list(oracle.window)
            assert state.full == oracle.full
            if oracle.full:
                rewards = np.fromiter(oracle.window, dtype=float)
                statistic = abs(rewards[half:].sum() - rewards[:half].sum())
                # thresholds at the oracle's statistic and one bit below it
                for threshold in (statistic, np.nextafter(statistic, -np.inf)):
                    state.threshold = oracle.threshold = float(threshold)
                    assert cd_scalar_check(state) == reference.cd_scalar_check(oracle)


def bits(values):
    return np.array(values, dtype=float).tobytes()


class TestRunRecord:
    """Each run's arms, info flags, regret and realized regret, gathered
    after the step loop from the run's tables, and its trace, against the
    per-step running totals of ``step_reference.run_policies``."""

    @staticmethod
    def assert_record_matches(model, kernel, policies, horizon, arm_set_size=None, seed=0):
        config = ExperimentConfig(
            environment=EnvironmentSpec(model={"means": model.means.tolist(), "stds": model.stds.tolist()},
                                        kernel={"matrix": kernel.matrix.tolist()}, arm_set_size=arm_set_size),
            policies=tuple(PolicySpec(name, params) for name, params in policies),
            horizon=horizon, num_runs=2, base_seed=seed,
        )
        with tempfile.TemporaryDirectory() as out_dir:
            results = run_experiment(config, out_dir=out_dir)
            for run in results.runs:
                expected = reference.run_policies(config, run.run_index)
                with open(f"{out_dir}/traces/run_{run.run_index:04d}.jsonl", encoding="utf-8") as handle:
                    lines = [json.loads(line) for line in handle]
                for k, name in enumerate(results.policy_names):
                    arms, rewards, regret, realized, flags = expected[name]
                    assert run.arms[name].tolist() == arms
                    assert run.info_flags[name].tolist() == flags
                    assert run.cum_regret[name].tobytes() == bits(regret)
                    assert run.cum_realized_regret[name].tobytes() == bits(realized)
                    traced = lines[k * horizon:(k + 1) * horizon]
                    assert [line["policy"] for line in traced] == [name] * horizon
                    assert bits([line["reward"] for line in traced]) == bits(rewards)
                    assert [line["arm"] for line in traced] == arms
                    assert bits([line["regret"] for line in traced]) == bits(regret)
                    assert bits([line["realized_regret"] for line in traced]) == bits(realized)
        return results

    @given(seeds, st.integers(min_value=2, max_value=4), st.integers(min_value=2, max_value=6),
           st.integers(min_value=1, max_value=40), st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_record_equals_the_running_totals(self, seed, n, num_arms, horizon, slated):
        rng = np.random.default_rng(seed)
        # signed zeros and ties: optimal and played means of either sign of zero
        means = np.array([-0.0, 0.0, -0.5, 0.5, 1.0])[rng.integers(5, size=(num_arms, n))]
        means[:2, 0] = -0.0, 0.0
        model = RewardModel(means=means, stds=rng.uniform(0.2, 1.0, size=(num_arms, n)))
        policies = [(name, {}) for name in ("mts", "agemts", "cducb", "exp4s", "mucb", "oracle", "uniform_random")]
        if not slated:
            policies.append(("explore_commit", {"info_arm": 1, "n_e": 3}))
        size = int(rng.integers(1, num_arms + 1)) if slated else None
        self.assert_record_matches(model, random_kernel(rng, n), policies, horizon, size, seed % 1000)

    def test_a_leading_negative_zero_regret_reads_zero(self):
        # arm 0 ties arm 1 at -0.0 against 0.0 in both states, so the
        # probe's first plays each regret -0.0 - 0.0 = -0.0
        model = RewardModel(means=[[-0.0, -0.0], [0.0, 0.0], [-1.0, 1.0]], stds=np.full((3, 2), 0.5))
        results = self.assert_record_matches(model, TransitionKernel.identity(2),
                                             [("explore_commit", {"info_arm": 1, "n_e": 3})], 5)
        for run in results.runs:
            assert run.arms["explore_commit"][:3].tolist() == [1, 1, 1]
            assert not np.signbit(run.cum_regret["explore_commit"][:3]).any()


class FixedDraws:
    """A stand-in generator whose ``random()`` returns ``value``."""

    value = 0.0

    def random(self):
        return self.value
