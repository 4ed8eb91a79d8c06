import explore_reference as reference
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from policy_rows import likelihoods

from latentbandits import RewardModel, two_state_model
from latentbandits.policies import (
    ExploreCommit,
    ExploreThenPS,
    MTS,
    belief_forecast_two_state,
    explore_commit_sample_size,
    explore_then_ps_tau,
)
from latentbandits.policies import explore
from latentbandits.policies.explore import _expected_posterior, _quadrature_likelihoods

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
            arm = policy.step(ARMS3, policy.model.best_arms())
            assert arm == 2
            assert policy.last_info_play
            policy.observe(reward, likelihoods(policy.model, arm, reward))

    def test_commits_to_nearest_mean_state(self, two_state_loose, identity2):
        policy = ExploreCommit(
            two_state_loose, identity2, [0.5, 0.5], info_arm=2, n_e=1,
            rng=np.random.default_rng(0),
        )
        # probe means are 1.7 (state 0) and 1.5 (state 1)
        self.run_probe_phase(policy, [1.69])
        assert policy.step(ARMS3, two_state_loose.best_arms()) == 0  # state 0's best arm

    def test_midway_average_commits_to_lower_state(self, two_state_loose, identity2):
        policy = ExploreCommit(
            two_state_loose, identity2, [0.5, 0.5], info_arm=2, n_e=2,
            rng=np.random.default_rng(0),
        )
        self.run_probe_phase(policy, [1.7, 1.5])  # mean exactly 1.6
        assert policy.step(ARMS3, two_state_loose.best_arms()) == 0

    def test_zero_budget_commits_from_prior(self, two_state_loose, identity2):
        policy = ExploreCommit(
            two_state_loose, identity2, [0.2, 0.8], info_arm=2, n_e=0,
            rng=np.random.default_rng(0),
        )
        assert policy.step(ARMS3, two_state_loose.best_arms()) == 1  # prior argmax is state 1

    def test_committed_forever(self, two_state_loose, identity2, rng):
        policy = ExploreCommit(
            two_state_loose, identity2, [0.5, 0.5], info_arm=2, n_e=1,
            rng=np.random.default_rng(0),
        )
        self.run_probe_phase(policy, [1.51])
        for _ in range(30):
            assert policy.step(ARMS3, two_state_loose.best_arms()) == 1
            reward = float(rng.normal(2.1, 0.5))
            policy.observe(reward, likelihoods(two_state_loose, 1, reward))

    def test_z_test_budget_is_the_sample_size(self, two_state_loose, identity2):
        policy = ExploreCommit(two_state_loose, identity2, [0.5, 0.5], info_arm=2, rng=np.random.default_rng(0),
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
            cls(two_state, identity2, [0.5, 0.5], info_arm=info_arm, rng=np.random.default_rng(0), **{budget: value})

    @pytest.mark.parametrize("triple", [{}, {"delta": 0.2}, {"delta": 0.2, "std1": 0.5},
                                        {"std1": 0.5, "std2": 0.5}])
    def test_incomplete_z_test_triple_rejected(self, two_state, identity2, triple):
        with pytest.raises(ValueError, match="needs n_e, or all of delta, std1 and std2"):
            ExploreCommit(two_state, identity2, [0.5, 0.5], info_arm=2, rng=np.random.default_rng(0), **triple)


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
        best_arms = two_state.best_arms()
        for _ in range(200):
            arm_a = mts.step(ARMS3, best_arms)
            arm_b = etps.step(ARMS3, best_arms)
            assert arm_a == arm_b
            reward = float(env_rng.normal(two_state.means[arm_a, 0], two_state.stds[arm_a, 0]))
            mts.observe(reward, likelihoods(two_state, arm_a, reward))
            etps.observe(reward, likelihoods(two_state, arm_b, reward))

    def test_probes_through_budget_then_filters(self, two_state, identity2, rng):
        policy = ExploreThenPS(
            two_state, identity2, [0.5, 0.5], info_arm=2, tau=3,
            rng=np.random.default_rng(2),
        )
        for _ in range(3):
            assert policy.step(ARMS3, two_state.best_arms()) == 2
            reward = float(rng.normal(1.7, 0.01))
            policy.observe(reward, likelihoods(two_state, 2, reward))
        assert policy.belief.probs[0] > 0.999
        assert policy.step(ARMS3, two_state.best_arms()) == 0


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
# the probe matches the best arm in both states: no budget is pruned
FREE = RewardModel(means=[[2.1, 2.05], [2.05, 2.1], [2.1, 2.1]],
                   stds=[[0.5, 0.5], [0.5, 0.5], [0.05, 0.05]])
COSTLY = RewardModel(means=[[2.1, 2.05], [2.05, 2.1], [-9.9, -10.1]],
                     stds=[[0.5, 0.5], [0.5, 0.5], [0.05, 0.05]])
# a probe two steps of which beat one at horizon 300
TWO_PROBES = RewardModel(means=[[2.1, 1.5], [1.6, 2.1], [2.0, 1.9]],
                         stds=[[0.5, 0.5], [0.5, 0.5], [0.1, 0.1]])


class TestBudgetSearchMatchesFullScan:
    """The bound-pruned search against the full scan it replaced."""

    @given(two_state_models(), st.integers(min_value=1, max_value=400))
    @example((COSTLY, 2), 300)  # optimum 0
    @example((TIGHT, 2), 400)  # optimum 1, from the seed pass alone
    @example((TWO_PROBES, 2), 300)  # optimum 2, from the second pass
    @example((FREE, 2), 300)  # optimum 300: every budget survives
    @example((FREE, 2), 1)  # horizon 1: the one-probe budget never filters
    @example((TIGHT, 2), 1)
    @example((FREE, 2), 2)  # horizon 2: the second pass starts at the horizon
    @example((TIGHT, 2), 2)
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
        model = two_state_model(probe_std=probe_std)
        assert explore_then_ps_tau(model, 2, horizon) == reference.explore_then_ps_tau(model, 2, horizon)


def recorded_passes(model, info_arm, horizon):
    """The search's budget and, per ``_ps_regret`` pass, its start
    columns, first step, regret and forecast inputs."""
    ps_regret, passes = explore._ps_regret, []

    def recorded(start, first_step, horizon, ps_gap, likelihoods):
        regret = ps_regret(start, first_step, horizon, ps_gap, likelihoods)
        passes.append((np.array(start), first_step, regret, ps_gap, likelihoods))
        return regret

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(explore, "_ps_regret", recorded)
        tau = explore_then_ps_tau(model, info_arm, horizon)
    return tau, passes


def objective(model, info_arm, first, ps_regret):
    """The totals of the budgets from ``first`` on, given their regret."""
    states = np.arange(2)
    explore_cost = model.means[model.best_arms(), states] - model.means[info_arm, states]
    budgets = np.arange(first, first + ps_regret.shape[1])
    return 0.5 * (budgets * explore_cost[0] + ps_regret[0]) + 0.5 * (budgets * explore_cost[1] + ps_regret[1])


class TestSeededBudgetSearch:
    """Budgets 0 and 1 are forecast in one pass and bound the rest.  The
    seeded totals are a full scan's because each column's regret has the
    same bits in any stack: its per-state core is a [2, 64] @ [64] gemv
    whatever the stack's width or the column's position."""

    @given(two_state_models(), st.integers(min_value=1, max_value=120))
    @example((FREE, 2), 40)
    @example((TWO_PROBES, 2), 2)
    @settings(max_examples=30, deadline=None)
    def test_columns_are_independent_of_the_stack(self, model_and_probe, horizon):
        model, info_arm = model_and_probe
        tau, passes = recorded_passes(model, info_arm, horizon)
        _, _, _, ps_gap, likelihoods = passes[0]
        assert [(first, start.shape[1]) for start, first, *_ in passes][:1] == [(0, 2)]
        assert [first for _, first, *_ in passes[1:]] in ([], [2])

        # every budget's probe path, and every budget in one stack
        paths = np.array([belief_forecast_two_state(0.5, model, horizon, true_state=s, arm=info_arm) for s in (0, 1)])
        full = explore._ps_regret(paths, 0, horizon, ps_gap, likelihoods)
        for start, first, regret, _, _ in passes:
            columns = slice(first, first + start.shape[1])
            assert start.tobytes() == paths[:, columns].tobytes()
            assert regret.tobytes() == full[:, columns].tobytes()
        stacks = [(0, paths[:, :2]), (2, paths[:, 2:])] + [(b, paths[:, b : b + 1]) for b in range(horizon + 1)]
        for first, start in stacks:
            regret = explore._ps_regret(start, first, horizon, ps_gap, likelihoods)
            assert regret.tobytes() == full[:, first : first + start.shape[1]].tobytes()

        # the seeded totals are the full scan's prefix, and the pruned budgets cannot win
        seeded = np.concatenate([objective(model, info_arm, first, regret) for _, first, regret, *_ in passes])
        scan = objective(model, info_arm, 0, full)
        assert seeded.tobytes() == scan[: seeded.size].tobytes()
        assert tau == int(np.argmin(seeded)) == int(np.argmin(scan))

    @given(two_state_models(), st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=40),
           st.data())
    @settings(max_examples=40, deadline=None)
    def test_posterior_core_is_independent_of_width_and_position(self, model_and_probe, beliefs, data):
        model, _ = model_and_probe
        best, states = model.best_arms(), np.arange(2)
        arms = np.stack([best, best[::-1]], axis=1)[:, None, :]
        likelihoods = _quadrature_likelihoods(model, arms, states[:, None, None])
        stack = np.array([beliefs, beliefs[::-1]])[..., None]
        column = data.draw(st.integers(min_value=0, max_value=len(beliefs) - 1))
        alone = _expected_posterior(stack[:, column : column + 1], likelihoods)
        assert alone.tobytes() == _expected_posterior(stack, likelihoods)[:, column : column + 1].tobytes()

    @pytest.mark.parametrize("model,horizon,passes,tau", [
        (two_state_model(probe_std=0.05), 300, [(0, 2)], 1),
        (two_state_model(probe_std=0.05), 1000, [(0, 2), (2, 2)], 2),
        (COSTLY, 300, [(0, 2)], 0),
        (TIGHT, 400, [(0, 2)], 1),
        (TWO_PROBES, 300, [(0, 2), (2, 13)], 2),
        (FREE, 300, [(0, 2), (2, 299)], 300),
        (FREE, 1, [(0, 2)], 1),
        (FREE, 2, [(0, 2), (2, 1)], 2),
    ], ids=["loose_300", "loose_1000", "costly", "tight", "two_probes", "free_300", "free_1", "free_2"])
    def test_passes_and_budgets(self, model, horizon, passes, tau):
        # on the loose preset the zero-budget bound alone kept 11 of 301
        # and 22 of 1,001 budgets
        found, recorded = recorded_passes(model, 2, horizon)
        assert [(first, start.shape[1]) for start, first, *_ in recorded] == passes
        assert found == tau
