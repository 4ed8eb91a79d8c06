import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from latentbandits import (
    BeliefState,
    DegenerateEvidenceError,
    RewardModel,
    TransitionKernel,
    best_info_arm,
    entropy,
    expected_dwell_time,
    gaussian_kl,
    mean_pairwise_gap,
    mean_pairwise_kl,
    posterior_update,
    propagate,
    single_step_regret_bound,
)
from latentbandits.belief import ENTROPY_SLACK, entropy_bits, entropy_reaches, likelihoods_from_log, reward_log_likelihoods

# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def forward_step_oracle(belief, kernel, likelihoods):
    """Explicit double loop over the filter's defining sum."""
    n = len(belief)
    unnormalized = [0.0] * n
    for s_next in range(n):
        for s in range(n):
            unnormalized[s_next] += belief[s] * likelihoods[s] * kernel[s][s_next]
    total = sum(unnormalized)
    return [v / total for v in unnormalized]


def kl_numeric(m1, s1, m2, s2):
    def integrand(x):
        z1 = (x - m1) / s1
        z2 = (x - m2) / s2
        log_p = -0.5 * z1 * z1 - math.log(s1)
        log_q = -0.5 * z2 * z2 - math.log(s2)
        p = math.exp(log_p) / math.sqrt(2 * math.pi)
        return p * (log_p - log_q)

    lo = min(m1 - 12 * s1, m2 - 12 * s2)
    hi = max(m1 + 12 * s1, m2 + 12 * s2)
    value, _ = integrate.quad(integrand, lo, hi, limit=200)
    return value


def mean_kl_oracle(model, arm, arms=None):
    """Arm-outer loop order, exact summation, over the offered arms (all
    of them by default)."""
    arms = range(model.num_arms) if arms is None else list(arms)
    terms = []
    for other in arms:
        if other == arm:
            continue
        for s in range(model.num_states):
            terms.append(
                gaussian_kl(
                    model.means[other, s],
                    model.stds[other, s],
                    model.means[arm, s],
                    model.stds[arm, s],
                )
            )
    return math.fsum(terms) / (len(arms) * model.num_states)


def mean_gap_oracle(model, arm, arms=None):
    arms = range(model.num_arms) if arms is None else list(arms)
    terms = []
    for other in arms:
        if other == arm:
            continue
        for s in range(model.num_states):
            terms.append(model.means[arm, s] - model.means[other, s])
    return math.fsum(terms) / (len(arms) * model.num_states)


def regret_bound_oracle(model):
    worst = 0.0
    for s in range(model.num_states):
        column = [model.means[a, s] for a in range(model.num_arms)]
        worst = max(worst, max(column) - min(column))
    return worst


def random_model(rng, num_arms=4, num_states=3):
    means = rng.normal(0, 2, size=(num_arms, num_states))
    stds = rng.uniform(0.05, 2.0, size=(num_arms, num_states))
    return RewardModel(means=means, stds=stds)


def random_kernel(rng, n):
    matrix = rng.dirichlet(np.ones(n), size=n)
    return TransitionKernel(matrix)


# ---------------------------------------------------------------------------
# posterior_update
# ---------------------------------------------------------------------------


class TestPosteriorUpdate:
    def test_identity_uniform_likelihood_is_noop(self, identity2):
        out = posterior_update(BeliefState([0.5, 0.5]), identity2, [1.0, 1.0])
        np.testing.assert_allclose(out.probs, [0.5, 0.5])

    def test_identity_reweights_by_likelihood(self, identity2):
        # direct arithmetic: (0.5*0.8, 0.5*0.2) normalized
        out = posterior_update(BeliefState([0.5, 0.5]), identity2, [0.8, 0.2])
        np.testing.assert_allclose(out.probs, [0.8, 0.2])

    def test_deterministic_transition_moves_mass(self):
        flip = TransitionKernel([[0.0, 1.0], [1.0, 0.0]])
        out = posterior_update(BeliefState([1.0, 0.0]), flip, [1.0, 1.0])
        np.testing.assert_allclose(out.probs, [0.0, 1.0])

    def test_likelihood_attaches_to_pre_transition_state(self):
        # evidence for state 0 should flow through state 0's row
        kernel = TransitionKernel([[0.7, 0.3], [0.2, 0.8]])
        out = posterior_update(BeliefState([0.5, 0.5]), kernel, [1.0, 0.0])
        np.testing.assert_allclose(out.probs, [0.7, 0.3])

    def test_zero_mass_raises(self, identity2):
        with pytest.raises(DegenerateEvidenceError):
            posterior_update(BeliefState([1.0, 0.0]), identity2, [0.0, 1.0])

    def test_matches_forward_oracle_on_random_instances(self, rng):
        for _ in range(200):
            kernel = random_kernel(rng, 3)
            belief = BeliefState(rng.dirichlet(np.ones(3)))
            liks = rng.uniform(0.0, 2.0, size=3)
            if (belief.probs * liks).sum() == 0:
                continue
            expected = forward_step_oracle(belief.probs, kernel.matrix, liks)
            out = posterior_update(belief, kernel, liks)
            np.testing.assert_allclose(out.probs, expected, atol=1e-12)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_output_is_probability_vector(self, seed):
        rng = np.random.default_rng(seed)
        kernel = random_kernel(rng, 4)
        belief = BeliefState(rng.dirichlet(np.ones(4)))
        liks = rng.uniform(0.05, 3.0, size=4)
        out = posterior_update(belief, kernel, liks)
        assert abs(out.probs.sum() - 1.0) <= 1e-12
        assert np.all(out.probs >= 0)

    @given(st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_uniform_likelihood_equals_propagation(self, seed):
        rng = np.random.default_rng(seed)
        kernel = random_kernel(rng, 3)
        belief = BeliefState(rng.dirichlet(np.ones(3)))
        out = posterior_update(belief, kernel, [1.0, 1.0, 1.0])
        np.testing.assert_allclose(out.probs, propagate(belief, kernel).probs, atol=1e-12)


# ---------------------------------------------------------------------------
# densities, entropy, divergences
# ---------------------------------------------------------------------------


class TestGaussianLikelihood:
    """Reward densities through ``reward_log_likelihoods``."""

    @staticmethod
    def density(reward, mean, std):
        # state 0 of arm 0 carries the distribution under test
        model = RewardModel(means=[[mean, mean + 1.0], [0.0, 0.0]], stds=[[std, std], [1.0, 1.0]])
        return math.exp(reward_log_likelihoods(model, 0, reward)[0])

    def test_standard_normal_at_zero(self):
        assert self.density(0.0, 0.0, 1.0) == pytest.approx(0.3989422804, abs=1e-10)

    def test_density_peak(self):
        for mu, sigma in [(0.0, 1.0), (2.5, 0.3), (-1.0, 4.0)]:
            expected = 1.0 / (sigma * math.sqrt(2 * math.pi))
            assert self.density(mu, mu, sigma) == pytest.approx(expected)

    def test_three_sigma_value(self):
        assert self.density(3.0, 0.0, 1.0) == pytest.approx(0.0044318484, abs=1e-10)

    def test_tight_arm_far_from_reward(self, identity2):
        # 50 and 49 standard deviations out: both densities underflow to
        # zero, yet their ratio exp(-49.5) is an ordinary float
        model = RewardModel(means=[[1.5, 1.51], [2.0, 2.0]], stds=[[0.01, 0.01], [0.5, 0.5]])
        reward, belief = 2.0, BeliefState([0.3, 0.7])
        log_liks = reward_log_likelihoods(model, 0, reward)
        assert not np.exp(log_liks).any()

        def exact_density(mean, std):
            z = (Decimal(reward) - Decimal(mean)) / Decimal(std)
            return (-z * z / 2).exp() / (Decimal(std) * (2 * Decimal(math.pi)).sqrt())

        weights = [
            Decimal(p) * exact_density(m, s)
            for p, m, s in zip(belief.probs, model.means[0], model.stds[0])
        ]
        expected = [float(w / sum(weights)) for w in weights]
        posterior = posterior_update(belief, identity2, likelihoods_from_log(log_liks))
        assert expected[0] > 0.0
        np.testing.assert_allclose(posterior.probs, expected, rtol=1e-9)


class TestEntropy:
    def test_uniform_two_state_is_one_bit(self):
        assert entropy(BeliefState([0.5, 0.5])) == 1.0

    def test_degenerate_is_zero(self):
        assert entropy(BeliefState([1.0, 0.0, 0.0])) == 0.0

    def test_uniform_four_state_is_two_bits(self):
        assert entropy(BeliefState([0.25] * 4)) == pytest.approx(2.0)

    def test_uniform_maximizes(self, rng):
        for n in (2, 3, 5):
            cap = math.log2(n)
            for _ in range(50):
                b = BeliefState(rng.dirichlet(np.ones(n)))
                h = entropy(b)
                assert 0.0 <= h <= cap + 1e-12
                if h == 0.0:
                    assert np.isclose(b.probs.max(), 1.0)


@st.composite
def entropy_rows(draw):
    """Non-negative rows of 2 to 20 entries: spread (with zeros and tiny
    entries), uniform or a point mass, summing to 1 or to 1 +- 1e-12."""
    size = draw(st.integers(2, 20))
    kind = draw(st.sampled_from(["spread", "uniform", "point"]))
    if kind == "spread":
        weights = np.array(draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-300, 1.0)),
                                          min_size=size, max_size=size)))
        row = weights / weights.sum() if weights.sum() > 0.0 else np.eye(size)[0]
    elif kind == "uniform":
        row = np.full(size, 1.0 / size)
    else:
        row = np.eye(size)[draw(st.integers(0, size - 1))]
    return row * draw(st.sampled_from([1.0, 1.0 - 1e-12, 1.0 + 1e-12]))


class TestEntropyReaches:
    @settings(max_examples=300, deadline=None)
    @given(entropy_rows())
    def test_equals_the_entropy_comparison(self, row):
        """At the row's own entropy, 1 and 2 ulps either side of it and
        the slack either side of it, the pre-check gives the comparison's
        answer."""
        value = entropy_bits(row)
        thresholds = [value, value + ENTROPY_SLACK, value - ENTROPY_SLACK]
        for direction in (math.inf, -math.inf):
            near = value
            for _ in range(2):
                near = math.nextafter(near, direction)
                thresholds.append(near)
        for threshold in thresholds:
            assert entropy_reaches(row, threshold) == (entropy_bits(row) >= threshold), threshold

    def test_a_bound_below_the_threshold_skips_the_entropy(self, monkeypatch):
        import latentbandits.belief as belief_module

        calls = []
        monkeypatch.setattr(belief_module, "entropy_bits", lambda probs: calls.append(probs) or 1.0)
        assert not entropy_reaches(np.array([0.9, 0.05, 0.05]), 1.0)
        assert calls == []
        assert entropy_reaches(np.full(3, 1.0 / 3.0), 1.0)
        assert len(calls) == 1

    def test_a_nan_entry_proves_nothing(self):
        row = np.array([0.1, np.nan, 0.9])
        assert entropy_reaches(row, 0.3) == (entropy_bits(row) >= 0.3) is True


class TestGaussianKL:
    def test_identical_is_zero(self):
        assert gaussian_kl(1.3, 0.7, 1.3, 0.7) == 0.0

    def test_unit_variance_mean_shift(self):
        assert gaussian_kl(1.0, 1.0, 0.0, 1.0) == pytest.approx(0.5)

    def test_tight_probe_separation(self):
        # closed form for a 0.2 shift at std 0.05; cross-checked numerically
        value = gaussian_kl(1.7, 0.05, 1.5, 0.05)
        assert value == pytest.approx(8.0, abs=1e-12)
        assert value == pytest.approx(kl_numeric(1.7, 0.05, 1.5, 0.05), abs=1e-6)

    def test_nonnegative_and_matches_integration(self, rng):
        for _ in range(30):
            m1, m2 = rng.normal(0, 2, size=2)
            s1, s2 = rng.uniform(0.1, 2.0, size=2)
            value = gaussian_kl(m1, s1, m2, s2)
            assert value >= 0.0
            assert value == pytest.approx(kl_numeric(m1, s1, m2, s2), abs=1e-6)


# ---------------------------------------------------------------------------
# arm statistics
# ---------------------------------------------------------------------------


class TestPairwiseStats:
    def test_identical_arms_have_zero_divergence(self):
        model = RewardModel(means=np.full((3, 1, 2), 1.5), stds=np.full((3, 1, 2), 0.4))
        for arm in range(3):
            assert mean_pairwise_kl(model, arm) == 0.0

    def test_two_identical_arms(self):
        model = RewardModel(means=[[2.0, 2.0], [2.0, 2.0]], stds=np.ones((2, 2)))
        assert mean_pairwise_kl(model, 0) == 0.0

    def test_two_arm_gap_literal(self):
        # two arms, means 2 and 1: gap(arm0) = (2 - 1) / 2
        model = RewardModel(means=[[2.0, 2.0], [1.0, 1.0]], stds=np.ones((2, 2)))
        assert mean_pairwise_gap(model, 0) == pytest.approx(0.5)
        assert mean_pairwise_gap(model, 1) == pytest.approx(-0.5)

    def test_all_equal_means_zero_gap(self):
        model = RewardModel(means=np.full((4, 1, 3), 2.0), stds=np.full((4, 1, 3), 0.3))
        for arm in range(4):
            assert mean_pairwise_gap(model, arm) == 0.0

    @pytest.mark.parametrize("fixture", ["two_state", "five_state_raw", "five_state"])
    def test_matches_brute_force_oracle(self, fixture, request):
        model = request.getfixturevalue(fixture)
        for arm in range(model.num_arms):
            assert mean_pairwise_kl(model, arm) == pytest.approx(
                mean_kl_oracle(model, arm), abs=1e-12
            )
            assert mean_pairwise_gap(model, arm) == pytest.approx(
                mean_gap_oracle(model, arm), abs=1e-12
            )

    def test_random_models_match_oracle(self, rng):
        for _ in range(20):
            model = random_model(rng)
            for arm in range(model.num_arms):
                assert mean_pairwise_kl(model, arm) == pytest.approx(
                    mean_kl_oracle(model, arm), abs=1e-12
                )
        # AGEmTS's call shape: an offered slate of a larger catalogue
        for _ in range(20):
            model = random_model(rng, num_arms=30, num_states=5)
            offered = np.sort(rng.choice(30, size=10, replace=False))
            for arm in offered:
                assert mean_pairwise_kl(model, arm, offered) == pytest.approx(
                    mean_kl_oracle(model, arm, offered), abs=1e-12
                )
                assert mean_pairwise_gap(model, arm, offered) == pytest.approx(
                    mean_gap_oracle(model, arm, offered), abs=1e-12
                )

    def test_probe_arm_gap_is_negative(self, five_state_raw):
        assert mean_pairwise_gap(five_state_raw, 4) < 0
        assert mean_pairwise_gap(five_state_raw, 4) == pytest.approx(
            mean_gap_oracle(five_state_raw, 4), abs=1e-12
        )


class TestBestInfoArm:
    def test_two_state_benchmark_picks_probe(self, two_state):
        arm, stats = best_info_arm(two_state)
        assert arm == 2
        assert stats.ratio[2] == max(stats.ratio)

    def test_five_state_benchmark_picks_probe(self, five_state, five_state_raw):
        assert best_info_arm(five_state)[0] == 4
        assert best_info_arm(five_state_raw)[0] == 4

    def test_brute_force_argmax_agrees(self, two_state, five_state_raw, rng):
        for model in (two_state, five_state_raw):
            ratios = []
            for arm in range(model.num_arms):
                kl = mean_kl_oracle(model, arm)
                gap = mean_gap_oracle(model, arm)
                ratios.append(kl / gap**2 if gap != 0 else math.inf)
            assert best_info_arm(model)[0] == int(np.argmax(ratios))
        # offered slates of a larger catalogue, as AGEmTS scores them
        for _ in range(20):
            model = random_model(rng, num_arms=30, num_states=5)
            offered = np.sort(rng.choice(30, size=10, replace=False))
            ratios = [
                mean_kl_oracle(model, arm, offered) / mean_gap_oracle(model, arm, offered) ** 2
                for arm in offered
            ]
            assert best_info_arm(model, offered)[0] == offered[int(np.argmax(ratios))]

    def test_identical_arms_tie_break_low(self):
        model = RewardModel(means=np.full((3, 1, 2), 1.0), stds=np.full((3, 1, 2), 0.5))
        assert best_info_arm(model)[0] == 0

    def test_invariant_under_global_mean_shift(self, rng):
        for _ in range(20):
            model = random_model(rng)
            shifted = RewardModel(means=model.means + 3.7, stds=model.stds)
            assert best_info_arm(model)[0] == best_info_arm(shifted)[0]


class TestSingleStepRegretBound:
    def test_all_equal_is_zero(self):
        model = RewardModel(means=np.full((3, 1, 2), 2.0), stds=np.full((3, 1, 2), 0.5))
        assert single_step_regret_bound(model) == 0.0

    def test_five_state_bound(self, five_state_raw, five_state):
        # widest column spread sits in the confusable high-reward state
        assert single_step_regret_bound(five_state_raw) == pytest.approx(1.2)
        assert single_step_regret_bound(five_state) == pytest.approx(1.2)
        assert single_step_regret_bound(five_state_raw) == pytest.approx(
            regret_bound_oracle(five_state_raw)
        )

    def test_two_state_bound(self, two_state):
        assert single_step_regret_bound(two_state) == pytest.approx(0.6)
        assert single_step_regret_bound(two_state) == pytest.approx(
            regret_bound_oracle(two_state)
        )

    def test_takes_max_over_contexts(self, rng):
        for _ in range(10):
            model = random_model(rng)
            assert single_step_regret_bound(model) == pytest.approx(
                regret_bound_oracle(model), abs=1e-12
            )


class TestExpectedDwellTime:
    def test_switching_chain_dwell(self, switch_kernel):
        belief = BeliefState([1.0, 0.0])
        assert expected_dwell_time(switch_kernel, belief, 10_000) == pytest.approx(200.0)

    def test_half_stay_dwell(self):
        kernel = TransitionKernel([[0.5, 0.5], [0.5, 0.5]])
        assert expected_dwell_time(kernel, BeliefState([0.5, 0.5]), 100) == pytest.approx(2.0)

    def test_identity_hits_horizon_cap(self, identity2):
        assert expected_dwell_time(identity2, BeliefState([0.3, 0.7]), 500) == 500

    def test_monotone_in_stay_probability(self):
        belief = BeliefState([0.4, 0.6])
        previous = 0.0
        for stay in (0.1, 0.5, 0.9, 0.99):
            kernel = TransitionKernel(
                [[stay, 1 - stay], [1 - stay, stay]]
            )
            value = expected_dwell_time(kernel, belief, 10_000)
            assert value >= previous
            previous = value

    def test_monotone_in_each_self_probability_separately(self):
        belief = BeliefState([0.4, 0.6])
        previous = 0.0
        for stay0 in (0.2, 0.6, 0.95):
            kernel = TransitionKernel([[stay0, 1 - stay0], [0.3, 0.7]])
            value = expected_dwell_time(kernel, belief, 10_000)
            assert value >= previous
            previous = value
