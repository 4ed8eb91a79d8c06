"""The per-step path on raw arrays against the validated filter it replaced.

``filter_reference`` keeps the filter, entropy and roll-out as they were
while every step built a ``BeliefState``; the raw path must match them
bit for bit, and the hand-formatted trace line must match ``json.dumps``
byte for byte.
"""

import json
import math

import filter_reference as reference
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latentbandits import BeliefState, DegenerateEvidenceError, RewardModel, TransitionKernel
from latentbandits.belief import (
    entropy,
    entropy_bits,
    filter_step,
    likelihoods_from_log,
    posterior_update,
    reward_log_likelihoods,
    single_step_regret_bound,
)
from latentbandits.harness import _trace_line
from latentbandits.policies import AGEmTS, MTS, reward_estimator

seeds = st.integers(min_value=0, max_value=2**32 - 1)
# log10 of the reward standard deviations: 1e-3 to 1e3
std_exponents = st.floats(min_value=-3.0, max_value=3.0)


def random_kernel(rng, n):
    """Identity, dense or nearly sparse rows, so absorbing and one-way
    transitions occur."""
    kind = rng.integers(3)
    if kind == 0:
        return TransitionKernel.identity(n)
    return TransitionKernel(rng.dirichlet(np.full(n, 1.0 if kind == 1 else 0.1), size=n))


def random_belief(rng, n):
    if rng.random() < 0.25:
        probs = np.zeros(n)
        probs[rng.integers(n)] = 1.0
        return BeliefState(probs)
    return BeliefState(rng.dirichlet(np.full(n, 0.5)))


def random_model(rng, n, exponent):
    arms = int(rng.integers(2, 5))
    stds = 10.0 ** (exponent + rng.uniform(-0.5, 0.5, size=(arms, n)))
    return RewardModel(means=rng.normal(0.0, 2.0, size=(arms, n)), stds=stds)


def random_reward(rng, model):
    arm, state = int(rng.integers(model.num_arms)), int(rng.integers(model.num_states))
    if rng.random() < 0.3:
        # far from every mean: tight arms' evidence underflows
        return arm, float(rng.normal(0.0, 50.0))
    return arm, float(model.means[arm, state] + model.stds[arm, state] * rng.normal())


def reference_step(belief, kernel, liks):
    """(probabilities, degenerate) of the validated filter with the
    policies' propagation fallback."""
    try:
        return reference.posterior_update(belief, kernel, liks).probs, False
    except DegenerateEvidenceError:
        return reference.propagate(belief, kernel).probs, True


class TestFilterStep:
    @given(seeds, std_exponents, st.integers(min_value=2, max_value=6))
    @settings(max_examples=200, deadline=None)
    def test_bit_identical_to_the_validated_filter(self, seed, exponent, n):
        rng = np.random.default_rng(seed)
        model, kernel, belief = random_model(rng, n, exponent), random_kernel(rng, n), random_belief(rng, n)
        arm, reward = random_reward(rng, model)
        liks = likelihoods_from_log(reward_log_likelihoods(model, arm, reward))
        expected, expected_degenerate = reference_step(belief, kernel, liks)
        probs, degenerate = filter_step(belief.probs, kernel.matrix, liks)
        assert degenerate == expected_degenerate
        assert probs.tobytes() == expected.tobytes()
        assert probs.min() >= 0.0 and abs(probs.sum() - 1.0) <= 1e-12
        if degenerate:
            with pytest.raises(DegenerateEvidenceError):
                posterior_update(belief, kernel, liks)
        else:
            assert posterior_update(belief, kernel, liks).probs.tobytes() == expected.tobytes()

    @given(seeds, st.integers(min_value=2, max_value=5))
    @settings(max_examples=200, deadline=None)
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_same_accept_reject_set_on_raw_likelihoods(self, seed, n):
        rng = np.random.default_rng(seed)
        kernel, belief = random_kernel(rng, n), random_belief(rng, n)
        specials = np.array([0.0, -1.0, math.nan, math.inf, 1e-300, 1e300])
        liks = np.where(rng.random(n) < 0.3, rng.choice(specials, size=n), rng.uniform(0.0, 2.0, size=n))
        try:
            expected = reference_step(belief, kernel, liks)
        except ValueError:
            with pytest.raises(ValueError):
                filter_step(belief.probs, kernel.matrix, liks)
            return
        probs, degenerate = filter_step(belief.probs, kernel.matrix, liks)
        assert degenerate == expected[1]
        assert probs.tobytes() == expected[0].tobytes()

    def test_result_off_the_simplex_raises(self):
        # not a stochastic matrix: the propagation fallback leaves the simplex
        with pytest.raises(ValueError, match="simplex"):
            filter_step(np.array([0.5, 0.5]), np.full((2, 2), 1.0), np.zeros(2))
        with pytest.raises(ValueError, match="simplex"):
            filter_step(np.array([0.5, 0.5]), np.array([[1.0, -0.5], [0.0, 1.0]]), np.array([1.0, 0.0]))

    def test_zero_evidence_falls_back_to_propagation(self):
        kernel = np.array([[0.9, 0.1], [0.2, 0.8]])
        probs, degenerate = filter_step(np.array([1.0, 0.0]), kernel, np.array([0.0, 1.0]))
        assert degenerate
        assert probs.tolist() == [0.9, 0.1]

    @given(seeds, st.integers(min_value=2, max_value=6))
    @settings(max_examples=100, deadline=None)
    def test_entropy_bit_identical(self, seed, n):
        belief = random_belief(np.random.default_rng(seed), n)
        assert entropy_bits(belief.probs) == reference.entropy(belief) == entropy(belief)


class TestPolicies:
    @given(seeds, std_exponents, st.integers(min_value=2, max_value=4))
    @settings(max_examples=40, deadline=None)
    def test_belief_policies_filter_as_the_validated_filter(self, seed, exponent, n):
        rng = np.random.default_rng(seed)
        model, kernel, prior = random_model(rng, n, exponent), random_kernel(rng, n), random_belief(rng, n)
        for cls in (MTS, AGEmTS):
            extra = {"horizon": 20} if cls is AGEmTS else {}
            policy = cls(model, kernel, prior.probs, rng=np.random.default_rng(seed), **extra)
            expected, fallbacks = prior, 0
            for _ in range(20):
                arm = policy.step(np.arange(model.num_arms))
                _, reward = random_reward(rng, model)
                policy.observe(reward)
                liks = likelihoods_from_log(reward_log_likelihoods(model, arm, reward))
                probs, degenerate = reference_step(expected, kernel, liks)
                expected, fallbacks = BeliefState(probs), fallbacks + degenerate
                assert isinstance(policy.belief, BeliefState)
                assert policy.belief.probs.tobytes() == expected.probs.tobytes()
            assert policy.degenerate_fallbacks == fallbacks

    def test_tight_evidence_against_a_point_belief_is_counted(self, identity2):
        model = RewardModel(means=[[0.0, 1.0], [1.0, 0.0]], stds=np.full((2, 2), 0.01))
        policy = MTS(model, identity2, [1.0, 0.0], rng=np.random.default_rng(0))
        for _ in range(3):
            arm = policy.step([0, 1])
            # state 1's reward, 100 sigmas from state 0's: the evidence underflows
            policy.observe(model.means[arm, 1])
        assert policy.degenerate_fallbacks == 3
        assert policy.belief.probs.tolist() == [1.0, 0.0]


class TestRewardEstimator:
    @given(seeds, st.floats(min_value=-1.5, max_value=1.0), st.integers(min_value=2, max_value=5))
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_to_the_validated_roll_out(self, seed, exponent, n):
        rng = np.random.default_rng(seed)
        model, kernel, belief = random_model(rng, n, exponent), random_kernel(rng, n), random_belief(rng, n)
        greedy = model.best_arm(belief.argmax())
        info = int((greedy + 1 + rng.integers(model.num_arms - 1)) % model.num_arms)
        args = (belief, model, kernel, greedy, info, single_step_regret_bound(model), 15)
        threshold = float(rng.uniform(0.0, 1.5))
        try:
            expected = reference.reward_estimator(*args, entropy_threshold=threshold)
        except DegenerateEvidenceError:
            with pytest.raises(DegenerateEvidenceError):
                reward_estimator(*args, entropy_threshold=threshold)
            return
        result = reward_estimator(*args, entropy_threshold=threshold)
        assert (result.reward_ig, result.reward_ps, result.horizon_used) == expected

    def test_degenerate_roll_out_steps_are_counted(self):
        # tight arms and a chain that always switches: after the probe the
        # trajectory's belief sits on state 0, where the greedy evidence
        # for the hypothesis (state 1) has underflowed to zero
        model = RewardModel(means=[[2.0, 1.0], [1.0, 2.0]], stds=np.full((2, 2), 0.01))
        flip = TransitionKernel([[0.0, 1.0], [1.0, 0.0]])
        result = reward_estimator(BeliefState([0.5, 0.5]), model, flip, 0, 1, 1.0, 5)
        assert result.degenerate_fallbacks == 1


finite = st.floats(allow_nan=False, allow_infinity=False)
any_float = st.one_of(finite, st.sampled_from([-0.0, 1e-300, 1e300, math.nan, math.inf, -math.inf]))
records = st.fixed_dictionaries(
    {
        "run": st.integers(min_value=0, max_value=10**6),
        "policy": st.one_of(st.sampled_from(["mts", "agemts", 'a"b\\c\n\té☃']), st.text()),
        "t": st.integers(min_value=1, max_value=10**6),
        "context": st.just(0),
        "arm": st.integers(min_value=0, max_value=10**4),
        "reward": any_float,
        "regret": any_float,
        "realized_regret": any_float,
        "info": st.integers(min_value=0, max_value=1),
        "belief": st.one_of(st.none(), st.lists(any_float, max_size=6)),
        "state": st.integers(min_value=0, max_value=100),
    }
)


class TestTraceLine:
    @given(records)
    @settings(max_examples=500, deadline=None)
    def test_byte_equal_to_json_dumps(self, record):
        assert _trace_line(record) == json.dumps(record, sort_keys=True, separators=(",", ":"))

    @pytest.mark.parametrize("value", [-0.0, 1e-300, 1e300, math.nan, math.inf, -math.inf])
    def test_special_floats(self, value):
        record = {"run": 0, "policy": "mts", "t": 1, "context": 0, "arm": 2, "reward": value,
                  "regret": value, "realized_regret": value, "info": 0, "belief": [value, 1.0], "state": 1}
        for belief in ([value, 1.0], None):
            record["belief"] = belief
            assert _trace_line(record) == json.dumps(record, sort_keys=True, separators=(",", ":"))
