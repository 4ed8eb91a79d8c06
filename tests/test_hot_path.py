"""The per-step path on raw arrays against the validated filter it replaced.

``filter_reference`` keeps the filter, entropy, likelihood row and
roll-out as they were while every step built a ``BeliefState`` and its
own likelihood row and the roll-out walked one hypothesis at a time; the
belief stack (with one row, as a policy's belief, and with many, as the
roll-out's), the per-run evidence table and the stacked roll-out must
match them bit for bit, the stacked products they rely on must match the
per-row products, mTS's bisected state draw must be numpy's
``searchsorted`` draw, and the column-wise trace and CSV writer must match
``json.dumps`` and the record-at-a-time writer of ``output_reference``
byte for byte.
"""

import json
import math
import os
import tempfile

import filter_reference as reference
import numpy as np
import output_reference
import pytest
from policy_rows import likelihoods
from hypothesis import given, settings
from hypothesis import strategies as st

from latentbandits import BeliefState, DegenerateEvidenceError, RewardModel, TransitionKernel
from latentbandits.belief import (
    BeliefStack,
    entropy,
    entropy_bits,
    likelihoods_from_log,
    posterior_update,
    reward_log_likelihoods,
    single_step_regret_bound,
)
from latentbandits.harness import (
    EnvironmentSpec,
    ExperimentConfig,
    ExperimentResults,
    PolicySpec,
    RunResult,
    _evidence_table,
    _trace_lines,
    emit_outputs,
)
from latentbandits.models import STOCHASTIC_ATOL, _as_prob_vector, _on_simplex
from latentbandits.policies import AGEmTS, MTS, reward_estimator, rollout_info_likelihood, rollout_likelihood_matrix

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


def random_liks(rng, model, rows):
    """One likelihood row per stack row, each of a random reward."""
    return np.stack([likelihoods_from_log(reward_log_likelihoods(model, *random_reward(rng, model)))
                     for _ in range(rows)])


class TestFilterStep:
    @given(seeds, std_exponents, st.integers(min_value=2, max_value=6), st.integers(min_value=1, max_value=12))
    @settings(max_examples=200, deadline=None)
    def test_bit_identical_to_the_validated_filter(self, seed, exponent, n, rows):
        rng = np.random.default_rng(seed)
        model, kernel = random_model(rng, n, exponent), random_kernel(rng, n)
        beliefs = [random_belief(rng, n) for _ in range(rows)]
        liks = random_liks(rng, model, rows)
        expected = [reference_step(belief, kernel, row) for belief, row in zip(beliefs, liks)]
        stack = BeliefStack(np.stack([belief.probs for belief in beliefs]), kernel)
        assert stack.filter(liks[:, None, :]) == sum(degenerate for _, degenerate in expected)
        assert stack.rows.tobytes() == np.stack([probs for probs, _ in expected]).tobytes()
        assert stack.rows.min() >= 0.0 and (np.abs(stack.rows.sum(axis=1) - 1.0) <= 1e-12).all()
        # a policy's belief: one row, its likelihoods shared
        single = BeliefStack(beliefs[0].probs, kernel)
        assert single.filter(liks[0]) == expected[0][1]
        assert single.rows[0].tobytes() == expected[0][0].tobytes()
        for belief, row, (probs, degenerate) in zip(beliefs, liks, expected):
            if degenerate:
                with pytest.raises(DegenerateEvidenceError):
                    posterior_update(belief, kernel, row)
            else:
                assert posterior_update(belief, kernel, row).probs.tobytes() == probs.tobytes()

    @given(seeds, st.integers(min_value=2, max_value=5))
    @settings(max_examples=200, deadline=None)
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_same_accept_reject_set_on_raw_likelihoods(self, seed, n):
        rng = np.random.default_rng(seed)
        model, kernel, belief = random_model(rng, n, 0.0), random_kernel(rng, n), random_belief(rng, n)
        specials = np.array([0.0, -1.0, math.nan, math.inf, 1e-300, 1e300])
        liks = np.where(rng.random(n) < 0.3, rng.choice(specials, size=n), rng.uniform(0.0, 2.0, size=n))
        policy = MTS(model, kernel, belief.probs, rng=np.random.default_rng(seed))
        policy.step(np.arange(model.num_arms), model.best_arms())
        try:
            probs, degenerate = reference_step(belief, kernel, liks)
        except ValueError:
            with pytest.raises(ValueError):
                policy.observe(0.0, liks)
            with pytest.raises(ValueError):
                posterior_update(belief, kernel, liks)
            return
        policy.observe(0.0, liks)
        assert policy.degenerate_fallbacks == degenerate
        assert policy.belief_probs.tobytes() == probs.tobytes()
        if degenerate:
            with pytest.raises(DegenerateEvidenceError):
                posterior_update(belief, kernel, liks)
        else:
            assert posterior_update(belief, kernel, liks).probs.tobytes() == probs.tobytes()

    def test_result_off_the_simplex_raises(self):
        # a matrix that is not a stochastic kernel cannot reach the filter
        with pytest.raises(ValueError, match="simplex"):
            TransitionKernel(np.full((2, 2), 1.0))
        with pytest.raises(ValueError, match="simplex"):
            TransitionKernel(np.array([[1.0, -0.5], [0.0, 1.0]]))
        # a NaN after a state with mass: the minimum skips it, its row's sum does not
        with pytest.raises(ValueError, match="simplex"):
            TransitionKernel(np.array([[1.0, math.nan], [0.0, 1.0]]))
        # a fallback row off the simplex fails the whole stack: a row that
        # entered 9e-13 above a sum of 1, propagated through a kernel whose
        # rows sum 9e-13 above 1, lands 1.8e-12 above it
        kernel = TransitionKernel(np.array([[0.5, 0.5 + 9e-13], [0.5 + 9e-13, 0.5]]))
        stack = BeliefStack(np.array([[0.5, 0.5], [0.5 + 9e-13, 0.5], [0.5, 0.5]]), kernel)
        with pytest.raises(ValueError, match=r"simplex.*row sums \[1\.0000000000018\]"):
            stack.filter(np.array([[[0.0, 1.0]], [[0.0, 0.0]], [[1.0, 0.0]]]))

    def test_rows_need_one_entry_per_kernel_state(self):
        # through the identity no product would catch the mismatch
        for kernel in (TransitionKernel.identity(3), TransitionKernel(np.full((3, 3), 1.0 / 3.0))):
            with pytest.raises(ValueError, match="one entry per kernel state, got 2 for 3"):
                BeliefStack(np.array([[0.5, 0.5], [1.0, 0.0]]), kernel)
            with pytest.raises(ValueError, match="one entry per kernel state"):
                posterior_update(BeliefState([0.5, 0.5]), kernel, [1.0, 1.0])

    def test_near_stochastic_kernel_drifts_off_the_simplex(self, two_state):
        # each kernel row sums to 1 + 9e-13, inside the kernel's tolerance, and
        # the propagation fallback does not renormalise: two zero-evidence
        # steps carry the belief's sum 1.8e-12 from 1, which the message shows
        kernel = TransitionKernel(np.array([[0.5, 0.5 + 9e-13], [0.5 + 9e-13, 0.5]]))
        policy = MTS(two_state, kernel, [0.5, 0.5], rng=np.random.default_rng(0))
        policy.step(np.arange(3), two_state.best_arms())
        policy.observe(2.0, np.zeros(2))
        assert policy.degenerate_fallbacks == 1
        assert policy.belief_probs.tolist() == [0.50000000000045, 0.50000000000045]
        policy.step(np.arange(3), two_state.best_arms())
        with pytest.raises(ValueError, match=r"array\(\[\[0\.5, 0\.5\]\]\), row sums \[1\.0000000000018\]"):
            policy.observe(2.0, np.zeros(2))

    @given(seeds, st.integers(min_value=2, max_value=20), st.integers(min_value=1, max_value=16),
           st.sampled_from(["identity", "dense", "sparse", "near_stochastic"]))
    @settings(max_examples=60, deadline=None)
    def test_normalised_rows_stay_on_the_simplex(self, seed, n, rows, kind):
        # the invariant that lets a stack through a stochastic kernel check
        # only the rows that enter and the fallback rows: from rows on the
        # simplex and non-negative likelihoods, a normalised row lands back
        # on it, over long runs with stretches of all-zero evidence and with
        # likelihoods from 1 down to subnormals
        rng = np.random.default_rng(seed)
        concentration = 0.1 if kind == "sparse" else 1.0
        matrix = np.eye(n) if kind == "identity" else rng.dirichlet(np.full(n, concentration), size=n)
        if kind == "near_stochastic":
            # rows within about 1e-14 of summing to 1: five fallback steps in
            # a row stay well inside the 1e-12 tolerance; entries stay at
            # most 1, so the matrix is still a kernel
            matrix = np.minimum(matrix * (1.0 + rng.uniform(-1e-14, 1e-14, size=(n, 1))), 1.0)
        kernel = TransitionKernel(matrix)
        assert kernel.is_identity == (kind == "identity")
        beliefs = np.stack([random_belief(rng, n).probs for _ in range(rows)])
        for corrupt in (-1e-3, math.nan, 1e-9):
            entered = beliefs.copy()
            entered[rng.integers(rows), rng.integers(n)] += corrupt
            with pytest.raises(ValueError, match="simplex"):
                BeliefStack(entered, kernel)
        stack, zero_steps, fallen = BeliefStack(beliefs, kernel), 0, 0
        for _ in range(400):
            if zero_steps == 0 and rng.random() < 0.05:
                zero_steps = int(rng.integers(1, 6))
            if zero_steps:
                zero_steps -= 1
                liks = np.zeros((rows, 1, n))
            else:
                liks = 10.0 ** rng.uniform(-320.0, 0.0, size=(rows, 1, n)) * (rng.random((rows, 1, n)) < 0.8)
            fallen += stack.filter(liks)
            assert stack.rows.min() >= 0.0 and (np.abs(stack.rows.sum(axis=1) - 1.0) <= 1e-12).all()
        assert fallen > 0

    def test_zero_evidence_falls_back_to_propagation(self):
        kernel = TransitionKernel(np.array([[0.9, 0.1], [0.2, 0.8]]))
        stack = BeliefStack(np.array([1.0, 0.0]), kernel)
        assert stack.filter(np.array([0.0, 1.0])) == 1
        assert stack.rows[0].tolist() == [0.9, 0.1]
        stack = BeliefStack(np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]]), kernel)
        assert stack.filter(np.array([[[0.0, 1.0]], [[1.0, 1.0]], [[1.0, 0.0]]])) == 2
        assert stack.rows[0].tolist() == [0.9, 0.1] and stack.rows[2].tolist() == [0.2, 0.8]

    @given(seeds, st.integers(min_value=2, max_value=6))
    @settings(max_examples=100, deadline=None)
    def test_entropy_bit_identical(self, seed, n):
        belief = random_belief(np.random.default_rng(seed), n)
        assert entropy_bits(belief.probs) == reference.entropy(belief) == entropy(belief)


# row sums at 1 and 1 +- STOCHASTIC_ATOL, and one ulp either side of each
BOUNDARY_SUMS = [total for centre in (1.0, 1.0 + STOCHASTIC_ATOL, 1.0 - STOCHASTIC_ATOL)
                 for total in (np.nextafter(centre, 0.0), centre, np.nextafter(centre, 2.0))]
SPECIAL_ENTRIES = [math.nan, math.inf, -math.inf, -0.0, 5e-324, 2.2250738585072014e-308, -5e-324, -1e-3,
                   np.nextafter(1.0, 2.0), 2.0]


def boundary_rows(rng, rows, n, sums=BOUNDARY_SUMS, special_share=0.3):
    """Rows summing to one of ``sums``, exactly (two dyadic entries among
    zeros) or within rounding (a Dirichlet row with its last entry moved),
    a share of them with one entry replaced by a special value."""
    out = np.zeros((rows, n))
    for row in out:
        total = sums[rng.integers(len(sums))]
        if n == 1:
            row[0] = total
        elif rng.random() < 0.5:
            first, second = rng.choice(n, size=2, replace=False)
            row[first], row[second] = 0.5, total - 0.5
        else:
            row[:] = rng.dirichlet(np.ones(n))
            row[-1] += total - row.sum()
        if rng.random() < special_share:
            row[rng.integers(n)] = SPECIAL_ENTRIES[rng.integers(len(SPECIAL_ENTRIES))]
    return out


def accepts(check, values) -> bool:
    """Whether ``check(values)`` returns; any rejection must be a ValueError."""
    try:
        check(values)
    except ValueError:
        return False
    return True


class TestSimplexRule:
    """The one statement of the simplex rule against the three it replaced."""

    @given(seeds, st.integers(min_value=1, max_value=20), st.integers(min_value=1, max_value=6), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_same_accept_reject_sets_as_the_rules_it_replaced(self, seed, n, rows, square):
        rng = np.random.default_rng(seed)
        # half the stacks near a sum of 1 and rarely special, so that whole
        # stacks and kernels are accepted often enough to compare
        near = rng.random() < 0.5
        stack = boundary_rows(rng, n if square else rows, n, BOUNDARY_SUMS[:3] if near else BOUNDARY_SUMS,
                              0.02 if near else 0.3)
        vector = stack[0]
        expected = accepts(lambda v: reference.as_prob_vector(v, "belief"), vector)
        assert accepts(BeliefState, vector) == accepts(lambda v: _as_prob_vector(v, "prior"), vector) == expected
        assert accepts(lambda v: _on_simplex(v, "belief"), vector) == expected
        expected = accepts(reference.on_simplex, stack)
        assert accepts(lambda v: _on_simplex(v, "belief"), stack) == expected
        assert accepts(lambda v: BeliefStack(v, TransitionKernel.identity(n)), stack) == expected
        if square:
            assert accepts(TransitionKernel, stack) == accepts(reference.transition_matrix, stack)

    def test_edge_cases(self):
        above_one = np.nextafter(1.0, 2.0)
        cases = [np.zeros(0), [-0.0, 1.0], [above_one], [1.0 + 1e-13, -0.0], [5e-324, 1.0]]
        for vector in cases:
            expected = accepts(lambda v: reference.as_prob_vector(v, "belief"), vector)
            assert accepts(BeliefState, vector) == accepts(lambda v: _as_prob_vector(v, "prior"), vector) == expected
        assert [accepts(BeliefState, vector) for vector in cases] == [False, True, True, True, True]
        for rows in (np.zeros((0, 3)), np.zeros((2, 0))):
            assert not accepts(lambda v: BeliefStack(v, TransitionKernel.identity(3)), rows)
            assert not accepts(reference.on_simplex, rows)
        # an entry above 1 in a row that sums to 1 within the tolerance: on
        # the simplex, but not a transition probability
        for matrix in ([[above_one]], [[1.0 + 1e-13, 0.0], [0.0, 1.0]], [[1.0, -0.0], [0.0, 1.0]]):
            assert accepts(TransitionKernel, matrix) == accepts(reference.transition_matrix, matrix)
            assert accepts(lambda v: _on_simplex(np.array(v), "belief"), matrix)
        # a kernel over no states: the kernel's own rule took it, the shared one does not
        assert accepts(reference.transition_matrix, np.zeros((0, 0)))
        assert not accepts(TransitionKernel, np.zeros((0, 0)))

    def test_the_messages_name_the_rule_and_the_rows(self):
        with pytest.raises(ValueError, match=r"prior is off the probability simplex .*sum to 1.*: "
                                             r"array\(\[0\.9, 0\.3\]\), row sums \[1\.2\]"):
            _as_prob_vector([0.9, 0.3], "prior")
        with pytest.raises(ValueError, match=r"(?s)transition matrix is off the probability simplex .*sum to 1.*"
                                             r"row sums \[1\.1, 1\.0\]"):
            TransitionKernel([[0.9, 0.2], [0.5, 0.5]])


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
                arm = policy.step(np.arange(model.num_arms), model.best_arms())
                _, reward = random_reward(rng, model)
                policy.observe(reward, likelihoods(model, arm, reward))
                liks = reference.likelihoods_from_log(reference.reward_log_likelihoods(model, arm, reward))
                probs, degenerate = reference_step(expected, kernel, liks)
                expected, fallbacks = BeliefState(probs), fallbacks + degenerate
                assert isinstance(policy.belief, BeliefState)
                assert policy.belief.probs.tobytes() == expected.probs.tobytes()
            assert policy.degenerate_fallbacks == fallbacks

    def test_tight_evidence_against_a_point_belief_is_counted(self, identity2):
        model = RewardModel(means=[[0.0, 1.0], [1.0, 0.0]], stds=np.full((2, 2), 0.01))
        policy = MTS(model, identity2, [1.0, 0.0], rng=np.random.default_rng(0))
        for _ in range(3):
            arm = policy.step([0, 1], model.best_arms())
            # state 1's reward, 100 sigmas from state 0's: the evidence underflows
            reward = model.means[arm, 1]
            policy.observe(reward, likelihoods(model, arm, reward))
        assert policy.degenerate_fallbacks == 3
        assert policy.belief.probs.tolist() == [1.0, 0.0]


class TestEvidenceTable:
    """Every row of the per-run table against the scalar row the filter
    step built for itself."""

    @staticmethod
    def assert_rows_match_the_scalar_rows(model, slates, states, noise):
        offered = np.broadcast_to(slates, (states.size, slates.shape[1]))
        rewards = model.means[offered, states[:, None]] + model.stds[offered, states[:, None]] * noise[:, None]
        table = _evidence_table(model, offered, rewards)
        assert table.shape == (states.size, slates.shape[1], model.num_states)
        # the harness builds every run's table into buffers an earlier run left dirty
        buffers = np.full((2, *table.shape), np.nan)
        built = _evidence_table(model, offered, rewards, out=buffers)
        assert np.shares_memory(built, buffers[0]) and built.tobytes() == table.tobytes()
        means, stds = model.means.tolist(), model.stds.tolist()
        for t, (state, draw) in enumerate(zip(states.tolist(), noise.tolist())):
            for column, arm in enumerate(slates[t % len(slates)].tolist()):
                # the harness's own reward, in Python floats
                reward = means[arm][state] + stds[arm][state] * draw
                row = reference.likelihoods_from_log(reference.reward_log_likelihoods(model, arm, reward))
                assert table[t, column].tobytes() == row.tobytes()
        return table

    @given(seeds, std_exponents, st.integers(min_value=2, max_value=20), st.integers(min_value=2, max_value=40),
           st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_rows_bit_identical_to_the_scalar_rows(self, seed, exponent, n, arms, slated):
        rng = np.random.default_rng(seed)
        stds = 10.0 ** (exponent + rng.uniform(-0.5, 0.5, size=(arms, n)))
        model = RewardModel(means=rng.normal(0.0, 2.0, size=(arms, n)), stds=stds)
        horizon = int(rng.integers(1, 12))
        if slated:
            size = int(rng.integers(1, arms + 1))
            slates = np.stack([np.sort(rng.choice(arms, size=size, replace=False)) for _ in range(horizon)])
        else:
            slates = np.arange(arms)[None, :]
        states = rng.integers(n, size=horizon)
        # some draws far in the tails, where all but one state underflows
        noise = np.where(rng.random(horizon) < 0.3, rng.normal(0.0, 1e3, size=horizon), rng.normal(size=horizon))
        self.assert_rows_match_the_scalar_rows(model, slates, states, noise)

    @pytest.mark.parametrize("slated", [False, True])
    def test_tail_rewards_leave_one_state(self, slated):
        rng = np.random.default_rng(7)
        model = RewardModel(means=rng.normal(0.0, 2.0, size=(6, 4)), stds=np.full((6, 4), 0.05))
        slates = np.arange(6)[None, :]
        if slated:
            slates = np.stack([np.sort(rng.choice(6, size=3, replace=False)) for _ in range(5)])
        table = self.assert_rows_match_the_scalar_rows(model, slates, rng.integers(4, size=5), np.full(5, 1e4))
        # 1e4 sigmas out: the nearest state keeps likelihood 1, the rest underflow to 0
        assert ((table == 1.0).sum(axis=-1) == 1).all()
        assert ((table == 0.0).sum(axis=-1) == 3).all()


class _FixedDraw:
    """A stand-in generator whose every uniform is ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


class TestStateDraw:
    @given(seeds, st.integers(min_value=2, max_value=20))
    @settings(max_examples=200, deadline=None)
    def test_bisect_draw_is_the_searchsorted_draw(self, seed, n):
        rng = np.random.default_rng(seed)
        probs = rng.dirichlet(np.full(n, 0.5))
        # zero-mass states, the first one included at times
        probs[rng.random(n) < 0.4] = 0.0
        probs[rng.integers(n)] += 1.0
        probs /= probs.sum()
        model = RewardModel(means=np.zeros((2, n)), stds=np.ones((2, n)))
        policy = MTS(model, TransitionKernel.identity(n), probs, rng=np.random.default_rng(seed))
        cdf = np.cumsum(probs)
        # every CDF entry exactly, the float just below each, and a random draw
        for u in [0.0, rng.random(), *cdf.tolist(), *np.nextafter(cdf, 0.0).tolist()]:
            policy.rng = _FixedDraw(u)
            assert policy._sample_state() == min(int(np.searchsorted(cdf, u, side="right")), n - 1)


def rollout_belief(rng, n):
    """A point belief (no hypotheses), a dense one, or one with zero-mass states."""
    kind = rng.integers(3)
    if kind == 0:
        return random_belief(rng, n)
    probs = rng.dirichlet(np.full(n, 0.5))
    if kind == 2:
        probs[rng.random(n) < 0.4] = 0.0
        probs[rng.integers(n)] += 1.0
        probs /= probs.sum()
    return BeliefState(probs)


def without_probe_evidence(rng, model, probs):
    """The model, belief, greedy arm, probe arm and hypothesis of a
    roll-out where that hypothesis gets a probe row without evidence: it
    keeps a subnormal mass, which the probe's density at its own mean
    underflows with, and the probe is tight and far at every other state."""
    n = model.num_states
    anchor = int(np.argmax(probs))
    hypothesis = int(rng.choice([s for s in range(n) if s != anchor]))
    # only the hypothesis's column changes, so the anchor keeps its greedy arm
    greedy = int(model.best_arms()[anchor])
    info = int((greedy + 1 + rng.integers(model.num_arms - 1)) % model.num_arms)
    means, stds = model.means.copy(), model.stds.copy()
    stds[info] = 1e-3
    stds[info, hypothesis] = 1.0
    means[info, hypothesis] = means[info].max() + 100.0
    probs = probs.copy()
    probs[hypothesis] = 0.0
    probs /= probs.sum()
    probs[hypothesis] = 5e-324
    return RewardModel(means=means, stds=stds), BeliefState(probs), greedy, info, hypothesis


class TestRewardEstimator:
    @given(seeds, st.floats(min_value=-1.5, max_value=1.0), st.integers(min_value=2, max_value=8), st.booleans(),
           st.booleans())
    @settings(max_examples=120, deadline=None)
    def test_bit_identical_to_the_validated_roll_out(self, seed, exponent, n, plant, eager):
        rng = np.random.default_rng(seed)
        model, kernel, belief = random_model(rng, n, exponent), random_kernel(rng, n), rollout_belief(rng, n)
        greedy = int(model.best_arms()[belief.argmax()])
        info = int((greedy + 1 + rng.integers(model.num_arms - 1)) % model.num_arms)
        if plant:
            probs = rng.dirichlet(np.full(n, 0.5))
            model, belief, greedy, info, hypothesis = without_probe_evidence(rng, model, probs)
            assert not rollout_info_likelihood(model, info, [hypothesis], belief.probs).any()
        r_u, threshold = single_step_regret_bound(model), float(rng.uniform(0.0, 1.5))
        if eager:
            # a low bar to re-probe: the gate opens in about one roll-out in seven
            r_u, threshold = r_u * float(rng.uniform(0.0, 0.1)), float(rng.uniform(0.0, 0.3))
        args = (belief, model, kernel, greedy, info, r_u, 15)
        # the greedy arms of an offered subset, handed over as a row
        offered = np.sort(rng.choice(model.num_arms, size=int(rng.integers(1, model.num_arms + 1)), replace=False))
        row = model.best_arms(offered).tolist()
        try:
            expected = reference.reward_estimator(*args, offered, entropy_threshold=threshold)
        except DegenerateEvidenceError:
            with pytest.raises(DegenerateEvidenceError):
                reward_estimator(*args, row, entropy_threshold=threshold)
            return
        result = reward_estimator(*args, row, entropy_threshold=threshold)
        got = (result.reward_ig, result.reward_ps, result.horizon_used, result.degenerate_fallbacks)
        assert got == expected
        assert np.array(got[:2]).tobytes() == np.array(expected[:2]).tobytes()

    def test_probe_row_without_evidence_falls_back_on_every_probe_step(self):
        rng = np.random.default_rng(3)
        model = random_model(rng, 3, 0.0)
        base = BeliefState([0.5, 0.3, 0.2])
        model, belief, greedy, info, hypothesis = without_probe_evidence(rng, model, base.probs)
        for h, row in zip([1, 2], rollout_info_likelihood(model, info, [1, 2], belief.probs)):
            assert row.sum() == (0.0 if h == hypothesis else pytest.approx(1.0))
        args = (belief, model, TransitionKernel.identity(3), greedy, info, 0.5, 10)
        result = reward_estimator(*args, model.best_arms(), 1.0)
        expected = reference.reward_estimator(*args, entropy_threshold=1.0)
        assert (result.reward_ig, result.reward_ps, result.horizon_used, result.degenerate_fallbacks) == expected
        assert result.degenerate_fallbacks >= 1

    @given(seeds, st.integers(min_value=2, max_value=8))
    @settings(max_examples=60, deadline=None)
    def test_evidence_rows_equal_the_scalar_rows(self, seed, n):
        rng = np.random.default_rng(seed)
        model, belief = random_model(rng, n, float(rng.uniform(-1.5, 1.0))), rollout_belief(rng, n)
        hypotheses = np.arange(n)
        greedy = model.best_arms()
        info = int(rng.integers(model.num_arms))
        info_rows = rollout_info_likelihood(model, info, hypotheses, belief.probs)
        for h in hypotheses:
            try:
                expected = reference.rollout_info_likelihood(model, info, h, belief)
            except DegenerateEvidenceError:
                expected = np.zeros(n)
            assert info_rows[h].tobytes() == expected.tobytes()
        try:
            greedy_rows = rollout_likelihood_matrix(model, hypotheses, belief.probs, greedy)
        except DegenerateEvidenceError:
            with pytest.raises(DegenerateEvidenceError):
                for h in hypotheses:
                    reference.rollout_likelihood_matrix(model, h, belief, greedy)
            return
        for h in hypotheses:
            assert greedy_rows[h].tobytes() == reference.rollout_likelihood_matrix(model, h, belief, greedy).tobytes()

    def test_degenerate_roll_out_steps_are_counted(self):
        # tight arms and a chain that always switches: after the probe the
        # trajectory's belief sits on state 0, where the greedy evidence
        # for the hypothesis (state 1) has underflowed to zero
        model = RewardModel(means=[[2.0, 1.0], [1.0, 2.0]], stds=np.full((2, 2), 0.01))
        flip = TransitionKernel([[0.0, 1.0], [1.0, 0.0]])
        result = reward_estimator(BeliefState([0.5, 0.5]), model, flip, 0, 1, 1.0, 5, model.best_arms(), 1.0)
        assert result.degenerate_fallbacks == 1


class TestBatchingRecipe:
    """The stacked products the roll-out and PMF training rely on give the
    bits of the per-row products, and cdts's block-drawn normals give
    ``rng.normal``'s values; a numpy or BLAS upgrade that breaks this fails
    here instead of moving results."""

    @given(seeds, st.integers(min_value=2, max_value=20), st.integers(min_value=1, max_value=100))
    @settings(max_examples=150, deadline=None)
    def test_stacked_products_equal_the_per_row_products(self, seed, n, rows):
        rng = np.random.default_rng(seed)
        kernel = random_kernel(rng, n).matrix
        probs = rng.dirichlet(np.full(n, 0.5), size=rows)
        weights = rng.normal(size=n)
        values = rng.normal(size=(rows, n))
        stacked = (probs[:, None, :] @ kernel)[:, 0]
        sums = stacked.sum(axis=1)
        payoff = (probs[:, None, :] @ weights)[:, 0]
        own_payoff = (probs[:, None, :] @ values[:, :, None])[:, 0, 0]
        for r in range(rows):
            assert stacked[r].tobytes() == (probs[r] @ kernel).tobytes()
            assert sums[r] == stacked[r].sum()
            assert payoff[r] == float(probs[r] @ weights)
            assert own_payoff[r] == float(probs[r] @ values[r])

    @given(seeds, st.integers(min_value=1, max_value=32), st.integers(min_value=1, max_value=60),
           st.integers(min_value=0, max_value=160))
    @settings(max_examples=300, deadline=None)
    def test_stacked_dot_equals_the_per_row_dot(self, seed, d, rows, spread):
        # any real rows, as PMF training's levels take the errors of d-vector
        # factor rows: entries spread over 10**-spread to 10**spread, so
        # wide spreads mix in underflow, overflow and inf - inf
        rng = np.random.default_rng(seed)
        a, b = (rng.normal(size=(rows, d)) * 10.0 ** rng.integers(-spread, spread + 1, size=(rows, d))
                for _ in range(2))
        with np.errstate(over="ignore", invalid="ignore"):
            dots = (a[:, None, :] @ b[:, :, None])[:, 0, 0]
            for r in range(rows):
                assert dots[r].tobytes() == (a[r] @ b[r]).tobytes()

    @given(seeds, std_exponents, st.integers(min_value=2, max_value=8), st.integers(min_value=1, max_value=12))
    @settings(max_examples=150, deadline=None)
    def test_belief_stack_filters_as_the_validated_filter(self, seed, exponent, n, rows):
        # every row keeps the bits of the scalar filter and of its own
        # one-row stack, whatever else is stacked
        rng = np.random.default_rng(seed)
        model, kernel = random_model(rng, n, exponent), random_kernel(rng, n)
        beliefs = np.stack([random_belief(rng, n).probs for _ in range(rows)])
        liks = random_liks(rng, model, rows)
        # rows without evidence, as a probe row can be
        liks[rng.random(rows) < 0.2] = 0.0
        stack = BeliefStack(beliefs, kernel)
        fallen = stack.filter(liks[:, None, :])
        expected = [reference_step(BeliefState(beliefs[r]), kernel, liks[r]) for r in range(rows)]
        assert fallen == sum(degenerate for _, degenerate in expected)
        assert stack.rows.tobytes() == np.stack([probs for probs, _ in expected]).tobytes()
        for r in range(rows):
            single = BeliefStack(beliefs[r], kernel)
            assert single.filter(liks[r]) == expected[r][1]
            assert single.rows.tobytes() == stack.rows[r].tobytes()

    @given(seeds, st.integers(min_value=2, max_value=20), st.integers(min_value=1, max_value=30))
    @settings(max_examples=150, deadline=None)
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_identity_step_is_the_gemv(self, seed, n, rows):
        # through the identity the stack adds 0.0 to the weighted rows in
        # place of the gemv: the same bits on every finite row, zeros, -0.0
        # and subnormals included, as the gemv's +0.0 terms turn -0.0 into
        # +0.0 and adding 0.0 does too
        rng = np.random.default_rng(seed)
        specials = np.array([0.0, -0.0, 5e-324, 1e-310, 2.2250738585072014e-308, 1e-300, 1.0])
        pick = rng.random((rows, n)) < 0.5
        weighted = np.where(pick, rng.choice(specials, size=(rows, n)), rng.uniform(0.0, 2.0, size=(rows, n)))
        weighted[rng.random(rows) < 0.2] = -0.0
        assert (weighted + 0.0).tobytes() == (weighted[:, None, :] @ np.eye(n))[:, 0].tobytes()
        # the whole step against the validated filter's gemv, fallback rows
        # (no mass, an infinity or a NaN) and -0.0 belief entries included
        beliefs = np.stack([random_belief(rng, n).probs for _ in range(rows)])
        beliefs[beliefs == 0.0] = -0.0
        liks = np.where(pick, rng.choice(np.append(specials, [math.inf, math.nan]), size=(rows, n)),
                        rng.uniform(0.0, 2.0, size=(rows, n)))
        liks[rng.random(rows) < 0.2] = 0.0
        kernel = TransitionKernel.identity(n)
        stack = BeliefStack(beliefs, kernel)
        fallen = stack.filter(liks[:, None, :])
        expected = [reference_step(BeliefState(beliefs[r]), kernel, liks[r]) for r in range(rows)]
        assert fallen == sum(degenerate for _, degenerate in expected)
        assert stack.rows.tobytes() == np.stack([probs for probs, _ in expected]).tobytes()

    @given(seeds, st.integers(min_value=2, max_value=20), st.integers(min_value=1, max_value=64))
    @settings(max_examples=150, deadline=None)
    def test_block_drawn_normals_give_the_normal_draws(self, seed, n, block):
        # cdts draws loc + scale * z from standard normals drawn a block at
        # a time; rng.normal(locs, scales) draws the same z in the same order
        rng = np.random.default_rng(seed)
        rows = int(rng.integers(1, 30))
        locs = rng.normal(size=(rows, n)) * 10.0 ** rng.integers(-3, 4, size=(rows, n))
        scales = rng.uniform(0.0, 5.0, size=(rows, n))
        draws, blocks = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
        normals = []
        for loc, scale in zip(locs, scales):
            expected = draws.normal(loc, scale)
            while len(normals) < n:
                normals += blocks.standard_normal(block).tolist()
            got = [mu + sigma * z for mu, sigma, z in zip(loc.tolist(), scale.tolist(), normals[:n])]
            del normals[:n]
            assert np.array(got).tobytes() == expected.tobytes()


finite = st.floats(allow_nan=False, allow_infinity=False)
# NaNs of either sign and any payload
nans = st.builds(lambda sign, payload: float(np.uint64(sign << 63 | 0x7FF << 52 | payload).view(np.float64)),
                 st.integers(min_value=0, max_value=1), st.integers(min_value=1, max_value=2**52 - 1))
any_float = st.one_of(finite, nans, st.sampled_from([-0.0, 0.0, 1e-300, 1e300, math.nan, math.inf, -math.inf]))
policy_names = st.one_of(st.sampled_from(["mts", "agemts", 'a"b\\c\n\té☃']), st.text())


@st.composite
def recorded_runs(draw):
    """A run's recorded columns as ``run_experiment`` hands them to
    ``_trace_lines``.  Floats come partly from a small pool, so values
    repeat within and across policies as in real runs; a policy's beliefs
    are all None, all of one size up to 20, or each step None or any size."""
    pool = draw(st.lists(any_float, min_size=1, max_size=6))
    cell = st.one_of(any_float, st.sampled_from(pool))
    horizon = draw(st.integers(min_value=1, max_value=8))

    def column(element):
        return draw(st.lists(element, min_size=horizon, max_size=horizon))

    states = column(st.integers(min_value=0, max_value=100))
    columns = []
    for name in draw(st.lists(policy_names, min_size=1, max_size=4)):
        size = draw(st.sampled_from(["none", "mixed", *range(21)]))
        if size == "none":
            belief = st.none()
        elif size == "mixed":
            belief = st.one_of(st.none(), st.lists(cell, max_size=20).map(np.array))
        else:
            belief = st.lists(cell, min_size=size, max_size=size).map(np.array)
        columns.append((name, column(st.integers(min_value=0, max_value=10**4)), column(cell),
                        np.array(column(cell)), np.array(column(cell)),
                        np.array(column(st.integers(min_value=0, max_value=1))), column(belief)))
    return draw(st.integers(min_value=0, max_value=10**6)), states, columns


def trace_records(run_index, states, columns):
    """The records the harness formatted one at a time, in file order."""
    for name, arms, rewards, regret, realized, flags, beliefs in columns:
        for t, state in enumerate(states):
            belief = beliefs[t]
            yield {"run": run_index, "policy": name, "t": t + 1, "context": 0, "arm": arms[t], "reward": rewards[t],
                   "regret": float(regret[t]), "realized_regret": float(realized[t]), "info": int(flags[t]),
                   "belief": None if belief is None else belief.tolist(), "state": state}


class TestTraceLine:
    """The column-wise trace writer against ``json.dumps`` and the
    record-at-a-time writer it replaced, on whole runs."""

    @staticmethod
    def assert_byte_equal(run_index, states, columns):
        lines = [line for policy_lines in _trace_lines(run_index, states, columns) for line in policy_lines]
        records = list(trace_records(run_index, states, columns))
        assert lines == [json.dumps(record, sort_keys=True, separators=(",", ":")) for record in records]
        assert lines == list(map(output_reference.trace_line, records))

    @given(recorded_runs())
    @settings(max_examples=200, deadline=None)
    def test_byte_equal_to_json_dumps(self, run):
        self.assert_byte_equal(*run)

    @pytest.mark.parametrize("value", [-0.0, 1e-300, 1e300, math.nan, math.inf, -math.inf])
    def test_special_floats(self, value):
        values = np.array([value, 0.0, -0.0, value])
        beliefs = [np.array([value, 1.0]), np.array([1.0, value]), np.array([value] * 20), np.array([])]
        columns = [(name, [2, 0, 1, 2], values.tolist(), values, values[::-1].copy(), np.array([0, 1, 0, 0]), belief)
                   for name, belief in (("mts", beliefs), ('a"b\\c', [None] * 4))]
        self.assert_byte_equal(3, [1, 0, 1, 1], columns)


cells = st.one_of(any_float, st.sampled_from([0.0, 1.5, math.nan]))
csv_names = st.one_of(st.sampled_from(["mts", "a,b", 'a"b', "a\nb", " c "]),
                      st.text(alphabet=st.characters(blacklist_categories=("Cs",))))


@st.composite
def experiment_results(draw):
    """Results of 1 to 3 runs of up to 4 policies with any cumulative
    regret; a 1-run experiment's three bands are the one curve."""
    names = draw(st.lists(csv_names, min_size=1, max_size=4, unique=True))
    horizon, num_runs = draw(st.integers(min_value=1, max_value=8)), draw(st.integers(min_value=1, max_value=3))
    config = ExperimentConfig(EnvironmentSpec(model={"preset": "two_state"}, kernel={"identity": True}),
                              tuple(map(PolicySpec, names)), horizon=horizon, num_runs=num_runs)
    runs = [RunResult(run_index=r, states=np.zeros(horizon, dtype=int), cum_realized_regret={}, info_flags={},
                      final_beliefs={}, wall_clock_seconds=0.0,
                      cum_regret={name: np.array(draw(st.lists(cells, min_size=horizon, max_size=horizon)))
                                  for name in names})
            for r in range(num_runs)]
    return ExperimentResults(config, runs)


class TestCsvCells:
    @given(experiment_results())
    @settings(max_examples=300, deadline=None)
    def test_byte_equal_to_the_cell_loop(self, results):
        with tempfile.TemporaryDirectory() as work_dir, np.errstate(all="ignore"):
            written = emit_outputs(results, os.path.join(work_dir, "new"))
            os.makedirs(os.path.join(work_dir, "old"))
            expected = output_reference.emit_outputs(results, os.path.join(work_dir, "old"))
            for key, path in expected.items():
                with open(path, "rb") as want, open(written[key], "rb") as got:
                    assert got.read() == want.read(), key
