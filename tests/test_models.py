import json

import numpy as np
import pytest

from latentbandits import (
    BeliefState,
    InfoArmStats,
    RewardModel,
    TransitionKernel,
    load_model_json,
    save_model_json,
)


class TestRewardModel:
    def test_two_dim_shorthand_gets_context_axis(self):
        model = RewardModel(means=[[1.0, 2.0], [2.0, 1.0]], stds=[[1.0, 1.0], [1.0, 1.0]])
        assert model.means.shape == (2, 2)
        assert model.num_states == 2

    def test_one_context_table_loads_as_arm_by_state(self):
        model = RewardModel(means=[[[1.0, 2.0]], [[2.0, 1.0]]], stds=np.ones((2, 1, 2)))
        np.testing.assert_array_equal(model.means, [[1.0, 2.0], [2.0, 1.0]])

    def test_rejects_more_than_one_context(self):
        with pytest.raises(ValueError, match="one context"):
            RewardModel(means=np.ones((2, 2, 2)), stds=np.ones((2, 2, 2)))

    def test_rejects_nonpositive_std(self):
        with pytest.raises(ValueError, match="positive"):
            RewardModel(means=[[1.0, 2.0], [2.0, 1.0]], stds=[[1.0, 0.0], [1.0, 1.0]])

    def test_rejects_nonfinite_mean(self):
        with pytest.raises(ValueError):
            RewardModel(means=[[np.inf, 2.0], [2.0, 1.0]], stds=[[1.0, 1.0], [1.0, 1.0]])

    @pytest.mark.parametrize("means", [[[1.0, 2.0]], [[1.0], [2.0]]])
    def test_rejects_degenerate_sizes(self, means):
        stds = np.ones_like(np.asarray(means, dtype=float))
        with pytest.raises(ValueError):
            RewardModel(means=means, stds=stds)

    def test_best_arm_restricts_to_offered(self, five_state):
        full = five_state.best_arm(1)
        restricted = five_state.best_arm(1, arms=[2, 4])
        assert full == 0
        assert restricted == 2

    def test_immutable(self, two_state):
        with pytest.raises(ValueError):
            two_state.means[0, 0] = 99.0


class TestTransitionKernel:
    def test_row_sums_enforced(self):
        with pytest.raises(ValueError, match="sum to 1"):
            TransitionKernel([[0.9, 0.2], [0.5, 0.5]])

    def test_entries_in_unit_interval(self):
        with pytest.raises(ValueError):
            TransitionKernel([[1.5, -0.5], [0.0, 1.0]])

    def test_identity_is_valid_stationary_encoding(self):
        kernel = TransitionKernel.identity(3)
        assert np.array_equal(kernel.matrix, np.eye(3))

    def test_copies_the_callers_matrix(self):
        matrix = np.array([[0.9, 0.1], [0.2, 0.8]])
        kernel = TransitionKernel(matrix)
        matrix[0] = [0.5, 0.5]
        assert kernel.matrix.tolist() == [[0.9, 0.1], [0.2, 0.8]]
        with pytest.raises(ValueError):
            kernel.matrix[0, 0] = 0.5


class TestBeliefState:
    def test_must_sum_to_one(self):
        with pytest.raises(ValueError):
            BeliefState([0.5, 0.4])

    def test_no_negative_mass(self):
        with pytest.raises(ValueError):
            BeliefState([1.2, -0.2])

    def test_argmax_tie_breaks_low(self):
        assert BeliefState([0.5, 0.5]).argmax() == 0

    def test_copies_the_callers_array(self):
        probs = np.array([0.5, 0.5])
        belief = BeliefState(probs)
        probs[0] = 0.9
        assert belief.probs.tolist() == [0.5, 0.5]
        with pytest.raises(ValueError):
            belief.probs[0] = 0.9


class TestInfoArmStats:
    def test_ratio_definition(self):
        stats = InfoArmStats(arms=[0, 1], mean_kl=[2.0, 1.0], mean_gap=[0.5, -0.5])
        assert stats.ratio[0] == pytest.approx(8.0)
        assert stats.ratio[1] == pytest.approx(4.0)

    def test_zero_gap_with_information_is_infinite(self):
        stats = InfoArmStats(arms=[0, 1], mean_kl=[1.0, 0.0], mean_gap=[0.0, 0.0])
        assert stats.ratio[0] == np.inf
        assert stats.ratio[1] == -np.inf


def test_model_json_round_trip(tmp_path, two_state, switch_kernel):
    path = tmp_path / "model.json"
    save_model_json(path, two_state, switch_kernel)
    model, kernel = load_model_json(path)
    np.testing.assert_array_equal(model.means, two_state.means)
    np.testing.assert_array_equal(model.stds, two_state.stds)
    np.testing.assert_array_equal(kernel.matrix, switch_kernel.matrix)
    doc = json.loads(path.read_text())
    assert set(doc) == {"means", "stds", "transition", "num_contexts"}
    assert doc["num_contexts"] == 1
    assert np.asarray(doc["means"]).shape == (3, 1, 2)


def test_model_json_writes_features(tmp_path, two_state):
    path = tmp_path / "model.json"
    features = np.arange(6.0).reshape(3, 2)
    save_model_json(path, two_state, features=features)
    doc = json.loads(path.read_text())
    assert doc["features"] == features.tolist()
    model, kernel = load_model_json(path)
    np.testing.assert_array_equal(model.means, two_state.means)
    assert kernel is None
