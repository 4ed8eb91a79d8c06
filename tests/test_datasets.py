import numpy as np
import pmf_reference
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from latentbandits.datasets import (
    FactorModel,
    RatingsTable,
    SuperUser,
    _lloyd,
    build_reward_model,
    ingest_ratings,
    kmeans_users,
    pmf_train,
    sample_super_user,
)


def write_ratings(path, triples, delimiter=",", header=None):
    lines = []
    if header:
        lines.append(header)
    for user, item, rating in triples:
        lines.append(delimiter.join([str(user), str(item), str(rating)]))
    path.write_text("\n".join(lines) + "\n")


def planted_table(tmp_path, rng, n_users=50, n_items=40, keep=1.0):
    triples = []
    for u in range(n_users):
        for i in range(n_items):
            if rng.random() <= keep:
                triples.append((u, i, round(float(rng.uniform(1, 5)), 3)))
    path = tmp_path / "ratings.csv"
    write_ratings(path, triples)
    return path, triples


class TestIngestRatings:
    def test_no_thresholds_is_identity(self, tmp_path, rng):
        path, triples = planted_table(tmp_path, rng, keep=0.5)
        table = ingest_ratings(path, 0, 0)
        assert len(table) == len(triples)

    def test_threshold_filtering_matches_recount(self, tmp_path, rng):
        # dense 30-user x 25-item core plus sparse periphery on both sides;
        # the thresholds should carve out exactly the core
        triples = [(u, i, 3.0) for u in range(30) for i in range(25)]
        for u in range(30, 50):  # light users: 3 ratings each
            for i in range(3):
                triples.append((u, i, 2.0))
        for i in range(25, 40):  # light items: 4 ratings each
            for u in range(4):
                triples.append((u, i, 4.0))
        path = tmp_path / "structured.csv"
        write_ratings(path, triples)
        table = ingest_ratings(path, 10, 20)
        assert table.num_users == 30
        assert table.num_items == 25
        assert len(table) == 750
        users, user_counts = np.unique(table.users, return_counts=True)
        items, item_counts = np.unique(table.items, return_counts=True)
        assert user_counts.min() >= 10
        assert item_counts.min() >= 20
        assert users.size == table.num_users
        assert items.size == table.num_items

    def test_double_colon_autodetected(self, tmp_path):
        path = tmp_path / "ratings.dat"
        path.write_text("1::10::4.0::978300760\n2::10::3.0::978300761\n1::11::5.0::978300762\n2::11::1.0::3\n")
        table = ingest_ratings(path, 0, 0)
        assert len(table) == 4
        assert table.ratings.tolist() == [4.0, 3.0, 5.0, 1.0]

    def test_header_line_skipped(self, tmp_path):
        path = tmp_path / "ratings.csv"
        path.write_text("user,item,rating\n1,2,3.5\n4,5,2.0\n")
        table = ingest_ratings(path, 0, 0)
        assert len(table) == 2

    def test_unparseable_row_reports_line_number(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2,3.5\n1,2\n")
        with pytest.raises(ValueError, match="line 2"):
            ingest_ratings(path, 0, 0)

    @pytest.mark.parametrize("rating", ["nan", "NaN", "inf", "-inf", "Infinity", "1e999"])
    def test_non_finite_rating_reports_line_number(self, tmp_path, rating):
        path = tmp_path / "bad.csv"
        path.write_text(f"1,2,3.5\n1,3,4.0\n2,2,{rating}\n")
        with pytest.raises(ValueError, match="line 3"):
            ingest_ratings(path, 0, 0)
        # a first line whose user field parses is data, not a header
        path.write_text(f"2,2,{rating}\n1,2,3.5\n1,3,4.0\n")
        with pytest.raises(ValueError, match="line 1"):
            ingest_ratings(path, 0, 0)

    def test_sparse_ids_map_to_sorted_contiguous_indices(self, tmp_path, rng):
        triples = [(int(u), int(i), 3.0) for u, i in zip(rng.choice([7, 3, 90, 12], 30), rng.choice([5, 500, 41], 30))]
        path = tmp_path / "sparse.csv"
        write_ratings(path, triples)
        table = ingest_ratings(path, 0, 0)
        assert table.user_ids == tuple(sorted({u for u, _, _ in triples}))
        assert table.item_ids == tuple(sorted({i for _, i, _ in triples}))
        assert all(type(value) is int for value in table.user_ids + table.item_ids)
        assert table.users.dtype == table.items.dtype == np.dtype(int)
        assert table.users.shape == table.items.shape == table.ratings.shape == (30,)
        assert [table.user_ids[u] for u in table.users] == [u for u, _, _ in triples]
        assert [table.item_ids[i] for i in table.items] == [i for _, i, _ in triples]

    def test_empty_after_filtering_rejected(self, tmp_path, rng):
        path, _ = planted_table(tmp_path, rng, n_users=5, n_items=5)
        with pytest.raises(ValueError, match="survive"):
            ingest_ratings(path, 100, 100)


def planted_factors(rng, n_users, n_items, d, noise=0.0):
    U = rng.normal(0, 0.7, size=(n_users, d))
    V = rng.normal(0, 0.7, size=(n_items, d))
    ratings = U @ V.T
    if noise:
        ratings = ratings + rng.normal(0, noise, size=ratings.shape)
    return U, V, ratings


def table_from_matrix(ratings, keep, rng):
    n_users, n_items = ratings.shape
    mask = rng.random(ratings.shape) <= keep
    users, items = np.nonzero(mask)
    return RatingsTable(
        users=users,
        items=items,
        ratings=ratings[users, items],
        user_ids=tuple(range(n_users)),
        item_ids=tuple(range(n_items)),
    )


class TestPMFTrain:
    def test_recovers_planted_low_rank_matrix(self, rng):
        _, _, ratings = planted_factors(rng, 60, 50, d=4)
        table = table_from_matrix(ratings, keep=0.6, rng=rng)
        model = pmf_train(table, d=4, lambda_u=1e-3, lambda_v=1e-3,
                          learning_rate=0.03, validation_fraction=0.1,
                          epochs=60, seed=0)
        assert model.validation_rmse < 0.05

    def test_zero_learning_rate_never_moves(self, rng):
        _, _, ratings = planted_factors(rng, 20, 15, d=3)
        table = table_from_matrix(ratings, keep=0.8, rng=rng)
        short = pmf_train(table, 3, 1e-3, 1e-3, 0.0, 0.2, 1, seed=4)
        long = pmf_train(table, 3, 1e-3, 1e-3, 0.0, 0.2, 25, seed=4)
        np.testing.assert_array_equal(short.U, long.U)
        np.testing.assert_array_equal(short.V, long.V)
        assert len(long.best_rmse_history) == 1  # never improves on the init

    def test_best_rmse_history_non_increasing(self, rng):
        _, _, ratings = planted_factors(rng, 40, 30, d=3, noise=0.1)
        table = table_from_matrix(ratings, keep=0.7, rng=rng)
        model = pmf_train(table, 3, 1e-3, 1e-3, 0.02, 0.1, 30, seed=1)
        history = np.array(model.best_rmse_history)
        assert np.all(np.diff(history) <= 0)

    def test_conservative_hyperparameters_stay_finite(self, rng):
        # small dense table, tiny learning rate: slow but never divergent
        _, _, ratings = planted_factors(rng, 40, 40, d=10, noise=0.05)
        table = table_from_matrix(ratings, keep=1.0, rng=rng)
        model = pmf_train(table, 10, 1e-3, 1e-3, 2e-4, 0.1, 5, seed=2)
        assert np.isfinite(model.validation_rmse)

    def test_seed_determinism(self, rng):
        _, _, ratings = planted_factors(rng, 25, 20, d=3)
        table = table_from_matrix(ratings, keep=0.9, rng=rng)
        a = pmf_train(table, 3, 1e-3, 1e-3, 0.02, 0.15, 8, seed=9)
        b = pmf_train(table, 3, 1e-3, 1e-3, 0.02, 0.15, 8, seed=9)
        np.testing.assert_array_equal(a.U, b.U)
        np.testing.assert_array_equal(a.V, b.V)

    def test_divergence_reports_epoch(self, rng):
        _, _, ratings = planted_factors(rng, 30, 25, d=3)
        table = table_from_matrix(ratings, keep=1.0, rng=rng)
        with pytest.raises(FloatingPointError, match="epoch"):
            pmf_train(table, 3, 1e-3, 1e-3, 5.0, 0.1, 50, seed=0)

    def test_overflowing_ratings_diverge_without_a_warning(self, rng):
        # the squared errors overflow from the first RMSE on; the divergence
        # error is the one report (the suite turns library warnings into errors)
        table = table_from_matrix(np.full((4, 3), 1e200), keep=1.0, rng=rng)
        with pytest.raises(FloatingPointError, match="diverged at epoch 1"):
            pmf_train(table, 2, 1e-3, 1e-3, 0.01, 0.25, 5, seed=0)


def assert_same_training(table, *args, seed):
    """``pmf_train`` and the per-rating oracle give the same factors and
    RMSEs bit for bit, or both raise the same divergence error."""
    try:
        expected = pmf_reference.pmf_train(table, *args, seed=seed)
    except FloatingPointError as exc:
        with pytest.raises(FloatingPointError) as raised:
            pmf_train(table, *args, seed=seed)
        assert str(raised.value) == str(exc)
        return None
    model = pmf_train(table, *args, seed=seed)
    assert model.U.tobytes() == expected.U.tobytes()
    assert model.V.tobytes() == expected.V.tobytes()
    assert np.float64(model.validation_rmse).tobytes() == np.float64(expected.validation_rmse).tobytes()
    assert np.array(model.best_rmse_history).tobytes() == np.array(expected.best_rmse_history).tobytes()
    return model


@st.composite
def ratings_tables(draw):
    """Small tables with repeated (user, item) pairs, users and items
    without ratings, and optionally one user and one item that have a
    single rating each."""
    n_users, n_items = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    pairs = draw(st.lists(st.tuples(st.integers(0, n_users - 1), st.integers(0, n_items - 1)),
                          min_size=1, max_size=80))
    pairs += draw(st.lists(st.sampled_from(pairs), max_size=10))
    if draw(st.booleans()):
        pairs.append((n_users, n_items))
        n_users, n_items = n_users + 1, n_items + 1
    users, items = (np.array(column) for column in zip(*pairs))
    ratings = np.array(draw(st.lists(st.floats(-5, 5), min_size=len(pairs), max_size=len(pairs))))
    return RatingsTable(users=users, items=items, ratings=ratings,
                        user_ids=tuple(range(n_users)), item_ids=tuple(range(n_items)))


class TestPMFSchedule:
    """The level schedule against the per-rating loop of ``pmf_reference``."""

    @given(ratings_tables(), st.integers(1, 32), st.sampled_from([0.0, 1e-3, 0.1]),
           st.sampled_from([0.0, 1e-3, 0.1]), st.sampled_from([0.0, 0.01, 0.05, 0.3, 3.0, 50.0]),
           st.sampled_from([0.1, 0.3, 0.5]), st.integers(1, 6), st.integers(0, 2**32 - 1))
    @example(table=RatingsTable(users=np.array([0, 0, 1, 1, 2]), items=np.array([0, 0, 1, 0, 2]),
                          ratings=np.array([1.0, 2.0, 3.0, 4.0, 5.0]), user_ids=(0, 1, 2), item_ids=(0, 1, 2)),
             d=1, lambda_u=0.0, lambda_v=0.0, learning_rate=0.05, validation_fraction=0.3, epochs=4, seed=0)
    @example(table=RatingsTable(users=np.array([0, 1, 1, 2]), items=np.array([1, 0, 1, 1]),
                                ratings=np.array([1.0, 2.0, 3.0, 4.0]), user_ids=(0, 1, 2), item_ids=(0, 1)),
             d=3, lambda_u=1e-3, lambda_v=0.1, learning_rate=0.0, validation_fraction=0.3, epochs=3, seed=1)
    @settings(max_examples=150, deadline=None)
    def test_bit_identical_to_per_rating_loop(self, table, d, lambda_u, lambda_v, learning_rate,
                                              validation_fraction, epochs, seed):
        assume(max(1, round(validation_fraction * len(table))) < len(table))
        assert_same_training(table, d, lambda_u, lambda_v, learning_rate, validation_fraction, epochs, seed=seed)

    @pytest.mark.parametrize("d", [1, 10, 32])
    def test_dense_table_bit_identical(self, rng, d):
        _, _, ratings = planted_factors(rng, 40, 30, d=4, noise=0.1)
        table = table_from_matrix(ratings, keep=0.7, rng=rng)
        model = assert_same_training(table, d, 1e-3, 1e-3, 0.02, 0.1, 8, seed=d)
        assert len(model.best_rmse_history) > 1

    @pytest.mark.parametrize("learning_rate, epoch", [(0.203, 4), (0.204, 3), (0.21, 2), (5.0, 1)])
    def test_divergence_names_the_oracle_epoch(self, rng, learning_rate, epoch):
        _, _, ratings = planted_factors(rng, 30, 25, d=3)
        table = table_from_matrix(ratings, keep=1.0, rng=rng)
        with pytest.raises(FloatingPointError, match=f"epoch {epoch}$"):
            pmf_reference.pmf_train(table, 3, 1e-3, 1e-3, learning_rate, 0.1, 50, seed=0)
        assert_same_training(table, 3, 1e-3, 1e-3, learning_rate, 0.1, 50, seed=0)


def blob_factors(rng, k=5, per_cluster=30, d=6, spread=0.05):
    centers = rng.normal(0, 4, size=(k, d))
    points = np.vstack([
        centers[c] + rng.normal(0, spread, size=(per_cluster, d)) for c in range(k)
    ])
    labels = np.repeat(np.arange(k), per_cluster)
    return FactorModel(U=points, V=rng.normal(size=(10, d)), d=d), labels


class TestKMeans:
    def test_recovers_planted_blobs(self, rng):
        model, truth = blob_factors(rng)
        labels = kmeans_users(model, 5, seed=3)
        # same partition up to label names
        for cluster in range(5):
            members = truth == cluster
            assert len(set(labels[members].tolist())) == 1
        assert len(set(labels.tolist())) == 5

    def test_single_cluster_centroid_is_mean(self, rng):
        model, _ = blob_factors(rng, k=2, per_cluster=10)
        labels = kmeans_users(model, 1, seed=0)
        assert set(labels.tolist()) == {0}

    def test_one_cluster_per_user(self, rng):
        model, _ = blob_factors(rng, k=2, per_cluster=3)
        labels = kmeans_users(model, model.U.shape[0], seed=0)
        assert len(set(labels.tolist())) == model.U.shape[0]

    def test_objective_non_increasing(self, rng):
        model = FactorModel(U=rng.normal(size=(120, 5)), V=rng.normal(size=(10, 5)), d=5)
        # kmeans_users(model, 6, seed=1)'s Lloyd run, with its objective per iteration
        _, _, history = _lloyd(model.U, 6, np.random.default_rng(1))
        assert np.all(np.diff(np.array(history)) <= 1e-9)

    def test_too_many_clusters_rejected(self, rng):
        model, _ = blob_factors(rng, k=2, per_cluster=2)
        with pytest.raises(ValueError):
            kmeans_users(model, 10, seed=0)


class TestSuperUser:
    def test_plain_draw_one_per_cluster(self, rng):
        model, labels = blob_factors(rng)
        chosen = sample_super_user(model, labels, pairing=[], seed=5)
        assert len(chosen.users) == 5
        for state, user in enumerate(chosen.users):
            assert labels[user] == state

    def test_mirror_clusters_pair_at_distance_zero(self, rng):
        base = rng.normal(0, 1, size=(20, 4))
        U = np.vstack([base, base])  # cluster 1 copies cluster 0
        labels = np.array([0] * 20 + [1] * 20)
        model = FactorModel(U=U, V=rng.normal(size=(5, 4)), d=4)
        chosen = sample_super_user(model, labels, pairing=[(0, 1)], seed=8)
        anchor, paired = chosen.users[0], chosen.users[1]
        assert np.allclose(U[anchor], U[paired])

    def test_seeded_replay(self, rng):
        model, labels = blob_factors(rng)
        a = sample_super_user(model, labels, pairing=[(0, 1)], seed=11)
        b = sample_super_user(model, labels, pairing=[(0, 1)], seed=11)
        assert a == b

    def test_members_distinct(self):
        with pytest.raises(ValueError):
            SuperUser(users=(1, 1, 2))


class TestBuildRewardModel:
    def setup_method(self):
        rng = np.random.default_rng(0)
        self.factors = FactorModel(
            U=rng.normal(0, 0.8, size=(30, 6)), V=rng.normal(0, 0.8, size=(50, 6)), d=6
        )
        self.super_user = SuperUser(users=(0, 7, 12, 21, 29))

    def test_fixed_mode_constant_sigma(self):
        model = build_reward_model(self.factors, self.super_user, np.arange(50))
        assert np.all(model.stds == 0.25)
        assert model.num_arms == 50 and model.num_states == 5

    def test_means_are_inner_products(self):
        catalog = np.arange(0, 50, 3)
        model = build_reward_model(self.factors, self.super_user, catalog)
        for a, item in enumerate(catalog):
            for s, user in enumerate(self.super_user.users):
                expected = float(np.dot(self.factors.U[user], self.factors.V[item]))
                assert model.means[a, s] == pytest.approx(expected, abs=1e-12)

    def test_three_nn_degenerate_neighborhood_clamped(self, rng):
        V = np.zeros((6, 3))
        V[:4] = 1.0  # four identical items: neighbors predict identical ratings
        V[4:] = rng.normal(5, 1, size=(2, 3))
        factors = FactorModel(U=rng.normal(size=(4, 3)), V=V, d=3)
        chosen = SuperUser(users=(0, 1))
        model = build_reward_model(factors, chosen, np.arange(6), variance_mode="three_nn")
        assert model.stds[0, 0] == pytest.approx(0.01)

    def test_sampled_normal_reproducible_and_centered(self):
        rng = np.random.default_rng(10)
        factors = FactorModel(
            U=rng.normal(size=(5, 2)), V=rng.normal(size=(10_000, 2)), d=2
        )
        chosen = SuperUser(users=(0, 1, 2, 3, 4))
        a = build_reward_model(factors, chosen, np.arange(10_000),
                               variance_mode="sampled_normal", seed=6)
        b = build_reward_model(factors, chosen, np.arange(10_000),
                               variance_mode="sampled_normal", seed=6)
        np.testing.assert_array_equal(a.stds, b.stds)
        sigmas = a.stds[:, 0]
        # truncation at 0 barely moves the mean of N(2, 0.8)
        assert abs(sigmas.mean() - 2.0) <= 3 * 0.8 / np.sqrt(10_000) + 0.01

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            build_reward_model(self.factors, self.super_user, np.arange(5),
                               variance_mode="bogus")

    def test_empty_catalog_rejected(self):
        with pytest.raises(ValueError):
            build_reward_model(self.factors, self.super_user, [])
