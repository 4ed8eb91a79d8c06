import numpy as np
import pytest

from latentbandits.datasets import (
    FactorModel,
    SuperUser,
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


class TestPMFTrain:
    def table_from_matrix(self, ratings, keep, rng):
        from latentbandits.datasets import RatingsTable

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

    def test_recovers_planted_low_rank_matrix(self, rng):
        _, _, ratings = planted_factors(rng, 60, 50, d=4)
        table = self.table_from_matrix(ratings, keep=0.6, rng=rng)
        model = pmf_train(table, d=4, lambda_u=1e-3, lambda_v=1e-3,
                          learning_rate=0.03, validation_fraction=0.1,
                          epochs=60, seed=0)
        assert model.validation_rmse < 0.05

    def test_zero_learning_rate_never_moves(self, rng):
        _, _, ratings = planted_factors(rng, 20, 15, d=3)
        table = self.table_from_matrix(ratings, keep=0.8, rng=rng)
        short = pmf_train(table, 3, 1e-3, 1e-3, 0.0, 0.2, 1, seed=4)
        long = pmf_train(table, 3, 1e-3, 1e-3, 0.0, 0.2, 25, seed=4)
        np.testing.assert_array_equal(short.U, long.U)
        np.testing.assert_array_equal(short.V, long.V)
        assert len(long.best_rmse_history) == 1  # never improves on the init

    def test_best_rmse_history_non_increasing(self, rng):
        _, _, ratings = planted_factors(rng, 40, 30, d=3, noise=0.1)
        table = self.table_from_matrix(ratings, keep=0.7, rng=rng)
        model = pmf_train(table, 3, 1e-3, 1e-3, 0.02, 0.1, 30, seed=1)
        history = np.array(model.best_rmse_history)
        assert np.all(np.diff(history) <= 0)

    def test_conservative_hyperparameters_stay_finite(self, rng):
        # small dense table, tiny learning rate: slow but never divergent
        _, _, ratings = planted_factors(rng, 40, 40, d=10, noise=0.05)
        table = self.table_from_matrix(ratings, keep=1.0, rng=rng)
        model = pmf_train(table, 10, 1e-3, 1e-3, 2e-4, 0.1, 5, seed=2)
        assert np.isfinite(model.validation_rmse)

    def test_seed_determinism(self, rng):
        _, _, ratings = planted_factors(rng, 25, 20, d=3)
        table = self.table_from_matrix(ratings, keep=0.9, rng=rng)
        a = pmf_train(table, 3, 1e-3, 1e-3, 0.02, 0.15, 8, seed=9)
        b = pmf_train(table, 3, 1e-3, 1e-3, 0.02, 0.15, 8, seed=9)
        np.testing.assert_array_equal(a.U, b.U)
        np.testing.assert_array_equal(a.V, b.V)

    def test_divergence_reports_epoch(self, rng):
        _, _, ratings = planted_factors(rng, 30, 25, d=3)
        table = self.table_from_matrix(ratings, keep=1.0, rng=rng)
        with pytest.raises(FloatingPointError, match="epoch"):
            pmf_train(table, 3, 1e-3, 1e-3, 5.0, 0.1, 50, seed=0)


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
        _, history = kmeans_users(model, 6, seed=1, return_history=True)
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
