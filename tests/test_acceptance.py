"""Acceptance suite: one test per release criterion.

Each test prints a single ``[criterion N] PASS/FAIL`` line (visible with
``pytest -s`` or in failure output).  Runtime-heavy criteria use the same
seeds and scales every time, so the suite is deterministic end to end.
Run with: ``pytest tests/test_acceptance.py -v -s``
"""

import functools
import json
import math
import os
import time

import numpy as np
import pytest
from policy_rows import likelihoods
from scipy import integrate

import latentbandits as lb
from latentbandits import (
    BeliefState,
    RewardModel,
    TransitionKernel,
    bayes_regret,
    best_info_arm,
    expected_dwell_time,
    gaussian_kl,
    mean_pairwise_gap,
    mean_pairwise_kl,
    posterior_update,
    run_experiment,
    single_step_regret_bound,
)
from latentbandits.datasets import RatingsTable, build_reward_model, kmeans_users, pmf_train
from latentbandits.harness import EnvironmentSpec, ExperimentConfig, PolicySpec, load_config
from latentbandits.policies import (
    MTS,
    ExploreThenPS,
    belief_forecast_two_state,
    explore_commit_sample_size,
    explore_then_ps_tau,
)
from latentbandits.recipes import get_recipe

SEEDS = 100


def criterion(number, description):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except pytest.skip.Exception:
                print(f"\n[criterion {number}] SKIP - {description}")
                raise
            except BaseException:
                print(f"\n[criterion {number}] FAIL - {description}")
                raise
            print(f"\n[criterion {number}] PASS - {description}")

        return wrapper

    return decorate


# ---------------------------------------------------------------------------
# 1. closed-form oracle suite
# ---------------------------------------------------------------------------


def _kl_numeric(m1, s1, m2, s2):
    def integrand(x):
        z1 = (x - m1) / s1
        z2 = (x - m2) / s2
        log_p = -0.5 * z1 * z1 - math.log(s1)
        log_q = -0.5 * z2 * z2 - math.log(s2)
        return math.exp(log_p) / math.sqrt(2 * math.pi) * (log_p - log_q)

    lo = min(m1 - 12 * s1, m2 - 12 * s2)
    hi = max(m1 + 12 * s1, m2 + 12 * s2)
    return integrate.quad(integrand, lo, hi, limit=200)[0]


def _mean_kl_oracle(model, arm):
    terms = []
    for other in range(model.num_arms):
        if other == arm:
            continue
        for s in range(model.num_states):
            terms.append(
                gaussian_kl(
                    model.means[other, s], model.stds[other, s],
                    model.means[arm, s], model.stds[arm, s],
                )
            )
    return math.fsum(terms) / (model.num_arms * model.num_states)


def _mean_gap_oracle(model, arm):
    terms = []
    for other in range(model.num_arms):
        if other == arm:
            continue
        for s in range(model.num_states):
            terms.append(model.means[arm, s] - model.means[other, s])
    return math.fsum(terms) / (model.num_arms * model.num_states)


@criterion(1, "closed-form statistics agree with integration and brute force")
def test_criterion_1_closed_form_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    for _ in range(100):
        m1, m2 = rng.normal(0, 2, size=2)
        s1, s2 = rng.uniform(0.05, 2.0, size=2)
        assert gaussian_kl(m1, s1, m2, s2) == pytest.approx(
            _kl_numeric(m1, s1, m2, s2), abs=1e-6
        )
    for model in (lb.two_state_model(), lb.five_state_model()):
        for arm in range(model.num_arms):
            assert mean_pairwise_kl(model, arm) == pytest.approx(
                _mean_kl_oracle(model, arm), abs=1e-12
            )
            assert mean_pairwise_gap(model, arm) == pytest.approx(
                _mean_gap_oracle(model, arm), abs=1e-12
            )
        spread = (model.means.max(axis=0) - model.means.min(axis=0)).max()
        assert single_step_regret_bound(model) == pytest.approx(float(spread), abs=1e-12)
    assert best_info_arm(lb.two_state_model())[0] == 2
    assert best_info_arm(lb.five_state_model())[0] == 4
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"oracle suite took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 2. explore-commit sample size
# ---------------------------------------------------------------------------


@criterion(2, "z-test sample size formula and monotonicity")
def test_criterion_2_sample_size():
    assert explore_commit_sample_size(0.2, 0.5, 0.5, 1.96, 0.84) == 49
    rng = np.random.default_rng(11)
    for _ in range(1000):
        delta = rng.uniform(0.02, 1.5)
        std = rng.uniform(0.02, 1.5)
        z_a, z_b = rng.uniform(0.3, 3.0, size=2)
        base = explore_commit_sample_size(delta, std, std, z_a, z_b)
        assert explore_commit_sample_size(delta, std * 1.7, std * 1.7, z_a, z_b) >= base
        assert explore_commit_sample_size(delta * 1.7, std, std, z_a, z_b) <= base


# ---------------------------------------------------------------------------
# 3. belief filter vs brute-force forward recursion
# ---------------------------------------------------------------------------


@criterion(3, "belief filter matches the brute-force forward recursion")
def test_criterion_3_belief_filter():
    start = time.perf_counter()
    rng = np.random.default_rng(13)
    for _ in range(10_000):
        kernel_matrix = rng.dirichlet(np.ones(3), size=3)
        belief = rng.dirichlet(np.ones(3))
        liks = rng.uniform(0.0, 2.0, size=3)
        if float((belief * liks).sum()) == 0.0:
            continue
        expected = np.zeros(3)
        for s_next in range(3):
            for s in range(3):
                expected[s_next] += belief[s] * liks[s] * kernel_matrix[s, s_next]
        expected /= expected.sum()
        out = posterior_update(
            BeliefState(belief), TransitionKernel(kernel_matrix), liks
        )
        assert abs(out.probs.sum() - 1.0) <= 1e-12
        np.testing.assert_allclose(out.probs, expected, atol=1e-10)
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"filter check took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 4. two-state stationary reproduction
# ---------------------------------------------------------------------------


@criterion(4, "two-state stationary: probe-aware agent beats mTS decisively")
def test_criterion_4_two_state_stationary():
    config = ExperimentConfig(
        environment=EnvironmentSpec(model={"preset": "two_state"}, kernel={"identity": True}),
        policies=(PolicySpec("mts"), PolicySpec("agemts")),
        horizon=2000,
        num_runs=SEEDS,
        base_seed=0,
        name="acceptance_two_state",
    )
    results = run_experiment(config)
    bands = bayes_regret(results)
    mts_mean, mts_lo, _ = bands["mts"]
    age_mean, _, age_hi = bands["agemts"]
    window = slice(499, 2000)
    assert np.all(age_mean[window] < mts_mean[window])
    assert np.all(age_hi[window] < mts_lo[window]), "95% bands overlap after step 500"
    early_probe = sum(
        1 for run in results.runs if run.info_flags["agemts"][:5].any()
    )
    assert early_probe >= 0.95 * SEEDS


# ---------------------------------------------------------------------------
# 5. explore-then-PS fallback and ordering
# ---------------------------------------------------------------------------


@criterion(5, "explore-then-PS: fallback at prohibitive cost, wins otherwise")
def test_criterion_5_explore_then_ps():
    # (a) probe cost scaled above everything recoverable: fall back to pure
    # posterior sampling, reproducing its trace step for step
    costly = RewardModel(
        means=[[2.1, 2.05], [2.05, 2.1], [-9.9, -10.1]],
        stds=[[0.5, 0.5], [0.5, 0.5], [0.05, 0.05]],
    )
    assert explore_then_ps_tau(costly, 2, 1000) == 0
    identity = TransitionKernel.identity(2)
    mts = MTS(costly, identity, [0.5, 0.5], rng=np.random.default_rng(77))
    etps = ExploreThenPS(costly, identity, [0.5, 0.5], info_arm=2, tau=0,
                         rng=np.random.default_rng(77))
    env_rng = np.random.default_rng(78)
    best_arms = costly.best_arms()
    for _ in range(1000):
        arm_a = mts.step(np.arange(3), best_arms)
        arm_b = etps.step(np.arange(3), best_arms)
        assert arm_a == arm_b
        reward = float(env_rng.normal(costly.means[arm_a, 0], costly.stds[arm_a, 0]))
        mts.observe(reward, likelihoods(costly, arm_a, reward))
        etps.observe(reward, likelihoods(costly, arm_b, reward))

    # (b) benchmark probe: explore first, then beat both alternatives
    tau = explore_then_ps_tau(lb.two_state_model(probe_std=0.05), 2, 1000)
    assert tau > 0
    config = get_recipe("two_state_explore_strategies", num_runs=SEEDS, base_seed=0)
    results = run_experiment(config)
    finals = {
        name: float(results.regret_matrix(name)[:, -1].mean())
        for name in results.policy_names
    }
    assert finals["explore_then_ps"] < finals["mts"]
    assert finals["explore_then_ps"] < finals["explore_commit"]


# ---------------------------------------------------------------------------
# 6. belief forecaster vs Monte Carlo
# ---------------------------------------------------------------------------


@criterion(6, "belief forecaster tracks the Monte Carlo filter average")
def test_criterion_6_forecaster():
    start = time.perf_counter()
    model = lb.two_state_model()
    steps, n_runs = 1000, 10_000
    rng = np.random.default_rng(17)
    means = model.means
    stds = model.stds
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
    forecast = belief_forecast_two_state(0.5, model, steps, true_state=0)
    worst = float(np.abs(forecast - np.array(mc)).max())
    assert worst < 0.05, f"forecast deviates from Monte Carlo by {worst:.3f}"
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0


# ---------------------------------------------------------------------------
# 7. five-state transition graphs
# ---------------------------------------------------------------------------


@criterion(7, "five-state graphs: probe-aware agent ahead where branches matter")
def test_criterion_7_five_state_graphs():
    at_600 = {}
    for kind in ("two_branch", "skip_chain", "fully_connected"):
        config = ExperimentConfig(
            environment=EnvironmentSpec(
                model={"preset": "five_state"},
                kernel={"graph": {"kind": kind, "num_states": 5, "stay_prob": 0.995}},
                prior={"point": 0},
            ),
            policies=(PolicySpec("mts"), PolicySpec("agemts")),
            horizon=1000,
            num_runs=SEEDS,
            base_seed=0,
            name=f"acceptance_{kind}",
        )
        results = run_experiment(config)
        at_600[kind] = {
            name: float(results.regret_matrix(name)[:, 599].mean())
            for name in results.policy_names
        }
    assert at_600["two_branch"]["agemts"] < at_600["two_branch"]["mts"]
    assert at_600["skip_chain"]["agemts"] < at_600["skip_chain"]["mts"]
    assert at_600["fully_connected"]["agemts"] <= at_600["fully_connected"]["mts"]


# ---------------------------------------------------------------------------
# 8. dwell time
# ---------------------------------------------------------------------------


@criterion(8, "expected dwell time: closed form and empirical agreement")
def test_criterion_8_dwell_time():
    kernel = TransitionKernel([[0.995, 0.005], [0.005, 0.995]])
    value = expected_dwell_time(kernel, BeliefState([1.0, 0.0]), 1_000_000)
    assert value == pytest.approx(200.0, rel=1e-12)
    rng = np.random.default_rng(19)
    switch_times = np.flatnonzero(rng.random(2_500_000) < 0.005)
    segments = np.diff(switch_times)[:10_000]
    assert segments.size == 10_000
    assert abs(float(segments.mean()) - 200.0) / 200.0 < 0.05


# ---------------------------------------------------------------------------
# 9. baseline sanity
# ---------------------------------------------------------------------------


@criterion(9, "stationary baselines all trail mTS")
def test_criterion_9_baselines():
    config = ExperimentConfig(
        environment=EnvironmentSpec(model={"preset": "two_state"}, kernel={"identity": True}),
        policies=(
            PolicySpec("mts"),
            PolicySpec("cducb"),
            PolicySpec("cdts"),
            PolicySpec("exp4s"),
            PolicySpec("mucb"),
        ),
        horizon=2000,
        num_runs=SEEDS,
        base_seed=0,
        name="acceptance_baselines",
    )
    results = run_experiment(config)
    finals = {
        name: float(results.regret_matrix(name)[:, -1].mean())
        for name in results.policy_names
    }
    for name in ("cducb", "cdts", "exp4s", "mucb"):
        assert finals[name] >= finals["mts"], f"{name} beat mTS: {finals}"


# ---------------------------------------------------------------------------
# 10. dataset pipeline at desk scale
# ---------------------------------------------------------------------------


@criterion(10, "dataset pipeline: planted factors recovered end to end")
def test_criterion_10_dataset_pipeline():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    n_users, n_items, d, k = 500, 400, 10, 5
    centers = rng.normal(0, 1.2, size=(k, d))
    labels_true = np.repeat(np.arange(k), n_users // k)
    u_true = centers[labels_true] + rng.normal(0, 0.12, size=(n_users, d))
    v_true = rng.normal(0, 0.8, size=(n_items, d))
    full = u_true @ v_true.T
    mask = rng.random((n_users, n_items)) < 0.25
    users, items = np.nonzero(mask)
    table = RatingsTable(
        users=users, items=items, ratings=full[users, items],
        user_ids=tuple(range(n_users)), item_ids=tuple(range(n_items)),
    )
    factors = pmf_train(table, d=10, lambda_u=1e-3, lambda_v=1e-3, learning_rate=0.02,
                        validation_fraction=0.1, epochs=40, seed=0)
    assert factors.validation_rmse < 0.1

    labels = kmeans_users(factors, k, seed=1)
    assert np.unique(labels).size == k
    for cluster in range(k):
        assert len(set(labels[labels_true == cluster].tolist())) == 1

    from latentbandits.datasets import sample_super_user

    chosen = sample_super_user(factors, labels, pairing=[(1, 3), (2, 4)], seed=2)
    model = build_reward_model(factors, chosen, np.arange(n_items))
    # construction enforces every type invariant; spot-check the contract
    assert model.num_arms == n_items and model.num_states == k
    assert np.all(model.stds > 0)
    assert np.all(np.isfinite(model.means))
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"pipeline took {elapsed:.1f}s"


MOVIELENS_PATHS = (
    os.environ.get("LBL_ML1M_RATINGS", ""),
    "data/ml-1m/ratings.dat",
    "ml-1m/ratings.dat",
)


@criterion(10, "MovieLens recipes run end to end on the real file")
def test_criterion_10_movielens_when_supplied(tmp_path):
    path = next((p for p in MOVIELENS_PATHS if p and os.path.exists(p)), None)
    if path is None:
        pytest.skip("MovieLens ratings file not supplied; set LBL_ML1M_RATINGS")
    from latentbandits.cli import main

    out = tmp_path / "ml"
    dataset_config = tmp_path / "dataset.json"
    dataset_config.write_text(json.dumps({
        "ratings_file": path,
        "min_user_ratings": 200,
        "min_item_ratings": 200,
        "d": 10,
        "epochs": 30,
        "learning_rate": 2e-4,
        "num_states": 5,
        "seed": 0,
    }))
    assert main(["build-model", str(dataset_config), "--out-dir", str(out)]) == 0
    for graph in ("full", "skip", "branch"):
        config = load_config(out / f"movielens_{graph}.json")
        doc = config.to_dict()
        doc["num_runs"] = 20
        results = run_experiment(ExperimentConfig.from_dict(doc))
        finals = {
            name: float(results.regret_matrix(name)[:, -1].mean())
            for name in results.policy_names
        }
        assert finals["agemts"] < finals["mts"], f"{graph}: {finals}"


# ---------------------------------------------------------------------------
# 11. determinism
# ---------------------------------------------------------------------------


@criterion(11, "identical config and seed give byte-identical traces")
def test_criterion_11_determinism(tmp_path):
    config = get_recipe("two_state_random_switch", horizon=300, num_runs=3, base_seed=21)
    run_experiment(config, out_dir=str(tmp_path / "first"))
    run_experiment(config, out_dir=str(tmp_path / "second"))
    for r in range(3):
        first = (tmp_path / "first" / "traces" / f"run_{r:04d}.jsonl").read_bytes()
        second = (tmp_path / "second" / "traces" / f"run_{r:04d}.jsonl").read_bytes()
        assert first == second
        assert len(first) > 0
