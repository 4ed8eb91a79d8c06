"""Experiment runner: wires environments, models and policies, computes
regret curves, and persists results.

Runs are paired comparisons: each run pre-generates one hidden state
trajectory, arm-set sequence and reward noise stream, and every policy
replays that identical path.  Per-step regret is accounted in true-state
mean rewards (pseudo-regret), so stored cumulative regret is exactly
non-decreasing; realized-reward regret is logged alongside.
"""

from __future__ import annotations

import csv
import json
import os
import time
from collections.abc import Iterator
from dataclasses import dataclass, field, replace
from itertools import islice, repeat
from json.encoder import encode_basestring_ascii

import numpy as np

from .belief import best_info_arm, likelihoods_from_log, reward_log_likelihoods
from .config import ConfigError, TypedConfig, check_type
from .environments import (
    ProtocolViolationError,
    TransitionGraphSpec,
    Trajectory,
    build_transition_kernel,
    generate_trajectory,
)
from .models import RewardModel, TransitionKernel, _as_prob_vector, model_from_dict
from .policies import POLICY_NAMES, check_policy_params, experiment_params, make_policy
from .presets import PRESETS

OUT_DIR_ENV_VAR = "LBL_OUT_DIR"
# sweep axes that move the probe arm, which is the model's last arm
PROBE_AXES = ("probe_gap", "probe_sigma")
# JSON's spellings of the non-finite float reprs
_JSON_SPELLINGS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


@dataclass(frozen=True)
class PolicySpec(TypedConfig):
    name: str
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class EnvironmentSpec(TypedConfig):
    """Where the model and kernel come from, plus run-time environment knobs.

    ``model`` is one of ``{"preset": name}``, ``{"file": path}`` or
    ``{"means": ..., "stds": ...}``.  ``kernel`` is one of
    ``{"identity": true}``, ``{"matrix": ...}`` or ``{"graph": {...}}``
    with the graph fields of TransitionGraphSpec.  ``prior`` is a vector,
    ``"uniform"``, or ``{"point": state}``.
    """

    model: dict
    kernel: dict
    prior: object = "uniform"
    schedule: tuple | None = None
    arm_set_size: int | None = None


@dataclass(frozen=True)
class ExperimentConfig(TypedConfig):
    environment: EnvironmentSpec
    policies: tuple
    horizon: int
    num_runs: int
    base_seed: int = 0
    sweep_axes: dict | None = None
    out_dir: str | None = None
    name: str = "experiment"

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        return super().from_dict(
            doc,
            environment=EnvironmentSpec.from_dict,
            policies=lambda docs: tuple(map(PolicySpec.from_dict, check_type("policies", docs, tuple))),
        )

    def validate(self) -> "ResolvedEnvironment":
        """Check the config without running it; returns the resolved
        environment.  Each policy is built once on a throwaway generator,
        with no forecast run, and each sweep-axis value is tried alone."""
        if self.horizon < 1:
            raise ConfigError("horizon must be at least 1")
        if self.num_runs < 1:
            raise ConfigError("num_runs must be at least 1")
        if self.base_seed < 0:
            raise ConfigError(f"base_seed must be non-negative, got {self.base_seed}")
        if not self.policies:
            raise ConfigError("at least one policy is required")
        names = [spec.name for spec in self.policies]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate policy names in {names}: results are keyed by name")
        resolved = resolve_environment(self.environment)  # raises ConfigError on bad specs
        for axis, values in (self.sweep_axes or {}).items():
            if not check_type(f"sweep axis {axis!r}", values, list | tuple):
                raise ConfigError(f"sweep axis {axis!r} has no values")
            if axis in PROBE_AXES:
                probe, _ = best_info_arm(resolved.model)
                if probe != resolved.model.num_arms - 1:
                    raise ConfigError(
                        f"sweep axis {axis!r} moves the last arm, arm {resolved.model.num_arms - 1}, "
                        f"but the model's best info arm is arm {probe}"
                    )
            for value in values:
                resolve_environment(_apply_axis(self, axis, value).environment)
        for spec in self.policies:
            if spec.name not in POLICY_NAMES:
                raise ConfigError(f"unknown policy name {spec.name!r}")
            try:
                check_policy_params(spec.name, spec.params, resolved, self.horizon)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"policy {spec.name!r} params: {exc}") from exc
        return resolved


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return ExperimentConfig.from_dict(doc)


def save_config(config: ExperimentConfig, path) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(config.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")


@dataclass(frozen=True)
class ResolvedEnvironment:
    model: RewardModel
    kernel: TransitionKernel
    prior: np.ndarray
    schedule: tuple | None
    arm_set_size: int | None
    arm_features: np.ndarray | None = None
    graph: TransitionGraphSpec | None = None


# each environment source: its key -> every key a spec from it takes
_MODEL_SOURCES = {"preset": {"preset"}, "file": {"file"}, "means": {"means", "stds"}}
_KERNEL_SOURCES = {"identity": {"identity"}, "matrix": {"matrix"}, "graph": {"graph"}}


def _source(what: str, doc: dict, sources: dict) -> str:
    """The one source ``doc`` names; ConfigError unless it names one and only that source's keys."""
    named = [key for key in sources if key in doc]
    if len(named) != 1 or set(doc) - sources[named[0]]:
        spellings = " or ".join("/".join(sorted(keys)) for keys in sources.values())
        raise ConfigError(f"{what} must give {spellings} and no other key, got {sorted(doc)}")
    return named[0]


def resolve_environment(spec: EnvironmentSpec) -> ResolvedEnvironment:
    """Materialize model, kernel and prior from an environment spec."""
    model_doc = spec.model
    arm_features = None
    model_source = _source("model", model_doc, _MODEL_SOURCES)
    if model_source == "preset":
        name = model_doc["preset"]
        if name not in PRESETS:
            raise ConfigError(f"unknown model preset {name!r}")
        model = PRESETS[name]()
    elif model_source == "file":
        try:
            with open(model_doc["file"], "r", encoding="utf-8") as handle:
                doc = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read model file: {exc}") from exc
        try:
            model, _ = model_from_dict(doc)
            if doc.get("features") is not None:
                arm_features = np.asarray(doc["features"], dtype=float)
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"invalid model file: {exc}") from exc
    else:
        try:
            model = RewardModel(
                means=np.asarray(model_doc["means"], dtype=float),
                stds=np.asarray(model_doc["stds"], dtype=float),
            )
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"invalid inline model: {exc}") from exc

    kernel_doc = spec.kernel
    graph = None
    kernel_source = _source("kernel", kernel_doc, _KERNEL_SOURCES)
    if kernel_source == "identity":
        if kernel_doc["identity"] is not True:
            raise ConfigError(f"kernel 'identity' must be true, got {kernel_doc['identity']!r}")
        kernel = TransitionKernel.identity(model.num_states)
    elif kernel_source == "matrix":
        try:
            kernel = TransitionKernel(kernel_doc["matrix"])
        except ValueError as exc:
            raise ConfigError(f"invalid kernel matrix: {exc}") from exc
    else:
        try:
            graph = TransitionGraphSpec.from_dict(kernel_doc["graph"])
            kernel = build_transition_kernel(graph)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid graph spec: {exc}") from exc
    if kernel.num_states != model.num_states:
        raise ConfigError("kernel and model disagree on the number of states")

    if isinstance(spec.prior, str):
        if spec.prior != "uniform":
            raise ConfigError(f"unknown prior {spec.prior!r}")
        prior = np.full(model.num_states, 1.0 / model.num_states)
    elif isinstance(spec.prior, dict):
        _source("prior", spec.prior, {"point": {"point"}})
        point = check_type("prior point", spec.prior["point"], int)
        if not 0 <= point < model.num_states:
            raise ConfigError(f"prior point must be a state in [0, {model.num_states}), got {point}")
        prior = np.zeros(model.num_states)
        prior[point] = 1.0
    else:
        try:
            prior = _as_prob_vector(spec.prior, "prior")
        except ValueError as exc:
            raise ConfigError(f"invalid prior: {exc}") from exc
        if prior.size != model.num_states:
            raise ConfigError("prior length does not match the number of states")

    for step in spec.schedule or ():
        if check_type("a schedule time", step, int) < 1:
            raise ConfigError(f"schedule times are steps counted from 1, got {step}")
    if spec.schedule is not None and (not spec.schedule or len(set(spec.schedule)) != len(spec.schedule)):
        raise ConfigError(f"a schedule lists one or more distinct times (null for none), got {list(spec.schedule)}")
    size = spec.arm_set_size
    if size is not None and not 1 <= size <= model.num_arms:
        raise ConfigError(f"arm_set_size must be in [1, {model.num_arms}], got {size}")
    return ResolvedEnvironment(
        model=model,
        kernel=kernel,
        prior=prior,
        schedule=spec.schedule,
        arm_set_size=spec.arm_set_size,
        arm_features=arm_features,
        graph=graph,
    )


@dataclass
class RunResult:
    """Per-run traces: one cumulative regret vector per policy, probe-play
    indicators, final beliefs, each policy's ``counters`` and wall-clock
    metadata: the run's seconds (its trace file included), and each
    policy's (its construction and its steps); ``arms`` maps each policy
    to the arms it played, an int array."""

    run_index: int
    states: np.ndarray
    cum_regret: dict
    cum_realized_regret: dict
    info_flags: dict
    final_beliefs: dict
    wall_clock_seconds: float
    policy_counters: dict = field(default_factory=dict)
    policy_seconds: dict = field(default_factory=dict)
    arms: dict = field(default_factory=dict)


@dataclass
class ExperimentResults:
    config: ExperimentConfig
    runs: list

    @property
    def policy_names(self) -> list:
        return [spec.name for spec in self.config.policies]

    def regret_matrix(self, policy: str) -> np.ndarray:
        return np.stack([run.cum_regret[policy] for run in self.runs])


def _run_kernel(env: ResolvedEnvironment, config: ExperimentConfig, run_index: int) -> TransitionKernel:
    # nonuniform graphs re-sample their off-diagonal masses per run, so a
    # multi-run experiment averages over kernel instantiations
    if env.graph is not None and env.graph.off_diagonal == "random_nonuniform":
        return build_transition_kernel(replace(env.graph, seed=env.graph.seed + 7919 * run_index))
    return env.kernel


def _trace_line(arm, belief, info, policy, realized_regret, regret, reward, run, state, t) -> str:
    """One trace line from its fields, each already formatted as JSON, as
    ``json.dumps(record, sort_keys=True, separators=(",", ":"))`` writes it;
    ``context`` is a constant, kept so trace files keep their format."""
    return (
        f'{{"arm":{arm},"belief":{belief},"context":0,"info":{info},"policy":{policy},'
        f'"realized_regret":{realized_regret},"regret":{regret},"reward":{reward},"run":{run},'
        f'"state":{state},"t":{t}}}'
    )


def _float_texts(values: np.ndarray, spellings: dict | None = None) -> np.ndarray:
    """``float.__repr__`` of every value, as an object array of str, formatted
    once per distinct bit pattern (so -0.0 and 0.0 stay apart); ``spellings``
    renames the non-finite reprs."""
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    floats = bits.view(float)
    texts = np.array(list(map(float.__repr__, floats.tolist())), dtype=object)
    if spellings and not (finite := np.isfinite(floats)).all():
        texts[~finite] = [spellings[text] for text in texts[~finite]]
    return texts[inverse]


def _trace_lines(run_index: int, states: list, columns: list) -> Iterator[list]:
    """A run's trace lines, one list per policy, from one ``(name, arms,
    rewards, regret, realized, flags, beliefs)`` column set per policy;
    ``beliefs`` holds each step's belief vector or None.  The run's floats
    are formatted together; a policy's lines are built when its list is
    asked for, so the writer holds one policy's lines at a time."""
    floats = [np.concatenate([rewards, regret, realized, *(b for b in beliefs if b is not None)])
              for _, _, rewards, regret, realized, _, beliefs in columns]
    texts = iter(_float_texts(np.concatenate(floats), _JSON_SPELLINGS))
    steps = range(1, len(states) + 1)
    for name, arms, _, _, _, flags, beliefs in columns:
        rewards, regrets, realized = (list(islice(texts, len(states))) for _ in range(3))
        beliefs = ["null" if b is None else f"[{','.join(islice(texts, len(b)))}]" for b in beliefs]
        yield list(map(_trace_line, arms, beliefs, flags.tolist(), repeat(encode_basestring_ascii(name)),
                       realized, regrets, rewards, repeat(run_index), states, steps))


def run_experiment(config: ExperimentConfig, out_dir: str | None = None) -> ExperimentResults:
    """Execute every (run, policy) pair of the config.

    Run r uses seed ``base_seed + r`` to generate its shared trajectory,
    and policy i of run r draws its own randomness from the stream
    ``(base_seed, r, i)``; identical configs therefore produce identical
    traces byte for byte.  Its AGEmTS share one roll-out memo, so
    ``policy_seconds`` charges a roll-out to the first run that needs it.
    A policy choosing an arm outside the offered set aborts the run with
    a ProtocolViolationError naming the run, policy and step.
    """
    env = config.validate()
    # per-experiment params (a forecast tau) are computed once for all runs
    params = [experiment_params(spec.name, spec.params, env.model, config.horizon) for spec in config.policies]
    out_dir = out_dir or config.out_dir
    trace_dir = None
    if out_dir:
        trace_dir = os.path.join(out_dir, "traces")
        os.makedirs(trace_dir, exist_ok=True)

    results = ExperimentResults(config=config, runs=[])
    # the evidence table and its scratch, reused so no run faults in pages of its size
    buffers = np.empty((2, config.horizon, env.arm_set_size or env.model.num_arms, env.model.num_states))
    rollout_memo = {}
    for r in range(config.num_runs):
        start = time.perf_counter()
        # each policy's recorded columns; rebinding drops the last run's before this run allocates
        trace = [] if trace_dir else None
        kernel = _run_kernel(env, config, r)
        env_rng = np.random.default_rng([config.base_seed + r, 0])
        trajectory = generate_trajectory(
            env.model,
            kernel,
            env.prior,
            config.horizon,
            env_rng,
            schedule=env.schedule,
            arm_set_size=env.arm_set_size,
        )
        run = _run_policies(config, env, params, kernel, trajectory, r, trace, buffers, rollout_memo)
        if trace_dir:
            with open(os.path.join(trace_dir, f"run_{r:04d}.jsonl"), "w", encoding="utf-8") as handle:
                for lines in _trace_lines(r, trajectory.states.tolist(), trace):
                    handle.write("\n".join(lines))
                    handle.write("\n")
        run.wall_clock_seconds = time.perf_counter() - start
        results.runs.append(run)
    if out_dir:
        _write_run_meta(results, out_dir)
    return results


def _run_policies(
    config: ExperimentConfig,
    env: ResolvedEnvironment,
    params: list,
    kernel: TransitionKernel,
    trajectory: Trajectory,
    run_index: int,
    trace: list | None,
    buffers: np.ndarray,
    rollout_memo: dict,
) -> RunResult:
    model = env.model
    horizon = config.horizon
    run = RunResult(run_index=run_index, states=trajectory.states, cum_regret={}, cum_realized_regret={},
                    info_flags={}, final_beliefs={}, wall_clock_seconds=0.0)
    # the run's tables: by [step, slate column] each offered arm, its mean
    # and its reward; by step each state's best offered arm; the slates,
    # best arms and rewards as Python lists for the steps
    states, arm_sets = trajectory.states.tolist(), trajectory.arm_sets
    offered = np.stack(arm_sets)
    steps = np.arange(horizon)
    best_arms = model.best_arms(offered)
    means = model.means[offered, trajectory.states[:, None]]
    rewards = means + model.stds[offered, trajectory.states[:, None]] * trajectory.noise[:, None]
    # the optimal mean through the argmax, so a -0.0/0.0 tie keeps its sign
    optimal = model.means[best_arms[steps, trajectory.states], trajectory.states]
    slates, best_arms, reward_rows = offered.tolist(), best_arms.tolist(), rewards.tolist()
    evidence = None

    for i, spec in enumerate(config.policies):
        start = time.perf_counter()
        rng = np.random.default_rng([config.base_seed + run_index, i + 1])
        policy = make_policy(
            spec.name,
            model,
            kernel,
            env.prior,
            config.horizon,
            rng,
            params=params[i],
            arm_features=env.arm_features,
            rollout_memo=rollout_memo,
        )
        if evidence is None and policy.belief_probs is not None:
            # built for the first belief policy, timed in no policy's seconds
            built = time.perf_counter()
            evidence = _evidence_table(model, offered, rewards, out=buffers)
            start += time.perf_counter() - built
        rows = evidence if policy.belief_probs is not None else None
        played, flags = [], []
        beliefs = [] if trace is not None else None
        for t in range(horizon):
            if policy.wants_true_state:
                policy.set_true_state(states[t])
            # rows go positionally: wrappers of step and observe may forward no keywords
            arm = policy.step(arm_sets[t], best_arms[t])
            try:
                column = slates[t].index(arm)
            except ValueError:
                raise ProtocolViolationError(
                    f"run {run_index}, policy {spec.name!r}, step {t + 1}: "
                    f"arm {arm} not offered"
                ) from None
            policy.observe(reward_rows[t][column], None if rows is None else rows[t, column])
            played.append(column)
            flags.append(policy.last_info_play)
            if beliefs is not None:
                beliefs.append(None if rows is None else policy.belief_probs.copy())  # a live row
        name = spec.name
        plays = steps, np.array(played)
        # running sums in step order; adding 0.0 turns a leading -0.0 into
        # 0.0, as a total that starts at 0.0 does
        run.cum_regret[name] = np.cumsum(optimal - means[plays]) + 0.0
        run.cum_realized_regret[name] = np.cumsum(optimal - rewards[plays]) + 0.0
        run.info_flags[name] = np.array(flags, dtype=int)
        run.arms[name] = offered[plays]
        if trace is not None:
            trace.append((name, run.arms[name].tolist(), rewards[plays], run.cum_regret[name],
                          run.cum_realized_regret[name], run.info_flags[name], beliefs))
        belief = policy.belief
        run.final_beliefs[name] = belief.probs.tolist() if belief is not None else None
        run.policy_counters[name] = {key: getattr(policy, key) for key in policy.counters}
        run.policy_seconds[name] = time.perf_counter() - start
    return run


def _evidence_table(model: RewardModel, offered: np.ndarray, rewards: np.ndarray, out=(None, None)) -> np.ndarray:
    """A run's likelihood rows, shaped [step, slate column, state]: row
    [t, j] is that of ``rewards[t, j]``, the reward of step t's j-th
    offered arm, built in ``out``."""
    table = reward_log_likelihoods(model, offered, rewards, out=out)
    return likelihoods_from_log(table, out=table)


def bayes_regret(results: ExperimentResults, confidence_z: float = 1.96) -> dict:
    """Pointwise mean cumulative regret per policy with a 95% normal band."""
    if len(results.runs) < 2:
        raise ValueError("bayes_regret needs at least 2 runs")
    out = {}
    n = len(results.runs)
    for name in results.policy_names:
        matrix = results.regret_matrix(name)
        mean = matrix.mean(axis=0)
        half = confidence_z * matrix.std(axis=0, ddof=1) / np.sqrt(n)
        out[name] = (mean, mean - half, mean + half)
    return out


def _apply_axis(config: ExperimentConfig, axis: str, value) -> ExperimentConfig:
    env = config.environment
    if axis == "arm_set_size":
        new_env = replace(env, arm_set_size=value)
    elif axis in PROBE_AXES:
        resolved = resolve_environment(env)
        means = resolved.model.means.copy()
        stds = resolved.model.stds.copy()
        # validate has checked that the last arm is the model's best info arm
        probe = means.shape[0] - 1
        if axis == "probe_gap":
            # keep the probe's 0.2 cross-state separation, move its level
            best = means[:probe].max(axis=0)
            center = best - check_type(axis, value, float)
            half_span = 0.1
            offsets = np.linspace(half_span, -half_span, means.shape[1])
            means[probe] = center + offsets
        else:
            stds[probe] = check_type(axis, value, float)
        new_env = replace(env, model={"means": means.tolist(), "stds": stds.tolist()})
    else:
        raise ConfigError(f"unknown sweep axis {axis!r}")
    # a grid point neither writes traces into the parent's out_dir nor sweeps again
    return replace(config, environment=new_env, out_dir=None, sweep_axes=None)


def sweep(config: ExperimentConfig, out_dir: str | None = None) -> list:
    """Run the config once per grid point of its sweep axes.

    Returns a table of rows {axis values..., "regret": {policy: final mean
    cumulative regret}} in grid order.
    """
    if not config.sweep_axes:
        raise ConfigError("sweep requires non-empty sweep_axes")
    config.validate()
    if out_dir:
        _check_writable(out_dir)  # before the grid, so a bad path costs no grid point
    axes = list(config.sweep_axes.items())
    grid = [()]
    for _, values in axes:
        grid = [g + (v,) for g in grid for v in values]

    rows = []
    for point in grid:
        modified = config
        for (axis, _), value in zip(axes, point):
            modified = _apply_axis(modified, axis, value)
        results = run_experiment(modified)
        final = {
            name: float(results.regret_matrix(name)[:, -1].mean())
            for name in results.policy_names
        }
        row = {axis: value for (axis, _), value in zip(axes, point)}
        row["regret"] = final
        rows.append(row)
    if out_dir:
        _write_sweep_csv(rows, [axis for axis, _ in axes], config, out_dir)
    return rows


def default_out_dir() -> str:
    return os.environ.get(OUT_DIR_ENV_VAR, "results")


def _check_writable(out_dir: str) -> None:
    try:
        os.makedirs(out_dir, exist_ok=True)
        probe = os.path.join(out_dir, ".write_probe")
        with open(probe, "w", encoding="utf-8") as handle:
            handle.write("")
        os.remove(probe)
    except OSError as exc:
        raise OSError(f"output directory {out_dir!r} is not writable: {exc}") from exc


def emit_outputs(results: ExperimentResults, out_dir: str) -> dict:
    """Write the aggregated regret CSVs for an experiment.

    Produces ``aggregate.csv`` with columns step, policy, mean_regret,
    ci_low, ci_high (horizon x num_policies rows) and a plot-ready
    ``curves.csv`` with one mean-regret column per policy.  Aggregation
    happens in memory before any file is touched, and the output path is
    probed first so nothing is computed twice on a bad path.
    """
    if not results.runs:
        raise ValueError("no results to emit")
    _check_writable(out_dir)
    if len(results.runs) >= 2:
        bands = bayes_regret(results)
    else:
        bands = {
            name: (results.regret_matrix(name)[0],) * 3 for name in results.policy_names
        }
    names, steps = results.policy_names, range(1, results.config.horizon + 1)
    # [policy, band, step] cells, each distinct float formatted once
    cells = _float_texts(np.concatenate([np.concatenate(bands[name]) for name in names]))
    cells = cells.reshape(len(names), 3, len(steps))
    aggregate_path = os.path.join(out_dir, "aggregate.csv")
    with open(aggregate_path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["step", "policy", "mean_regret", "ci_low", "ci_high"])
        for name, (mean, lo, hi) in zip(names, cells):
            writer.writerows(zip(steps, repeat(name), mean, lo, hi))

    curves_path = os.path.join(out_dir, "curves.csv")
    with open(curves_path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["step"] + names)
        writer.writerows(zip(steps, *cells[:, 0]))
    return {"aggregate": aggregate_path, "curves": curves_path}


def _write_sweep_csv(rows: list, axis_names: list, config: ExperimentConfig, out_dir: str) -> None:
    policies = [spec.name for spec in config.policies]
    path = os.path.join(out_dir, "sweep.csv")
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(axis_names + [f"regret_{name}" for name in policies])
        for row in rows:
            writer.writerow(
                [row[a] for a in axis_names] + [repr(row["regret"][name]) for name in policies]
            )


def _write_run_meta(results: ExperimentResults, out_dir: str) -> None:
    meta = {
        "config": results.config.to_dict(),
        "wall_clock_seconds": [run.wall_clock_seconds for run in results.runs],
        "policy_counters": [run.policy_counters for run in results.runs],
        "policy_seconds": [run.policy_seconds for run in results.runs],
    }
    with open(os.path.join(out_dir, "run_meta.json"), "w", encoding="utf-8") as handle:
        json.dump(meta, handle, indent=2, sort_keys=True)
        handle.write("\n")
