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
import math
import numbers
import os
import time
from dataclasses import dataclass, field, replace
from json.encoder import encode_basestring_ascii

import numpy as np

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


class ConfigError(ValueError):
    """Invalid experiment configuration."""


@dataclass(frozen=True)
class PolicySpec:
    name: str
    params: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {"name": self.name, "params": dict(self.params)}

    @classmethod
    def from_dict(cls, doc: dict) -> "PolicySpec":
        return cls(name=doc["name"], params=dict(doc.get("params", {})))


@dataclass(frozen=True)
class EnvironmentSpec:
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

    def to_dict(self) -> dict:
        return {
            "model": json.loads(json.dumps(self.model)),
            "kernel": json.loads(json.dumps(self.kernel)),
            "prior": self.prior if isinstance(self.prior, (str, dict)) else list(self.prior),
            "schedule": list(self.schedule) if self.schedule is not None else None,
            "arm_set_size": self.arm_set_size,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "EnvironmentSpec":
        prior = doc.get("prior", "uniform")
        if isinstance(prior, list):
            prior = tuple(prior)
        schedule = doc.get("schedule")
        return cls(
            model=doc["model"],
            kernel=doc["kernel"],
            prior=prior,
            schedule=tuple(schedule) if schedule is not None else None,
            arm_set_size=doc.get("arm_set_size"),
        )


@dataclass(frozen=True)
class ExperimentConfig:
    environment: EnvironmentSpec
    policies: tuple
    horizon: int
    num_runs: int
    base_seed: int = 0
    sweep_axes: dict | None = None
    out_dir: str | None = None
    name: str = "experiment"

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "environment": self.environment.to_dict(),
            "policies": [p.to_dict() for p in self.policies],
            "horizon": self.horizon,
            "num_runs": self.num_runs,
            "base_seed": self.base_seed,
            "sweep_axes": json.loads(json.dumps(self.sweep_axes)) if self.sweep_axes else None,
            "out_dir": self.out_dir,
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        try:
            return cls(
                environment=EnvironmentSpec.from_dict(doc["environment"]),
                policies=tuple(PolicySpec.from_dict(p) for p in doc["policies"]),
                horizon=int(doc["horizon"]),
                num_runs=int(doc["num_runs"]),
                base_seed=int(doc.get("base_seed", 0)),
                sweep_axes=doc.get("sweep_axes"),
                out_dir=doc.get("out_dir"),
                name=doc.get("name", "experiment"),
            )
        except KeyError as exc:
            raise ConfigError(f"missing config field: {exc}") from exc

    def validate(self) -> "ResolvedEnvironment":
        """Check the config without running it; returns the resolved
        environment.  Policy params are bound to their factory's
        signature, but no policy is built."""
        if self.horizon < 1:
            raise ConfigError("horizon must be at least 1")
        if self.num_runs < 1:
            raise ConfigError("num_runs must be at least 1")
        if not self.policies:
            raise ConfigError("at least one policy is required")
        names = [spec.name for spec in self.policies]
        if len(set(names)) != len(names):
            raise ConfigError(f"duplicate policy names in {names}: results are keyed by name")
        resolved = resolve_environment(self.environment)  # raises ConfigError on bad specs
        for spec in self.policies:
            if spec.name not in POLICY_NAMES:
                raise ConfigError(f"unknown policy name {spec.name!r}")
            try:
                check_policy_params(spec.name, spec.params, resolved.model, resolved.arm_features)
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


def resolve_environment(spec: EnvironmentSpec) -> ResolvedEnvironment:
    """Materialize model, kernel and prior from an environment spec."""
    model_doc = spec.model
    arm_features = None
    if "preset" in model_doc:
        name = model_doc["preset"]
        if name not in PRESETS:
            raise ConfigError(f"unknown model preset {name!r}")
        model = PRESETS[name]()
    elif "file" in model_doc:
        try:
            with open(model_doc["file"], "r", encoding="utf-8") as handle:
                doc = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read model file: {exc}") from exc
        try:
            model, _ = model_from_dict(doc)
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"invalid model file: {exc}") from exc
        if doc.get("features") is not None:
            arm_features = np.asarray(doc["features"], dtype=float)
    elif "means" in model_doc:
        try:
            model = RewardModel(
                means=np.asarray(model_doc["means"], dtype=float),
                stds=np.asarray(model_doc["stds"], dtype=float),
            )
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"invalid inline model: {exc}") from exc
    else:
        raise ConfigError("model must specify 'preset', 'file' or 'means'/'stds'")

    kernel_doc = spec.kernel
    graph = None
    if kernel_doc.get("identity"):
        kernel = TransitionKernel.identity(model.num_states)
    elif "matrix" in kernel_doc:
        try:
            kernel = TransitionKernel(np.asarray(kernel_doc["matrix"], dtype=float))
        except ValueError as exc:
            raise ConfigError(f"invalid kernel matrix: {exc}") from exc
    elif "graph" in kernel_doc:
        try:
            graph = TransitionGraphSpec(**kernel_doc["graph"])
            kernel = build_transition_kernel(graph)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid graph spec: {exc}") from exc
    else:
        raise ConfigError("kernel must specify 'identity', 'matrix' or 'graph'")
    if kernel.num_states != model.num_states:
        raise ConfigError("kernel and model disagree on the number of states")

    if isinstance(spec.prior, str):
        if spec.prior != "uniform":
            raise ConfigError(f"unknown prior {spec.prior!r}")
        prior = np.full(model.num_states, 1.0 / model.num_states)
    elif isinstance(spec.prior, dict):
        point = spec.prior.get("point")
        if not isinstance(point, (int, np.integer)) or not 0 <= point < model.num_states:
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

    if spec.schedule is not None and len(set(spec.schedule)) != len(spec.schedule):
        raise ConfigError(f"schedule times must be distinct, got {list(spec.schedule)}")
    size = spec.arm_set_size
    if size is not None and (isinstance(size, bool) or not isinstance(size, numbers.Integral)
                             or not 1 <= size <= model.num_arms):
        raise ConfigError(f"arm_set_size must be an integer in [1, {model.num_arms}], got {size!r}")
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
    metadata."""

    run_index: int
    states: np.ndarray
    cum_regret: dict
    cum_realized_regret: dict
    info_flags: dict
    final_beliefs: dict
    wall_clock_seconds: float
    policy_counters: dict = field(default_factory=dict)


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
        return build_transition_kernel(replace(env.graph, seed=int(env.graph.seed + 7919 * run_index)))
    return env.kernel


def _trace_line(record: dict) -> str:
    """``json.dumps(record, sort_keys=True, separators=(",", ":"))`` by hand, for
    the fixed trace keys: ints, the ``policy`` string, floats and a
    ``belief`` list of floats or None."""
    realized, regret, reward, belief = record["realized_regret"], record["regret"], record["reward"], record["belief"]
    if not math.isfinite(realized + regret + reward + (0.0 if belief is None else sum(belief))):
        # a nan or inf, which JSON spells NaN or Infinity (or a sum overflowing)
        return json.dumps(record, sort_keys=True, separators=(",", ":"))
    belief = "null" if belief is None else f"[{','.join(map(float.__repr__, belief))}]"
    return (
        f'{{"arm":{record["arm"]},"belief":{belief},"context":{record["context"]},"info":{record["info"]},'
        f'"policy":{encode_basestring_ascii(record["policy"])},"realized_regret":{float.__repr__(realized)},'
        f'"regret":{float.__repr__(regret)},"reward":{float.__repr__(reward)},"run":{record["run"]},'
        f'"state":{record["state"]},"t":{record["t"]}}}'
    )


def run_experiment(config: ExperimentConfig, out_dir: str | None = None) -> ExperimentResults:
    """Execute every (run, policy) pair of the config.

    Run r uses seed ``base_seed + r`` to generate its shared trajectory,
    and policy i of run r draws its own randomness from the stream
    ``(base_seed, r, i)``; identical configs therefore produce identical
    traces byte for byte.  A policy choosing an arm outside the offered
    set aborts the run with a ProtocolViolationError naming the run,
    policy and step.
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
    for r in range(config.num_runs):
        start = time.perf_counter()
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
        lines = [] if trace_dir else None
        run = _run_policies(config, env, params, kernel, trajectory, r, lines)
        run.wall_clock_seconds = time.perf_counter() - start
        results.runs.append(run)
        if trace_dir:
            path = os.path.join(trace_dir, f"run_{r:04d}.jsonl")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write("\n".join(lines))
                handle.write("\n")
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
    lines: list | None,
) -> RunResult:
    model = env.model
    horizon = config.horizon
    cum_regret: dict = {}
    cum_realized: dict = {}
    info_flags: dict = {}
    final_beliefs: dict = {}
    counters: dict = {}
    # shared by every policy's steps, as Python scalars: the trajectory,
    # each step's offered arms and their best mean, and the reward tables
    states, noise, arm_sets = trajectory.states.tolist(), trajectory.noise.tolist(), trajectory.arm_sets
    optimal = [float(model.means[arms, state].max()) for arms, state in zip(arm_sets, states)]
    offered = np.zeros((horizon, model.num_arms), dtype=bool)
    for t, arms in enumerate(arm_sets):
        offered[t, arms] = True
    means, stds = model.means.tolist(), model.stds.tolist()

    for i, spec in enumerate(config.policies):
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
        )
        regret = np.zeros(horizon)
        realized = np.zeros(horizon)
        flags = np.zeros(horizon, dtype=int)
        total = 0.0
        total_realized = 0.0
        for t in range(horizon):
            state = states[t]
            if policy.wants_true_state:
                policy.set_true_state(state)
            arm = policy.step(arm_sets[t])
            if not (0 <= arm < model.num_arms and offered[t, arm]):
                raise ProtocolViolationError(
                    f"run {run_index}, policy {spec.name!r}, step {t + 1}: "
                    f"arm {arm} not offered"
                )
            mean = means[arm][state]
            reward = mean + stds[arm][state] * noise[t]
            policy.observe(reward)
            total += optimal[t] - mean
            total_realized += optimal[t] - reward
            regret[t] = total
            realized[t] = total_realized
            flags[t] = info = int(policy.last_info_play)
            if lines is not None:
                probs = policy.belief_probs
                lines.append(
                    _trace_line(
                        {
                            "run": run_index,
                            "policy": spec.name,
                            "t": t + 1,
                            # constant, kept so trace files keep their format
                            "context": 0,
                            "arm": arm,
                            "reward": reward,
                            "regret": total,
                            "realized_regret": total_realized,
                            "info": info,
                            "belief": probs.tolist() if probs is not None else None,
                            "state": state,
                        }
                    )
                )
        name = spec.name
        cum_regret[name] = regret
        cum_realized[name] = realized
        info_flags[name] = flags
        belief = policy.belief
        final_beliefs[name] = belief.probs.tolist() if belief is not None else None
        counters[name] = {key: getattr(policy, key) for key in policy.counters}
    return RunResult(
        run_index=run_index,
        states=trajectory.states,
        cum_regret=cum_regret,
        cum_realized_regret=cum_realized,
        info_flags=info_flags,
        final_beliefs=final_beliefs,
        wall_clock_seconds=0.0,
        policy_counters=counters,
    )


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
        new_env = replace(env, arm_set_size=int(value))
    elif axis in ("probe_gap", "probe_sigma"):
        resolved = resolve_environment(env)
        means = resolved.model.means.copy()
        stds = resolved.model.stds.copy()
        probe = means.shape[0] - 1  # probe arm is the last arm by convention
        if axis == "probe_gap":
            # keep the probe's 0.2 cross-state separation, move its level
            best = means[:probe].max(axis=0)
            center = best - float(value)
            half_span = 0.1
            offsets = np.linspace(half_span, -half_span, means.shape[1])
            means[probe] = center + offsets
        else:
            stds[probe] = float(value)
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
    aggregate_path = os.path.join(out_dir, "aggregate.csv")
    with open(aggregate_path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["step", "policy", "mean_regret", "ci_low", "ci_high"])
        for name in results.policy_names:
            mean, lo, hi = bands[name]
            for t in range(results.config.horizon):
                writer.writerow([t + 1, name, repr(mean[t]), repr(lo[t]), repr(hi[t])])

    curves_path = os.path.join(out_dir, "curves.csv")
    with open(curves_path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["step"] + results.policy_names)
        means = {name: bands[name][0] for name in results.policy_names}
        for t in range(results.config.horizon):
            writer.writerow([t + 1] + [repr(means[name][t]) for name in results.policy_names])
    return {"aggregate": aggregate_path, "curves": curves_path}


def _write_sweep_csv(rows: list, axis_names: list, config: ExperimentConfig, out_dir: str) -> None:
    _check_writable(out_dir)
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
    }
    with open(os.path.join(out_dir, "run_meta.json"), "w", encoding="utf-8") as handle:
        json.dump(meta, handle, indent=2, sort_keys=True)
        handle.write("\n")
