"""Per-layer instrumentation for the traced runs.

The benchmark wraps the calls into each module's public functions,
where the calling module looks them up, and times them from outside:
nothing in the library changes.  Calls made once per run or less often
are kept as spans (name, start, end, parent) and written out when the
benchmark ends; calls made per step are folded into a count and a total
time, since one span per filter update would cost more memory than the
workload itself.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

POLICIES = ("mts", "agemts", "cducb", "cdts", "exp4s", "mucb", "explore_commit", "explore_then_ps")
DATASET_STEPS = ("ingest_ratings", "pmf_train", "kmeans_users", "build_reward_model")


class Probes:
    """Counts, busy time and spans of one traced pass."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.seconds: defaultdict = defaultdict(float)
        self.spans: list = []
        self.policies: list = []
        self.rollout_steps = 0
        self._open: list = []

    def _wrap(self, layer: str, fn, span: bool = False, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if span:
                index = len(self.spans)
                parent = self._open[-1] if self._open else None
                self._open.append(index)
                self.spans.append({"name": layer, "parent": parent})
            start = time.perf_counter()
            try:
                value = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.calls[layer] += 1
                self.seconds[layer] += end - start
                if span:
                    self._open.pop()
                    self.spans[index].update(start=start, end=end)
            if after is not None:
                after(value, *args, **kwargs)
            return value

        return wrapper

    def install(self, lib) -> None:
        """Wrap the library's layer entry points in a freshly imported copy."""
        harness = lib.harness
        harness.run_experiment = self._wrap("harness.run_experiment", harness.run_experiment, span=True)
        harness.emit_outputs = self._wrap("harness.emit_outputs", harness.emit_outputs, span=True)
        harness._trace_line = self._wrap("harness.trace_line", harness._trace_line)
        harness.generate_trajectory = self._wrap(
            "environments.generate_trajectory", harness.generate_trajectory, span=True
        )
        harness.make_policy = self._wrap(
            "policies.make_policy", harness.make_policy, span=True, after=self._made_policy
        )
        lib.policies.explore_then_ps_tau = self._wrap(
            "explore.explore_then_ps_tau", lib.policies.explore_then_ps_tau, span=True
        )
        lib.agemts.reward_estimator = self._wrap(
            "rollout.reward_estimator", lib.agemts.reward_estimator, span=True, after=self._rolled_out
        )
        lib.agemts.best_info_arm = self._wrap("belief.best_info_arm", lib.agemts.best_info_arm)
        for module in (lib.base, lib.rollout):
            module.posterior_update = self._wrap("belief.posterior_update", module.posterior_update)
        for step in DATASET_STEPS:
            setattr(lib.datasets, step, self._wrap(f"datasets.{step}", getattr(lib.datasets, step), span=True))
        belief_state = lib.models.BeliefState
        built = belief_state.__post_init__

        def counted(instance):
            self.calls["models.belief_states_built"] += 1
            built(instance)

        belief_state.__post_init__ = counted

    def _made_policy(self, policy, name, *args, **kwargs) -> None:
        self.policies.append(policy)
        layer = f"policy.{name}.step"
        for method in ("step", "observe"):
            bound = getattr(policy, method)
            setattr(policy, method, self._wrap(layer if method == "step" else f"{layer}.observe", bound))

    def _rolled_out(self, result, belief, *args, **kwargs) -> None:
        # one inner step per hypothesis the estimator walks: every state
        # with belief mass other than the argmax
        probs = belief.probs
        hypotheses = int((probs > 0).sum()) - int(probs[int(probs.argmax())] > 0)
        self.rollout_steps += result.horizon_used * hypotheses

    def metrics(self, out_bytes: int) -> dict:
        """Per-layer figures of the pass, by metric name."""
        calls, seconds = self.calls, self.seconds

        def per_call(layer: str, scale: float) -> float:
            return scale * seconds[layer] / calls[layer] if calls[layer] else 0.0

        agemts = [p for p in self.policies if getattr(p, "name", "") == "agemts"]
        info_plays = sum(p.info_plays for p in agemts)
        rollouts = sum(p.rollouts_run for p in agemts)
        figures = {
            "harness.trace_lines": calls["harness.trace_line"],
            "harness.trace_line_us": per_call("harness.trace_line", 1e6),
            "harness.output_mb": out_bytes / 1e6,
            "harness.emit_outputs_s": seconds["harness.emit_outputs"],
            "harness.run_experiment_s": seconds["harness.run_experiment"],
            "rollout.reward_estimator_calls": calls["rollout.reward_estimator"],
            "rollout.reward_estimator_ms": per_call("rollout.reward_estimator", 1e3),
            "rollout.us_per_step": (
                1e6 * seconds["rollout.reward_estimator"] / self.rollout_steps if self.rollout_steps else 0.0
            ),
            "agemts.info_plays": info_plays,
            "agemts.probe_yield": info_plays / rollouts if rollouts else 0.0,
            "explore.explore_then_ps_tau_calls": calls["explore.explore_then_ps_tau"],
            "explore.explore_then_ps_tau_s": seconds["explore.explore_then_ps_tau"],
            "belief.best_info_arm_calls": calls["belief.best_info_arm"],
            "belief.best_info_arm_us": per_call("belief.best_info_arm", 1e6),
            "belief.posterior_update_calls": calls["belief.posterior_update"],
            "belief.posterior_update_us": per_call("belief.posterior_update", 1e6),
            "models.belief_states_built": calls["models.belief_states_built"],
        }
        for name in POLICIES:
            layer = f"policy.{name}.step"
            steps = calls[layer]
            busy = seconds[layer] + seconds[f"{layer}.observe"]
            figures[f"{layer}_us"] = 1e6 * busy / steps if steps else 0.0
        figures.update(
            {
                "environments.generate_trajectory_calls": calls["environments.generate_trajectory"],
                "environments.generate_trajectory_ms": per_call("environments.generate_trajectory", 1e3),
                "policies.make_policy_calls": calls["policies.make_policy"],
                "policies.make_policy_ms": per_call("policies.make_policy", 1e3),
            }
        )
        for step in DATASET_STEPS:
            figures[f"datasets.{step}_s"] = seconds[f"datasets.{step}"]
        return figures
