"""Up-front exploration strategies for the stationary two-state problem.

Three ways to spend the probe arm: never (pure posterior sampling), a
z-test-sized budget followed by an irrevocable commit, or a forecast-
optimized budget followed by continued filtering.  Also shows the
fallback: when the probe costs more than any recoverable regret, the
forecast objective picks a zero budget.

Run: python demos/04_explore_strategies.py              (about 10 s)
"""

import numpy as np

from latentbandits import RewardModel, run_experiment, two_state_model
from latentbandits.policies import (
    belief_forecast_two_state,
    explore_commit_sample_size,
    explore_then_ps_tau,
)
from latentbandits.recipes import get_recipe

model = two_state_model(probe_std=0.05)

n_e = explore_commit_sample_size(0.2, 0.5, 0.5, 1.96, 0.84)
print(f"z-test budget for a 0.2 shift at std 0.5 (95% / 80% design): {n_e} plays")
print(f"same design at the probe's own std 0.05: "
      f"{explore_commit_sample_size(0.2, 0.05, 0.05, 1.96, 0.84)} play\n")

tau = explore_then_ps_tau(model, info_arm=2, horizon=1000)
print(f"forecast-optimal probe budget: tau = {tau}")
path = belief_forecast_two_state(0.5, model, 5, true_state=0, arm=2)
print(f"forecast belief after each probe play: {np.round(path, 4)}\n")

costly = RewardModel(
    means=[[2.1, 2.05], [2.05, 2.1], [-9.9, -10.1]],
    stds=[[0.5, 0.5], [0.5, 0.5], [0.05, 0.05]],
)
print(f"with a prohibitively costly probe: tau = "
      f"{explore_then_ps_tau(costly, 2, 1000)} (pure posterior sampling)\n")

config = get_recipe("two_state_explore_strategies", num_runs=30)
results = run_experiment(config)
print("mean cumulative regret at the horizon (30 runs):")
for name in results.policy_names:
    final = results.regret_matrix(name)[:, -1].mean()
    print(f"  {name:>16}: {final:7.2f}")
