"""Belief filtering basics.

Walks one latent bandit episode by hand: a hidden two-state environment,
a known reward table, and an agent updating its belief from rewards.
Shows how tight-variance observations collapse the belief at once while
noisy ones barely move it, and how the transition kernel keeps leaking
probability back after every update.

Run: python demos/01_belief_filtering.py
"""

import numpy as np

import latentbandits as lb
from latentbandits.belief import likelihoods_from_log, reward_log_likelihoods

model = lb.two_state_model()
kernel = lb.TransitionKernel([[0.995, 0.005], [0.005, 0.995]])
belief = lb.BeliefState([0.5, 0.5])

print("reward means by (arm, state):")
print(model.means, "\n")
print(f"start: belief={belief.probs}, entropy={lb.entropy(belief):.3f} bits")
print(f"expected dwell in the current state: "
      f"{lb.expected_dwell_time(kernel, belief, 10_000):.0f} steps\n")

rng = np.random.default_rng(0)
true_state = 0

print("playing the noisy best arm (arm 0, std 0.5) five times:")
for t in range(5):
    reward = rng.normal(model.means[0, true_state], model.stds[0, true_state])
    liks = likelihoods_from_log(reward_log_likelihoods(model, 0, reward))
    belief = lb.posterior_update(belief, kernel, liks)
    print(f"  t={t + 1}: reward={reward:+.3f} -> belief={np.round(belief.probs, 4)}"
          f"  entropy={lb.entropy(belief):.3f}")

print("\nnow one play of the probe arm (arm 2, std 0.01):")
reward = rng.normal(model.means[2, true_state], model.stds[2, true_state])
liks = likelihoods_from_log(reward_log_likelihoods(model, 2, reward))
belief = lb.posterior_update(belief, kernel, liks)
print(f"  reward={reward:+.3f} -> belief={np.round(belief.probs, 6)}"
      f"  entropy={lb.entropy(belief):.5f}")

print("\nwith no further evidence the kernel diffuses the belief again:")
for t in range(3):
    belief = lb.propagate(belief, kernel)
print(f"  after 3 silent steps: belief={np.round(belief.probs, 4)}")
