"""Latent bandit environment generation.

Environments own the hidden state trajectory, generated once per run and
replayed by every policy.  Transition structures come from small graph
families: a fully connected chain, a two-branch chain whose start state
forks into one of two branches, and the same branch graph with
cross-branch skip edges.  Branch-type graphs designate state 0 as a
start state that transitions away immediately.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass

import numpy as np

from .config import TypedConfig, check_type
from .models import RewardModel, TransitionKernel, _as_prob_vector

GRAPH_KINDS = ("fully_connected", "skip_chain", "two_branch", "custom")


class ProtocolViolationError(RuntimeError):
    """A policy chose an arm outside the offered arm set."""


@dataclass(frozen=True)
class TransitionGraphSpec(TypedConfig):
    """Recipe for building a transition kernel.

    ``stay_prob`` is the self-transition probability of every non-start
    state; the remaining mass is split over the graph's out-edges, either
    equally or by a seeded uniform draw on the simplex.  Edges absent from
    the graph are exactly zero in the kernel.
    """

    kind: str
    num_states: int
    stay_prob: float = 0.995
    off_diagonal: str = "uniform"
    seed: int = 0
    edges: tuple | None = None  # only for kind == "custom": ((src, dst), ...)

    def __post_init__(self):
        super().__post_init__()
        if self.kind not in GRAPH_KINDS:
            raise ValueError(f"unknown graph kind {self.kind!r}")
        if not 0.0 < self.stay_prob <= 1.0:
            raise ValueError("stay_prob must lie in (0, 1]")
        if self.off_diagonal not in ("uniform", "random_nonuniform"):
            raise ValueError(f"unknown off_diagonal mode {self.off_diagonal!r}")
        if self.num_states < 2:
            raise ValueError("need at least 2 states")
        if self.kind in ("two_branch", "skip_chain") and (
            self.num_states < 5 or self.num_states % 2 == 0
        ):
            raise ValueError(f"{self.kind} graphs need an odd number of states >= 5")
        if self.kind == "custom" and self.edges is None:
            raise ValueError("custom graphs require an explicit edge list")
        if self.edges is not None:
            edges = tuple((check_type("an edge source", a, int), check_type("an edge target", b, int))
                          for a, b in self.edges)
            if not all(0 <= state < self.num_states for edge in edges for state in edge):
                raise ValueError(f"edge endpoints must be states in [0, {self.num_states}), got {edges}")
            object.__setattr__(self, "edges", edges)


def _graph_edges(spec: TransitionGraphSpec) -> tuple[dict[int, list[int]], set[int]]:
    """Out-edge adjacency (self-loops excluded) plus the start-state set.

    Start states carry no self mass: they hand the chain to a branch on
    the very first transition.
    """
    n = spec.num_states
    out: dict[int, list[int]] = {s: [] for s in range(n)}
    starts: set[int] = set()
    if spec.kind == "fully_connected":
        for s in range(n):
            out[s] = [t for t in range(n) if t != s]
    elif spec.kind in ("two_branch", "skip_chain"):
        starts.add(0)
        half = (n - 1) // 2
        branch_a = list(range(1, 1 + half))
        branch_b = list(range(1 + half, n))
        out[0] = [branch_a[0], branch_b[0]]
        for branch in (branch_a, branch_b):
            for i, s in enumerate(branch):
                out[s] = [branch[(i + 1) % len(branch)]]
        if spec.kind == "skip_chain":
            # cross-branch skips from each branch head to the other branch's tail
            out[branch_a[0]].append(branch_b[-1])
            out[branch_b[0]].append(branch_a[-1])
    else:  # custom
        for src, dst in spec.edges:
            if src == dst:
                continue
            out[src].append(dst)
    return out, starts


def build_transition_kernel(spec: TransitionGraphSpec) -> TransitionKernel:
    """Materialize the row-stochastic kernel described by ``spec``."""
    out, starts = _graph_edges(spec)
    n = spec.num_states
    rng = np.random.default_rng(spec.seed)
    matrix = np.zeros((n, n))
    for s in range(n):
        edges = out[s]
        stay = 0.0 if s in starts else spec.stay_prob
        spread = 1.0 - stay
        if not edges:
            if spread > 0:
                raise ValueError(
                    f"state {s} has no out-edges but stay_prob {spec.stay_prob} < 1"
                )
            matrix[s, s] = 1.0
            continue
        matrix[s, s] = stay
        if spec.off_diagonal == "uniform" or len(edges) == 1:
            matrix[s, edges] = spread / len(edges)
        else:
            weights = rng.dirichlet(np.ones(len(edges)))
            matrix[s, edges] = spread * weights
        # exact stochasticity despite float splits
        matrix[s, edges[-1]] += 1.0 - matrix[s].sum()
    return TransitionKernel(matrix)


def sample_arm_set(catalog_size: int, set_size: int, rng: np.random.Generator) -> np.ndarray:
    """Uniform sample of distinct arm indices."""
    if set_size > catalog_size:
        raise ValueError("set_size cannot exceed catalog_size")
    return np.sort(rng.choice(catalog_size, size=set_size, replace=False))


def _cdf(p: np.ndarray) -> list:
    """The CDF of ``p`` as numpy's ``Generator.choice`` normalises it:
    the cumulative sum, divided by its last entry."""
    cdf = p.cumsum()
    return (cdf / cdf[-1]).tolist()


def _transition_cdfs(kernel: TransitionKernel, schedule) -> list:
    """Per-state CDF rows of the next-state draw.

    A fixed schedule draws, at a scheduled time, a state other than the
    current one from the kernel's off-diagonal mass (two-state chains
    therefore flip deterministically); an absorbing row falls back to
    any other state uniformly.
    """
    cdfs = []
    for state, row in enumerate(kernel.matrix):
        if schedule is not None:
            row = row.copy()
            row[state] = 0.0
            if row.sum() <= 0:
                row = np.ones_like(row)
                row[state] = 0.0
            row = row / row.sum()
        cdfs.append(_cdf(row))
    return cdfs


def _draw(cdf: list, rng: np.random.Generator) -> int:
    """The index ``rng.choice(len(cdf), p=p)`` returns for the CDF of ``p``."""
    return bisect.bisect_right(cdf, rng.random())


@dataclass(frozen=True)
class Trajectory:
    """Pre-generated environment path shared by all policies of one run.

    ``states[t]`` is the hidden state in force at step t, ``noise[t]`` the
    standard normal draw that perturbs whichever arm a policy plays, so
    policies are compared on identical randomness.
    """

    states: np.ndarray
    arm_sets: list
    noise: np.ndarray


def generate_trajectory(
    model: RewardModel,
    kernel: TransitionKernel,
    prior: np.ndarray,
    horizon: int,
    rng: np.random.Generator,
    schedule=None,
    arm_set_size: int | None = None,
) -> Trajectory:
    """Roll the hidden chain forward and fix arm sets and noise.

    The generator draws the start state from the prior, then per step
    the offered arm set (when ``arm_set_size`` is given) before the next
    state, and the noise of all steps last.  Each state draw is one
    uniform bisected into a CDF row built once per call, the draw
    ``rng.choice(p=row)`` makes; without a schedule the chain moves at
    every step, with one only at its times (counted from 1).  Without
    ``arm_set_size`` every step shares one read-only ``arange``.
    """
    schedule = frozenset(schedule) if schedule else None
    cdfs = _transition_cdfs(kernel, schedule)
    state = _draw(_cdf(_as_prob_vector(prior, "prior")), rng)
    states = []
    if arm_set_size is None:
        every_arm = np.arange(model.num_arms)
        every_arm.setflags(write=False)
        arm_sets = [every_arm] * horizon
    else:
        arm_sets = []
    for t in range(horizon):
        states.append(state)
        if arm_set_size is not None:
            arm_sets.append(sample_arm_set(model.num_arms, arm_set_size, rng))
        if schedule is None or t + 1 in schedule:
            state = _draw(cdfs[state], rng)
    noise = rng.standard_normal(horizon)
    return Trajectory(states=np.array(states, dtype=int), arm_sets=arm_sets, noise=noise)
