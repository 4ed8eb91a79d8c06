"""Latent bandit simulators, belief-state policies, and a regret harness."""

from .belief import (
    best_info_arm,
    entropy,
    expected_dwell_time,
    gaussian_kl,
    info_arm_stats,
    mean_pairwise_gap,
    mean_pairwise_kl,
    posterior_update,
    propagate,
    single_step_regret_bound,
)
from .environments import (
    ProtocolViolationError,
    TransitionGraphSpec,
    build_transition_kernel,
    generate_trajectory,
    sample_arm_set,
)
from .harness import (
    ConfigError,
    EnvironmentSpec,
    ExperimentConfig,
    PolicySpec,
    bayes_regret,
    emit_outputs,
    load_config,
    run_experiment,
    save_config,
    sweep,
)
from .models import (
    BeliefState,
    DegenerateEvidenceError,
    InfoArmStats,
    RewardModel,
    TransitionKernel,
    load_model_json,
    model_from_dict,
    model_to_dict,
    save_model_json,
)
from .presets import five_state_model, two_state_model
from .recipes import RECIPES, get_recipe

__version__ = "0.1.0"
