"""adalab: adaptive data analysis over correlated samples, at desk scale.

Simulates an analyst asking a sequence of mean queries against a held
sample whose entries may be arbitrarily correlated, answered by
noise-addition mechanisms (real, oracle, or a switching hybrid), and
provides the attack constructions and closed-form round bounds that
separate what such mechanisms can and cannot sustain.
"""

from .attack import (
    InfoRoundAnalyst,
    build_hard_instance,
    calibrated_attack_constant,
    instance_shape,
    run_score_attack,
)
from .bounds import (
    accuracy_noise_scale,
    breaking_rounds,
    composed_epsilon,
    noise_escape_mass,
    score_attack_rounds,
    transcript_accurate,
)
from .concentration import check_concentration_exact
from .core import empirical_mean, true_mean
from .harness import ExperimentConfig, derive_entropy, derive_rng, run_experiment
from .mechanisms import MechanismKind, MechanismState, NoiseSpec, answer, run_interaction

__version__ = "0.1.0"

__all__ = [
    "ExperimentConfig",
    "InfoRoundAnalyst",
    "MechanismKind",
    "MechanismState",
    "NoiseSpec",
    "accuracy_noise_scale",
    "answer",
    "breaking_rounds",
    "build_hard_instance",
    "calibrated_attack_constant",
    "check_concentration_exact",
    "composed_epsilon",
    "derive_entropy",
    "derive_rng",
    "empirical_mean",
    "instance_shape",
    "noise_escape_mass",
    "run_experiment",
    "run_interaction",
    "run_score_attack",
    "score_attack_rounds",
    "transcript_accurate",
    "true_mean",
]
