"""Diffusion adaptive estimation over networks with noisy links.

Simulation laboratory for adapt-then-combine diffusion filters (LMS,
correntropy, and total-correntropy variants) exchanging data and weight
estimates over noisy channels, plus the closed-form mean and
mean-square analysis they admit under Gaussian noise.
"""

from .config import ExperimentConfig
from .engine import AlgorithmSpec, KernelSchedule
from .errors import (
    ConfigError,
    DifflabError,
    EmptyEnsembleError,
    GenerationFailureError,
    InstabilityError,
    InvalidArgumentError,
    NumericalFailureError,
    UnknownKeyError,
    UnmodeledCaseError,
)
from .harness import (
    LearningCurve,
    convergence_iteration,
    monte_carlo_msd,
    steady_state_estimate,
    sweep,
    theory_vs_simulation,
)
from .noise import GmmSpec, LinkNoiseSpec, gamma_lk
from .simulate import NetworkProblem, simulate_group, simulate_runs
from .theory import (
    MsdPrediction,
    TheoryInputs,
    steady_state_msd,
    stepsize_upper_bound,
)
from .topology import (
    NetworkGraph,
    generate_random_graph,
    load_edge_list,
    metropolis_weights,
    save_edge_list,
    validate_combination_matrix,
)

__all__ = [
    "AlgorithmSpec",
    "ConfigError",
    "DifflabError",
    "EmptyEnsembleError",
    "ExperimentConfig",
    "GenerationFailureError",
    "GmmSpec",
    "InstabilityError",
    "InvalidArgumentError",
    "KernelSchedule",
    "LearningCurve",
    "LinkNoiseSpec",
    "MsdPrediction",
    "NetworkGraph",
    "NetworkProblem",
    "NumericalFailureError",
    "TheoryInputs",
    "UnknownKeyError",
    "UnmodeledCaseError",
    "convergence_iteration",
    "gamma_lk",
    "generate_random_graph",
    "load_edge_list",
    "metropolis_weights",
    "monte_carlo_msd",
    "save_edge_list",
    "simulate_group",
    "simulate_runs",
    "steady_state_estimate",
    "steady_state_msd",
    "stepsize_upper_bound",
    "sweep",
    "theory_vs_simulation",
    "validate_combination_matrix",
]
