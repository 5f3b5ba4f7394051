"""Best-arm identification for two-armed bandits: complexity quantities,
lower bounds, matching fixed-confidence and fixed-budget strategies, and a
deterministic Monte Carlo harness."""

from .complexity import (
    TwoArmedComplexityReport,
    c_star_fb,
    c_star_fc,
    complexity_report,
    g_alpha,
    i_star_bernoulli,
    i_star_fb,
    i_star_fc,
    optimal_alpha,
)
from .dists import (
    BERNOULLI_FAMILY,
    EXPONENTIAL_FAMILY,
    ArmDistribution,
    Bernoulli,
    ExpFamilyArm,
    ExpFamilyDescriptor,
    Gaussian,
    binary_entropy,
    gaussian_family,
    kl,
    mean_to_nat,
    nat_to_mean,
    sample_n,
)
from .errors import (
    BestArmError,
    DegenerateInstance,
    DomainError,
    FamilyMismatch,
)
from .fc_algos import ExplorationRate, RunOutcome, eval_rate
from .harness import AlgorithmSpec, ExperimentConfig, ExperimentRecord
from .instances import BanditInstance, two_armed_bernoulli, two_armed_gaussian
from .rng import make_rng, mix_seed

__all__ = [
    "AlgorithmSpec",
    "ArmDistribution",
    "BanditInstance",
    "Bernoulli",
    "BestArmError",
    "BERNOULLI_FAMILY",
    "DegenerateInstance",
    "DomainError",
    "ExpFamilyArm",
    "ExpFamilyDescriptor",
    "ExperimentConfig",
    "ExperimentRecord",
    "ExplorationRate",
    "EXPONENTIAL_FAMILY",
    "FamilyMismatch",
    "Gaussian",
    "RunOutcome",
    "TwoArmedComplexityReport",
    "binary_entropy",
    "c_star_fb",
    "c_star_fc",
    "complexity_report",
    "eval_rate",
    "g_alpha",
    "gaussian_family",
    "i_star_bernoulli",
    "i_star_fb",
    "i_star_fc",
    "kl",
    "make_rng",
    "mean_to_nat",
    "mix_seed",
    "nat_to_mean",
    "optimal_alpha",
    "sample_n",
    "two_armed_bernoulli",
    "two_armed_gaussian",
]
