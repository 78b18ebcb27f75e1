"""qstrat: quantile-stratified Monte Carlo sampling and integration.

The package draws IID, quantile-stratified (QS) and layered quantile-
stratified (LQS) samples from univariate distributions, provides the exact
moment/MSE/spacing theory of the uniform order statistics under each scheme,
and implements standard and quantile-stratified importance sampling, plus a
reproducible experiment harness and CLI.
"""

from .distributions import (
    Beta,
    BlockPartition,
    Custom,
    Discrete,
    Distribution,
    Gamma,
    Normal,
    Uniform01,
    block_boundaries,
    conditional_cdf,
    conditional_pdf,
    conditional_quantile,
    distribution_from_name,
)
from .errors import (
    DomainError,
    EmptySampleError,
    PairUndefinedError,
    QstratError,
    ZeroProposalDensityError,
)
from .estimators import (
    BENCHMARKS,
    EstimateSummary,
    ImportanceProblem,
    beta_log_integral,
    estimate_replicates,
    gamma_gaussian_integral,
    importance_estimate,
    importance_weight,
    mean_estimate,
    taylor_variance_approx,
)
from .experiments import DEFAULT_SEED, ExperimentConfig, run_experiment
from .sampling import (
    LayerSpec,
    SampleBatch,
    sample_iid,
    sample_lqs,
    sample_qs,
    spawn_seed,
)
from .theory import (
    MomentSummary,
    SpacingLaw,
    adj_factor,
    log_mse_gap_profile,
    lqs_uniform_moments,
    mse_asymptotic,
    mse_exact,
    order_stat_moments,
    qs_uniform_moments,
    quantile_targets,
    spacing_law,
)

__version__ = "0.1.0"

__all__ = [
    "Beta",
    "BlockPartition",
    "Custom",
    "Discrete",
    "Distribution",
    "Gamma",
    "Normal",
    "Uniform01",
    "block_boundaries",
    "conditional_cdf",
    "conditional_pdf",
    "conditional_quantile",
    "distribution_from_name",
    "QstratError",
    "DomainError",
    "PairUndefinedError",
    "EmptySampleError",
    "ZeroProposalDensityError",
    "LayerSpec",
    "SampleBatch",
    "sample_iid",
    "sample_qs",
    "sample_lqs",
    "spawn_seed",
    "MomentSummary",
    "SpacingLaw",
    "qs_uniform_moments",
    "lqs_uniform_moments",
    "adj_factor",
    "quantile_targets",
    "order_stat_moments",
    "mse_exact",
    "mse_asymptotic",
    "log_mse_gap_profile",
    "spacing_law",
    "ImportanceProblem",
    "EstimateSummary",
    "mean_estimate",
    "importance_weight",
    "importance_estimate",
    "estimate_replicates",
    "taylor_variance_approx",
    "beta_log_integral",
    "gamma_gaussian_integral",
    "BENCHMARKS",
    "ExperimentConfig",
    "run_experiment",
    "DEFAULT_SEED",
    "__version__",
]
