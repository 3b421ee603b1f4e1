"""Adaptive nonparametric estimation for discretely observed functional
data: local regularity, noise level, mean, and covariance, with fully
data-driven bandwidths, plus a Gaussian process simulation harness."""

from .errors import (
    EstimationError,
    ExperimentError,
    FdadaptError,
    GenerationError,
    InsufficientDataError,
    ValidationError,
)
from .dataset import (
    DESIGN_COMMON,
    DESIGN_INDEPENDENT,
    CurveObservations,
    EvalGrid,
    FunctionalDataset,
    detect_design,
    ingest_long_csv,
    make_dataset,
    write_long_csv,
)
from .kernels import (
    BIWEIGHT,
    EPANECHNIKOV,
    UNIFORM,
    Kernel,
    get_kernel,
    kernel_abs_moment,
    lp_weights,
)
from .regularity import (
    NOISE_CONSTANT,
    NOISE_TIME_VARYING,
    NoiseEstimate,
    RegularityEstimate,
    RegularitySchedule,
    anchor_points,
    estimate_H,
    estimate_L2,
    estimate_noise,
    estimate_regularity,
    noise_k0,
    presmooth_matrix,
    regularity_at_anchors,
)
from .mean import (
    BandwidthGrid,
    InclusionStats,
    MeanEstimate,
    RiskProfile,
    estimate_mean,
    inclusion_stats,
    mean_risk,
    mean_risk_terms,
    select_mean_bandwidth,
)
from .covariance import (
    CovarianceSurface,
    CovRiskProfile,
    PairInclusionStats,
    band_exponent,
    covariance_risk,
    covariance_risk_terms,
    diagonal_band_width,
    diagonal_fill_error,
    estimate_covariance,
    pair_inclusion_stats,
    select_cov_bandwidth,
)
from .simulate import (
    DesignSpec,
    MeanFunction,
    NoiseSpec,
    ProcessSpec,
    SampledData,
    cov_matrix,
    sample_dataset,
    true_covariance,
)
from .evaluate import (
    ExperimentConfig,
    ExperimentReport,
    Fit,
    empirical_cov_tilde,
    empirical_mean_tilde,
    fit,
    ise_1d,
    ise_2d,
    rate_slope,
    run_experiment,
    write_report_csv,
    write_summary_csv,
)

__version__ = "0.1.0"
