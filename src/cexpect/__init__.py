"""cexpect: conditional-expectation predictors and a deterministic Monte
Carlo harness that verifies the associated MSE inequalities, covariance
identities, copula-swap behavior, and ordered-data predictors.
"""

__version__ = "0.1.0"

from .marginals import Exponential, Marginal, MaxOfIid, Normal, Uniform, marginal_from_config
from .copulas import (
    Clayton,
    Copula,
    EmpiricalCopula,
    FGM,
    Gaussian,
    Independence,
    copula_from_config,
    sup_distance,
    sup_distance_swapped,
)
from .condexp import (
    BivariateModel,
    GaussianVector,
    RegressionFunction,
    ar_vector,
    bivariate_from_config,
    equicorrelated_vector,
    gaussian_conditional,
    generalized_inverse,
    kernel_regress,
    knn_regress,
    predictor_quantile,
)
from .reports import ExperimentResult, PairedReport, ThresholdReport
from .theorems import (
    ConditionalIidCopies,
    GaussianCopies,
    covariance_counterexample,
    default_copies_battery,
    martingale_check,
    martingale_checks,
    predicted_sequence_stats,
    predictor_pair_covariance,
    verify_copula_theorem,
    verify_corollary_chain,
    verify_covariance_identity,
    verify_theorem1,
    verify_theorem2,
    verify_theorem3,
)
from .ordered import (
    RecordBatch,
    RecordSequence,
    cond_pdf_max_given_next,
    cond_pdf_max_given_second,
    cumulative_hazard,
    extract_records,
    g1,
    g2,
    markov_property_check,
    max_regression,
    mse_order_inequality,
    record_predictor_mse,
    simulate_records,
)
from .coalition import (
    CoalitionReport,
    MarketConfig,
    coalition_average_predictor,
    compare_strategies,
    individual_predictor,
    market_from_config,
    simulate_market,
)
