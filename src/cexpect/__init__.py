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
)
from .condexp import (
    BivariateModel,
    GaussianVector,
    RegressionFunction,
    ar_vector,
    bivariate_from_config,
    equicorrelated_vector,
)
from .reports import ExperimentResult, PairedReport
from .theorems import (
    ConditionalIidCopies,
    GaussianCopies,
    default_copies_battery,
    martingale_checks,
    predicted_sequence_stats,
    verify_copula_theorem,
    verify_corollary_chain,
    verify_covariance_identity,
    verify_theorem1,
    verify_theorem2,
    verify_theorem3,
)
from .ordered import (
    RecordBatch,
    markov_property_check,
    max_regression,
    mse_order_inequality,
    order_stats,
    record_predictor_mse,
    record_regression,
    record_tables,
    simulate_records,
)
from .coalition import (
    MarketConfig,
    compare_strategies,
    market_from_config,
)
