"""Regression-based Monte Carlo pricing of Bermudan options.

The classical least-squares estimator makes its exercise decisions with
fitted continuation values that have already seen each path's own future; the
leave-one-out variant replaces them with closed-form self-excluded
predictions, removing that look-ahead bias for O(NM) extra work.  The package
bundles the estimators, exact GBM simulation, reference oracles, and the
experiment harness that measures the bias and its M/N convergence.
"""

from .contracts import (
    BASKET_CALL,
    BESTOF_CALL,
    PUT_SINGLE,
    BasisSpec,
    BasisTerm,
    PayoffSpec,
    basis_family,
    design_matrix,
    discounted_payout,
)
from .engine import (
    MODE_EUROPEAN,
    MODE_LOOLSM,
    MODE_LSM,
    MODE_LSM2,
    PricingResult,
    apply_control_variate,
    continue_mask,
    price_backward,
)
from .errors import ConfigError, NumericalError
from .harness import (
    ExperimentConfig,
    ExperimentReport,
    ReportRow,
    SlopeFit,
    default_config,
    derive_seed,
    emit_csv,
    fit_bias_slope,
    run_experiment1,
    run_experiment2,
)
from .market import (
    ExerciseSchedule,
    GbmModel,
    PathSet,
    correlation_factor,
    generate_paths,
    split_pool,
    uniform_schedule,
)
from .oracles import (
    ReferencePrice,
    bestof2_european_call,
    binomial_bermudan_put,
    bivariate_normal_cdf,
    bs_european_put,
    reference_price,
)
from .regression import (
    RegressionFit,
    fit_least_squares,
    loo_fallback_mask,
    loo_predictions,
)

__version__ = "0.1.0"
