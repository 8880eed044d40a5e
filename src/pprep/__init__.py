"""Power-prior estimation, testing, and design for replication studies.

Given an original study's effect estimate and one replication's estimate
(both with normal likelihood approximations), this package computes
power-prior posteriors for the effect size and the discounting parameter,
Bayes factor tests of effect and compatibility, closed-form replication
design probabilities, and the exact correspondence to normal hierarchical
models.
"""

from .bayes_factors import (
    BayesFactorResult,
    LimitClassification,
    UnitInformation,
    bf01_power_prior,
    bf01_power_prior_limit,
    bf01_replication,
    bf_dc_beta,
    bf_dc_beta_limit,
    bf_dc_invgamma,
    bf_dc_invgamma_limit,
    bf_dc_point,
    bf_dc_point_limit,
    format_bf,
    implied_alpha_prior_logdensity,
)
from .design import (
    DesignResult,
    DesignSpec,
    default_sigma_grid,
    find_design,
    n_to_sigma,
    prob_replication_success,
    sigma_to_n,
    success_threshold,
)
from .exceptions import (
    ConvergenceError,
    DomainError,
    GridStateError,
    InputValidationError,
    PprepError,
    UnsupportedDomainError,
)
from .hierarchical import (
    HierarchicalHypothesis,
    I2_prior_from_alpha_prior,
    I2_to_alpha,
    OverallEffectPrior,
    alpha_to_I2,
    alpha_to_tau2,
    compatibility_beta_hypotheses,
    compatibility_point_hypotheses,
    effect_test_hypotheses,
    hier_bayes_factor,
    hier_evidence,
    hier_marginal_posterior_tau2,
    hier_marginal_posterior_theta_r,
    hier_posterior_theta_r,
    tau2_prior_from_alpha_prior,
    tau2_to_alpha,
)
from .inference import (
    BetaParams,
    DensityGrid,
    PosteriorSummary,
    Study,
    StudyPair,
    alpha_empirical_bayes,
    alpha_grid,
    alpha_mode,
    evidence_and_error,
    joint_grid,
    joint_posterior_logdensity,
    limiting_alpha_posterior_logdensity,
    marginal_posterior_alpha,
    marginal_posterior_theta,
    posterior_theta_fixed_alpha,
    power_prior_logdensity,
    summarize,
    theta_grid,
)
from .quadrature import QuadratureSpec, integrate_semiinf, integrate_unit
from .special import (
    GBetaParams,
    GFParams,
    InvGammaParams,
    gbeta_logpdf,
    gf_logpdf,
    invgamma_logpdf,
    log_beta,
    log_kummer_m,
    noncentral_chisq1_cdf,
    normal_logpdf,
)

__version__ = "0.1.0"
