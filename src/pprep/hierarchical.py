"""Normal hierarchical model and its exact correspondence to power priors.

A two-study hierarchical model with between-study heterogeneity tau2 and a
flat prior on the overall effect produces the same replication-effect
posterior as the power prior model whenever alpha and tau2 are linked by
alpha = var_o / (2 tau2 + var_o). The correspondence extends to random
alpha and tau2: a beta prior on alpha maps to a generalized F prior on
tau2 (scaled by the original study's variance) and to a generalized beta
prior on the relative heterogeneity I2. Hypothesis tests built from
hierarchical marginal likelihoods reproduce the power-prior Bayes factors
under matching prior assignments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from .bayes_factors import BayesFactorResult, UnitInformation
from .exceptions import DomainError
from .inference import BetaParams, NormalParams, Study, StudyPair
from .quadrature import DEFAULT_QUAD, IntegralResult, QuadratureSpec, integrate_semiinf
from .special import (
    GBetaParams,
    GFParams,
    InvGammaParams,
    gf_logpdf,
    invgamma_logpdf,
    normal_logpdf,
)

__all__ = [
    "OverallEffectPrior",
    "HierarchicalHypothesis",
    "hier_posterior_theta_r",
    "alpha_to_tau2",
    "tau2_to_alpha",
    "alpha_to_I2",
    "I2_to_alpha",
    "tau2_prior_from_alpha_prior",
    "I2_prior_from_alpha_prior",
    "hier_marginal_posterior_tau2",
    "hier_marginal_posterior_theta_r",
    "hier_evidence",
    "hier_bayes_factor",
    "effect_test_hypotheses",
    "compatibility_point_hypotheses",
    "compatibility_beta_hypotheses",
]


# ---------------------------------------------------------------------------
# Heterogeneity priors
# ---------------------------------------------------------------------------

# A prior on the heterogeneity variance: a fixed value (a point mass) or
# one of the continuous families.
Tau2Prior = float | GFParams | InvGammaParams
_CONTINUOUS = (GFParams, InvGammaParams)


def _tau2_logpdf(tau2: float, prior: GFParams | InvGammaParams) -> float:
    if isinstance(prior, GFParams):
        return gf_logpdf(tau2, prior)
    return invgamma_logpdf(tau2, prior)


def _tau2_mixture(
    log_f: Callable[[float], float], prior: GFParams | InvGammaParams, quad: QuadratureSpec
) -> IntegralResult:
    """Log of int_0^inf exp(log_f(tau2)) p(tau2) dtau2 over a continuous
    tau2 prior, with its log-scale error estimate."""
    if isinstance(prior, GFParams):
        scale = 1.0 / prior.lam
    else:
        scale = prior.r / (prior.q + 1.0)

    def integrand(tau2: float) -> float:
        return math.exp(log_f(tau2) + _tau2_logpdf(tau2, prior))

    # Anchor the substitution at the order of magnitude of the prior mass,
    # which the adaptive subdivision cannot discover on its own.
    return integrate_semiinf(integrand, quad, scale=scale).log()


# ---------------------------------------------------------------------------
# Fixed-heterogeneity posterior and the deterministic bridge maps
# ---------------------------------------------------------------------------


def hier_posterior_theta_r(pair: StudyPair, tau2: float) -> NormalParams:
    """Posterior of the replication-specific effect at fixed heterogeneity.

    Precision-weighted combination of the replication estimate and the
    original estimate, the latter carrying the extra variance 2 tau2 from
    the two hierarchy levels between the studies. The flat prior on the
    overall effect cancels, so its constant does not enter.
    """
    if not (tau2 >= 0):
        raise DomainError("heterogeneity variance must be nonnegative")
    rep, orig = pair.replication, pair.original
    return NormalParams(
        *_theta_r_moments(tau2, rep.estimate, 1.0 / rep.variance, orig.estimate, orig.variance)
    )


def _theta_r_moments(
    tau2: float, est_r: float, w_rep: float, est_o: float, var_o: float
) -> tuple[float, float]:
    """Mean and variance of :func:`hier_posterior_theta_r` from the pair's
    plain floats, unchecked, for integrands that hold them per integral."""
    w_orig = 1.0 / (2.0 * tau2 + var_o)
    variance = 1.0 / (w_rep + w_orig)
    return (est_r * w_rep + est_o * w_orig) * variance, variance


def alpha_to_tau2(alpha: float, sigma2_o: float) -> float:
    """Heterogeneity variance whose fixed-tau2 posterior matches the
    fixed-alpha power prior posterior; infinite at alpha = 0."""
    if not (0.0 <= alpha <= 1.0):
        raise DomainError("alpha must lie in [0, 1]")
    if not (sigma2_o > 0):
        raise DomainError("sigma2_o must be positive")
    if alpha == 0.0:
        return math.inf
    return (1.0 / alpha - 1.0) * sigma2_o / 2.0


def tau2_to_alpha(tau2: float, sigma2_o: float) -> float:
    """Inverse of :func:`alpha_to_tau2`."""
    if not (tau2 >= 0):
        raise DomainError("tau2 must be nonnegative")
    if not (sigma2_o > 0):
        raise DomainError("sigma2_o must be positive")
    return sigma2_o / (2.0 * tau2 + sigma2_o)


def alpha_to_I2(alpha: float) -> float:
    """Relative heterogeneity matching a given power parameter.

    The map (1 - t) / (1 + t) is its own inverse; it stays within 0.06 of
    the rough heuristic I2 ~ 1 - alpha.
    """
    if not (0.0 < alpha <= 1.0):
        raise DomainError("alpha must lie in (0, 1]")
    return (1.0 - alpha) / (1.0 + alpha)


def I2_to_alpha(i2: float) -> float:
    """Power parameter matching a given relative heterogeneity."""
    if not (0.0 <= i2 < 1.0):
        raise DomainError("I2 must lie in [0, 1)")
    return (1.0 - i2) / (1.0 + i2)


def tau2_prior_from_alpha_prior(prior: BetaParams, sigma2_o: float) -> GFParams:
    """Push a beta prior on alpha through the bridge map onto tau2.

    The result is a generalized F prior with swapped shapes and rate
    2 / sigma2_o, so the prior scales with the original study's variance.
    """
    if not (sigma2_o > 0):
        raise DomainError("sigma2_o must be positive")
    return GFParams(a=prior.y, b=prior.x, lam=2.0 / sigma2_o)


def I2_prior_from_alpha_prior(prior: BetaParams) -> GBetaParams:
    """Push a beta prior on alpha through the Moebius map onto I2."""
    return GBetaParams(a=prior.y, b=prior.x, lam=2.0)


# ---------------------------------------------------------------------------
# Random-heterogeneity posteriors
# ---------------------------------------------------------------------------


def hier_evidence(pair: StudyPair, tau2: float) -> float:
    """Log marginal likelihood of both estimates at fixed heterogeneity,
    reported with the flat-prior constant k = 1; only differences (ratios)
    of these values are meaningful."""
    if not (tau2 >= 0):
        raise DomainError("tau2 must be nonnegative")
    return _evidence_fn(pair)(tau2)


def _evidence_fn(pair: StudyPair) -> Callable[[float], float]:
    """``hier_evidence(pair, .)`` with the pair's floats read once and no
    check of tau2, for integrands, which only see tau2 >= 0."""
    est_r, est_o = pair.replication.estimate, pair.original.estimate
    var_sum = pair.original.variance + pair.replication.variance
    return lambda tau2: normal_logpdf(est_r, est_o, var_sum + 2.0 * tau2)


@lru_cache(maxsize=512)
def _tau2_posterior_norm(
    pair: StudyPair, prior: GFParams | InvGammaParams, quad: QuadratureSpec
) -> IntegralResult:
    return _tau2_mixture(_evidence_fn(pair), prior, quad)


def hier_marginal_posterior_tau2(
    tau2: float,
    pair: StudyPair,
    prior: GFParams | InvGammaParams,
    quad: QuadratureSpec = DEFAULT_QUAD,
) -> float:
    """Marginal posterior log-density of the heterogeneity variance."""
    if not isinstance(prior, _CONTINUOUS):
        raise DomainError("tau2 posterior requires a continuous prior")
    log_norm = _tau2_posterior_norm(pair, prior, quad).value
    return hier_evidence(pair, tau2) + _tau2_logpdf(tau2, prior) - log_norm


def hier_marginal_posterior_theta_r(
    theta: float,
    pair: StudyPair,
    prior: Tau2Prior,
    quad: QuadratureSpec = DEFAULT_QUAD,
) -> float:
    """Marginal posterior log-density of the replication-specific effect.

    Mixes the fixed-tau2 normal posterior over the tau2 posterior; both
    the mixture integral and its normalizer run through semi-infinite
    quadrature. A fixed tau2 gives the fixed-heterogeneity normal.
    """
    if not isinstance(prior, _CONTINUOUS):
        cond = hier_posterior_theta_r(pair, prior)
        return normal_logpdf(theta, cond.mean, cond.variance)
    log_norm = _tau2_posterior_norm(pair, prior, quad).value
    rep, orig = pair.replication, pair.original
    est_r, w_rep = rep.estimate, 1.0 / rep.variance
    est_o, var_o = orig.estimate, orig.variance
    log_evidence = _evidence_fn(pair)

    def log_f(tau2: float) -> float:
        mean, variance = _theta_r_moments(tau2, est_r, w_rep, est_o, var_o)
        return normal_logpdf(theta, mean, variance) + log_evidence(tau2)

    log_mix = _tau2_mixture(log_f, prior, quad).value
    # A vanishing mixture stays -inf even where the normalizer vanishes too.
    return log_mix - log_norm if log_mix > -math.inf else -math.inf


# ---------------------------------------------------------------------------
# Hypothesis tests from hierarchical marginal likelihoods
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OverallEffectPrior:
    """Prior for the overall effect, possibly conditional on tau2.

    A normal at ``mean`` with variance ``variance`` (+ tau2 when
    ``add_tau2`` is set, the form taken by the posterior of the overall
    effect given the original data under a flat initial prior). Variance
    zero without ``add_tau2`` is a point mass at ``mean``.
    """

    mean: float
    variance: float = 0.0
    add_tau2: bool = False

    def __post_init__(self):
        if not math.isfinite(self.mean):
            raise DomainError("overall effect prior mean must be finite")
        if self.variance < 0 or not math.isfinite(self.variance):
            raise DomainError("overall effect prior variance must be finite and >= 0")

    def marginal_variance(self, tau2: float) -> float:
        return self.variance + (tau2 if self.add_tau2 else 0.0)


@dataclass(frozen=True)
class HierarchicalHypothesis:
    """A proper joint prior for (overall effect, tau2), or point masses."""

    effect: OverallEffectPrior
    heterogeneity: Tau2Prior
    label: str = ""

    def __post_init__(self):
        if not isinstance(self.heterogeneity, _CONTINUOUS) and not (self.heterogeneity >= 0):
            raise DomainError("fixed heterogeneity prior needs tau2 >= 0")


def _hier_marginal_likelihood(
    pair: StudyPair, hyp: HierarchicalHypothesis, quad: QuadratureSpec
) -> IntegralResult:
    """Log marginal likelihood of the replication estimate and its
    log-scale quadrature error."""
    est_r, var_r = pair.replication.estimate, pair.replication.variance
    effect = hyp.effect

    def log_cond(tau2: float) -> float:
        return normal_logpdf(est_r, effect.mean, var_r + tau2 + effect.marginal_variance(tau2))

    het = hyp.heterogeneity
    if not isinstance(het, _CONTINUOUS):
        return IntegralResult(log_cond(het), 0.0)
    return _tau2_mixture(log_cond, het, quad)


def hier_bayes_factor(
    pair: StudyPair,
    numerator: HierarchicalHypothesis,
    denominator: HierarchicalHypothesis,
    quad: QuadratureSpec = DEFAULT_QUAD,
) -> BayesFactorResult:
    """Bayes factor between two hierarchical hypothesis specifications."""
    log_num, err_num = _hier_marginal_likelihood(pair, numerator, quad)
    log_den, err_den = _hier_marginal_likelihood(pair, denominator, quad)
    return BayesFactorResult(
        log_bf=log_num - log_den,
        orientation=(numerator.label or "numerator", denominator.label or "denominator"),
        quadrature_err=err_num + err_den,
    )


def effect_test_hypotheses(
    original: Study, prior: BetaParams
) -> tuple[HierarchicalHypothesis, HierarchicalHypothesis]:
    """Hierarchical hypothesis pair reproducing the power-prior effect test.

    Null: zero overall effect, no heterogeneity. Alternative: overall
    effect follows the original study's posterior widened by tau2, with
    the bridge-matched generalized F prior on tau2.
    """
    null = HierarchicalHypothesis(
        effect=OverallEffectPrior(mean=0.0),
        heterogeneity=0.0,
        label="theta* = 0, tau2 = 0",
    )
    alternative = HierarchicalHypothesis(
        effect=OverallEffectPrior(
            mean=original.estimate, variance=original.variance, add_tau2=True
        ),
        heterogeneity=tau2_prior_from_alpha_prior(prior, original.variance),
        label="theta* ~ original posterior, tau2 ~ GF",
    )
    return null, alternative


def compatibility_point_hypotheses(
    original: Study, ui: UnitInformation
) -> tuple[HierarchicalHypothesis, HierarchicalHypothesis]:
    """Hierarchical pair reproducing the point compatibility test.

    Both sides fix tau2 = 0 (a fixed-effects model); discounting keeps the
    raw unit-information prior while pooling updates it with the original
    data.
    """
    s = ui.shrinkage(original.variance)
    discounting = HierarchicalHypothesis(
        effect=OverallEffectPrior(mean=0.0, variance=ui.kappa2),
        heterogeneity=0.0,
        label="theta* ~ unit information, tau2 = 0",
    )
    pooling = HierarchicalHypothesis(
        effect=OverallEffectPrior(mean=s * original.estimate, variance=s * original.variance),
        heterogeneity=0.0,
        label="theta* ~ updated unit information, tau2 = 0",
    )
    return discounting, pooling


def compatibility_beta_hypotheses(
    original: Study, y: float
) -> tuple[HierarchicalHypothesis, HierarchicalHypothesis]:
    """Hierarchical pair reproducing the Be(1, y) compatibility test.

    Both sides give the overall effect the original study's posterior
    widened by tau2; they differ only in tau2 being positive (generalized
    F prior) versus exactly zero.
    """
    effect = OverallEffectPrior(
        mean=original.estimate, variance=original.variance, add_tau2=True
    )
    heterogeneous = HierarchicalHypothesis(
        effect=effect,
        heterogeneity=tau2_prior_from_alpha_prior(BetaParams(1.0, y), original.variance),
        label="tau2 ~ GF",
    )
    homogeneous = HierarchicalHypothesis(
        effect=effect,
        heterogeneity=0.0,
        label="tau2 = 0",
    )
    return heterogeneous, homogeneous
