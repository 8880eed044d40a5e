"""Bayes factor tests for the effect size and for study compatibility.

Orientation is tracked explicitly on every result: ``log_bf`` is the log
marginal likelihood of the numerator hypothesis minus that of the
denominator hypothesis, so reporting the reciprocal is a sign flip, never
a guess. Small-replication-noise limits that involve a Dirac atom return
a three-way classification instead of pretending to a numeric value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, xlogy

from .exceptions import DomainError
from .inference import BetaParams, Study, StudyPair, evidence_and_error
from .quadrature import DEFAULT_QUAD, QuadratureSpec, integrate_semiinf
from .special import (
    InvGammaParams,
    invgamma_logpdf,
    log_beta,
    log_kummer_m,
    normal_logpdf,
)

__all__ = [
    "BayesFactorResult",
    "UnitInformation",
    "LimitClassification",
    "format_bf",
    "bf01_power_prior",
    "bf01_replication",
    "bf_dc_point",
    "bf_dc_beta",
    "bf01_power_prior_limit",
    "bf_dc_point_limit",
    "bf_dc_beta_limit",
    "bf_dc_invgamma",
    "bf_dc_invgamma_limit",
    "implied_alpha_prior_logdensity",
]


# ---------------------------------------------------------------------------
# Result types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BayesFactorResult:
    """A Bayes factor in log space with explicit orientation.

    ``orientation`` is the (numerator, denominator) hypothesis pair;
    ``quadrature_err`` bounds the log-scale error contributed by any
    numerical integration involved (zero for closed forms).
    """

    log_bf: float
    orientation: tuple[str, str]
    quadrature_err: float = 0.0

    @property
    def bf(self) -> float:
        return math.exp(self.log_bf)

    def reciprocal(self) -> "BayesFactorResult":
        """The same evidence, reported for the swapped hypothesis pair."""
        return BayesFactorResult(
            log_bf=-self.log_bf,
            orientation=(self.orientation[1], self.orientation[0]),
            quadrature_err=self.quadrature_err,
        )

    def formatted(self) -> str:
        return format_bf(self.bf)


@dataclass(frozen=True)
class UnitInformation:
    """Variance of the unit-information prior on the effect size.

    The default of 2 is the crude one-observation-per-group variance for
    standardized mean differences (Var ~ 4/n at n = 2).
    """

    kappa2: float = 2.0

    def __post_init__(self):
        if not (self.kappa2 > 0):
            raise DomainError("unit-information variance must be positive")

    def shrinkage(self, sigma2_o: float) -> float:
        """Posterior shrinkage factor of the original estimate."""
        return self.kappa2 / (sigma2_o + self.kappa2)


@dataclass(frozen=True)
class LimitClassification:
    """Degenerate limit of a Bayes factor as the replication noise vanishes.

    ``kind`` is ``plus_infinity`` or ``zero``. When a Dirac atom drives
    the limit, the finite factor multiplying it is surfaced as
    ``pre_dirac_factor``.
    """

    kind: str
    pre_dirac_factor: float | None = None

    def __post_init__(self):
        if self.kind not in ("plus_infinity", "zero"):
            raise DomainError(f"unknown limit kind {self.kind!r}")


def _two_significant(v: float) -> str:
    exponent = math.floor(math.log10(v))
    scale = 10.0 ** (exponent - 1)
    rounded = round(v / scale) * scale
    if rounded >= 10 ** (exponent + 1):
        exponent += 1
    decimals = max(0, 1 - exponent)
    return f"{rounded:.{decimals}f}"


def format_bf(bf: float) -> str:
    """Display a Bayes factor the way the result tables print it.

    Values below one are shown as ``1/x`` with two significant digits,
    clamped at ``< 1/1000``.
    """
    if not math.isfinite(bf) or bf <= 0:
        if bf == math.inf:
            return "inf"
        if bf == 0.0:
            return "< 1/1000"
        raise DomainError(f"cannot format Bayes factor {bf!r}")
    if bf < 1e-3:
        return "< 1/1000"
    if bf < 1.0:
        return "1/" + _two_significant(1.0 / bf)
    return _two_significant(bf)


# ---------------------------------------------------------------------------
# Effect-size tests
# ---------------------------------------------------------------------------


def bf01_power_prior(
    pair: StudyPair, prior: BetaParams, quad: QuadratureSpec = DEFAULT_QUAD
) -> BayesFactorResult:
    """Zero-effect null against the power prior with a beta prior on alpha."""
    rep = pair.replication
    log_null = normal_logpdf(rep.estimate, 0.0, rep.variance)
    log_alt, err = evidence_and_error(pair, prior, quad)
    return BayesFactorResult(
        log_bf=log_null - log_alt,
        orientation=("theta = 0", "theta != 0 (power prior)"),
        quadrature_err=err,
    )


def bf01_replication(pair: StudyPair) -> BayesFactorResult:
    """Zero-effect null against full pooling of the original data.

    The alternative uses the original study's posterior (flat initial
    prior) as is, i.e. the power parameter pinned at one.
    """
    rep, orig = pair.replication, pair.original
    log_null = normal_logpdf(rep.estimate, 0.0, rep.variance)
    log_alt = normal_logpdf(rep.estimate, orig.estimate, orig.variance + rep.variance)
    return BayesFactorResult(
        log_bf=log_null - log_alt,
        orientation=("theta = 0", "theta != 0 (alpha = 1)"),
    )


# ---------------------------------------------------------------------------
# Compatibility tests on the power parameter
# ---------------------------------------------------------------------------


def bf_dc_point(pair: StudyPair, ui: UnitInformation) -> BayesFactorResult:
    """Complete discounting (alpha = 0) against complete pooling (alpha = 1).

    Both hypotheses start from a proper unit-information prior on the
    effect, which the pooling side updates with the original data.
    """
    rep, orig = pair.replication, pair.original
    s = ui.shrinkage(orig.variance)
    log_disc = normal_logpdf(rep.estimate, 0.0, rep.variance + ui.kappa2)
    log_pool = normal_logpdf(rep.estimate, s * orig.estimate, rep.variance + s * orig.variance)
    return BayesFactorResult(
        log_bf=log_disc - log_pool,
        orientation=("alpha = 0", "alpha = 1"),
    )


def bf_dc_beta(
    pair: StudyPair, y: float, quad: QuadratureSpec = DEFAULT_QUAD
) -> BayesFactorResult:
    """Partial discounting, alpha ~ Be(1, y), against complete pooling.

    The decreasing Be(1, y) prior puts its mass on small alpha, so it
    needs y > 1 to actually favor discounting.
    """
    if not (y > 1.0):
        raise DomainError("bf_dc_beta requires y > 1")
    log_num, err = evidence_and_error(pair, BetaParams(1.0, y), quad)
    rep, orig = pair.replication, pair.original
    log_den = normal_logpdf(rep.estimate, orig.estimate, rep.variance + orig.variance)
    return BayesFactorResult(
        log_bf=log_num - log_den,
        orientation=("alpha < 1", "alpha = 1"),
        quadrature_err=err,
    )


# ---------------------------------------------------------------------------
# Vanishing-replication-noise limits
# ---------------------------------------------------------------------------


def bf01_power_prior_limit(
    theta_true: float, original: Study, prior: BetaParams
) -> LimitClassification:
    """Limit of the power-prior effect test as the replication noise vanishes.

    Consistent: infinite evidence for the null at a true zero effect,
    evidence vanishing otherwise. The finite factor multiplying the Dirac
    atom is reported as a diagnostic.
    """
    z = -((theta_true - original.estimate) ** 2) / (2.0 * original.variance)
    log_factor = (
        0.5 * math.log(2.0 * math.pi)
        + log_beta(prior.x, prior.y)
        - log_beta(prior.x + 0.5, prior.y)
        - log_kummer_m(prior.x + 0.5, prior.x + prior.y + 0.5, z)
    )
    kind = "plus_infinity" if theta_true == 0.0 else "zero"
    return LimitClassification(kind=kind, pre_dirac_factor=math.exp(log_factor))


def bf_dc_point_limit(theta_true: float, original: Study, ui: UnitInformation) -> float:
    """Finite limit of the point compatibility test at vanishing noise."""
    s = ui.shrinkage(original.variance)
    exponent = -0.5 * (
        theta_true**2 / ui.kappa2
        - (theta_true - s * original.estimate) ** 2 / (s * original.variance)
    )
    return math.sqrt(1.0 - s) * math.exp(exponent)


def bf_dc_beta_limit(theta_true: float, original: Study, y: float) -> float:
    """Finite limit of the Be(1, y) compatibility test at vanishing noise."""
    if not (y > 0):
        raise DomainError("bf_dc_beta_limit requires y > 0")
    z = (theta_true - original.estimate) ** 2 / (2.0 * original.variance)
    return math.exp(
        log_beta(1.5, y) - log_beta(1.0, y) + log_kummer_m(y, y + 1.5, z)
    )


# ---------------------------------------------------------------------------
# Heterogeneity-based compatibility test (inverse gamma prior)
# ---------------------------------------------------------------------------


def bf_dc_invgamma(
    pair: StudyPair, ig: InvGammaParams, quad: QuadratureSpec = DEFAULT_QUAD
) -> BayesFactorResult:
    """Positive heterogeneity (inverse gamma prior) against none.

    Unlike the beta-prior compatibility test, this one is consistent:
    its prior on the implied power parameter unscales alpha from the
    original study's variance.
    """
    rep, orig = pair.replication, pair.original
    base_var = rep.variance + orig.variance

    def integrand(tau2: float) -> float:
        return math.exp(
            normal_logpdf(rep.estimate, orig.estimate, base_var + 2.0 * tau2)
            + invgamma_logpdf(tau2, ig)
        )

    # Anchor the substitution at the prior mode so huge prior scales keep
    # their mass visible to the adaptive rule.
    log_num, err = integrate_semiinf(integrand, quad, scale=ig.r / (ig.q + 1.0)).log()
    log_den = normal_logpdf(rep.estimate, orig.estimate, base_var)
    return BayesFactorResult(
        log_bf=log_num - log_den,
        orientation=("tau2 > 0", "tau2 = 0"),
        quadrature_err=err,
    )


def bf_dc_invgamma_limit(
    theta_r: float, theta_o: float, ig: InvGammaParams
) -> LimitClassification:
    """Limit of the inverse-gamma test as both studies' noise vanishes.

    The Dirac atom sits in the denominator, so the test is consistent:
    zero for equal true effects, infinite otherwise. The finite numerator
    is surfaced as a diagnostic.
    """
    delta2 = (theta_r - theta_o) ** 2
    log_num = (
        gammaln(ig.q + 0.5)
        - (ig.q + 0.5) * math.log(ig.r + delta2 / 4.0)
        - 0.5 * math.log(4.0 * math.pi)
    )
    kind = "zero" if theta_r == theta_o else "plus_infinity"
    return LimitClassification(kind=kind, pre_dirac_factor=math.exp(log_num))


def implied_alpha_prior_logdensity(alpha, ig: InvGammaParams, sigma2_o: float):
    """Log-density on alpha implied by an inverse gamma prior on tau2.

    Change of variables through tau2 = (1/alpha - 1) sigma2_o / 2. The
    density carries sigma2_o explicitly, which is what makes the induced
    compatibility test consistent. Vanishes at alpha = 1 (and at alpha = 0
    when q > 1); broadcasts over alpha.
    """
    if not (sigma2_o > 0):
        raise DomainError("sigma2_o must be positive")
    alpha_arr = np.asarray(alpha, dtype=float)
    inside = (alpha_arr >= 0.0) & (alpha_arr < 1.0)
    aa = np.where(inside, alpha_arr, 0.5)
    with np.errstate(divide="ignore"):
        out = (
            ig.q * math.log(ig.r)
            - gammaln(ig.q)
            + xlogy(ig.q - 1.0, aa)
            - (ig.q + 1.0) * np.log1p(-aa)
            + ig.q * math.log(2.0 / sigma2_o)
            - 2.0 * ig.r * aa / (sigma2_o * (1.0 - aa))
        )
    out = np.where(inside, out, -np.inf)
    return out if out.ndim else float(out)
