"""Posterior inference for effect size and power parameter.

The model: the original study's likelihood, raised to a power ``alpha`` in
(0, 1] and renormalized under a flat initial prior, serves as the prior for
the effect in the replication analysis. ``alpha`` itself carries a beta
prior, so the joint posterior lives on (theta, alpha). The effect-size
marginal has a closed form in terms of the confluent hypergeometric
function; the alpha marginal and the model evidence need one-dimensional
quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np
from scipy.integrate import cumulative_trapezoid
from scipy.optimize import minimize_scalar

from .exceptions import DomainError, GridStateError
from .quadrature import DEFAULT_QUAD, IntegralResult, QuadratureSpec, integrate_unit
from .special import LOG_2PI, beta_logpdf, log_beta, log_kummer_m, normal_logpdf

__all__ = [
    "Study",
    "StudyPair",
    "BetaParams",
    "DensityGrid",
    "PosteriorSummary",
    "NormalParams",
    "power_prior_logdensity",
    "joint_posterior_logdensity",
    "evidence_and_error",
    "marginal_posterior_alpha",
    "marginal_posterior_theta",
    "posterior_theta_fixed_alpha",
    "alpha_empirical_bayes",
    "limiting_alpha_posterior_logdensity",
    "summarize",
    "theta_lattice",
    "theta_grid",
    "alpha_grid",
    "joint_grid",
    "alpha_mode",
]

DEFAULT_GRID_POINTS = 401
DEFAULT_ALPHA_FLOOR = 1e-6
DEFAULT_THETA_SPAN = 6.0


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Study:
    """Effect estimate and its standard error on the analysis scale."""

    estimate: float
    se: float

    def __post_init__(self):
        if not math.isfinite(self.estimate):
            raise DomainError("study estimate must be finite")
        if not (self.se > 0 and math.isfinite(self.se)):
            raise DomainError("study standard error must be positive and finite")

    @property
    def variance(self) -> float:
        return self.se * self.se


@dataclass(frozen=True)
class StudyPair:
    """An original study and one replication of it."""

    original: Study
    replication: Study


@dataclass(frozen=True)
class BetaParams:
    """Shape pair of the beta prior on the power parameter."""

    x: float = 1.0
    y: float = 1.0

    def __post_init__(self):
        if not (self.x > 0 and self.y > 0):
            raise DomainError("beta prior shapes must be positive")


class NormalParams(NamedTuple):
    mean: float
    variance: float


@dataclass(frozen=True)
class DensityGrid:
    """Tabulated log-density values over a 1-D or 2-D lattice, normalized
    on construction so the trapezoid mass equals one.

    ``axis1`` (and ``axis2``, when present) must be strictly increasing.
    """

    axis1: np.ndarray
    logdens: np.ndarray
    axis2: np.ndarray | None = None

    def __post_init__(self):
        axis1 = np.asarray(self.axis1, dtype=float)
        logdens = np.asarray(self.logdens, dtype=float)
        axis2 = None if self.axis2 is None else np.asarray(self.axis2, dtype=float)
        if axis1.ndim != 1 or axis1.size < 2 or np.any(np.diff(axis1) <= 0):
            raise DomainError("axis1 must be a strictly increasing 1-D lattice")
        dens = np.exp(logdens)
        if axis2 is None:
            if logdens.shape != axis1.shape:
                raise DomainError("1-D grid log-density shape must match axis1")
            total = float(np.trapezoid(dens, axis1))
        else:
            if axis2.ndim != 1 or axis2.size < 2 or np.any(np.diff(axis2) <= 0):
                raise DomainError("axis2 must be a strictly increasing 1-D lattice")
            if logdens.shape != (axis1.size, axis2.size):
                raise DomainError("2-D grid log-density must be (len(axis1), len(axis2))")
            total = float(np.trapezoid(np.trapezoid(dens, axis2, axis=1), axis1))
        if not (total > 0 and math.isfinite(total)):
            raise GridStateError(f"cannot normalize grid with trapezoid mass {total!r}")
        object.__setattr__(self, "axis1", axis1)
        object.__setattr__(self, "logdens", logdens - math.log(total))
        object.__setattr__(self, "axis2", axis2)


@dataclass(frozen=True)
class PosteriorSummary:
    """Moments, equal-tailed interval, and mode of a 1-D posterior."""

    mean: float
    sd: float
    ci_lower: float
    ci_upper: float
    level: float
    mode: float


# ---------------------------------------------------------------------------
# Posterior densities
# ---------------------------------------------------------------------------


def power_prior_logdensity(theta, original: Study, alpha: float):
    """Log-density of the normalized power prior for the effect size.

    Raising the original study's normal likelihood to the power ``alpha``
    and renormalizing under a flat initial prior gives a normal prior
    centered at the original estimate with variance inflated by 1/alpha.
    """
    _check_alpha(alpha)
    return normal_logpdf(theta, original.estimate, original.variance / alpha)


def _check_alpha(alpha: float) -> None:
    if not (0.0 < alpha <= 1.0):
        raise DomainError(f"power parameter must lie in (0, 1], got {alpha}")


@lru_cache(maxsize=512)
def evidence_and_error(
    pair: StudyPair, prior: BetaParams, quad: QuadratureSpec = DEFAULT_QUAD
) -> IntegralResult:
    """Log marginal likelihood of the replication estimate, with the
    quadrature error estimate expressed on the log scale.

    Mixes the predictive normal density over the beta prior on alpha:
    log int_0^1 N(rep | orig, var_r + var_o/alpha) Be(alpha | x, y) dalpha.
    """
    est_r, var_r = pair.replication.estimate, pair.replication.variance
    est_o, var_o = pair.original.estimate, pair.original.variance
    x, y = prior.x, prior.y

    def integrand(a: float) -> float:
        logp = normal_logpdf(est_r, est_o, var_r + var_o / a)
        return math.exp(logp + beta_logpdf(a, x, y))

    return integrate_unit(integrand, quad).log()


def joint_posterior_logdensity(
    theta,
    alpha: float,
    pair: StudyPair,
    prior: BetaParams,
    quad: QuadratureSpec = DEFAULT_QUAD,
):
    """Joint posterior log-density of (theta, alpha) given both studies."""
    _check_alpha(alpha)
    log_z = evidence_and_error(pair, prior, quad).value
    rep, orig = pair.replication, pair.original
    return (
        normal_logpdf(rep.estimate, theta, rep.variance)
        + normal_logpdf(theta, orig.estimate, orig.variance / alpha)
        + beta_logpdf(alpha, prior.x, prior.y)
        - log_z
    )


def marginal_posterior_alpha(
    alpha,
    pair: StudyPair,
    prior: BetaParams,
    quad: QuadratureSpec = DEFAULT_QUAD,
):
    """Marginal posterior log-density of the power parameter (broadcasts)."""
    alpha_arr = np.asarray(alpha, dtype=float)
    if np.any(alpha_arr <= 0.0) or np.any(alpha_arr > 1.0):
        raise DomainError("power parameter values must lie in (0, 1]")
    log_z = evidence_and_error(pair, prior, quad).value
    rep, orig = pair.replication, pair.original
    out = (
        normal_logpdf(rep.estimate, orig.estimate, rep.variance + orig.variance / alpha_arr)
        + beta_logpdf(alpha_arr, prior.x, prior.y)
        - log_z
    )
    return out if np.ndim(out) else float(out)


def marginal_posterior_theta(
    theta: float,
    pair: StudyPair,
    prior: BetaParams,
    quad: QuadratureSpec = DEFAULT_QUAD,
) -> float:
    """Marginal posterior log-density of the effect size (closed form).

    The alpha integral collapses analytically to a beta-function ratio
    times the confluent hypergeometric function M evaluated at
    -(orig - theta)^2 / (2 var_o), which this routine evaluates in log
    space throughout.
    """
    log_z = evidence_and_error(pair, prior, quad).value
    rep, orig = pair.replication, pair.original
    z = -((orig.estimate - theta) ** 2) / (2.0 * orig.variance)
    return (
        normal_logpdf(rep.estimate, theta, rep.variance)
        + log_beta(prior.x + 0.5, prior.y)
        - log_beta(prior.x, prior.y)
        - 0.5 * (LOG_2PI + math.log(orig.variance))
        + log_kummer_m(prior.x + 0.5, prior.x + prior.y + 0.5, z)
        - log_z
    )


def posterior_theta_fixed_alpha(pair: StudyPair, alpha: float) -> NormalParams:
    """Normal posterior of the effect size for a fixed power parameter.

    Precision-weighted combination of the replication estimate and the
    alpha-discounted original estimate.
    """
    _check_alpha(alpha)
    rep, orig = pair.replication, pair.original
    w_rep = 1.0 / rep.variance
    w_orig = alpha / orig.variance
    variance = 1.0 / (w_rep + w_orig)
    mean = (rep.estimate * w_rep + orig.estimate * w_orig) * variance
    return NormalParams(mean, variance)


def alpha_empirical_bayes(pair: StudyPair) -> float:
    """Power parameter maximizing the replication's marginal likelihood.

    Closed form: the marginal variance var_r + var_o/alpha is pushed to
    the squared discrepancy when reachable, otherwise alpha = 1.
    """
    rep, orig = pair.replication, pair.original
    disc = (rep.estimate - orig.estimate) ** 2
    if disc <= rep.variance + orig.variance:
        return 1.0
    return min(1.0, orig.variance / (disc - rep.variance))


def limiting_alpha_posterior_logdensity(alpha):
    """Log-density of the limiting alpha posterior for perfectly agreeing
    studies, a Beta(3/2, 1); exposed as a reference curve."""
    return beta_logpdf(alpha, 1.5, 1.0)


# ---------------------------------------------------------------------------
# Grids and summaries
# ---------------------------------------------------------------------------


def _default_theta_range(pair: StudyPair, span: float) -> tuple[float, float]:
    pooled = posterior_theta_fixed_alpha(pair, 1.0)
    half = span * math.sqrt(pooled.variance)
    return pooled.mean - half, pooled.mean + half


def theta_lattice(
    pair: StudyPair,
    *,
    num: int = DEFAULT_GRID_POINTS,
    span: float = DEFAULT_THETA_SPAN,
    theta_range: tuple[float, float] | None = None,
) -> np.ndarray:
    """Effect-size lattice of the theta and joint grids: ``num`` points
    over ``theta_range``, by default the pooled posterior mean plus or
    minus ``span`` pooled standard deviations."""
    lo, hi = theta_range if theta_range is not None else _default_theta_range(pair, span)
    return np.linspace(lo, hi, num)


def theta_grid(
    pair: StudyPair,
    prior: BetaParams,
    *,
    num: int = DEFAULT_GRID_POINTS,
    span: float = DEFAULT_THETA_SPAN,
    theta_range: tuple[float, float] | None = None,
    quad: QuadratureSpec = DEFAULT_QUAD,
) -> DensityGrid:
    """Normalized grid of the effect-size marginal posterior."""
    thetas = theta_lattice(pair, num=num, span=span, theta_range=theta_range)
    logdens = np.array([marginal_posterior_theta(t, pair, prior, quad) for t in thetas])
    return DensityGrid(axis1=thetas, logdens=logdens)


def alpha_grid(
    pair: StudyPair,
    prior: BetaParams,
    *,
    num: int = DEFAULT_GRID_POINTS,
    alpha_min: float = DEFAULT_ALPHA_FLOOR,
    quad: QuadratureSpec = DEFAULT_QUAD,
) -> DensityGrid:
    """Normalized grid of the power-parameter marginal posterior."""
    alphas = np.linspace(alpha_min, 1.0, num)
    logdens = marginal_posterior_alpha(alphas, pair, prior, quad)
    return DensityGrid(axis1=alphas, logdens=logdens)


def joint_grid(
    pair: StudyPair,
    prior: BetaParams,
    *,
    num_theta: int = DEFAULT_GRID_POINTS,
    num_alpha: int = DEFAULT_GRID_POINTS,
    span: float = DEFAULT_THETA_SPAN,
    theta_range: tuple[float, float] | None = None,
    alpha_min: float = DEFAULT_ALPHA_FLOOR,
    quad: QuadratureSpec = DEFAULT_QUAD,
) -> DensityGrid:
    """Normalized 2-D grid of the joint (theta, alpha) posterior."""
    thetas = theta_lattice(pair, num=num_theta, span=span, theta_range=theta_range)
    alphas = np.linspace(alpha_min, 1.0, num_alpha)
    rep, orig = pair.replication, pair.original
    log_z = evidence_and_error(pair, prior, quad).value
    logdens = (
        normal_logpdf(rep.estimate, thetas, rep.variance)[:, None]
        + normal_logpdf(thetas[:, None], orig.estimate, orig.variance / alphas[None, :])
        + beta_logpdf(alphas, prior.x, prior.y)[None, :]
        - log_z
    )
    return DensityGrid(axis1=thetas, logdens=logdens, axis2=alphas)


def alpha_mode(
    pair: StudyPair,
    prior: BetaParams,
    *,
    num: int = DEFAULT_GRID_POINTS,
    alpha_min: float = DEFAULT_ALPHA_FLOOR,
    quad: QuadratureSpec = DEFAULT_QUAD,
) -> float:
    """Mode of the alpha marginal, refined past the grid."""
    alphas = np.linspace(alpha_min, 1.0, num)
    logdens = marginal_posterior_alpha(alphas, pair, prior, quad)
    return _refined_argmax(
        alphas, logdens, lambda a: marginal_posterior_alpha(a, pair, prior, quad)
    )


def _refined_argmax(x: np.ndarray, logdens: np.ndarray, f: Callable[[float], float]) -> float:
    """Lattice argmax of ``logdens``, refined by a bounded Brent search for
    the maximum of ``f`` between the neighbouring lattice points."""
    i = int(np.argmax(logdens))
    lo = x[max(i - 1, 0)]
    hi = x[min(i + 1, x.size - 1)]
    if lo == hi:
        return float(x[i])
    result = minimize_scalar(
        lambda t: -f(t), bounds=(lo, hi), method="bounded", options={"xatol": 1e-6}
    )
    return float(result.x)


def summarize(
    grid: DensityGrid,
    level: float = 0.95,
    density_fn: Callable[[float], float] | None = None,
) -> PosteriorSummary:
    """Trapezoid-based moments, equal-tailed interval, and mode of a grid.

    The mode is taken at the lattice argmax and refined: by a bounded
    Brent search on ``density_fn`` when the continuous density is supplied,
    otherwise by the vertex of the parabola through the three neighboring
    lattice points.
    """
    if grid.axis2 is not None:
        raise GridStateError("summarize requires a 1-D grid")
    if not (0.0 < level < 1.0):
        raise DomainError("interval level must lie in (0, 1)")

    x = grid.axis1
    dens = np.exp(grid.logdens)
    mean = float(np.trapezoid(x * dens, x))
    var = float(np.trapezoid((x - mean) ** 2 * dens, x))
    sd = math.sqrt(max(var, 0.0))

    cdf = cumulative_trapezoid(dens, x, initial=0.0)
    cdf /= cdf[-1]
    tail = (1.0 - level) / 2.0
    ci_lower = float(np.interp(tail, cdf, x))
    ci_upper = float(np.interp(1.0 - tail, cdf, x))

    i = int(np.argmax(grid.logdens))
    if density_fn is not None:
        mode = _refined_argmax(x, grid.logdens, density_fn)
    elif 0 < i < x.size - 1:
        mode = _parabolic_vertex(x[i - 1 : i + 2], grid.logdens[i - 1 : i + 2])
    else:
        mode = float(x[i])
    return PosteriorSummary(mean, sd, ci_lower, ci_upper, level, float(mode))


def _parabolic_vertex(x3: np.ndarray, y3: np.ndarray) -> float:
    x0, x1, x2 = x3
    y0, y1, y2 = y3
    denom = (x1 - x0) * (y1 - y2) - (x1 - x2) * (y1 - y0)
    if denom == 0.0:
        return float(x1)
    num = (x1 - x0) ** 2 * (y1 - y2) - (x1 - x2) ** 2 * (y1 - y0)
    vertex = x1 - 0.5 * num / denom
    return float(min(max(vertex, x0), x2))
