"""Special functions and log-density families used throughout the package.

All densities are evaluated in log space; exponentiation is left to the
reporting boundary. Everything here is pure and stateless.

The log-densities take one of two paths, chosen by the argument type. A
float argument (a Python float or a numpy float64 scalar), the form a
quadrature integrand passes at every node, is evaluated with ``math``
and gives a float. Any other argument (an array, a 0-d array, an int)
goes through numpy and broadcasts. Both paths apply the same validation,
raise the same errors and return -inf outside the support, and agree to
the last bit or two.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import betaln, gammaln, hyp1f1, ndtr, xlogy

from .exceptions import DomainError, UnsupportedDomainError
from .quadrature import QuadratureSpec, integrate_unit

__all__ = [
    "GBetaParams",
    "GFParams",
    "InvGammaParams",
    "log_beta",
    "log_kummer_m",
    "normal_logpdf",
    "beta_logpdf",
    "noncentral_chisq1_cdf",
    "gbeta_logpdf",
    "gf_logpdf",
    "invgamma_logpdf",
]

LOG_2PI = math.log(2.0 * math.pi)

# log_kummer_m is checked against mpmath up to these bounds only; refuse
# rather than return an unchecked value. _KUMMER_QUAD holds the tolerances
# of its underflow-tail integral.
_KUMMER_MAX_SHAPE = 100.0
_KUMMER_MAX_ABS_Z = 1e6
_KUMMER_QUAD = QuadratureSpec(rel_tol=1e-12, abs_tol=1e-290, max_subdivisions=300)


# ---------------------------------------------------------------------------
# Parameter families
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GBetaParams:
    """Shape pair and scale of a generalized beta distribution on [0, 1]."""

    a: float
    b: float
    lam: float

    def __post_init__(self):
        if not (self.a > 0 and self.b > 0 and self.lam > 0):
            raise DomainError("generalized beta parameters must be positive")


@dataclass(frozen=True)
class GFParams:
    """Shape pair and rate of a generalized F distribution on [0, inf)."""

    a: float
    b: float
    lam: float

    def __post_init__(self):
        if not (self.a > 0 and self.b > 0 and self.lam > 0):
            raise DomainError("generalized F parameters must be positive")


@dataclass(frozen=True)
class InvGammaParams:
    """Shape and scale of an inverse gamma distribution."""

    q: float
    r: float

    def __post_init__(self):
        if not (self.q > 0 and self.r > 0):
            raise DomainError("inverse gamma parameters must be positive")


# ---------------------------------------------------------------------------
# Core special functions
# ---------------------------------------------------------------------------


def log_beta(z: float, w: float) -> float:
    """log B(z, w) for positive arguments."""
    if not (z > 0 and w > 0):
        raise DomainError(f"log_beta requires positive arguments, got ({z}, {w})")
    return float(betaln(z, w))


def log_kummer_m(a: float, b: float, z: float) -> float:
    """log M(a, b, z) for the confluent hypergeometric function M.

    Supported domain: b > a > 0 with a, b <= 100 and |z| <= 1e6. M is
    strictly positive there, so the logarithm is always defined. Positive
    z goes through Kummer's transformation M(a, b, z) = exp(z) M(b - a, b,
    -z), so ``scipy.special.hyp1f1`` only sees z <= 0, where M lies in
    [exp(z), 1] and cannot overflow. Where M is below the smallest normal
    double (only for z < -708), the integral representation is integrated
    instead, so the log keeps its digits.
    """
    if not (b > a > 0):
        raise UnsupportedDomainError(
            f"kummer_m requires b > a > 0, got a={a}, b={b}"
        )
    if a > _KUMMER_MAX_SHAPE or b > _KUMMER_MAX_SHAPE:
        raise UnsupportedDomainError(
            f"kummer_m shape parameters above {_KUMMER_MAX_SHAPE} are unsupported"
        )
    if not math.isfinite(z) or abs(z) > _KUMMER_MAX_ABS_Z:
        raise UnsupportedDomainError(
            f"kummer_m arguments |z| > {_KUMMER_MAX_ABS_Z} are unsupported, got z={z}"
        )
    if z > 0.0:
        return z + log_kummer_m(b - a, b, -z)
    value = float(hyp1f1(a, b, z))
    if value >= sys.float_info.min:
        return math.log(value)

    # Underflow tail, x = -z > 708: with the exp(-x) factor pulled out,
    # M(a, b, -x) = x^(-a) int_0^x exp(-w) (1 - w/x)^(b-a-1) w^(a-1) dw
    #               / B(b - a, a).
    # Truncating the Gamma(a)-like integrand at the cutoff loses under
    # 1e-16 relative mass; the cutoff (at most 560) stays below x, so the
    # (1 - w/x) factor is smooth on the one panel.
    x = -z
    cutoff = a + 40.0 * math.sqrt(a) + 60.0

    def integrand(u: float) -> float:
        w = cutoff * u
        return math.exp(-w + (b - a - 1.0) * math.log1p(-w / x) + (a - 1.0) * math.log(w))

    integral, _ = integrate_unit(integrand, _KUMMER_QUAD)
    return math.log(cutoff * integral) - a * math.log(x) - float(betaln(b - a, a))


@lru_cache(maxsize=256)
def _betaln(a: float, b: float) -> float:
    """``scipy.special.betaln`` of a density's shape pair, held across the
    nodes of an integral (a scalar ufunc call costs as much as the rest of
    a float log-density)."""
    return float(betaln(a, b))


def _xlogy(c: float, y: float) -> float:
    """``scipy.special.xlogy`` for a float y >= 0: c log(y), and 0 at c = 0."""
    if c == 0.0:
        return 0.0
    return c * math.log(y) if y > 0.0 else c * -math.inf


def normal_logpdf(x, mean, variance):
    """Normal log-density with the given mean and variance.

    Float arguments give a float through ``math``; otherwise the arguments
    broadcast through numpy.
    """
    if isinstance(x, float) and isinstance(mean, float) and isinstance(variance, float):
        if variance <= 0:
            raise DomainError("normal_logpdf requires positive variance")
        d = x - mean
        return float(-0.5 * (LOG_2PI + math.log(variance) + d * d / variance))
    variance = np.asarray(variance, dtype=float)
    if np.any(variance <= 0):
        raise DomainError("normal_logpdf requires positive variance")
    x = np.asarray(x, dtype=float)
    out = -0.5 * (LOG_2PI + np.log(variance) + (x - mean) ** 2 / variance)
    return out if out.ndim else float(out)


def beta_logpdf(x, a: float, b: float):
    """Beta(a, b) log-density; -inf outside the unit interval.

    A float ``x`` gives a float through ``math``; an array broadcasts.
    """
    if not (a > 0 and b > 0):
        raise DomainError("beta shape parameters must be positive")
    if isinstance(x, float):
        if not 0.0 <= x <= 1.0:
            return -math.inf
        return _xlogy(a - 1.0, x) + _xlogy(b - 1.0, 1.0 - x) - _betaln(a, b)
    x = np.asarray(x, dtype=float)
    inside = (x >= 0.0) & (x <= 1.0)
    xx = np.where(inside, x, 0.5)
    with np.errstate(divide="ignore"):
        out = xlogy(a - 1.0, xx) + xlogy(b - 1.0, 1.0 - xx) - betaln(a, b)
    out = np.where(inside, out, -np.inf)
    return out if out.ndim else float(out)


def noncentral_chisq1_cdf(x, lam):
    """CDF of the noncentral chi-squared distribution with 1 degree of freedom.

    Uses the exact identity P(X <= x) = Phi(sqrt(x) - sqrt(lam))
    - Phi(-sqrt(x) - sqrt(lam)), so no series truncation is involved.
    """
    x = np.asarray(x, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if np.any(x < 0) or np.any(lam < 0):
        raise DomainError("noncentral_chisq1_cdf requires nonnegative arguments")
    root_x = np.sqrt(x)
    root_lam = np.sqrt(lam)
    out = ndtr(root_x - root_lam) - ndtr(-root_x - root_lam)
    out = np.clip(out, 0.0, 1.0)
    return out if out.ndim else float(out)


# ---------------------------------------------------------------------------
# Log-density families
# ---------------------------------------------------------------------------


def gbeta_logpdf(x, p: GBetaParams):
    """Generalized beta log-density on [0, 1].

    Density: lam^a x^(a-1) (1-x)^(b-1) / [B(a, b) {1 - (1-lam) x}^(a+b)].
    Reduces to the ordinary beta density at lam = 1.
    """
    x = np.asarray(x, dtype=float)
    inside = (x >= 0.0) & (x <= 1.0)
    xx = np.where(inside, x, 0.5)
    with np.errstate(divide="ignore"):
        out = (
            p.a * math.log(p.lam)
            + xlogy(p.a - 1.0, xx)
            + xlogy(p.b - 1.0, 1.0 - xx)
            - betaln(p.a, p.b)
            - (p.a + p.b) * np.log1p(-(1.0 - p.lam) * xx)
        )
    out = np.where(inside, out, -np.inf)
    return out if out.ndim else float(out)


def gf_logpdf(x, p: GFParams):
    """Generalized F log-density on [0, inf).

    Density: lam^a x^(a-1) / [B(a, b) (1 + lam x)^(a+b)]. A float ``x``
    gives a float through ``math``; an array broadcasts.
    """
    if isinstance(x, float):
        if not x >= 0.0:
            return -math.inf
        return (
            p.a * math.log(p.lam)
            + _xlogy(p.a - 1.0, x)
            - _betaln(p.a, p.b)
            - (p.a + p.b) * math.log1p(p.lam * x)
        )
    x = np.asarray(x, dtype=float)
    inside = x >= 0.0
    xx = np.where(inside, x, 1.0)
    with np.errstate(divide="ignore"):
        out = (
            p.a * math.log(p.lam)
            + xlogy(p.a - 1.0, xx)
            - betaln(p.a, p.b)
            - (p.a + p.b) * np.log1p(p.lam * xx)
        )
    out = np.where(inside, out, -np.inf)
    return out if out.ndim else float(out)


def invgamma_logpdf(x, p: InvGammaParams):
    """Inverse gamma log-density with shape q and scale r; requires x > 0.

    A float ``x`` gives a float through ``math``; an array broadcasts.
    """
    if isinstance(x, float):
        if x <= 0:
            raise DomainError("invgamma_logpdf requires positive x")
        return float(
            p.q * math.log(p.r) - float(gammaln(p.q)) - (p.q + 1.0) * math.log(x) - p.r / x
        )
    x = np.asarray(x, dtype=float)
    if np.any(x <= 0):
        raise DomainError("invgamma_logpdf requires positive x")
    out = p.q * math.log(p.r) - gammaln(p.q) - (p.q + 1.0) * np.log(x) - p.r / x
    return out if out.ndim else float(out)
