"""Replication design analysis for the point compatibility test.

The success event "Bayes factor crosses the threshold" is a quadratic
condition in the future replication estimate, so its probability under
either design hypothesis is an exact noncentral chi-squared tail with one
degree of freedom. Sample sizes are linked to standard errors through the
standardized-mean-difference approximation n ~ 4 / se^2.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .bayes_factors import UnitInformation
from .exceptions import DomainError
from .inference import Study
from .special import noncentral_chisq1_cdf

__all__ = [
    "DesignSpec",
    "DesignResult",
    "success_threshold",
    "prob_replication_success",
    "find_design",
    "default_sigma_grid",
    "sigma_to_n",
    "n_to_sigma",
]

HYPOTHESES = ("compatible", "different")


@dataclass(frozen=True)
class DesignSpec:
    """What counts as replication success, and under which hypothesis.

    ``gamma`` is the strong-evidence threshold: success means the
    discounting-vs-pooling Bayes factor falls to ``gamma`` or below when
    seeking evidence for compatibility, or rises to ``1/gamma`` or above
    when seeking evidence for difference. The default 1/10 follows the
    conventional strong-evidence labeling; the choice is a convention,
    not derived.
    """

    original: Study
    ui: UnitInformation = UnitInformation()
    gamma: float = 0.1
    target_power: float = 0.8
    hypothesis: str = "compatible"

    def __post_init__(self):
        if not (0.0 < self.gamma <= 1.0):
            raise DomainError("gamma must lie in (0, 1]")
        if not (0.0 < self.target_power < 1.0):
            raise DomainError("target_power must lie in (0, 1)")
        if self.hypothesis not in HYPOTHESES:
            raise DomainError(f"hypothesis must be one of {HYPOTHESES}")


@dataclass(frozen=True)
class DesignResult:
    """Outcome of a sample-size search over replication standard errors."""

    sigma_r: float
    n_r: int
    relative_size: float
    prs_under_compatible: float
    prs_under_different: float
    attained: bool


def _threshold_from_var(var_r: float, spec: DesignSpec, bf_bound: float) -> float:
    orig = spec.original
    kappa2 = spec.ui.kappa2
    s = spec.ui.shrinkage(orig.variance)
    a = var_r + kappa2
    b = var_r + s * orig.variance
    return (a * b / (kappa2 - s * orig.variance)) * (
        2.0 * math.log(bf_bound)
        - math.log(b / a)
        - (s * orig.estimate) ** 2 / (s * orig.variance - kappa2)
    )


def success_threshold(sigma_r: float, spec: DesignSpec, bf_bound: float | None = None) -> float:
    """Half-width squared of the success region for the replication estimate.

    The Bayes factor condition BF <= bf_bound is equivalent to the squared
    distance of the replication estimate from a fixed center falling below
    this threshold. A negative return value signals an empty success
    region. ``bf_bound`` defaults to ``gamma`` (evidence for
    compatibility); pass ``1/gamma`` for the difference side.
    """
    if not (sigma_r > 0):
        raise DomainError("sigma_r must be positive")
    if bf_bound is None:
        bf_bound = spec.gamma
    return _threshold_from_var(sigma_r * sigma_r, spec, bf_bound)


def _prs_from_var(var_r: float, spec: DesignSpec, true_hypothesis: str) -> float:
    orig = spec.original
    s = spec.ui.shrinkage(orig.variance)
    mean, var = {
        "compatible": (s * orig.estimate, var_r + s * orig.variance),
        "different": (0.0, var_r + spec.ui.kappa2),
    }[true_hypothesis]
    center = orig.estimate * (var_r + spec.ui.kappa2) / spec.ui.kappa2
    lam = (mean - center) ** 2 / var
    if spec.hypothesis == "compatible":
        x = _threshold_from_var(var_r, spec, spec.gamma)
        if x < 0.0:
            return 0.0
        return noncentral_chisq1_cdf(x / var, lam)
    x = _threshold_from_var(var_r, spec, 1.0 / spec.gamma)
    if x < 0.0:
        return 1.0
    return 1.0 - noncentral_chisq1_cdf(x / var, lam)


def prob_replication_success(
    sigma_r: float, spec: DesignSpec, true_hypothesis: str | None = None
) -> float:
    """Probability that the replication yields strong evidence for
    ``spec.hypothesis``, with data generated under ``true_hypothesis``
    (defaults to the same hypothesis)."""
    if not (sigma_r > 0):
        raise DomainError("sigma_r must be positive")
    if true_hypothesis is None:
        true_hypothesis = spec.hypothesis
    if true_hypothesis not in HYPOTHESES:
        raise DomainError(f"true_hypothesis must be one of {HYPOTHESES}")
    return _prs_from_var(sigma_r * sigma_r, spec, true_hypothesis)


def default_sigma_grid(
    original: Study, rel_min: float = 0.2, rel_max: float = 20.0, num: int = 60
) -> np.ndarray:
    """Replication standard errors covering relative sizes rel_min..rel_max,
    ordered by decreasing sigma_r (increasing sample size)."""
    if not (0 < rel_min < rel_max):
        raise DomainError("need 0 < rel_min < rel_max")
    rel = np.geomspace(rel_min, rel_max, num)
    return original.se / np.sqrt(rel)


def find_design(spec: DesignSpec, sigma_grid=None) -> DesignResult:
    """Smallest relative size on the grid reaching the target success
    probability under ``spec.hypothesis``.

    When the target is unreachable (the compatibility-side curve levels
    off at an asymptote below it), ``attained`` is False and the reported
    probabilities are the vanishing-noise asymptotes, with the grid's
    largest sample size as the search frontier.
    """
    if sigma_grid is None:
        sigma_grid = default_sigma_grid(spec.original)
    sigmas = np.asarray(sigma_grid, dtype=float)
    if sigmas.size == 0:
        raise DomainError("sigma grid must be nonempty")
    if np.any(sigmas <= 0):
        raise DomainError("sigma grid values must be positive")
    sigmas = np.sort(sigmas)[::-1]

    prs_prev = -math.inf
    attained = False
    for sigma in sigmas:
        prs = prob_replication_success(float(sigma), spec)
        if spec.hypothesis == "compatible" and prs < prs_prev - 1e-12:
            warnings.warn(
                "success probability not monotone along the grid; "
                "check the design inputs",
                stacklevel=2,
            )
        prs_prev = prs
        if prs >= spec.target_power:
            attained = True
            break

    sigma_r = float(sigma)
    # All pieces of the chi-squared representation stay finite at
    # sigma_r = 0, so the asymptotes are a direct evaluation there.
    var_r = sigma_r * sigma_r if attained else 0.0
    return DesignResult(
        sigma_r=sigma_r,
        n_r=sigma_to_n(sigma_r),
        relative_size=spec.original.variance / sigma_r**2,
        prs_under_compatible=_prs_from_var(var_r, spec, "compatible"),
        prs_under_different=_prs_from_var(var_r, spec, "different"),
        attained=attained,
    )


def sigma_to_n(sigma_r: float) -> int:
    """Total sample size needed for a standardized-mean-difference standard
    error of sigma_r, via n ~ 4 / se^2 (never below the two-observation
    minimum)."""
    if not (sigma_r > 0):
        raise DomainError("sigma_r must be positive")
    # The relative nudge keeps n -> sigma -> n round trips idempotent in
    # the face of floating-point fuzz without ever decreasing n.
    return max(2, math.ceil(4.0 / sigma_r**2 * (1.0 - 1e-12)))


def n_to_sigma(n: int) -> float:
    """Standard error of a standardized mean difference at total sample
    size n, via se = sqrt(4 / n)."""
    if n < 2:
        raise DomainError("sample size must be at least 2")
    return math.sqrt(4.0 / n)
