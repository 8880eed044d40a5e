"""Adaptive numerical integration on [0, 1] and [0, inf).

Every integral in this package that lacks a closed form goes through the
two entry points below. Integration is delegated to QUADPACK (via
``scipy.integrate.quad``), whose adaptive subdivision with an embedded
Gauss-Kronrod rule pair evaluates only interior nodes, so integrable
endpoint singularities (e.g. ``a**(x - 1)`` factors with ``x < 1``) are
handled without ever evaluating the integrand at 0 or 1. Error estimates
are always surfaced to the caller, never swallowed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

from scipy.integrate import quad

from .exceptions import ConvergenceError, DomainError

__all__ = ["QuadratureSpec", "IntegralResult", "integrate_unit", "integrate_semiinf", "DEFAULT_QUAD"]


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and subdivision budget for adaptive integration."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_subdivisions: int = 200

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise DomainError("quadrature tolerances must be positive")
        if self.max_subdivisions < 1:
            raise DomainError("max_subdivisions must be at least 1")


DEFAULT_QUAD = QuadratureSpec()


class IntegralResult(NamedTuple):
    value: float
    err_estimate: float

    def log(self) -> "IntegralResult":
        """The log of a positive integral, with the relative error of the
        integral as the bound on the absolute error of its log. A value
        that is not positive gives log 0 = -inf, exact only when its error
        estimate is zero."""
        if self.value <= 0.0:
            return IntegralResult(-math.inf, 0.0 if self.err_estimate == 0.0 else math.inf)
        return IntegralResult(math.log(self.value), self.err_estimate / self.value)


def integrate_unit(f: Callable[[float], float], spec: QuadratureSpec = DEFAULT_QUAD) -> IntegralResult:
    """Integrate ``f`` over [0, 1] to the tolerances in ``spec``.

    Parameters
    ----------
    f : callable
        Integrand, finite on the open interval (0, 1). Endpoint
        singularities must be integrable; the endpoints themselves are
        never evaluated.
    spec : QuadratureSpec
        Requested tolerances and maximum number of subdivisions.

    Returns
    -------
    IntegralResult
        ``(value, err_estimate)``.

    Raises
    ------
    ConvergenceError
        If the requested tolerance is not reached within the subdivision
        budget. The best available estimate is attached to the exception.
    """
    out = quad(
        f,
        0.0,
        1.0,
        epsabs=spec.abs_tol,
        epsrel=spec.rel_tol,
        limit=spec.max_subdivisions,
        full_output=1,
    )
    if len(out) >= 4:
        value, err = out[0], out[1]
        raise ConvergenceError(
            f"integration on [0,1] did not converge: {out[3]}",
            best_estimate=value,
            err_estimate=err,
        )
    value, err = out[0], out[1]
    return IntegralResult(float(value), float(err))


def integrate_semiinf(
    f: Callable[[float], float],
    spec: QuadratureSpec = DEFAULT_QUAD,
    scale: float = 1.0,
) -> IntegralResult:
    """Integrate ``f`` over [0, inf) to the tolerances in ``spec``.

    The half line is mapped to the unit interval through t = scale * u/(1 - u),
    dt = scale * du/(1 - u)^2, and the transformed integrand is handed to
    :func:`integrate_unit`. ``f`` must decay fast enough at infinity for
    the transformed integrand to stay integrable. ``scale`` sets the
    characteristic magnitude of the integrand's support (the default maps
    t = 1 to the middle of the unit interval); pass it when the mass sits
    many orders of magnitude away from one, which the adaptive subdivision
    cannot discover on its own.
    """
    if not (scale > 0.0 and math.isfinite(scale)):
        raise DomainError("scale must be positive and finite")

    def transformed(u: float) -> float:
        one_minus = 1.0 - u
        t = scale * u / one_minus
        ft = f(t)
        if ft == 0.0:
            return 0.0
        return ft * scale / (one_minus * one_minus)

    try:
        return integrate_unit(transformed, spec)
    except ConvergenceError as exc:
        raise ConvergenceError(
            f"integration on [0,inf) did not converge: {exc}",
            best_estimate=exc.best_estimate,
            err_estimate=exc.err_estimate,
        ) from exc
