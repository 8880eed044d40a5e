"""Adaptive integration against closed forms and a Simpson-rule oracle."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.special import betaln

from pprep import ConvergenceError, DomainError, QuadratureSpec, integrate_semiinf, integrate_unit
from pprep.quadrature import IntegralResult

from conftest import composite_simpson, normal_pdf, rng_for, simpson_semiinf


class TestSpecValidation:
    def test_defaults(self):
        spec = QuadratureSpec()
        assert spec.rel_tol == 1e-10
        assert spec.abs_tol == 1e-12
        assert spec.max_subdivisions == 200

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"rel_tol": 0.0},
            {"abs_tol": -1e-3},
            {"max_subdivisions": 0},
        ],
    )
    def test_invalid_spec_rejected(self, kwargs):
        with pytest.raises(DomainError):
            QuadratureSpec(**kwargs)


class TestLogOfIntegral:
    def test_positive_value(self):
        log_value, log_err = IntegralResult(2.0, 1e-9).log()
        assert log_value == math.log(2.0)
        assert log_err == 5e-10

    @pytest.mark.parametrize("err,log_err", [(0.0, 0.0), (1e-20, math.inf)])
    def test_zero_value(self, err, log_err):
        assert IntegralResult(0.0, err).log() == (-math.inf, log_err)


class TestUnitInterval:
    def test_constant(self):
        value, err = integrate_unit(lambda t: 1.0)
        assert value == pytest.approx(1.0, abs=1e-14)
        assert err >= 0.0

    def test_beta_density_mass(self):
        norm = math.exp(-betaln(2.0, 3.0))

        def dens(t):
            return norm * t * (1.0 - t) ** 2

        value, _ = integrate_unit(dens)
        assert value == pytest.approx(1.0, rel=1e-12)

    def test_endpoint_singular_integrand(self):
        # t^(-1/2) is integrable but infinite at 0; open rules must cope.
        value, _ = integrate_unit(lambda t: 1.0 / math.sqrt(t))
        assert value == pytest.approx(2.0, rel=1e-10)

    def test_predictive_mixture_against_simpson(self):
        # The marginal-likelihood integrand for the Labels first
        # replication under a uniform prior on the power parameter.
        def integrand(a):
            var = 0.0025 + 0.0025 / a
            return normal_pdf(0.09, 0.21, var)

        def vec(a):
            a = np.asarray(a)
            out = np.zeros_like(a, dtype=float)
            pos = a > 0
            out[pos] = integrand(a[pos])
            return out

        oracle = composite_simpson(vec, 0.0, 1.0, 1_000_001)
        value, err = integrate_unit(lambda a: float(integrand(a)))
        assert value == pytest.approx(oracle, rel=1e-9)
        assert abs(value - oracle) <= max(1e-8, 10 * err)

    def test_linearity(self):
        rng = rng_for(1)
        for _ in range(50):
            a, b = rng.uniform(-3, 3, size=2)
            f = lambda t: math.sin(3 * t) + 0.5
            g = lambda t: t**2
            combined, _ = integrate_unit(lambda t: a * f(t) + b * g(t))
            fa, _ = integrate_unit(f)
            gb, _ = integrate_unit(g)
            assert combined == pytest.approx(a * fa + b * gb, rel=1e-9, abs=1e-11)

    def test_nonconvergence_carries_best_estimate(self):
        spec = QuadratureSpec(rel_tol=1e-13, abs_tol=1e-14, max_subdivisions=2)
        with pytest.raises(ConvergenceError) as excinfo:
            integrate_unit(lambda t: math.sin(50.0 / (t + 1e-3)), spec)
        assert math.isfinite(excinfo.value.best_estimate)
        assert excinfo.value.err_estimate > 0.0


class TestSemiInfinite:
    def test_exponential(self):
        value, _ = integrate_semiinf(lambda x: math.exp(-x))
        assert value == pytest.approx(1.0, rel=1e-12)

    def test_gf_density_mass(self):
        # lam^a x^(a-1) / (B(a,b)(1+lam x)^(a+b)) at a=b=1, lam=2
        value, _ = integrate_semiinf(lambda x: 2.0 / (1.0 + 2.0 * x) ** 2)
        assert value == pytest.approx(1.0, rel=1e-10)

    @pytest.mark.parametrize("k", [0, 1, 2, 3, 4, 5])
    def test_polynomial_times_exponential(self, k):
        value, _ = integrate_semiinf(lambda x: x**k * math.exp(-x))
        assert value == pytest.approx(math.factorial(k), rel=1e-10)

    def test_heterogeneity_mixture_against_simpson(self):
        # Predictive normal mixed over an inverse gamma on the
        # between-study variance.
        def integrand(tau2):
            tau2 = np.asarray(tau2, dtype=float)
            safe = np.where(tau2 > 0, tau2, 1.0)
            dens = np.exp(-1.0 / safe) / safe**3  # IG(2, 1) up to 1/Gamma(2)
            out = normal_pdf(0.44, 0.21, 0.0016 + 0.0025 + 2.0 * safe) * dens
            return np.where(tau2 > 0, out, 0.0)

        oracle = simpson_semiinf(integrand, 2_000_001)
        value, _ = integrate_semiinf(lambda t: float(integrand(t)))
        assert value == pytest.approx(oracle, rel=1e-7)

    def test_scaled_substitution_reaches_remote_mass(self):
        big = 1e6
        value, _ = integrate_semiinf(lambda x: math.exp(-x / big) / big, scale=big)
        assert value == pytest.approx(1.0, rel=1e-10)

    def test_invalid_scale(self):
        with pytest.raises(DomainError):
            integrate_semiinf(lambda x: math.exp(-x), scale=0.0)
