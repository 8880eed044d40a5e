"""Special functions and density families against independent oracles."""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from pprep import (
    DomainError,
    GBetaParams,
    GFParams,
    InvGammaParams,
    UnsupportedDomainError,
    gbeta_logpdf,
    gf_logpdf,
    integrate_semiinf,
    integrate_unit,
    invgamma_logpdf,
    log_beta,
    log_kummer_m,
    noncentral_chisq1_cdf,
    normal_logpdf,
)
from pprep.special import beta_logpdf

from conftest import rng_for


class TestLogBeta:
    def test_known_values(self):
        assert log_beta(1.0, 1.0) == pytest.approx(0.0, abs=1e-15)
        assert log_beta(1.5, 2.0) == pytest.approx(math.log(4.0 / 15.0), rel=1e-14)
        assert log_beta(1.0, 2.0) == pytest.approx(math.log(0.5), rel=1e-14)

    def test_symmetry_exact(self):
        rng = rng_for(10)
        z = rng.uniform(0.05, 40.0, size=500)
        w = rng.uniform(0.05, 40.0, size=500)
        for zi, wi in zip(z, w):
            assert log_beta(zi, wi) == log_beta(wi, zi)

    @pytest.mark.parametrize("args", [(0.0, 1.0), (1.0, -2.0), (-1.0, -1.0)])
    def test_domain(self, args):
        with pytest.raises(DomainError):
            log_beta(*args)


def _kummer_integral_oracle(a: float, b: float, z: float) -> float:
    """Direct adaptive quadrature of the integral definition."""
    c = b - a
    norm = math.exp(math.lgamma(a) + math.lgamma(c) - math.lgamma(b))
    val, _ = quad(
        lambda t: math.exp(z * t) * t ** (a - 1.0) * (1.0 - t) ** (c - 1.0),
        0.0,
        1.0,
        epsabs=1e-14,
        epsrel=1e-13,
        limit=300,
    )
    return val / norm


class TestKummerM:
    def test_at_zero_is_one(self):
        for a, b in [(0.5, 1.0), (1.5, 2.5), (2.0, 5.0), (10.0, 30.0)]:
            assert math.exp(log_kummer_m(a, b, 0.0)) == pytest.approx(1.0, abs=1e-15)

    def test_closed_form_series_value(self):
        # M(1, 2, z) = (e^z - 1)/z
        assert math.exp(log_kummer_m(1.0, 2.0, 1.0)) == pytest.approx(math.e - 1.0, rel=1e-13)

    def test_negative_argument_against_integral_oracle(self):
        got = math.exp(log_kummer_m(1.5, 2.5, -8.82))
        assert got == pytest.approx(_kummer_integral_oracle(1.5, 2.5, -8.82), rel=1e-10)

    @pytest.mark.parametrize(
        "a,b,z",
        [(1.5, 3.5, 7.0), (0.7, 1.9, -4.0), (2.0, 6.0, 55.0), (4.0, 9.0, -120.0)],
    )
    def test_moderate_arguments_against_integral_oracle(self, a, b, z):
        got = math.exp(log_kummer_m(a, b, z))
        assert got == pytest.approx(_kummer_integral_oracle(a, b, z), rel=1e-9)

    def test_acceptance_domain_against_high_precision(self):
        # The supported domain promises relative 1e-10; mpmath provides an
        # arbitrary-precision reference across it.
        rng = rng_for(11)
        mpmath.mp.dps = 40
        for _ in range(60):
            a = rng.uniform(0.2, 50.0)
            b = a + rng.uniform(0.2, max(0.5, 50.0 - a))
            z = rng.uniform(-200.0, 200.0)
            got = log_kummer_m(a, b, z)
            ref = float(mpmath.log(mpmath.hyp1f1(a, b, z)))
            assert got == pytest.approx(ref, abs=5e-11, rel=1e-10)

    @pytest.mark.parametrize(
        "a,b,z",
        [
            (1.5, 1.51, -40.5),        # b close to a, moderate negative z
            (99.945, 99.999, 9.07e4),  # b close to a at the shape limit
            (50.0, 50.000001, -2e4),
            (0.3, 0.3000001, 7e5),
            (90.0, 95.0, -5e5),        # M below the smallest normal double
            (99.5, 99.9, -1e6),
            (80.0, 100.0, -4e5),       # M subnormal
            (92.0, 98.0, -1.4e5),      # M the smallest subnormal, 5e-324
            (5.0, 99.0, 8e5),          # tail reached through the transformation
            (0.3, 99.0, 9.9e5),
            (0.05, 0.1, -1e6),
        ],
    )
    def test_edge_points_against_high_precision(self, a, b, z):
        mpmath.mp.dps = 40
        ref = float(mpmath.log(mpmath.hyp1f1(a, b, z)))
        assert log_kummer_m(a, b, z) == pytest.approx(ref, abs=5e-11, rel=1e-10)

    def test_full_domain_against_high_precision(self):
        # Shapes up to 100 (a third of them with b - a below 0.1), both
        # signs of z, |z| log-uniform up to the 1e6 cap.
        rng = rng_for(13)
        mpmath.mp.dps = 40
        for i in range(300):
            a = rng.uniform(0.05, 99.9)
            if i % 3 == 0:
                b = a + 10.0 ** rng.uniform(-6.0, -1.0)
            else:
                b = a + max(rng.uniform(0.0, 1.0) * (100.0 - a), 1e-6)
            z = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-3.0, 6.0)
            got = log_kummer_m(a, b, z)
            ref = float(mpmath.log(mpmath.hyp1f1(a, b, z)))
            assert got == pytest.approx(ref, abs=5e-11, rel=1e-10), (a, b, z)

    def test_reflection_identity(self):
        rng = rng_for(12)
        for _ in range(500):
            a = rng.uniform(0.2, 20.0)
            b = a + rng.uniform(0.1, 20.0)
            z = rng.uniform(-80.0, 80.0)
            lhs = log_kummer_m(a, b, z)
            rhs = z + log_kummer_m(b - a, b, -z)
            assert lhs == pytest.approx(rhs, abs=1e-9, rel=1e-9)

    @pytest.mark.parametrize(
        "a,b,z",
        [
            (2.0, 2.0, 1.0),   # needs b > a
            (0.0, 1.0, 1.0),   # needs a > 0
            (-1.0, 2.0, 1.0),
            (1.0, 0.5, 1.0),
            (1.0, 2.0, 2e6),     # beyond validated |z|
            (101.0, 102.0, 1.0),  # beyond supported shapes
        ],
    )
    def test_unsupported_domain(self, a, b, z):
        with pytest.raises(UnsupportedDomainError):
            log_kummer_m(a, b, z)


class TestNormalLogpdf:
    def test_standard_at_zero(self):
        assert normal_logpdf(0.0, 0.0, 1.0) == pytest.approx(
            math.log(1.0 / math.sqrt(2.0 * math.pi)), rel=1e-15
        )

    def test_at_the_mean(self):
        assert normal_logpdf(0.21, 0.21, 0.0061) == pytest.approx(
            -0.5 * math.log(2.0 * math.pi * 0.0061), rel=1e-15
        )

    def test_off_mean_value(self):
        # direct formula, written out independently
        expected = -0.5 * math.log(2.0 * math.pi * 0.0025) - 0.09**2 / (2.0 * 0.0025)
        assert normal_logpdf(0.09, 0.0, 0.0025) == pytest.approx(expected, rel=1e-15)

    def test_broadcasts(self):
        out = normal_logpdf(np.array([0.0, 1.0]), 0.0, np.array([1.0, 4.0]))
        assert out.shape == (2,)

    def test_domain(self):
        with pytest.raises(DomainError):
            normal_logpdf(0.0, 0.0, 0.0)


class TestNoncentralChisq1:
    def test_zero_point(self):
        for lam in (0.0, 1.0, 17.3):
            assert noncentral_chisq1_cdf(0.0, lam) == 0.0

    def test_central_quantile(self):
        assert noncentral_chisq1_cdf(3.841459, 0.0) == pytest.approx(0.95, abs=1e-6)

    def test_monte_carlo_oracle(self):
        rng = rng_for(13)
        draws = (rng.standard_normal(10_000_000) + math.sqrt(4.0)) ** 2
        mc = float(np.mean(draws <= 10.0))
        assert noncentral_chisq1_cdf(10.0, 4.0) == pytest.approx(mc, abs=3e-4)

    def test_monotone_in_x_and_lambda(self):
        rng = rng_for(14)
        for _ in range(500):
            x1, x2 = np.sort(rng.uniform(0.0, 30.0, size=2))
            lam1, lam2 = np.sort(rng.uniform(0.0, 30.0, size=2))
            lam = rng.uniform(0.0, 30.0)
            x = rng.uniform(0.0, 30.0)
            assert noncentral_chisq1_cdf(x1, lam) <= noncentral_chisq1_cdf(x2, lam) + 1e-15
            assert noncentral_chisq1_cdf(x, lam2) <= noncentral_chisq1_cdf(x, lam1) + 1e-15

    def test_domain(self):
        with pytest.raises(DomainError):
            noncentral_chisq1_cdf(-1.0, 1.0)
        with pytest.raises(DomainError):
            noncentral_chisq1_cdf(1.0, -1.0)


class TestGeneralizedBeta:
    def test_collapses_to_beta_at_unit_scale(self):
        params = GBetaParams(2.0, 3.0, 1.0)
        assert gbeta_logpdf(0.3, params) == pytest.approx(
            beta_logpdf(0.3, 2.0, 3.0), rel=1e-14
        )

    def test_mass_is_one(self):
        params = GBetaParams(2.0, 1.0, 2.0)
        value, _ = integrate_unit(lambda x: math.exp(gbeta_logpdf(x, params)))
        assert value == pytest.approx(1.0, rel=1e-8)

    def test_zero_boundary_with_shape_above_one(self):
        assert gbeta_logpdf(0.0, GBetaParams(2.0, 1.0, 2.0)) == -math.inf

    def test_invalid_params(self):
        with pytest.raises(DomainError):
            GBetaParams(0.0, 1.0, 1.0)


class TestGeneralizedF:
    def test_mass_is_one(self):
        params = GFParams(1.0, 1.0, 2.0)
        value, _ = integrate_semiinf(lambda x: math.exp(gf_logpdf(x, params)))
        assert value == pytest.approx(1.0, rel=1e-8)

    def test_decreasing_when_first_shape_is_one(self):
        params = GFParams(1.0, 2.0, 1.5)
        xs = np.linspace(0.0, 5.0, 200)
        dens = gf_logpdf(xs, params)
        assert np.all(np.diff(dens) < 0)
        assert np.argmax(dens) == 0

    def test_matches_beta_through_odds_transform(self):
        # If T follows the generalized F law then lam*T/(1+lam*T) is
        # Beta(a, b); check the density transform at x = 0.5.
        a, b, lam = 1.7, 2.4, 3.0
        x = 0.5
        t = x / (lam * (1.0 - x))
        jacobian = 1.0 / (lam * (1.0 - x) ** 2)  # dt/dx
        lhs = beta_logpdf(x, a, b)
        rhs = gf_logpdf(t, GFParams(a, b, lam)) + math.log(jacobian)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_negative_support(self):
        assert gf_logpdf(-0.1, GFParams(1.0, 1.0, 1.0)) == -math.inf


class TestInverseGamma:
    def test_mass_is_one(self):
        params = InvGammaParams(2.0, 1.0)
        value, _ = integrate_semiinf(lambda x: math.exp(invgamma_logpdf(x, params)))
        assert value == pytest.approx(1.0, rel=1e-8)

    def test_mode_location(self):
        params = InvGammaParams(2.3, 0.7)
        mode = params.r / (params.q + 1.0)
        eps = 1e-6
        center = invgamma_logpdf(mode, params)
        assert center > invgamma_logpdf(mode + eps, params)
        assert center > invgamma_logpdf(mode - eps, params)

    def test_unit_value(self):
        assert invgamma_logpdf(1.0, InvGammaParams(1.0, 1.0)) == pytest.approx(
            -1.0, rel=1e-14
        )

    def test_domain(self):
        with pytest.raises(DomainError):
            invgamma_logpdf(0.0, InvGammaParams(1.0, 1.0))
        with pytest.raises(DomainError):
            InvGammaParams(1.0, 0.0)


# Each density with points inside its support, on its edges and outside it,
# and with invalid variances or shapes.
_BETA_XS = [-0.1, 0.0, 1e-9, 0.3, 1.0, 1.2, math.nan]
_GF_XS = [-1.0, 0.0, 1e-7, 0.4, 30.0, 1e12]
_INVGAMMA_XS = [-1.0, 0.0, 1e-6, 0.3, 5.0, 1e9]
_AGREEMENT_CASES = [
    *[
        pytest.param(lambda x, var=var: normal_logpdf(x, 0.21, var), xs, id=f"normal-var{var}")
        for var, xs in [
            (0.0025, [-3.0, 0.0, 0.21, 0.5, 1e3, math.inf]),
            (1e-8, [0.2099, 0.21, 7.5]),
            (0.0, [0.0, 0.21]),
            (-1.0, [0.3]),
        ]
    ],
    *[
        pytest.param(lambda x, ab=ab: beta_logpdf(x, *ab), _BETA_XS, id=f"beta{ab}")
        for ab in [(0.5, 2.0), (1.0, 1.0), (2.5, 0.7), (1.0, 0.01), (0.0, 1.0), (1.0, -2.0)]
    ],
    *[
        pytest.param(lambda x, p=GFParams(*abl): gf_logpdf(x, p), _GF_XS, id=f"gf{abl}")
        for abl in [(0.5, 2.0, 3.0), (1.0, 1.0, 2e4), (2.5, 0.7, 0.3)]
    ],
    *[
        pytest.param(
            lambda x, p=InvGammaParams(*qr): invgamma_logpdf(x, p), _INVGAMMA_XS, id=f"invgamma{qr}"
        )
        for qr in [(2.0, 1.0), (0.8, 0.01)]
    ],
]


class TestScalarArrayAgreement:
    """A float or float64 argument takes the math path, a 0-d or 1-d array
    the numpy path; both give the same value, -inf or DomainError."""

    @pytest.mark.parametrize("density,xs", _AGREEMENT_CASES)
    def test_float_and_array_inputs_agree(self, density, xs):
        for x in xs:
            outcomes = []
            for form in (x, np.float64(x), np.array(x), np.array([x])):
                try:
                    value = density(form)
                except DomainError as exc:
                    outcomes.append(str(exc))
                    continue
                if np.ndim(form):
                    assert value.shape == (1,)
                    value = float(value[0])
                else:
                    assert type(value) is float
                outcomes.append(value)
            first = outcomes[0]
            if isinstance(first, str):
                assert outcomes == [first] * 4, x
            else:
                assert all(isinstance(v, float) for v in outcomes), (x, outcomes)
                assert all(v == first or abs(v - first) <= 4e-16 * abs(first) for v in outcomes), (
                    x, outcomes,
                )


class TestDensityMassSweep:
    """All families integrate to one for randomized parameters."""

    def test_randomized_normalization(self):
        rng = rng_for(15)
        for _ in range(20):
            gbe = GBetaParams(*rng.uniform(0.5, 4.0, size=2), rng.uniform(0.3, 4.0))
            value, _ = integrate_unit(lambda x: math.exp(gbeta_logpdf(x, gbe)))
            assert value == pytest.approx(1.0, rel=1e-8)

            gf = GFParams(*rng.uniform(0.5, 4.0, size=2), rng.uniform(0.3, 4.0))
            value, _ = integrate_semiinf(lambda x: math.exp(gf_logpdf(x, gf)))
            assert value == pytest.approx(1.0, rel=1e-8)

            ig = InvGammaParams(rng.uniform(0.8, 5.0), rng.uniform(0.2, 5.0))
            value, _ = integrate_semiinf(
                lambda x: math.exp(invgamma_logpdf(x, ig)), scale=ig.r / (ig.q + 1.0)
            )
            assert value == pytest.approx(1.0, rel=1e-8)
