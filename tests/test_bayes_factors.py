"""Bayes factor operations: closed forms, limits, and orientation rules."""

from __future__ import annotations

import math

import numpy as np
import pytest

from pprep import (
    BetaParams,
    DomainError,
    InvGammaParams,
    Study,
    StudyPair,
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
    invgamma_logpdf,
    log_beta,
)
from pprep.quadrature import integrate_unit

from conftest import composite_simpson, normal_pdf, rng_for, simpson_semiinf

UI = UnitInformation(2.0)


def random_pair(rng) -> StudyPair:
    se_o = rng.uniform(0.02, 0.3)
    se_r = rng.uniform(0.02, 0.3)
    est_o = rng.uniform(-0.5, 0.5)
    est_r = est_o + rng.uniform(-4.0, 4.0) * se_o
    return StudyPair(Study(est_o, se_o), Study(est_r, se_r))


class TestEffectTests:
    def test_power_prior_bf_against_simpson(self, labels_pairs, uniform_prior):
        pair = labels_pairs[0]

        def integrand(a):
            a = np.asarray(a, dtype=float)
            safe = np.where(a > 0, a, 1.0)
            out = normal_pdf(0.09, 0.21, 0.0025 + 0.0025 / safe)
            return np.where(a > 0, out, 0.0)

        oracle = normal_pdf(0.09, 0.0, 0.0025) / composite_simpson(integrand, 0.0, 1.0)
        got = bf01_power_prior(pair, uniform_prior)
        assert got.bf == pytest.approx(float(oracle), rel=1e-9)
        assert got.orientation[0].startswith("theta = 0")

    def test_diffuse_power_prior_favors_null(self, uniform_prior):
        pair = StudyPair(Study(0.21, 1e3), Study(0.0, 0.05))
        assert bf01_power_prior(pair, uniform_prior).bf > 100.0

    def test_replication_bf_closed_form(self, labels_pairs):
        got = bf01_replication(labels_pairs[1])
        expected = normal_pdf(0.21, 0.0, 0.0036) / normal_pdf(0.21, 0.21, 0.0025 + 0.0036)
        assert got.bf == pytest.approx(float(expected), rel=1e-12)

    def test_replication_bf_at_zero_original(self):
        # With both hypotheses centered at the observed zero the ratio is
        # just the square root of the variance ratio.
        pair = StudyPair(Study(0.0, 0.07), Study(0.0, 0.04))
        got = bf01_replication(pair)
        assert got.bf == pytest.approx(math.sqrt((0.07**2 + 0.04**2) / 0.04**2), rel=1e-12)
        assert got.bf > 1.0

    def test_point_mass_prior_matches_replication_bf(self, labels_pairs):
        for pair in labels_pairs:
            heavy = bf01_power_prior(pair, BetaParams(1e4, 1.0))
            plain = bf01_replication(pair)
            assert heavy.bf == pytest.approx(plain.bf, rel=1e-3)


class TestCompatibilityTests:
    def test_point_test_closed_form(self, labels_pairs):
        pair = labels_pairs[2]
        s = 2.0 / (0.0025 + 2.0)
        expected = normal_pdf(0.44, 0.0, 0.0016 + 2.0) / normal_pdf(
            0.44, s * 0.21, 0.0016 + s * 0.0025
        )
        got = bf_dc_point(pair, UI)
        assert got.bf == pytest.approx(float(expected), rel=1e-12)
        assert got.orientation == ("alpha = 0", "alpha = 1")

    def test_point_test_huge_kappa_limit(self):
        # kappa^2 -> infinity sends the shrinkage factor to one.
        pair = StudyPair(Study(0.0, 0.05), Study(0.13, 0.06))
        ui = UnitInformation(1e8)
        got = bf_dc_point(pair, ui)
        expected = normal_pdf(0.13, 0.0, 0.0036 + 1e8) / normal_pdf(
            0.13, 0.0, 0.0036 + 0.0025 * (1e8 / (0.0025 + 1e8))
        )
        assert got.bf == pytest.approx(float(expected), rel=1e-10)

    def test_beta_test_against_simpson(self, labels_pairs):
        pair = labels_pairs[0]

        def integrand(a):
            a = np.asarray(a, dtype=float)
            safe = np.where(a > 0, a, 1.0)
            out = normal_pdf(0.09, 0.21, 0.0025 + 0.0025 / safe) * 2.0 * (1.0 - safe)
            return np.where(a > 0, out, 0.0)

        oracle = composite_simpson(integrand, 0.0, 1.0) / normal_pdf(0.09, 0.21, 0.005)
        got = bf_dc_beta(pair, 2.0)
        assert got.bf == pytest.approx(float(oracle), rel=1e-9)
        assert got.orientation == ("alpha < 1", "alpha = 1")

    def test_beta_test_large_y_against_substituted_simpson(self, labels_pairs):
        # Substituting v = y * alpha turns the spiked Be(1, y) weight into
        # a smooth near-exponential, giving an independent route.
        pair = labels_pairs[0]
        y = 1e4

        def integrand(v):
            v = np.asarray(v, dtype=float)
            safe = np.where(v > 0, v, 1.0)
            alpha = safe / y
            dens = normal_pdf(0.09, 0.21, 0.0025 + 0.0025 / alpha)
            weight = np.exp((y - 1.0) * np.log1p(-alpha))
            return np.where(v > 0, dens * weight, 0.0)

        oracle = composite_simpson(integrand, 0.0, 60.0) / normal_pdf(0.09, 0.21, 0.005)
        got = bf_dc_beta(pair, y)
        assert got.bf == pytest.approx(float(oracle), rel=1e-6)

    def test_beta_test_shape_validation(self, labels_pairs):
        with pytest.raises(DomainError):
            bf_dc_beta(labels_pairs[0], 0.8)
        with pytest.raises(DomainError):
            bf_dc_beta(labels_pairs[0], 1.0)


class TestLimits:
    def test_effect_test_limit_classification(self, labels_original, uniform_prior):
        at_zero = bf01_power_prior_limit(0.0, labels_original, uniform_prior)
        assert at_zero.kind == "plus_infinity"
        away = bf01_power_prior_limit(0.21, labels_original, uniform_prior)
        assert away.kind == "zero"

    def test_effect_test_limit_diagnostic_at_original(self, labels_original):
        prior = BetaParams(1.3, 2.6)
        got = bf01_power_prior_limit(labels_original.estimate, labels_original, prior)
        expected = math.sqrt(2 * math.pi) * math.exp(
            log_beta(1.3, 2.6) - log_beta(1.8, 2.6)
        )
        assert got.pre_dirac_factor == pytest.approx(expected, rel=1e-12)

    def test_point_limit_most_extreme_value(self, labels_original):
        # Minimized at the original estimate; the Labels numbers give 1/28.
        got = bf_dc_point_limit(0.21, labels_original, UI)
        assert 1.0 / got == pytest.approx(28.0, rel=0.05)
        grid = np.linspace(-1.0, 1.5, 2001)
        values = [bf_dc_point_limit(float(t), labels_original, UI) for t in grid]
        assert grid[int(np.argmin(values))] == pytest.approx(0.21, abs=2e-3)

    def test_point_limit_far_truth_favors_discounting(self, labels_original):
        assert bf_dc_point_limit(1.21, labels_original, UI) > 1e3

    def test_beta_limit_values(self, labels_original):
        got = bf_dc_beta_limit(0.21, labels_original, 2.0)
        assert got == pytest.approx(8.0 / 15.0, abs=1e-10)
        for y in (1.5, 3.0, 7.0):
            at_orig = bf_dc_beta_limit(0.21, labels_original, y)
            assert at_orig == pytest.approx(
                math.exp(log_beta(1.5, y) - log_beta(1.0, y)), rel=1e-12
            )

    def test_beta_limit_series_oracle(self, labels_original):
        # direct power-series evaluation of the hypergeometric factor
        y, theta = 2.0, 0.31
        z = (theta - 0.21) ** 2 / (2 * 0.0025)
        term, total = 1.0, 1.0
        for n in range(200):
            term *= (y + n) * z / ((y + 1.5 + n) * (n + 1))
            total += term
        expected = math.exp(log_beta(1.5, y) - log_beta(1.0, y)) * total
        assert bf_dc_beta_limit(theta, labels_original, y) == pytest.approx(expected, rel=1e-10)

    def test_point_limit_matches_vanishing_noise(self):
        rng = rng_for(31)
        for _ in range(500):
            orig = Study(rng.uniform(-0.5, 0.5), rng.uniform(0.02, 0.3))
            ui = UnitInformation(rng.uniform(0.5, 4.0))
            theta = orig.estimate + rng.uniform(-3, 3) * orig.se
            lim = bf_dc_point_limit(theta, orig, ui)
            tiny = bf_dc_point(StudyPair(orig, Study(theta, 1e-8)), ui)
            assert lim == pytest.approx(tiny.bf, rel=1e-4)

    def test_beta_limit_matches_vanishing_noise(self):
        rng = rng_for(32)
        for _ in range(50):
            orig = Study(rng.uniform(-0.5, 0.5), rng.uniform(0.05, 0.3))
            y = rng.uniform(1.5, 6.0)
            theta = orig.estimate + rng.uniform(-2, 2) * orig.se
            lim = bf_dc_beta_limit(theta, orig, y)
            tiny = bf_dc_beta(StudyPair(orig, Study(theta, 1e-6)), y)
            assert lim == pytest.approx(tiny.bf, rel=1e-4)


class TestHeterogeneityTest:
    def test_equal_studies_with_tiny_noise_favor_homogeneity(self):
        pair = StudyPair(Study(0.21, 1e-4), Study(0.21, 1e-4))
        assert bf_dc_invgamma(pair, InvGammaParams(2.0, 1.0)).bf < 1e-3

    def test_labels_rep3_against_simpson(self, labels_pairs):
        pair = labels_pairs[2]
        ig = InvGammaParams(2.0, 0.01)

        def integrand(tau2):
            tau2 = np.asarray(tau2, dtype=float)
            safe = np.where(tau2 > 0, tau2, 1.0)
            dens = np.exp(invgamma_logpdf(safe, ig))
            out = normal_pdf(0.44, 0.21, 0.0041 + 2.0 * safe) * dens
            return np.where(tau2 > 0, out, 0.0)

        oracle = simpson_semiinf(integrand, 2_000_001, scale=ig.r / 3.0) / normal_pdf(
            0.44, 0.21, 0.0041
        )
        got = bf_dc_invgamma(pair, ig)
        assert got.bf == pytest.approx(float(oracle), rel=1e-7)

    def test_diffuse_scale_sends_bf_to_zero(self, labels_pairs):
        values = [
            bf_dc_invgamma(labels_pairs[2], InvGammaParams(2.0, r)).bf
            for r in (1.0, 1e3, 1e6)
        ]
        assert values[0] > values[1] > values[2]
        assert values[2] < 0.05

    def test_limit_classification(self):
        ig = InvGammaParams(2.0, 1.0)
        assert bf_dc_invgamma_limit(0.3, 0.3, ig).kind == "zero"
        assert bf_dc_invgamma_limit(0.3, 0.1, ig).kind == "plus_infinity"

    def test_limit_diagnostic_value(self):
        got = bf_dc_invgamma_limit(2.0, 0.0, InvGammaParams(2.0, 1.0))
        expected = math.gamma(2.5) * 2.0 ** (-2.5) / math.sqrt(4 * math.pi)
        assert got.pre_dirac_factor == pytest.approx(expected, rel=1e-12)


class TestImpliedAlphaPrior:
    def test_total_mass(self):
        sigma2_o = 0.05**2
        ig = InvGammaParams(2.0, sigma2_o / 2.0)
        val, _ = integrate_unit(
            lambda a: math.exp(implied_alpha_prior_logdensity(a, ig, sigma2_o))
        )
        assert val == pytest.approx(1.0, rel=1e-8)

    def test_change_of_variables_identity(self):
        rng = rng_for(33)
        sigma2_o = 0.0025
        ig = InvGammaParams(1.7, 0.004)
        for _ in range(500):
            a = float(rng.uniform(1e-3, 1 - 1e-3))
            tau2 = (1.0 / a - 1.0) * sigma2_o / 2.0
            jacobian = sigma2_o / (2.0 * a * a)  # |dtau2/dalpha|
            lhs = implied_alpha_prior_logdensity(a, ig, sigma2_o)
            rhs = invgamma_logpdf(tau2, ig) + math.log(jacobian)
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)

    def test_depends_on_original_variance(self):
        ig = InvGammaParams(2.0, 0.001)
        one = implied_alpha_prior_logdensity(0.5, ig, 0.0025)
        other = implied_alpha_prior_logdensity(0.5, ig, 0.005)
        assert one != pytest.approx(other, abs=1e-6)

    def test_boundaries(self):
        ig = InvGammaParams(2.0, 0.001)
        assert implied_alpha_prior_logdensity(1.0, ig, 0.0025) == -math.inf
        assert implied_alpha_prior_logdensity(0.0, ig, 0.0025) == -math.inf


class TestOrientationAndScaling:
    def test_reciprocal_is_exact(self):
        rng = rng_for(34)
        for _ in range(500):
            pair = random_pair(rng)
            result = bf_dc_point(pair, UI)
            flipped = result.reciprocal()
            assert result.log_bf + flipped.log_bf == 0.0
            assert flipped.orientation == (result.orientation[1], result.orientation[0])

    def test_unit_rescaling_leaves_closed_form_bfs_alone(self):
        rng = rng_for(35)
        for _ in range(500):
            pair = random_pair(rng)
            c = float(rng.uniform(0.1, 10.0))
            scaled = StudyPair(
                Study(pair.original.estimate * c, pair.original.se * c),
                Study(pair.replication.estimate * c, pair.replication.se * c),
            )
            assert bf01_replication(pair).log_bf == pytest.approx(
                bf01_replication(scaled).log_bf, abs=1e-11
            )
            kappa2 = float(rng.uniform(0.5, 4.0))
            assert bf_dc_point(pair, UnitInformation(kappa2)).log_bf == pytest.approx(
                bf_dc_point(scaled, UnitInformation(kappa2 * c * c)).log_bf, abs=1e-11
            )


class TestFormatting:
    @pytest.mark.parametrize(
        "bf,expected",
        [
            (0.9423, "1/1.1"),
            (1.181, "1.2"),
            (0.0545, "1/18"),
            (27.85, "28"),
            (367.0, "370"),
            (2.1e-25, "< 1/1000"),
            (0.000999, "< 1/1000"),
            (0.666, "1/1.5"),
            (1.0, "1.0"),
            (16.44, "16"),
            (0.09996, "1/10"),
        ],
    )
    def test_table_style_display(self, bf, expected):
        assert format_bf(bf) == expected
