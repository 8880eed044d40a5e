"""Hierarchical-model correspondence: maps, pushforwards, and test parity."""

from __future__ import annotations

import math

import mpmath
import numpy as np
import pytest

from pprep import (
    BetaParams,
    DomainError,
    GBetaParams,
    GFParams,
    HierarchicalHypothesis,
    InvGammaParams,
    I2_prior_from_alpha_prior,
    I2_to_alpha,
    OverallEffectPrior,
    Study,
    StudyPair,
    UnitInformation,
    alpha_to_I2,
    alpha_to_tau2,
    bf01_power_prior,
    bf_dc_beta,
    bf_dc_point,
    compatibility_beta_hypotheses,
    compatibility_point_hypotheses,
    effect_test_hypotheses,
    gbeta_logpdf,
    gf_logpdf,
    hier_bayes_factor,
    hier_evidence,
    hier_marginal_posterior_tau2,
    hier_marginal_posterior_theta_r,
    hier_posterior_theta_r,
    marginal_posterior_alpha,
    marginal_posterior_theta,
    posterior_theta_fixed_alpha,
    tau2_prior_from_alpha_prior,
    tau2_to_alpha,
)
from pprep.inference import theta_lattice
from pprep.special import beta_logpdf

from conftest import normal_pdf, rng_for, simpson_semiinf


class TestFixedHeterogeneityPosterior:
    def test_zero_heterogeneity_equals_full_pooling(self, labels_pairs):
        pair = labels_pairs[0]
        hier = hier_posterior_theta_r(pair, 0.0)
        power = posterior_theta_fixed_alpha(pair, 1.0)
        assert hier == power

    def test_huge_heterogeneity_ignores_original(self, labels_pairs):
        pair = labels_pairs[0]
        hier = hier_posterior_theta_r(pair, 1e8)
        assert hier.mean == pytest.approx(0.09, abs=1e-7)
        assert hier.variance == pytest.approx(0.0025, rel=1e-7)

    def test_mapped_heterogeneity_matches_half_weight(self, labels_pairs):
        pair = labels_pairs[0]
        tau2 = pair.original.variance * (1.0 / 0.5 - 1.0) / 2.0
        hier = hier_posterior_theta_r(pair, tau2)
        power = posterior_theta_fixed_alpha(pair, 0.5)
        assert hier.mean == pytest.approx(power.mean, rel=1e-14)
        assert hier.variance == pytest.approx(power.variance, rel=1e-14)

    def test_bridge_exact_for_random_heterogeneity(self, labels_pairs):
        rng = rng_for(51)
        pair = labels_pairs[2]
        for tau2 in rng.uniform(0.0, 5.0, size=1000):
            alpha = tau2_to_alpha(float(tau2), pair.original.variance)
            hier = hier_posterior_theta_r(pair, float(tau2))
            power = posterior_theta_fixed_alpha(pair, alpha)
            assert hier.mean == pytest.approx(power.mean, abs=1e-12)
            assert hier.variance == pytest.approx(power.variance, abs=1e-12)


class TestDeterministicMaps:
    def test_alpha_tau2_known_values(self):
        assert alpha_to_tau2(1.0, 0.0025) == 0.0
        assert alpha_to_tau2(1.0 / 3.0, 0.0025) == pytest.approx(0.0025, rel=1e-12)
        assert alpha_to_tau2(0.0, 0.0025) == math.inf

    def test_alpha_tau2_round_trip(self):
        rng = rng_for(52)
        for _ in range(1000):
            alpha = float(rng.uniform(1e-6, 1.0))
            s2 = float(rng.uniform(1e-4, 1.0))
            assert tau2_to_alpha(alpha_to_tau2(alpha, s2), s2) == pytest.approx(
                alpha, rel=1e-12
            )

    def test_alpha_i2_involution(self):
        assert alpha_to_I2(1.0) == 0.0
        assert I2_to_alpha(0.0) == 1.0
        assert alpha_to_I2(1.0 / 3.0) == pytest.approx(0.5, rel=1e-14)
        rng = rng_for(53)
        for _ in range(1000):
            alpha = float(rng.uniform(1e-6, 1.0))
            assert I2_to_alpha(alpha_to_I2(alpha)) == pytest.approx(alpha, rel=1e-12)

    def test_linear_heuristic_worst_case(self):
        # The rough heuristic I2 ~ 1 - alpha is off by at most 3 - 2*sqrt(2)
        # (about 0.17, attained at alpha = sqrt(2) - 1); the Moebius map is
        # only loosely linear.
        alphas = np.linspace(1e-9, 1.0, 10_000)
        i2 = (1.0 - alphas) / (1.0 + alphas)
        deviation = np.abs(i2 - (1.0 - alphas))
        exact_worst = 3.0 - 2.0 * math.sqrt(2.0)
        assert float(deviation.max()) <= exact_worst + 1e-9
        assert float(deviation.max()) == pytest.approx(exact_worst, abs=1e-4)
        assert alphas[int(np.argmax(deviation))] == pytest.approx(
            math.sqrt(2.0) - 1.0, abs=1e-3
        )


class TestPriorPushforwards:
    def test_uniform_alpha_gives_near_uniform_shrinkage_prior(self):
        prior = tau2_prior_from_alpha_prior(BetaParams(1.0, 1.0), 0.0025)
        assert prior == GFParams(1.0, 1.0, 800.0)
        # density proportional to var_o / (2 tau2 + var_o)^2
        for tau2 in (0.0, 0.001, 0.01):
            expected = 2.0 / 0.0025 / (1.0 + 2.0 * tau2 / 0.0025) ** 2
            assert math.exp(gf_logpdf(tau2, prior)) == pytest.approx(expected, rel=1e-12)

    def test_decreasing_alpha_prior_vanishes_at_zero_heterogeneity(self):
        prior = tau2_prior_from_alpha_prior(BetaParams(1.0, 2.0), 0.0025)
        assert math.exp(gf_logpdf(0.0, prior)) == 0.0

    def test_matching_condition_pointwise(self):
        rng = rng_for(54)
        for _ in range(500):
            bp = BetaParams(float(rng.uniform(0.5, 4.0)), float(rng.uniform(0.5, 4.0)))
            s2 = float(rng.uniform(1e-4, 0.5))
            prior = tau2_prior_from_alpha_prior(bp, s2)
            tau2 = float(rng.uniform(0.0, 3.0))
            alpha = s2 / (2.0 * tau2 + s2)
            jacobian = 2.0 * s2 / (2.0 * tau2 + s2) ** 2  # |dalpha/dtau2|
            lhs = gf_logpdf(tau2, prior)
            rhs = beta_logpdf(alpha, bp.x, bp.y) + math.log(jacobian)
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)

    def test_i2_matching_condition_pointwise(self):
        rng = rng_for(55)
        for _ in range(500):
            bp = BetaParams(float(rng.uniform(0.5, 4.0)), float(rng.uniform(0.5, 4.0)))
            gbe = I2_prior_from_alpha_prior(bp)
            i2 = float(rng.uniform(0.0, 1.0))
            alpha = (1.0 - i2) / (1.0 + i2)
            jacobian = 2.0 / (1.0 + i2) ** 2
            lhs = gbeta_logpdf(i2, gbe)
            rhs = beta_logpdf(alpha, bp.x, bp.y) + math.log(jacobian)
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)

    def test_i2_prior_families(self):
        assert I2_prior_from_alpha_prior(BetaParams(1.0, 1.0)) == GBetaParams(1.0, 1.0, 2.0)
        gbe = I2_prior_from_alpha_prior(BetaParams(1.0, 1.0))
        i2 = np.linspace(0.0, 1.0, 50)
        dens = gbeta_logpdf(i2, gbe)
        assert np.all(np.diff(dens) < 0)
        assert math.exp(gbeta_logpdf(0.0, gbe)) == pytest.approx(2.0)
        peaked = I2_prior_from_alpha_prior(BetaParams(2.0, 1.0))
        assert peaked == GBetaParams(1.0, 2.0, 2.0)
        dens2 = gbeta_logpdf(i2, peaked)
        assert int(np.argmax(dens2)) == 0

    def test_gf_to_gbeta_consistency(self):
        # tau2 ~ GF implies I2 = tau2/(var_o + tau2) ~ GBe; Jacobian check.
        rng = rng_for(56)
        for _ in range(500):
            bp = BetaParams(float(rng.uniform(0.5, 4.0)), float(rng.uniform(0.5, 4.0)))
            s2 = float(rng.uniform(1e-3, 0.5))
            gf = tau2_prior_from_alpha_prior(bp, s2)
            gbe = I2_prior_from_alpha_prior(bp)
            i2 = float(rng.uniform(1e-6, 1.0 - 1e-6))
            tau2 = s2 * i2 / (1.0 - i2)
            jacobian = s2 / (1.0 - i2) ** 2  # dtau2/di2
            lhs = gbeta_logpdf(i2, gbe)
            rhs = gf_logpdf(tau2, gf) + math.log(jacobian)
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


class TestRandomHeterogeneityPosteriors:
    def test_tau2_posterior_mass(self, labels_pairs, uniform_prior):
        pair = labels_pairs[0]
        prior = tau2_prior_from_alpha_prior(uniform_prior, pair.original.variance)

        def dens(tau2):
            tau2 = np.asarray(tau2, dtype=float)
            return np.exp(
                [hier_marginal_posterior_tau2(float(t), pair, prior) for t in np.atleast_1d(tau2)]
            )

        mass = simpson_semiinf(lambda t: dens(t), 200_001, scale=pair.original.variance)
        assert mass == pytest.approx(1.0, abs=1e-6)

    def test_tau2_posterior_is_alpha_posterior_pushforward(self, labels_pairs, uniform_prior):
        pair = labels_pairs[0]
        prior = tau2_prior_from_alpha_prior(uniform_prior, pair.original.variance)
        s2 = pair.original.variance
        for alpha in (0.1, 0.35, 0.6, 0.95):
            tau2 = alpha_to_tau2(alpha, s2)
            jacobian = 2.0 * s2 / (2.0 * tau2 + s2) ** 2
            lhs = hier_marginal_posterior_tau2(tau2, pair, prior)
            rhs = marginal_posterior_alpha(alpha, pair, uniform_prior) + math.log(jacobian)
            assert lhs == pytest.approx(rhs, rel=1e-8, abs=1e-8)

    def test_flat_data_returns_the_prior(self, uniform_prior):
        pair = StudyPair(Study(0.21, 0.05), Study(0.2, 1e3))
        prior = tau2_prior_from_alpha_prior(uniform_prior, pair.original.variance)
        for tau2 in (0.001, 0.01, 0.1):
            post = hier_marginal_posterior_tau2(tau2, pair, prior)
            assert post == pytest.approx(gf_logpdf(tau2, prior), rel=1e-3)

    def test_theta_r_marginal_matches_power_prior(self, labels_pairs):
        pair = labels_pairs[1]
        bp = BetaParams(1.0, 1.0)
        prior = tau2_prior_from_alpha_prior(bp, pair.original.variance)
        for theta in np.linspace(0.0, 0.4, 9):
            hier = hier_marginal_posterior_theta_r(float(theta), pair, prior)
            power = marginal_posterior_theta(float(theta), pair, bp)
            assert hier == pytest.approx(power, rel=1e-6, abs=1e-6)

    def test_degenerate_prior_collapses_to_pooling(self, labels_pairs):
        pair = labels_pairs[0]
        prior = 0.0
        pooled = posterior_theta_fixed_alpha(pair, 1.0)
        theta = 0.17
        got = hier_marginal_posterior_theta_r(theta, pair, prior)
        expected = math.log(normal_pdf(theta, pooled.mean, pooled.variance))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_invgamma_prior_against_nested_simpson(self, labels_pairs):
        pair = labels_pairs[2]
        ig = InvGammaParams(2.0, 0.001)
        prior = ig
        scale = ig.r / (ig.q + 1.0)

        def norm_integrand(tau2):
            tau2 = np.asarray(tau2, dtype=float)
            safe = np.where(tau2 > 0, tau2, 1.0)
            dens = np.exp(2.0 * math.log(ig.r) - math.lgamma(2.0) - 3.0 * np.log(safe) - ig.r / safe)
            out = normal_pdf(0.44, 0.21, 0.0041 + 2.0 * safe) * dens
            return np.where(tau2 > 0, out, 0.0)

        norm = simpson_semiinf(norm_integrand, 400_001, scale=scale)
        for theta in (0.3, 0.38, 0.44, 0.5, 0.58):

            def mix_integrand(tau2):
                tau2 = np.asarray(tau2, dtype=float)
                safe = np.where(tau2 > 0, tau2, 1.0)
                w_r = 1.0 / 0.0016
                w_o = 1.0 / (2.0 * safe + 0.0025)
                var = 1.0 / (w_r + w_o)
                mean = (0.44 * w_r + 0.21 * w_o) * var
                out = normal_pdf(theta, mean, var) * norm_integrand(safe)
                return np.where(tau2 > 0, out, 0.0)

            oracle = math.log(simpson_semiinf(mix_integrand, 400_001, scale=scale) / norm)
            got = hier_marginal_posterior_theta_r(theta, pair, prior)
            assert got == pytest.approx(oracle, rel=1e-6, abs=1e-6)

    @pytest.mark.xfail(
        strict=True,
        reason="the absolute tolerance 1e-12 dwarfs a mixture integral of size "
        "~exp(-119), so QUADPACK stops 9.2e-3 nats off; needs the evidence max-shift",
    )
    def test_theta_r_marginal_far_tail_against_mpmath(self):
        # The last point of a 26-point bridge lattice on studies 40 combined
        # standard errors apart. The closed-form power-prior marginal gives
        # the same value as the oracle, -118.96242.
        pair = StudyPair(Study(0.0, 0.01), Study(0.4, 0.01))
        gf = tau2_prior_from_alpha_prior(BetaParams(1.0, 1.0), pair.original.variance)
        theta = float(theta_lattice(pair, num=26)[25])
        with mpmath.workdps(30):
            mpf = mpmath.mpf
            est_o, var_o = mpf(pair.original.estimate), mpf(pair.original.se) ** 2
            est_r, var_r = mpf(pair.replication.estimate), mpf(pair.replication.se) ** 2
            a, b, lam = mpf(gf.a), mpf(gf.b), mpf(gf.lam)

            def npdf(x, mean, var):
                return mpmath.npdf(x, mean, mpmath.sqrt(var))

            def weight(t):
                prior = lam**a * t ** (a - 1) / (mpmath.beta(a, b) * (1 + lam * t) ** (a + b))
                return npdf(est_r, est_o, var_o + var_r + 2 * t) * prior

            def conditional(t):
                w_r, w_o = 1 / var_r, 1 / (2 * t + var_o)
                var = 1 / (w_r + w_o)
                return npdf(mpf(theta), (est_r * w_r + est_o * w_o) * var, var)

            # Quarter-decade breakpoints: at whole decades tanh-sinh is off
            # by 1e-6 nats here.
            points = [0] + [mpf(10) ** (k / mpf(4)) for k in range(-40, 12)] + [mpmath.inf]
            num = mpmath.quad(lambda t: conditional(t) * weight(t), points)
            oracle = float(mpmath.log(num / mpmath.quad(weight, points)))
        assert marginal_posterior_theta(theta, pair, BetaParams(1.0, 1.0)) == pytest.approx(
            oracle, rel=1e-10
        )
        got = hier_marginal_posterior_theta_r(theta, pair, gf)
        assert got == pytest.approx(oracle, rel=1e-10)


class TestHierEvidence:
    def test_zero_heterogeneity_is_pooled_predictive(self, labels_pairs):
        pair = labels_pairs[0]
        got = hier_evidence(pair, 0.0)
        assert got == pytest.approx(
            math.log(normal_pdf(0.09, 0.21, 0.005)), rel=1e-12
        )

    def test_symmetric_in_study_order(self, labels_pairs):
        pair = labels_pairs[2]
        swapped = StudyPair(pair.replication, pair.original)
        for tau2 in (0.0, 0.02, 1.3):
            assert hier_evidence(pair, tau2) == pytest.approx(
                hier_evidence(swapped, tau2), rel=1e-14
            )

    def test_direct_formula(self, labels_pairs):
        got = hier_evidence(labels_pairs[2], 0.01)
        expected = math.log(normal_pdf(0.44, 0.21, 0.0016 + 0.0025 + 0.02))
        assert got == pytest.approx(expected, rel=1e-13)


class TestBayesFactorCorrespondences:
    def test_effect_test_parity(self, labels_pairs, uniform_prior):
        pair = labels_pairs[0]
        null, alternative = effect_test_hypotheses(pair.original, uniform_prior)
        hier = hier_bayes_factor(pair, null, alternative)
        power = bf01_power_prior(pair, uniform_prior)
        assert hier.log_bf == pytest.approx(power.log_bf, rel=1e-6, abs=1e-9)

    def test_point_compatibility_parity_exact(self, labels_pairs):
        ui = UnitInformation(2.0)
        for pair in labels_pairs:
            disc, pool = compatibility_point_hypotheses(pair.original, ui)
            hier = hier_bayes_factor(pair, disc, pool)
            power = bf_dc_point(pair, ui)
            assert hier.log_bf == power.log_bf
            assert hier.quadrature_err == 0.0

    def test_beta_compatibility_parity(self, labels_pairs):
        for pair in labels_pairs:
            het, hom = compatibility_beta_hypotheses(pair.original, 2.0)
            hier = hier_bayes_factor(pair, het, hom)
            power = bf_dc_beta(pair, 2.0)
            assert hier.log_bf == pytest.approx(power.log_bf, rel=1e-6, abs=1e-9)

    def test_improper_effect_prior_rejected(self):
        with pytest.raises(DomainError):
            OverallEffectPrior(mean=0.0, variance=-1.0)
        with pytest.raises(DomainError):
            OverallEffectPrior(mean=math.inf)

    def test_orientation_labels_carried(self, labels_pairs, uniform_prior):
        pair = labels_pairs[0]
        null, alternative = effect_test_hypotheses(pair.original, uniform_prior)
        result = hier_bayes_factor(pair, null, alternative)
        assert result.orientation == (null.label, alternative.label)


class TestHeterogeneityPriorType:
    def test_degenerate_has_no_density(self):
        with pytest.raises(DomainError):
            hier_marginal_posterior_tau2(0.1, StudyPair(Study(0, 1), Study(0, 1)), 0.3)

    def test_from_alpha_prior_constructor(self):
        prior = tau2_prior_from_alpha_prior(BetaParams(2.0, 3.0), 0.01)
        assert prior == GFParams(3.0, 2.0, 200.0)

    def test_model_validation(self, labels_pairs):
        with pytest.raises(DomainError):
            hier_posterior_theta_r(labels_pairs[0], -0.1)
        with pytest.raises(DomainError):
            hier_marginal_posterior_theta_r(0.2, labels_pairs[0], -0.1)
        with pytest.raises(DomainError):
            HierarchicalHypothesis(OverallEffectPrior(mean=0.0), -0.1)
