"""Power-prior posterior machinery against quadrature and grid oracles."""

from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.integrate import quad

from pprep import (
    BetaParams,
    DensityGrid,
    DomainError,
    GridStateError,
    Study,
    StudyPair,
    alpha_empirical_bayes,
    alpha_grid,
    alpha_mode,
    joint_grid,
    joint_posterior_logdensity,
    limiting_alpha_posterior_logdensity,
    marginal_posterior_alpha,
    marginal_posterior_theta,
    posterior_theta_fixed_alpha,
    power_prior_logdensity,
    summarize,
    theta_grid,
)
from pprep.inference import evidence_and_error

from conftest import composite_simpson, normal_pdf, rng_for


def random_pair(rng) -> tuple[StudyPair, BetaParams]:
    se_o = rng.uniform(0.02, 0.3)
    se_r = rng.uniform(0.02, 0.3)
    est_o = rng.uniform(-0.5, 0.5)
    est_r = est_o + rng.uniform(-4.0, 4.0) * se_o
    prior = BetaParams(rng.uniform(0.5, 5.0), rng.uniform(0.5, 5.0))
    return StudyPair(Study(est_o, se_o), Study(est_r, se_r)), prior


class TestPowerPriorDensity:
    def test_full_pooling_is_plain_normal(self, labels_original):
        got = power_prior_logdensity(0.15, labels_original, 1.0)
        expected = math.log(normal_pdf(0.15, 0.21, 0.0025))
        assert got == pytest.approx(expected, rel=1e-12)

    def test_discounted_variance(self, labels_original):
        # alpha = 1/4 inflates the variance fourfold
        got = power_prior_logdensity(0.21, labels_original, 0.25)
        assert got == pytest.approx(-0.5 * math.log(2 * math.pi * 0.01), rel=1e-12)

    def test_peak_scales_like_sqrt_alpha(self, labels_original):
        small, smaller = 1e-4, 1e-6
        diff = power_prior_logdensity(0.21, labels_original, small) - power_prior_logdensity(
            0.21, labels_original, smaller
        )
        assert diff == pytest.approx(0.5 * math.log(small / smaller), rel=1e-10)

    @pytest.mark.parametrize("alpha", [0.0, -0.5, 1.5])
    def test_alpha_domain(self, labels_original, alpha):
        with pytest.raises(DomainError):
            power_prior_logdensity(0.1, labels_original, alpha)


class TestEvidence:
    def test_labels_rep1_against_simpson(self, labels_pairs, uniform_prior):
        def integrand(a):
            a = np.asarray(a, dtype=float)
            safe = np.where(a > 0, a, 1.0)
            out = normal_pdf(0.09, 0.21, 0.0025 + 0.0025 / safe)
            return np.where(a > 0, out, 0.0)

        oracle = math.log(composite_simpson(integrand, 0.0, 1.0, 1_000_001))
        got = evidence_and_error(labels_pairs[0], uniform_prior).value
        assert got == pytest.approx(oracle, abs=1e-9)

    def test_diffuse_original_kills_the_marginal(self, uniform_prior):
        rep = Study(0.09, 0.05)
        values = [
            evidence_and_error(StudyPair(Study(0.21, s), rep), uniform_prior).value
            for s in (1e2, 1e4, 1e6)
        ]
        assert values[0] > values[1] > values[2]
        assert values[2] < -15.0

    def test_point_mass_prior_approaches_full_pooling(self, labels_pairs):
        # x -> infinity pushes the beta prior to a point mass at alpha = 1.
        pair = labels_pairs[0]
        ev = evidence_and_error(pair, BetaParams(1e4, 1.0)).value
        pooled = math.log(normal_pdf(0.09, 0.21, 0.0025 + 0.0025))
        assert abs(math.exp(ev - pooled) - 1.0) < 1e-3

    def test_error_estimate_surfaced(self, labels_pairs, uniform_prior):
        err = evidence_and_error(labels_pairs[0], uniform_prior).err_estimate
        assert 0.0 <= err < 1e-8


class TestJointPosterior:
    def test_total_mass(self, labels_pairs, uniform_prior):
        pair = labels_pairs[2]

        def alpha_slice(a):
            val, _ = quad(
                lambda t: math.exp(joint_posterior_logdensity(t, a, pair, uniform_prior)),
                -0.5,
                1.2,
                epsabs=1e-12,
                epsrel=1e-10,
                limit=200,
            )
            return val

        total, _ = quad(alpha_slice, 0.0, 1.0, epsabs=1e-10, epsrel=1e-8, limit=200)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_conflicting_replication_alpha_peak(self, labels_pairs, uniform_prior):
        # Strong conflict concentrates the power parameter near zero.
        mode = alpha_mode(labels_pairs[2], uniform_prior)
        assert mode == pytest.approx(0.05, abs=0.02)

    def test_symmetric_pair_is_symmetric_in_theta(self, uniform_prior):
        pair = StudyPair(Study(0.3, 0.05), Study(0.3, 0.05))
        for alpha in (0.2, 0.7, 1.0):
            center = posterior_theta_fixed_alpha(pair, alpha).mean
            for delta in (0.01, 0.05, 0.11):
                left = joint_posterior_logdensity(center - delta, alpha, pair, uniform_prior)
                right = joint_posterior_logdensity(center + delta, alpha, pair, uniform_prior)
                assert left == pytest.approx(right, rel=1e-12)


class TestMarginalAlpha:
    def test_total_mass(self, labels_pairs, uniform_prior):
        val, _ = quad(
            lambda a: math.exp(marginal_posterior_alpha(a, labels_pairs[0], uniform_prior)),
            0.0,
            1.0,
            epsabs=1e-12,
            epsrel=1e-10,
            limit=200,
        )
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_rep1_mode_near_point_two(self, labels_pairs, uniform_prior):
        assert alpha_mode(labels_pairs[0], uniform_prior) == pytest.approx(0.2, abs=0.05)

    def test_rep2_monotone_increasing(self, labels_pairs, uniform_prior):
        alphas = np.linspace(1e-6, 1.0, 200)
        dens = marginal_posterior_alpha(alphas, labels_pairs[1], uniform_prior)
        assert np.all(np.diff(dens) > 0)


class TestMarginalTheta:
    def test_matches_integrated_joint_pointwise(self, labels_pairs, uniform_prior):
        pair = labels_pairs[1]
        for theta in np.linspace(0.0, 0.42, 15):
            closed = marginal_posterior_theta(float(theta), pair, uniform_prior)
            val, _ = quad(
                lambda a: math.exp(
                    joint_posterior_logdensity(float(theta), a, pair, uniform_prior)
                ),
                0.0,
                1.0,
                epsabs=1e-13,
                epsrel=1e-11,
                limit=200,
            )
            assert math.exp(closed) == pytest.approx(val, rel=1e-8)

    @pytest.mark.parametrize("x,theta", [(1.0, 0.9), (2.0, 0.85), (5.0, -0.9)])
    def test_prior_piled_at_one_against_alpha_quadrature(self, x, theta):
        # Be(x, 0.01) puts the Kummer shapes b - a = 0.01 close together.
        # QUADPACK's algebraic weight carries the alpha^(x - 1)
        # (1 - alpha)^(y - 1) factor of the beta prior exactly; 1 / B(x, y)
        # cancels in the ratio.
        y = 0.01
        pair = StudyPair(Study(0.0, 0.1), Study(1.0, 0.1))
        orig, rep = pair.original, pair.replication

        def beta_weighted(f):
            # QAWS evaluates the endpoints; both densities vanish at alpha = 0.
            val, _ = quad(
                lambda a: f(a) if a > 0.0 else 0.0,
                0.0,
                1.0,
                weight="alg",
                wvar=(x - 1.0, y - 1.0),
                epsabs=0.0,
                epsrel=1e-12,
            )
            return val

        evidence = beta_weighted(
            lambda a: normal_pdf(rep.estimate, orig.estimate, rep.variance + orig.variance / a)
        )
        joint = beta_weighted(
            lambda a: normal_pdf(rep.estimate, theta, rep.variance)
            * normal_pdf(theta, orig.estimate, orig.variance / a)
        )
        got = marginal_posterior_theta(theta, pair, BetaParams(x, y))
        assert math.exp(got) == pytest.approx(joint / evidence, rel=1e-8)

    def test_hypergeometric_term_drops_at_original_estimate(
        self, labels_pairs, uniform_prior
    ):
        # At theta equal to the original estimate the hypergeometric factor
        # is one, so the density reduces to a pure beta-ratio expression.
        pair = labels_pairs[0]
        theta = pair.original.estimate
        got = marginal_posterior_theta(theta, pair, uniform_prior)
        log_z = evidence_and_error(pair, uniform_prior).value
        # B(3/2, 1) = 2/3 and B(1, 1) = 1, so the beta ratio is 2/3.
        expected = (
            math.log(normal_pdf(pair.replication.estimate, theta, pair.replication.variance))
            + math.log(2.0 / 3.0)
            - 0.5 * math.log(2 * math.pi * pair.original.variance)
            - log_z
        )
        assert got == pytest.approx(expected, rel=1e-12)

    def test_information_flow_matches_compatibility(self, labels_pairs, uniform_prior):
        # The compatible replication gains the most precision relative to
        # its isolated analysis; the conflicting one ends up *wider* than
        # its isolated analysis.
        gains = []
        for pair in labels_pairs:
            grid = theta_grid(pair, uniform_prior, theta_range=(-0.3, 0.9), num=1201)
            sd = summarize(grid).sd
            gains.append(pair.replication.se - sd)
        assert gains[1] == max(gains)
        assert gains[2] < 0.0
        assert gains[0] > 0.0


class TestFixedAlphaPosterior:
    def test_full_pooling_weights(self, labels_pairs):
        pair = labels_pairs[0]
        got = posterior_theta_fixed_alpha(pair, 1.0)
        w_r, w_o = 1.0 / 0.0025, 1.0 / 0.0025
        assert got.mean == pytest.approx((0.09 * w_r + 0.21 * w_o) / (w_r + w_o), rel=1e-14)
        assert got.variance == pytest.approx(1.0 / (w_r + w_o), rel=1e-14)

    def test_vanishing_alpha_ignores_original(self, labels_pairs):
        got = posterior_theta_fixed_alpha(labels_pairs[0], 1e-12)
        assert got.mean == pytest.approx(0.09, abs=1e-9)
        assert got.variance == pytest.approx(0.0025, rel=1e-9)

    def test_half_weight_oracle(self, labels_pairs):
        # independent longhand arithmetic for alpha = 1/2
        got = posterior_theta_fixed_alpha(labels_pairs[0], 0.5)
        prec = 1.0 / 0.0025 + 0.5 / 0.0025  # 600
        assert got.variance == pytest.approx(1.0 / 600.0, rel=1e-14)
        assert got.mean == pytest.approx((0.09 * 400.0 + 0.21 * 200.0) / 600.0, rel=1e-14)

    def test_mean_monotone_in_alpha(self, uniform_prior):
        rng = rng_for(21)
        for _ in range(500):
            pair, _ = random_pair(rng)
            alphas = np.sort(rng.uniform(1e-6, 1.0, size=8))
            means = [posterior_theta_fixed_alpha(pair, float(a)).mean for a in alphas]
            diffs = np.diff(means)
            sign = math.copysign(1.0, pair.original.estimate - pair.replication.estimate)
            assert np.all(sign * diffs >= -1e-14)


class TestEmpiricalBayes:
    def test_identical_estimates_pool_fully(self, labels_pairs):
        assert alpha_empirical_bayes(labels_pairs[1]) == 1.0

    def test_conflict_closed_form(self, labels_pairs):
        expected = 0.0025 / (0.0529 - 0.0016)
        assert alpha_empirical_bayes(labels_pairs[2]) == pytest.approx(expected, rel=1e-12)

    def test_rep1_against_grid_search(self, labels_pairs):
        pair = labels_pairs[0]
        alphas = np.linspace(1e-6, 1.0, 100_001)
        marglik = normal_pdf(0.09, 0.21, 0.0025 + 0.0025 / alphas)
        oracle = alphas[int(np.argmax(marglik))]
        assert alpha_empirical_bayes(pair) == pytest.approx(oracle, abs=1e-4)


class TestLimitingAlphaPosterior:
    def test_density_values(self):
        assert math.exp(limiting_alpha_posterior_logdensity(1.0)) == pytest.approx(1.5)
        assert math.exp(limiting_alpha_posterior_logdensity(0.25)) == pytest.approx(0.75)

    def test_total_mass(self):
        val, _ = quad(lambda a: math.exp(limiting_alpha_posterior_logdensity(a)), 0, 1)
        assert val == pytest.approx(1.0, rel=1e-10)


class TestGridsAndSummaries:
    def test_standard_normal_grid_summary(self):
        x = np.linspace(-8.0, 8.0, 4001)
        logdens = -0.5 * (math.log(2 * math.pi) + x**2)
        grid = DensityGrid(axis1=x, logdens=logdens)
        s = summarize(grid, level=0.95)
        assert s.mean == pytest.approx(0.0, abs=1e-9)
        assert s.sd == pytest.approx(1.0, abs=1e-3)
        assert s.ci_lower == pytest.approx(-1.959964, abs=1e-3)
        assert s.ci_upper == pytest.approx(1.959964, abs=1e-3)
        assert s.mode == pytest.approx(0.0, abs=1e-6)

    def test_near_delta_grid_collapses(self):
        x = np.linspace(-1.0, 1.0, 2001)
        logdens = -0.5 * (x / 1e-3) ** 2
        grid = DensityGrid(axis1=x, logdens=logdens)
        s = summarize(grid, level=0.9)
        assert abs(s.ci_upper - s.ci_lower) < 5e-3
        assert s.mode == pytest.approx(0.0, abs=1e-4)

    def test_rep2_posterior_mean_against_quadrature(self, labels_pairs, uniform_prior):
        pair = labels_pairs[1]
        grid = theta_grid(pair, uniform_prior)
        mean = summarize(grid).mean
        oracle, _ = quad(
            lambda t: t * math.exp(marginal_posterior_theta(t, pair, uniform_prior)),
            -0.2,
            0.65,
            epsabs=1e-12,
            epsrel=1e-10,
            limit=200,
        )
        assert mean == pytest.approx(oracle, abs=1e-6)

    def test_marginal_grids_are_normalized(self, labels_pairs, uniform_prior):
        for pair in labels_pairs:
            tg = theta_grid(pair, uniform_prior, num=201)
            ag = alpha_grid(pair, uniform_prior, num=201)
            for g in (tg, ag):
                assert np.trapezoid(np.exp(g.logdens), g.axis1) == pytest.approx(1.0, abs=1e-12)
        jg = joint_grid(labels_pairs[0], uniform_prior, num_theta=101, num_alpha=101)
        inner = np.trapezoid(np.exp(jg.logdens), jg.axis2, axis=1)
        assert np.trapezoid(inner, jg.axis1) == pytest.approx(1.0, abs=1e-12)

    def test_summarize_requires_normalized_1d(self, labels_pairs, uniform_prior):
        jg = joint_grid(labels_pairs[0], uniform_prior, num_theta=51, num_alpha=51)
        with pytest.raises(GridStateError):
            summarize(jg)

    def test_grid_invariant_enforced(self):
        x = np.linspace(0.0, 1.0, 11)
        for logdens in (np.full(11, -np.inf), np.full(11, np.inf)):
            with pytest.raises(GridStateError):  # zero or infinite mass
                DensityGrid(axis1=x, logdens=logdens)
        with pytest.raises(DomainError):
            DensityGrid(axis1=x[::-1].copy(), logdens=np.zeros(11))


class TestCrossChecks:
    """Identities tying the joint, conditional, and marginal views together."""

    def test_closed_form_equals_quadrature_randomized(self, uniform_prior):
        rng = rng_for(22)
        for _ in range(5):
            pair, prior = random_pair(rng)
            lo, hi = sorted(
                (pair.original.estimate, pair.replication.estimate)
            )
            for theta in np.linspace(lo - 0.1, hi + 0.1, 7):
                closed = marginal_posterior_theta(float(theta), pair, prior)
                val, _ = quad(
                    lambda a: math.exp(
                        joint_posterior_logdensity(float(theta), a, pair, prior)
                    ),
                    0.0,
                    1.0,
                    epsabs=1e-14,
                    epsrel=1e-12,
                    limit=200,
                )
                assert math.exp(closed) == pytest.approx(val, rel=1e-6)

    def test_conditional_slice_is_the_fixed_alpha_normal(self, uniform_prior):
        rng = rng_for(23)
        for _ in range(500):
            pair, prior = random_pair(rng)
            alpha = float(rng.uniform(0.05, 1.0))
            theta = float(rng.uniform(-1.0, 1.0))
            cond = joint_posterior_logdensity(
                theta, alpha, pair, prior
            ) - marginal_posterior_alpha(alpha, pair, prior)
            mean, var = posterior_theta_fixed_alpha(pair, alpha)
            expected = -0.5 * (math.log(2 * math.pi * var) + (theta - mean) ** 2 / var)
            assert cond == pytest.approx(expected, rel=1e-9, abs=1e-9)
