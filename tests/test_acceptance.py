"""Acceptance suite for the Labels case study.

One test per criterion; each prints a single PASS/FAIL line (visible with
``pytest -s`` or in captured output) and then asserts. Tolerances are
pinned here, not deferred.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from pprep import (
    BetaParams,
    DesignSpec,
    Study,
    StudyPair,
    UnitInformation,
    alpha_mode,
    bf01_power_prior,
    bf_dc_beta,
    bf_dc_beta_limit,
    bf_dc_point,
    bf_dc_point_limit,
    bf01_replication,
    compatibility_beta_hypotheses,
    compatibility_point_hypotheses,
    default_sigma_grid,
    effect_test_hypotheses,
    hier_bayes_factor,
    hier_marginal_posterior_theta_r,
    hier_posterior_theta_r,
    integrate_semiinf,
    integrate_unit,
    joint_posterior_logdensity,
    log_beta,
    log_kummer_m,
    marginal_posterior_alpha,
    marginal_posterior_theta,
    noncentral_chisq1_cdf,
    posterior_theta_fixed_alpha,
    prob_replication_success,
    tau2_prior_from_alpha_prior,
    tau2_to_alpha,
)
from pprep.cli import cmd_test
from pprep.special import beta_logpdf, gbeta_logpdf, gf_logpdf
from pprep.hierarchical import I2_prior_from_alpha_prior

from conftest import rng_for
from scipy.integrate import quad

ORIGINAL = Study(0.21, 0.05)
REPLICATIONS = [Study(0.09, 0.05), Study(0.21, 0.06), Study(0.44, 0.04)]
PAIRS = [StudyPair(ORIGINAL, rep) for rep in REPLICATIONS]
UNIFORM = BetaParams(1.0, 1.0)
UI = UnitInformation(2.0)

# Reference Bayes factor table for the Labels case study; None marks the
# "< 1/1000" clamp.
REFERENCE_TABLE = [
    (1.0 / 1.1, 1.1, 1.0 / 5.6, 1.2),
    (1.0 / 367.0, 1.0 / 478.0, 1.0 / 19.0, 1.0 / 1.5),
    (None, None, 16.0, 25.0),
]
COLUMNS = ("bf01_power_prior", "bf01_replication", "bf_dc_point", "bf_dc_beta")


def _report(number: int, ok: bool, detail: str) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {number}: {status} — {detail}")


def _records_for(pair: StudyPair):
    from pprep.cli import StudyRecord

    return [
        StudyRecord("orig", "original", "smd", pair.original.estimate, pair.original.se),
        StudyRecord("rep", "replication", "smd", pair.replication.estimate, pair.replication.se),
    ]


def random_pair(rng) -> tuple[StudyPair, BetaParams]:
    se_o = rng.uniform(0.02, 0.3)
    se_r = rng.uniform(0.02, 0.3)
    est_o = rng.uniform(-0.5, 0.5)
    est_r = est_o + rng.uniform(-4.0, 4.0) * se_o
    prior = BetaParams(rng.uniform(0.5, 5.0), rng.uniform(0.5, 5.0))
    return StudyPair(Study(est_o, se_o), Study(est_r, se_r)), prior


class TestCriterion1BayesFactorTable:
    def test_reference_table_reproduction(self):
        from pprep.cli import AnalysisConfig

        config = AnalysisConfig()
        start = time.monotonic()
        computed = []
        for pair in PAIRS:
            report = cmd_test(_records_for(pair), config, None)
            computed.append([report["results"][col]["bf"] for col in COLUMNS])
        elapsed = time.monotonic() - start

        failures = []
        for row, (got_row, ref_row) in enumerate(zip(computed, REFERENCE_TABLE), start=1):
            for col, (got, ref) in enumerate(zip(got_row, ref_row)):
                name = f"rep{row}/{COLUMNS[col]}"
                if ref is None:
                    ok = got < 1e-3
                    detail = f"{name}: {got:.3g} expected < 1/1000"
                else:
                    same_direction = (got < 1.0) == (ref < 1.0)
                    ratio = got / ref
                    ok = same_direction and (1.0 / 1.5 <= ratio <= 1.5)
                    detail = f"{name}: {got:.4g} vs reference {ref:.4g} (ratio {ratio:.2f})"
                print(("  ok   " if ok else "  BAD  ") + detail)
                if not ok:
                    failures.append(detail)

        ok = not failures and elapsed < 5.0
        _report(
            1,
            ok,
            f"12-entry Bayes factor table, factor-1.5 tolerance, {elapsed:.2f}s "
            f"({len(failures)} entries out of tolerance)",
        )
        assert elapsed < 5.0
        if failures:
            pytest.fail(
                "table entries out of tolerance (hypersensitive to the two-decimal "
                "rounding of the tabulated inputs): " + "; ".join(failures)
            )


class TestCriterion2LimitingBounds:
    def test_bounds(self):
        point = bf_dc_point_limit(0.21, ORIGINAL, UI)
        beta = bf_dc_beta_limit(0.21, ORIGINAL, 2.0)
        ok_point = abs(1.0 / point - 28.0) <= 0.05 * 28.0
        ok_beta = abs(beta - 8.0 / 15.0) <= 1e-10
        _report(
            2,
            ok_point and ok_beta,
            f"point-limit 1/{1.0 / point:.1f} (ref 1/28 ±5%), beta-limit {beta:.12f} "
            f"(ref 8/15 ±1e-10)",
        )
        assert ok_point and ok_beta


class TestCriterion3ClosedFormVsQuadrature:
    @staticmethod
    def _marginalized_joint_logdensity(theta, pair, prior, log_z):
        """Numerically marginalize the joint posterior over alpha.

        Written with scalar math only so the oracle shares no evaluation
        path with the closed form it checks.
        """
        so2, sr2 = pair.original.variance, pair.replication.variance
        to, tr = pair.original.estimate, pair.replication.estimate
        x, y = prior.x, prior.y
        lbeta = log_beta(x, y)
        base = -0.5 * (math.log(2 * math.pi * sr2) + (tr - theta) ** 2 / sr2)

        def unnorm(a):
            v = so2 / a
            out = -0.5 * (math.log(2 * math.pi * v) + (theta - to) ** 2 / v) - lbeta
            if x != 1.0:
                out += (x - 1.0) * math.log(a)
            if y != 1.0:
                out += (y - 1.0) * math.log1p(-a)
            return math.exp(out)

        val, _ = quad(unnorm, 0.0, 1.0, epsabs=1e-300, epsrel=1e-9, limit=200)
        return base + math.log(val) - log_z

    def test_pointwise_agreement(self):
        from pprep.inference import evidence_and_error

        start = time.monotonic()
        rng = rng_for(101)
        cases = [(pair, UNIFORM) for pair in PAIRS]
        cases += [random_pair(rng) for _ in range(20)]
        worst = 0.0
        for pair, prior in cases:
            log_z = evidence_and_error(pair, prior).value
            grid = np.linspace(*_theta_range(pair), 401)
            for theta in grid:
                closed = marginal_posterior_theta(float(theta), pair, prior)
                oracle = self._marginalized_joint_logdensity(
                    float(theta), pair, prior, log_z
                )
                worst = max(worst, abs(closed - oracle))
        elapsed = time.monotonic() - start
        ok = worst <= 1e-6 and elapsed < 30.0
        _report(
            3,
            ok,
            f"23 pairs x 401 points, worst |dlog| {worst:.2e} (tol 1e-6), {elapsed:.1f}s",
        )
        assert worst <= 1e-6
        assert elapsed < 30.0


def _theta_range(pair: StudyPair) -> tuple[float, float]:
    pooled = posterior_theta_fixed_alpha(pair, 1.0)
    half = 6.0 * math.sqrt(pooled.variance)
    return pooled.mean - half, pooled.mean + half


class TestCriterion4BridgeEquivalence:
    def test_fixed_mapping_exact(self):
        rng = rng_for(102)
        worst = 0.0
        for pair in PAIRS:
            for tau2 in rng.uniform(0.0, 5.0, size=334):
                alpha = tau2_to_alpha(float(tau2), pair.original.variance)
                hier = hier_posterior_theta_r(pair, float(tau2))
                power = posterior_theta_fixed_alpha(pair, alpha)
                worst = max(worst, abs(hier.mean - power.mean), abs(hier.variance - power.variance))
        ok = worst <= 1e-12
        _report(4, ok, f"(a) fixed mapping, 1002 random tau2, worst |diff| {worst:.1e}")
        assert ok

    def test_random_mapping_pointwise(self):
        pair = PAIRS[0]
        worst = 0.0
        for x, y in [(1.0, 1.0), (2.0, 1.0), (1.0, 2.0)]:
            prior = BetaParams(x, y)
            het = tau2_prior_from_alpha_prior(prior, pair.original.variance)
            for theta in np.linspace(*_theta_range(pair), 401):
                hier = hier_marginal_posterior_theta_r(float(theta), pair, het)
                power = marginal_posterior_theta(float(theta), pair, prior)
                worst = max(worst, abs(hier - power))
        ok = worst <= 1e-5
        _report(4, ok, f"(b) random mapping, 3 priors x 401 points, worst |dlog| {worst:.1e}")
        assert ok

    def test_bayes_factor_correspondences(self):
        worst = 0.0
        for pair in PAIRS:
            null, alt = effect_test_hypotheses(pair.original, UNIFORM)
            worst = max(
                worst,
                abs(
                    hier_bayes_factor(pair, null, alt).log_bf
                    - bf01_power_prior(pair, UNIFORM).log_bf
                ),
            )
            disc, pool = compatibility_point_hypotheses(pair.original, UI)
            worst = max(
                worst,
                abs(hier_bayes_factor(pair, disc, pool).log_bf - bf_dc_point(pair, UI).log_bf),
            )
            het, hom = compatibility_beta_hypotheses(pair.original, 2.0)
            worst = max(
                worst,
                abs(hier_bayes_factor(pair, het, hom).log_bf - bf_dc_beta(pair, 2.0).log_bf),
            )
        ok = worst <= 1e-6
        _report(4, ok, f"(c) three test correspondences, worst |dlog BF| {worst:.1e}")
        assert ok


class TestCriterion5DesignSelfConsistency:
    def test_analytic_matches_monte_carlo_and_qualitative_claims(self):
        start = time.monotonic()
        rng = rng_for(103)
        n = 10**6
        worst_sigma = 0.0
        for original in (ORIGINAL, REPLICATIONS[2]):
            for hyp in ("compatible", "different"):
                spec = DesignSpec(original=original, ui=UI, gamma=0.1, hypothesis=hyp)
                for rel in (0.25, 1.0, 4.0):
                    sigma_r = original.se / math.sqrt(rel)
                    analytic = prob_replication_success(sigma_r, spec)
                    mc = _mc_success(sigma_r, spec, hyp, n, rng)
                    se = math.sqrt(max(analytic * (1.0 - analytic), 1e-12) / n)
                    deviation = abs(analytic - mc) / max(se, 1e-12)
                    worst_sigma = max(worst_sigma, deviation)
                    assert abs(analytic - mc) <= 3.0 * se + 1e-9

        max_misleading = 0.0
        band_lo, band_hi = 1.0, 0.0
        for original in REPLICATIONS:
            grid = default_sigma_grid(original)
            spec_c = DesignSpec(original=original, ui=UI, gamma=0.1, hypothesis="compatible")
            misleading = [prob_replication_success(float(s), spec_c, "different") for s in grid]
            max_misleading = max(max_misleading, max(misleading))
            spec_d = DesignSpec(original=original, ui=UI, gamma=0.1, hypothesis="different")
            climb = [prob_replication_success(float(s), spec_d) for s in grid]
            band_lo = min(band_lo, min(climb))
            band_hi = max(band_hi, max(climb))
            assert all(b >= a - 1e-12 for a, b in zip(climb, climb[1:]))

        elapsed = time.monotonic() - start
        # "about 75% to about 90%" read with a three-point rounding margin
        ok = (
            max_misleading < 0.05
            and band_lo >= 0.72
            and band_hi <= 0.93
            and elapsed < 120.0
        )
        _report(
            5,
            ok,
            f"12 specs vs 1e6-draw MC (worst {worst_sigma:.2f} sigma), misleading max "
            f"{max_misleading:.4f} (< 0.05), climb band [{band_lo:.3f}, {band_hi:.3f}] "
            f"(0.75-0.90 ±0.03), {elapsed:.0f}s",
        )
        assert max_misleading < 0.05
        assert band_lo >= 0.72 and band_hi <= 0.93
        assert elapsed < 120.0


def _mc_success(sigma_r, spec, true_hyp, n, rng):
    orig = spec.original
    s = spec.ui.shrinkage(orig.variance)
    if true_hyp == "compatible":
        mean, var = s * orig.estimate, sigma_r**2 + s * orig.variance
    else:
        mean, var = 0.0, sigma_r**2 + spec.ui.kappa2
    draws = rng.normal(mean, math.sqrt(var), size=n)
    num_var = sigma_r**2 + spec.ui.kappa2
    den_var = sigma_r**2 + s * orig.variance
    log_bf = (
        -0.5 * (np.log(2 * np.pi * num_var) + draws**2 / num_var)
        + 0.5 * (np.log(2 * np.pi * den_var) + (draws - s * orig.estimate) ** 2 / den_var)
    )
    if spec.hypothesis == "compatible":
        return float(np.mean(log_bf <= math.log(spec.gamma)))
    return float(np.mean(log_bf >= -math.log(spec.gamma)))


class TestCriterion6PosteriorModes:
    def test_alpha_marginal_modes(self):
        mode1 = alpha_mode(PAIRS[0], UNIFORM)
        mode3 = alpha_mode(PAIRS[2], UNIFORM)
        alphas = np.linspace(1e-6, 1.0, 200)
        dens2 = marginal_posterior_alpha(alphas, PAIRS[1], UNIFORM)
        monotone = bool(np.all(np.diff(dens2) > 0))
        ok = abs(mode1 - 0.2) <= 0.05 and abs(mode3 - 0.05) <= 0.02 and monotone
        _report(
            6,
            ok,
            f"modes: rep1 {mode1:.3f} (0.2±0.05), rep3 {mode3:.3f} (0.05±0.02), "
            f"rep2 monotone={monotone}",
        )
        assert abs(mode1 - 0.2) <= 0.05
        assert abs(mode3 - 0.05) <= 0.02
        assert monotone


class TestCriterion7PropertySuites:
    """Randomized invariant sweeps: 500+ cases for algebraic identities,
    50+ for quadrature-backed ones."""

    def test_algebraic_identities(self):
        rng = rng_for(104)
        # log-beta symmetry
        for _ in range(500):
            z, w = rng.uniform(0.05, 40.0, size=2)
            assert log_beta(z, w) == log_beta(w, z)
        # hypergeometric reflection identity
        for _ in range(500):
            a = rng.uniform(0.2, 20.0)
            b = a + rng.uniform(0.1, 20.0)
            z = rng.uniform(-80.0, 80.0)
            assert log_kummer_m(a, b, z) == pytest.approx(
                z + log_kummer_m(b - a, b, -z), rel=1e-9, abs=1e-9
            )
        # noncentral chi-squared monotonicity
        for _ in range(500):
            x1, x2 = np.sort(rng.uniform(0.0, 30.0, size=2))
            l1, l2 = np.sort(rng.uniform(0.0, 30.0, size=2))
            assert noncentral_chisq1_cdf(x1, l1) <= noncentral_chisq1_cdf(x2, l1) + 1e-15
            assert noncentral_chisq1_cdf(x1, l2) <= noncentral_chisq1_cdf(x1, l1) + 1e-15
        # conditional slice of the joint is the fixed-alpha normal
        for _ in range(500):
            pair, prior = random_pair(rng)
            alpha = float(rng.uniform(0.05, 1.0))
            theta = float(rng.uniform(-1.0, 1.0))
            cond = joint_posterior_logdensity(theta, alpha, pair, prior) - float(
                marginal_posterior_alpha(alpha, pair, prior)
            )
            mean, var = posterior_theta_fixed_alpha(pair, alpha)
            expected = -0.5 * (math.log(2 * math.pi * var) + (theta - mean) ** 2 / var)
            assert cond == pytest.approx(expected, rel=1e-9, abs=1e-9)
        # shrinkage path monotone in alpha
        for _ in range(500):
            pair, _ = random_pair(rng)
            alphas = np.sort(rng.uniform(1e-6, 1.0, size=6))
            means = [posterior_theta_fixed_alpha(pair, float(a)).mean for a in alphas]
            sign = math.copysign(1.0, pair.original.estimate - pair.replication.estimate)
            assert np.all(sign * np.diff(means) >= -1e-14)
        # closed-form Bayes factors invariant under unit rescaling
        for _ in range(500):
            pair, _ = random_pair(rng)
            c = float(rng.uniform(0.1, 10.0))
            scaled = StudyPair(
                Study(pair.original.estimate * c, pair.original.se * c),
                Study(pair.replication.estimate * c, pair.replication.se * c),
            )
            assert bf01_replication(pair).log_bf == pytest.approx(
                bf01_replication(scaled).log_bf, abs=1e-10
            )
            kappa2 = float(rng.uniform(0.5, 4.0))
            assert bf_dc_point(pair, UnitInformation(kappa2)).log_bf == pytest.approx(
                bf_dc_point(scaled, UnitInformation(kappa2 * c * c)).log_bf, abs=1e-10
            )
        # orientation bookkeeping multiplies to one in log space
        for _ in range(500):
            pair, _ = random_pair(rng)
            result = bf_dc_point(pair, UI)
            assert result.log_bf + result.reciprocal().log_bf == 0.0
        # vanishing-noise point limit equals the tiny-noise evaluation
        for _ in range(500):
            orig = Study(float(rng.uniform(-0.5, 0.5)), float(rng.uniform(0.02, 0.3)))
            ui = UnitInformation(float(rng.uniform(0.5, 4.0)))
            theta = orig.estimate + float(rng.uniform(-3, 3)) * orig.se
            lim = bf_dc_point_limit(theta, orig, ui)
            tiny = bf_dc_point(StudyPair(orig, Study(theta, 1e-8)), ui)
            assert lim == pytest.approx(tiny.bf, rel=1e-4)
        # prior pushforward identities and GF/GBe consistency
        for _ in range(500):
            bp = BetaParams(float(rng.uniform(0.5, 4.0)), float(rng.uniform(0.5, 4.0)))
            s2 = float(rng.uniform(1e-4, 0.5))
            gf = tau2_prior_from_alpha_prior(bp, s2)
            tau2 = float(rng.uniform(0.0, 3.0))
            alpha = s2 / (2.0 * tau2 + s2)
            assert gf_logpdf(tau2, gf) == pytest.approx(
                beta_logpdf(alpha, bp.x, bp.y)
                + math.log(2.0 * s2 / (2.0 * tau2 + s2) ** 2),
                rel=1e-10,
                abs=1e-10,
            )
            gbe = I2_prior_from_alpha_prior(bp)
            i2 = float(rng.uniform(1e-6, 1.0 - 1e-6))
            assert gbeta_logpdf(i2, gbe) == pytest.approx(
                beta_logpdf((1.0 - i2) / (1.0 + i2), bp.x, bp.y)
                + math.log(2.0 / (1.0 + i2) ** 2),
                rel=1e-10,
                abs=1e-10,
            )
            tau2_of_i2 = s2 * i2 / (1.0 - i2)
            assert gbeta_logpdf(i2, gbe) == pytest.approx(
                gf_logpdf(tau2_of_i2, gf) + math.log(s2 / (1.0 - i2) ** 2),
                rel=1e-10,
                abs=1e-10,
            )
        # success probability scale invariance
        for _ in range(500):
            orig = Study(float(rng.uniform(-0.5, 0.5)), float(rng.uniform(0.02, 0.3)))
            kappa2 = float(rng.uniform(0.5, 4.0))
            sigma_r = float(rng.uniform(0.02, 0.3))
            c = float(rng.uniform(0.2, 5.0))
            spec = DesignSpec(original=orig, ui=UnitInformation(kappa2), gamma=0.1)
            scaled = DesignSpec(
                original=Study(orig.estimate * c, orig.se * c),
                ui=UnitInformation(kappa2 * c * c),
                gamma=0.1,
            )
            assert prob_replication_success(sigma_r, spec) == pytest.approx(
                prob_replication_success(sigma_r * c, scaled), abs=1e-12
            )
        _report(7, True, "algebraic identity sweeps, 500 cases each")

    def test_quadrature_backed_identities(self):
        rng = rng_for(105)
        # marginal posteriors integrate to one (both parameters)
        for _ in range(50):
            pair, prior = random_pair(rng)
            mass, _ = quad(
                lambda a: math.exp(marginal_posterior_alpha(a, pair, prior)),
                0.0,
                1.0,
                epsabs=1e-12,
                epsrel=1e-9,
                limit=200,
            )
            assert mass == pytest.approx(1.0, abs=1e-6)
            lo, hi = _theta_range(pair)
            theta_mass, _ = quad(
                lambda t: math.exp(marginal_posterior_theta(t, pair, prior)),
                lo - 4.0 * pair.replication.se,
                hi + 4.0 * pair.replication.se,
                epsabs=1e-12,
                epsrel=1e-9,
                limit=200,
            )
            assert theta_mass == pytest.approx(1.0, abs=1e-6)
        # a point-mass-at-one prior reproduces the plain replication test
        for _ in range(50):
            pair, _ = random_pair(rng)
            heavy = bf01_power_prior(pair, BetaParams(1e4, 1.0))
            plain = bf01_replication(pair)
            assert heavy.bf == pytest.approx(plain.bf, rel=1e-3)
        # closed-form effect marginal equals the integrated joint
        for _ in range(50):
            pair, prior = random_pair(rng)
            lo, hi = _theta_range(pair)
            for theta in np.linspace(lo, hi, 5):
                closed = marginal_posterior_theta(float(theta), pair, prior)
                val, _ = quad(
                    lambda a: math.exp(
                        joint_posterior_logdensity(float(theta), a, pair, prior)
                    ),
                    0.0,
                    1.0,
                    epsabs=1e-300,
                    epsrel=1e-10,
                    limit=200,
                )
                assert closed == pytest.approx(math.log(val), abs=1e-6)
        # vanishing-noise beta limit equals the tiny-noise evaluation
        for _ in range(50):
            orig = Study(float(rng.uniform(-0.5, 0.5)), float(rng.uniform(0.05, 0.3)))
            y = float(rng.uniform(1.5, 6.0))
            theta = orig.estimate + float(rng.uniform(-2, 2)) * orig.se
            lim = bf_dc_beta_limit(theta, orig, y)
            tiny = bf_dc_beta(StudyPair(orig, Study(theta, 1e-6)), y)
            assert lim == pytest.approx(tiny.bf, rel=1e-4)
        # quadrature linearity and the semi-infinite substitution
        for _ in range(50):
            a, b = rng.uniform(-3.0, 3.0, size=2)
            combined, _ = integrate_unit(lambda t: a * math.sin(3 * t) + b * t * t)
            fa, _ = integrate_unit(lambda t: math.sin(3 * t))
            gb, _ = integrate_unit(lambda t: t * t)
            assert combined == pytest.approx(a * fa + b * gb, rel=1e-9, abs=1e-11)
            k = int(rng.integers(0, 6))
            value, _ = integrate_semiinf(lambda x: x**k * math.exp(-x))
            assert value == pytest.approx(math.factorial(k), rel=1e-10)
        _report(7, True, "quadrature-backed identity sweeps, 50 cases each")
