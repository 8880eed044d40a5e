"""The benchmark's oracles against mpmath at a handful of points.

Run from the root of a checkout:

    python3 -m pytest -q perfbench/test_oracles.py

A wrong oracle could pass a wrong program, so every reference the checks
use is compared here with arbitrary-precision quadrature or root finding.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles  # noqa: E402

mpmath.mp.dps = 30

PAIRS = [
    ((0.21, 0.05), (0.09, 0.05)),    # Labels rep1
    ((0.21, 0.05), (0.44, 0.04)),    # Labels rep3
    ((0.5, 0.1), (-0.3, 0.02)),      # conflicting, precise replication
    ((0.5, 0.05), (-0.5, 0.05)),     # conflicting, similar precision
    ((0.0, 0.01), (40.0, 0.01)),     # far apart
]
PRIORS = [(1.0, 1.0), (2.0, 1.0), (0.5, 2.0)]


def mp_npdf(x, mean, var):
    return mpmath.exp(-((x - mean) ** 2) / (2 * var)) / mpmath.sqrt(2 * mpmath.pi * var)


def mp_alpha_integral(f, rate):
    """int_0^1 f(alpha) dalpha with breakpoints where f changes scale."""
    points = [0]
    for k in (0.1, 1, 10, 100):
        p = k / rate if rate > 0 else 1
        if 0 < p < 1:
            points.append(p)
    points.append(1)
    return mpmath.quad(f, sorted(set(points)))


def mp_log_evidence(orig, rep, x, y):
    var_o, var_r = mpmath.mpf(orig[1]) ** 2, mpmath.mpf(rep[1]) ** 2
    d = mpmath.mpf(rep[0]) - orig[0]

    def f(a):
        return mp_npdf(d, 0, var_r + var_o / a) * a ** (x - 1) * (1 - a) ** (y - 1) / mpmath.beta(x, y)

    return mpmath.log(mp_alpha_integral(f, float(d * d / (2 * (var_o + var_r)))))


@pytest.mark.parametrize("orig,rep", PAIRS)
@pytest.mark.parametrize("x,y", PRIORS)
def test_log_evidence(orig, rep, x, y):
    assert oracles.log_evidence(orig, rep, x, y) == pytest.approx(
        float(mp_log_evidence(orig, rep, x, y)), abs=1e-11
    )


@pytest.mark.parametrize("orig,rep", PAIRS[:4])
@pytest.mark.parametrize("x,y", PRIORS[:2])
def test_theta_marginal(orig, rep, x, y):
    theta, dens = oracles.theta_marginal(orig, rep, x, y)
    log_z = mp_log_evidence(orig, rep, x, y)
    peak = int(np.argmax(dens))
    for i in (peak, peak + 40, peak - 90):
        t = mpmath.mpf(theta[i])
        rate = float((t - orig[0]) ** 2 / (2 * orig[1] ** 2))

        def f(a):
            return mp_npdf(t, orig[0], mpmath.mpf(orig[1]) ** 2 / a) * a ** (x - 1) * (1 - a) ** (y - 1) / mpmath.beta(x, y)

        want = mp_npdf(rep[0], t, mpmath.mpf(rep[1]) ** 2) * mp_alpha_integral(f, rate) / mpmath.exp(log_z)
        # The lattice density is normalized by the trapezoid rule, which is
        # geometrically accurate for these smooth, fully contained densities.
        assert dens[i] == pytest.approx(float(want), rel=1e-9)


def test_summaries_of_a_normal_density():
    x = np.linspace(-19.0, 21.0, 2001)
    dens = np.exp(-0.5 * ((x - 1.0) / 2.0) ** 2) / (2.0 * math.sqrt(2.0 * math.pi))
    got = oracles.summarize_density(x, dens, 0.95)
    z = float(mpmath.sqrt(2) * mpmath.erfinv(0.95))
    assert got["mean"] == pytest.approx(1.0, abs=1e-10)
    assert got["sd"] == pytest.approx(2.0, rel=1e-9)
    assert got["ci_lower"] == pytest.approx(1.0 - 2.0 * z, abs=2e-4)
    assert got["ci_upper"] == pytest.approx(1.0 + 2.0 * z, abs=2e-4)
    assert got["mode"] == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("orig,rep", PAIRS)
def test_closed_form_bayes_factors(orig, rep):
    o_est, o_var = mpmath.mpf(orig[0]), mpmath.mpf(orig[1]) ** 2
    r_est, r_var = mpmath.mpf(rep[0]), mpmath.mpf(rep[1]) ** 2
    want = mpmath.log(mp_npdf(r_est, 0, r_var)) - mpmath.log(mp_npdf(r_est, o_est, o_var + r_var))
    assert oracles.bf01_replication(orig, rep) == pytest.approx(float(want), rel=1e-12, abs=1e-9)
    kappa2 = mpmath.mpf(2)
    s = kappa2 / (o_var + kappa2)
    want = mpmath.log(mp_npdf(r_est, 0, r_var + kappa2)) - mpmath.log(mp_npdf(r_est, s * o_est, r_var + s * o_var))
    assert oracles.bf_dc_point(orig, rep, 2.0) == pytest.approx(float(want), rel=1e-12, abs=1e-9)


@pytest.mark.parametrize("theta_true", [0.0, 0.15, 0.5])
@pytest.mark.parametrize("y", [2.0, 5.0])
def test_limits(theta_true, y):
    orig = (0.21, 0.05)
    var_o = mpmath.mpf(orig[1]) ** 2
    num = mpmath.quad(lambda a: mp_npdf(theta_true, orig[0], var_o / a) * (1 - a) ** (y - 1) / mpmath.beta(1, y), [0, 1])
    want = num / mp_npdf(theta_true, orig[0], var_o)
    assert oracles.bf_dc_beta_limit(theta_true, orig, y) == pytest.approx(float(want), rel=1e-10)
    kappa2 = mpmath.mpf(2)
    s = kappa2 / (var_o + kappa2)
    want = mp_npdf(theta_true, 0, kappa2) / mp_npdf(theta_true, s * orig[0], s * var_o)
    assert oracles.bf_dc_point_limit(theta_true, orig, 2.0) == pytest.approx(float(want), rel=1e-12)


def mp_prob_success(sigma_r, orig, kappa2, gamma, sought, true):
    var_r = mpmath.mpf(sigma_r) ** 2
    o_est, o_var = mpmath.mpf(orig[0]), mpmath.mpf(orig[1]) ** 2
    post_var = 1 / (1 / mpmath.mpf(kappa2) + 1 / o_var)
    post_mean = post_var * o_est / o_var
    level = mpmath.log(gamma) if sought == "compatible" else -mpmath.log(gamma)

    def below(x):
        return mpmath.log(mp_npdf(x, 0, var_r + kappa2)) - mpmath.log(mp_npdf(x, post_mean, var_r + post_var)) - level

    # log BF is a quadratic in x: recover its coefficients exactly from
    # three values, then solve for the edges of the region below the level.
    c = below(0)
    b = (below(1) - below(-1)) / 2
    a = (below(1) + below(-1)) / 2 - c
    disc = b * b - 4 * a * c
    mean, var = (post_mean, var_r + post_var) if true == "compatible" else (0, var_r + kappa2)
    if disc <= 0:
        inner = mpmath.mpf(0)
    else:
        r1, r2 = sorted([(-b - mpmath.sqrt(disc)) / (2 * a), (-b + mpmath.sqrt(disc)) / (2 * a)])
        sd = mpmath.sqrt(var)
        inner = mpmath.ncdf((r2 - mean) / sd) - mpmath.ncdf((r1 - mean) / sd)
    return inner if sought == "compatible" else 1 - inner


@pytest.mark.parametrize("sigma_r", [0.0, 0.01, 0.05, 0.2])
@pytest.mark.parametrize("sought", ["compatible", "different"])
@pytest.mark.parametrize("true", ["compatible", "different"])
def test_prob_success(sigma_r, sought, true):
    orig = (0.21, 0.05)
    got = oracles.prob_success(sigma_r, orig, 2.0, 0.1, sought, true)
    assert got == pytest.approx(float(mp_prob_success(sigma_r, orig, 2.0, 0.1, sought, true)), abs=1e-12)


def test_generalized_densities_integrate_to_one():
    # The oracles take floats, so the limits stay where float(t) is inside
    # the open support; the mass left out is below 1e-20.
    gf = mpmath.quad(lambda t: mpmath.exp(oracles.gf_logpdf(float(t), 1.5, 2.0, 800.0)), [1e-300, 1e-3, 1, mpmath.inf])
    gb = mpmath.quad(lambda t: mpmath.exp(oracles.gbeta_logpdf(float(t), 1.5, 2.0, 2.0)), [1e-300, 0.5, 1 - 1e-12])
    assert float(gf) == pytest.approx(1.0, rel=1e-10)
    assert float(gb) == pytest.approx(1.0, rel=1e-10)
