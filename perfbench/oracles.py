"""Reference computations that share no code path with pprep.

Every integral over the power parameter alpha is done by two-panel
Gauss-Jacobi quadrature: the Be(x, y) prior, together with the
sqrt(alpha) that a normal density with variance v/alpha carries, becomes
the Jacobi weight, and what is left is analytic on [0, 1]. The effect-size marginal comes
from a wide, dense trapezoid lattice over theta, which converges
geometrically for smooth densities whose tails vanish inside the
lattice. Nothing here evaluates a confluent hypergeometric function,
calls QUADPACK or uses the noncentral chi-squared identity, so an error
in any of those in pprep cannot cancel against the same error here.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy import optimize, stats
from scipy.special import betaln, ndtr, roots_jacobi

JACOBI_NODES = 96
THETA_NODES = 2001
THETA_HALF_WIDTH_SD = 14.0
THETA_CHUNK = 250
# The first panel of the alpha integral ends where exp(-alpha * rate) has
# fallen to exp(-PANEL_DECAY), or at 1/2, whichever comes first.
PANEL_DECAY = 60.0


@lru_cache(maxsize=64)
def _jacobi_rule(a_exp: float, b_exp: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes in (0, 1) and weights for int_0^1 t^b_exp (1-t)^a_exp g(t) dt.

    The weights include the weight function, so the integral is
    ``weights @ g(nodes)``.
    """
    t, w = roots_jacobi(JACOBI_NODES, a_exp, b_exp)
    return 0.5 * (t + 1.0), w * 0.5 ** (a_exp + b_exp + 1.0)


def _log_alpha_integral(log_g, x_exp: float, y: float, rate) -> np.ndarray:
    """log int_0^1 alpha^x_exp (1-alpha)^(y-1) exp(log_g(alpha)) dalpha.

    ``log_g`` maps an (m, n) array of alpha values to log g and must be
    analytic on [0, 1]; ``rate`` (shape (m,)) is how fast g decays from
    alpha = 0, so that g is concentrated below about 1/rate. The range is
    split at s = min(1/2, PANEL_DECAY / rate). On [0, s] alpha = s t, the
    power of alpha is the Jacobi weight and (1 - s t)^(y-1) stays smooth;
    on [s, 1] alpha = s + (1 - s) t, the power of (1 - alpha) is the
    weight and alpha^x_exp stays smooth. Both panels use Gauss-Jacobi.
    """
    rate = np.atleast_1d(np.asarray(rate, dtype=float))
    split = np.minimum(0.5, PANEL_DECAY / np.maximum(rate, 1e-300))[:, None]
    t1, w1 = _jacobi_rule(0.0, x_exp)
    alpha1 = split * t1
    log1 = (
        log_g(alpha1) + (y - 1.0) * np.log1p(-alpha1)
        + (x_exp + 1.0) * np.log(split) + np.log(w1)
    )
    t2, w2 = _jacobi_rule(y - 1.0, 0.0)
    alpha2 = split + (1.0 - split) * t2
    log2 = (
        log_g(alpha2) + x_exp * np.log(alpha2)
        + y * np.log1p(-split) + np.log(w2)
    )
    both = np.concatenate((log1, log2), axis=1)
    peak = both.max(axis=1, keepdims=True)
    return peak[:, 0] + np.log(np.exp(both - peak).sum(axis=1))


def log_evidence(orig, rep, x: float, y: float) -> float:
    """log int_0^1 N(rep | orig, var_r + var_o/alpha) Be(alpha | x, y) dalpha.

    ``orig`` and ``rep`` are (estimate, se) pairs. The normal density
    equals sqrt(alpha) times a function analytic in alpha; the square root
    joins the Jacobi weight.
    """
    var_o, var_r = orig[1] ** 2, rep[1] ** 2
    d2 = (rep[0] - orig[0]) ** 2

    def log_g(alpha):
        denom = alpha * var_r + var_o
        return -0.5 * (math.log(2.0 * math.pi) + np.log(denom)) - 0.5 * alpha * d2 / denom

    rate = d2 / (2.0 * (var_o + var_r))
    return float(_log_alpha_integral(log_g, x - 0.5, y, [rate])[0]) - float(betaln(x, y))


def bf01_power_prior(orig, rep, x: float, y: float) -> float:
    """log BF of theta = 0 against the power prior with alpha ~ Be(x, y)."""
    return float(stats.norm.logpdf(rep[0], 0.0, rep[1])) - log_evidence(orig, rep, x, y)


def bf01_replication(orig, rep) -> float:
    """log BF of theta = 0 against the pooled original posterior."""
    return float(
        stats.norm.logpdf(rep[0], 0.0, rep[1])
        - stats.norm.logpdf(rep[0], orig[0], math.hypot(orig[1], rep[1]))
    )


def bf_dc_point(orig, rep, kappa2: float) -> float:
    """log BF of complete discounting against complete pooling under a
    unit-information prior of variance ``kappa2``.

    Pooling updates the N(0, kappa2) prior with the original estimate; the
    two marginal likelihoods of the replication estimate are normal.
    """
    var_o = orig[1] ** 2
    post_var = 1.0 / (1.0 / kappa2 + 1.0 / var_o)
    post_mean = post_var * orig[0] / var_o
    return float(
        stats.norm.logpdf(rep[0], 0.0, math.sqrt(rep[1] ** 2 + kappa2))
        - stats.norm.logpdf(rep[0], post_mean, math.sqrt(rep[1] ** 2 + post_var))
    )


def bf_dc_beta(orig, rep, y: float) -> float:
    """log BF of alpha ~ Be(1, y) against alpha = 1."""
    return log_evidence(orig, rep, 1.0, y) - float(
        stats.norm.logpdf(rep[0], orig[0], math.hypot(orig[1], rep[1]))
    )


def bf_dc_point_limit(theta_true: float, orig, kappa2: float) -> float:
    """bf_dc_point as the replication noise vanishes at ``theta_true``."""
    return math.exp(bf_dc_point(orig, (theta_true, 0.0), kappa2))


def bf_dc_beta_limit(theta_true: float, orig, y: float) -> float:
    """bf_dc_beta as the replication noise vanishes at ``theta_true``."""
    var_o = orig[1] ** 2
    rate = (theta_true - orig[0]) ** 2 / (2.0 * var_o)
    log_num = (
        float(_log_alpha_integral(lambda alpha: -rate * alpha, 0.5, y, [rate])[0])
        - 0.5 * math.log(2.0 * math.pi * var_o)
        - float(betaln(1.0, y))
    )
    return math.exp(log_num - float(stats.norm.logpdf(theta_true, orig[0], orig[1])))


def alpha_empirical_bayes(orig, rep) -> float:
    """Maximizer over (0, 1] of N(rep | orig, var_r + var_o/alpha)."""
    d2 = (rep[0] - orig[0]) ** 2
    var_o, var_r = orig[1] ** 2, rep[1] ** 2
    if d2 <= var_r + var_o:
        return 1.0
    return min(1.0, var_o / (d2 - var_r))


def theta_marginal(orig, rep, x: float, y: float, theta_range=None):
    """Effect-size marginal posterior on a dense lattice.

    Returns (theta, density) with the density normalized by the trapezoid
    rule over the lattice. The lattice spans ``theta_range`` when given,
    which yields the posterior restricted to that range, and otherwise
    reaches 14 standard errors past both studies. The joint density
    N(rep | theta) N(theta | orig, var_o/alpha) Be(alpha | x, y) is
    integrated over alpha at every lattice point, in chunks to keep memory
    flat.
    """
    var_o = orig[1] ** 2
    if theta_range is None:
        spread = max(orig[1], rep[1])
        theta_range = (
            min(orig[0], rep[0]) - THETA_HALF_WIDTH_SD * spread,
            max(orig[0], rep[0]) + THETA_HALF_WIDTH_SD * spread,
        )
    theta = np.linspace(theta_range[0], theta_range[1], THETA_NODES)
    log_like = stats.norm.logpdf(rep[0], theta, rep[1])
    log_mix = np.empty_like(theta)
    for start in range(0, theta.size, THETA_CHUNK):
        rate = (theta[start : start + THETA_CHUNK] - orig[0]) ** 2 / (2.0 * var_o)
        log_mix[start : start + THETA_CHUNK] = _log_alpha_integral(
            lambda alpha: -rate[:, None] * alpha, x - 0.5, y, rate
        )
    logdens = log_like + log_mix
    dens = np.exp(logdens - logdens.max())
    return theta, dens / np.trapezoid(dens, theta)


def pooled_range(orig, rep, span: float) -> tuple[float, float]:
    """Pooled (alpha = 1) posterior mean plus or minus ``span`` pooled sds."""
    w_o, w_r = 1.0 / orig[1] ** 2, 1.0 / rep[1] ** 2
    mean = (orig[0] * w_o + rep[0] * w_r) / (w_o + w_r)
    half = span / math.sqrt(w_o + w_r)
    return mean - half, mean + half


def summarize_density(x: np.ndarray, dens: np.ndarray, level: float) -> dict:
    """Mean, sd, equal-tailed interval and mode of a normalized lattice
    density; the mode is the vertex of the parabola through the largest
    lattice value and its neighbours in log density."""
    mean = float(np.trapezoid(x * dens, x))
    sd = math.sqrt(float(np.trapezoid((x - mean) ** 2 * dens, x)))
    cdf = np.concatenate(([0.0], np.cumsum(0.5 * (dens[1:] + dens[:-1]) * np.diff(x))))
    cdf /= cdf[-1]
    tail = 0.5 * (1.0 - level)
    i = int(np.argmax(dens))
    mode = float(x[i])
    if 0 < i < x.size - 1:
        y0, y1, y2 = np.log(dens[i - 1 : i + 2])
        mode += 0.5 * (x[1] - x[0]) * (y0 - y2) / (y0 - 2.0 * y1 + y2)
    return {
        "mean": mean,
        "sd": sd,
        "ci_lower": float(np.interp(tail, cdf, x)),
        "ci_upper": float(np.interp(1.0 - tail, cdf, x)),
        "mode": mode,
    }


# ---------------------------------------------------------------------------
# Replication design: success probability by direct integration
# ---------------------------------------------------------------------------


def _normal_logpdf(x: float, mean: float, var: float) -> float:
    return -0.5 * (math.log(2.0 * math.pi * var) + (x - mean) ** 2 / var)


def _log_bf_point(x: float, var_r: float, orig, kappa2: float) -> float:
    var_o = orig[1] ** 2
    post_var = 1.0 / (1.0 / kappa2 + 1.0 / var_o)
    post_mean = post_var * orig[0] / var_o
    return _normal_logpdf(x, 0.0, var_r + kappa2) - _normal_logpdf(x, post_mean, var_r + post_var)


def _sampling_distribution(var_r: float, orig, kappa2: float, true_hypothesis: str):
    var_o = orig[1] ** 2
    post_var = 1.0 / (1.0 / kappa2 + 1.0 / var_o)
    if true_hypothesis == "compatible":
        return post_var * orig[0] / var_o, math.sqrt(var_r + post_var)
    return 0.0, math.sqrt(var_r + kappa2)


def prob_success(
    sigma_r: float, orig, kappa2: float, gamma: float, sought: str, true_hypothesis: str
) -> float:
    """Probability that the point compatibility test reaches the evidence
    threshold for ``sought`` when the replication estimate is drawn under
    ``true_hypothesis``.

    The log Bayes factor is a convex function of the replication estimate,
    so the set where it lies below a level is one interval. Its vertex is
    found by Brent minimization and its edges by Brent root finding; the
    sampling density is then integrated over the interval through the
    normal CDF.
    """
    var_r = sigma_r * sigma_r
    mean, sd = _sampling_distribution(var_r, orig, kappa2, true_hypothesis)
    level = math.log(gamma) if sought == "compatible" else -math.log(gamma)

    def below(x: float) -> float:
        return _log_bf_point(x, var_r, orig, kappa2) - level

    vertex = optimize.minimize_scalar(below).x
    if below(vertex) >= 0.0:
        inner = 0.0
    else:
        edges = []
        for direction in (-1.0, 1.0):
            step = sd
            while below(vertex + direction * step) < 0.0:
                step *= 2.0
            edges.append(optimize.brentq(below, vertex, vertex + direction * step, xtol=1e-15, rtol=1e-15))
        lo, hi = sorted(edges)
        inner = float(ndtr((hi - mean) / sd) - ndtr((lo - mean) / sd))
    # Compatibility succeeds inside the interval, difference outside it.
    return inner if sought == "compatible" else 1.0 - inner


def sigma_grid(orig_se: float, rel_min: float, rel_max: float, num: int) -> np.ndarray:
    """Replication standard errors at geometrically spaced relative sizes
    var_o / sigma_r^2, from the smallest sample size to the largest."""
    rel = np.exp(np.linspace(math.log(rel_min), math.log(rel_max), num))
    return orig_se / np.sqrt(rel)


# ---------------------------------------------------------------------------
# Hierarchical bridge
# ---------------------------------------------------------------------------


def gf_logpdf(x: float, a: float, b: float, lam: float) -> float:
    """Generalized F log-density lam^a x^(a-1) / (B(a, b) (1 + lam x)^(a+b))."""
    return a * math.log(lam) + (a - 1.0) * math.log(x) - float(betaln(a, b)) - (a + b) * math.log1p(lam * x)


def gbeta_logpdf(x: float, a: float, b: float, lam: float) -> float:
    """Generalized beta log-density on (0, 1)."""
    return (
        a * math.log(lam)
        + (a - 1.0) * math.log(x)
        + (b - 1.0) * math.log1p(-x)
        - float(betaln(a, b))
        - (a + b) * math.log1p(-(1.0 - lam) * x)
    )
