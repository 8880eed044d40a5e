"""Independent checks of every pprep output the benchmark produces.

Each check recomputes a reported number through ``oracles`` (which shares
no code path with pprep) or tests a property the method must have. None
compares against a stored copy of an earlier output. A failed check
raises ``CheckFailed``; the run then reports ``correct: false``.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
from scipy import stats

import oracles

# Documented defaults of every analysis setting a check reads.
DEFAULTS = {
    "prior_x": 1.0,
    "prior_y": 1.0,
    "kappa2": 2.0,
    "bf_y": 2.0,
    "gamma": 0.1,
    "target_power": 0.8,
    "hypothesis": "compatible",
    "grid_points": 401,
    "theta_span": 6.0,
    "alpha_min": 1e-6,
    "ci_level": 0.95,
    "rel_tol": 1e-10,
    "abs_tol": 1e-12,
    "design_rel_size_min": 0.2,
    "design_rel_size_max": 20.0,
    "design_grid_points": 60,
    "limits_true_effect": None,
}

# Effect-size summaries, in posterior standard deviations. Against the
# posterior restricted to pprep's grid range the only error left is
# pprep's 401-point lattice: its trapezoid moments are good to ~1e-6 sd
# and its linearly interpolated interval ends to ~4e-4 sd.
MOMENT_TOL = 1e-4
INTERVAL_TOL = 2e-3
MODE_TOL = 2e-4
# Against the unrestricted posterior the grid range itself must hold all
# but a sliver of the mass.
COVERAGE_TOL = 0.05
# Log Bayes factors: closed forms agree to rounding; integrals agree to
# about 1e-12 at pprep's 1e-10 relative quadrature tolerance.
CLOSED_FORM_TOL = 1e-9
INTEGRAL_TOL = 1e-8
PROBABILITY_TOL = 1e-8
# Multiple of the requested quadrature tolerance the overlay may use.
QUAD_SAFETY = 10.0


class CheckFailed(Exception):
    """An output disagrees with its independent check."""


def settings(config: dict) -> dict:
    return {**DEFAULTS, **config}


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _close(got: float, want: float, tol: float, what: str, scale: float = 1.0) -> None:
    _require(
        abs(got - want) <= tol * scale,
        f"{what}: got {got!r}, expected {want!r} within {tol * scale:.3g}",
    )


def check_config_echo(report: dict, cfg: dict) -> None:
    echo = report["config"]
    for key, value in cfg.items():
        _require(echo.get(key) == value, f"config echo {key}={echo.get(key)!r}, sent {value!r}")


# ---------------------------------------------------------------------------
# estimate
# ---------------------------------------------------------------------------


def check_estimate(report: dict, pair, config: dict) -> None:
    cfg = settings(config)
    check_config_echo(report, config)
    theta = report["results"]["theta"]
    alpha = report["results"]["alpha"]
    x, y = cfg["prior_x"], cfg["prior_y"]
    level = cfg["ci_level"]
    grid_range = oracles.pooled_range(pair.original, pair.replication, cfg["theta_span"])

    # First against the unrestricted posterior: a grid range that leaves out
    # part of the mass fails here, whatever else it does to the summaries.
    lattice, dens = oracles.theta_marginal(pair.original, pair.replication, x, y)
    full = oracles.summarize_density(lattice, dens, level)
    for key in ("mean", "sd", "ci_lower", "ci_upper"):
        _close(theta[key], full[key], COVERAGE_TOL, f"theta {key} (unrestricted)", full["sd"])

    lattice, dens = oracles.theta_marginal(pair.original, pair.replication, x, y, grid_range)
    ref = oracles.summarize_density(lattice, dens, level)
    sd = ref["sd"]
    _close(theta["mean"], ref["mean"], MOMENT_TOL, "theta mean", sd)
    _close(theta["sd"], ref["sd"], MOMENT_TOL, "theta sd", sd)
    _close(theta["ci_lower"], ref["ci_lower"], INTERVAL_TOL, "theta ci_lower", sd)
    _close(theta["ci_upper"], ref["ci_upper"], INTERVAL_TOL, "theta ci_upper", sd)
    _close(theta["mode"], ref["mode"], MODE_TOL, "theta mode", sd)
    _require(theta["level"] == level, "theta interval level")

    eb = oracles.alpha_empirical_bayes(pair.original, pair.replication)
    _close(alpha["empirical_bayes"], eb, 1e-12, "alpha empirical_bayes", max(eb, 1.0))
    if x == 1.0 and y == 1.0:
        # A uniform prior makes the alpha marginal proportional to the
        # replication's marginal likelihood, maximized at empirical Bayes.
        _close(alpha["mode"], eb, 1e-5, "alpha mode vs empirical Bayes")
    _require(0.0 < alpha["mean"] < 1.0 and alpha["sd"] > 0.0, "alpha moments out of range")
    _require(alpha["ci_lower"] < alpha["ci_upper"], "alpha interval order")


# ---------------------------------------------------------------------------
# test
# ---------------------------------------------------------------------------


def _check_bf(entry: dict, want: float, tol: float, what: str) -> None:
    _close(entry["log_bf"], want, tol, f"{what} log_bf")
    _require(
        math.isclose(entry["bf"], math.exp(entry["log_bf"]), rel_tol=1e-12),
        f"{what} bf {entry['bf']!r} != exp(log_bf)",
    )


def check_test(report: dict, pair, config: dict) -> None:
    cfg = settings(config)
    check_config_echo(report, config)
    res = report["results"]
    o, r = pair.original, pair.replication
    _check_bf(res["bf01_replication"], oracles.bf01_replication(o, r), CLOSED_FORM_TOL, "bf01_replication")
    _check_bf(res["bf_dc_point"], oracles.bf_dc_point(o, r, cfg["kappa2"]), CLOSED_FORM_TOL, "bf_dc_point")
    _check_bf(
        res["bf01_power_prior"],
        oracles.bf01_power_prior(o, r, cfg["prior_x"], cfg["prior_y"]),
        INTEGRAL_TOL,
        "bf01_power_prior",
    )
    _check_bf(res["bf_dc_beta"], oracles.bf_dc_beta(o, r, cfg["bf_y"]), INTEGRAL_TOL, "bf_dc_beta")
    theta_true = cfg["limits_true_effect"]
    _require(("limits" in res) == (theta_true is not None), "limits block presence")
    if theta_true is not None:
        limits = res["limits"]
        want = oracles.bf_dc_point_limit(theta_true, o, cfg["kappa2"])
        _close(limits["bf_dc_point_limit"]["value"], want, 1e-9, "bf_dc_point_limit", want)
        want = oracles.bf_dc_beta_limit(theta_true, o, cfg["bf_y"])
        _close(limits["bf_dc_beta_limit"]["value"], want, 1e-8, "bf_dc_beta_limit", want)


# ---------------------------------------------------------------------------
# design
# ---------------------------------------------------------------------------


def _prs(sigma_r: float, orig, cfg: dict, true_hypothesis: str) -> float:
    return oracles.prob_success(
        sigma_r, orig, cfg["kappa2"], cfg["gamma"], cfg["hypothesis"], true_hypothesis
    )


def check_design(report: dict, pair, config: dict) -> None:
    cfg = settings(config)
    check_config_echo(report, config)
    d = report["results"]["design"]
    orig = pair.original
    sought = cfg["hypothesis"]
    grid = oracles.sigma_grid(
        orig[1], cfg["design_rel_size_min"], cfg["design_rel_size_max"], cfg["design_grid_points"]
    )
    sigma_r = d["sigma_r"]
    hits = np.flatnonzero(np.isclose(grid, sigma_r, rtol=1e-12, atol=0.0))
    _require(hits.size == 1, f"sigma_r {sigma_r!r} is not on the design grid")
    i = int(hits[0])
    _require(d["n_r"] == max(2, math.ceil(4.0 / sigma_r**2)), f"n_r {d['n_r']} != ceil(4/sigma_r^2)")
    _close(d["relative_size"], orig[1] ** 2 / sigma_r**2, 1e-12, "relative_size", d["relative_size"])
    _require(d["hypothesis"] == sought, "design hypothesis echo")

    if d["attained"]:
        at = sigma_r
        _require(_prs(sigma_r, orig, cfg, sought) >= cfg["target_power"] - PROBABILITY_TOL,
                 "attained design below the target probability")
        if i > 0:
            _require(_prs(float(grid[i - 1]), orig, cfg, sought) < cfg["target_power"] + PROBABILITY_TOL,
                     "a smaller design on the grid already reaches the target")
    else:
        # Unattained: the largest design on the grid misses the target and
        # the reported probabilities are the vanishing-noise asymptotes.
        _require(i == grid.size - 1, "unattained design must sit at the largest grid size")
        _require(_prs(sigma_r, orig, cfg, sought) < cfg["target_power"] + PROBABILITY_TOL,
                 "design reported unattained although the largest size reaches the target")
        at = 0.0
    _close(d["prs_under_compatible"], _prs(at, orig, cfg, "compatible"), PROBABILITY_TOL, "prs_under_compatible")
    _close(d["prs_under_different"], _prs(at, orig, cfg, "different"), PROBABILITY_TOL, "prs_under_different")


# ---------------------------------------------------------------------------
# grid exports
# ---------------------------------------------------------------------------


def _read_csv(path: Path, header: list[str]) -> np.ndarray:
    with path.open(encoding="utf-8") as fh:
        got = fh.readline().strip().split(",")
        _require(got == header, f"{path.name} header {got}")
        return np.loadtxt(fh, delimiter=",", ndmin=2)


def _check_mass(x: np.ndarray, logdens: np.ndarray, what: str) -> None:
    mass = float(np.trapezoid(np.exp(logdens), x))
    _close(mass, 1.0, 1e-9, f"{what} trapezoid mass")


def check_estimate_grids(grid_dir: Path, pair, config: dict) -> None:
    cfg = settings(config)
    n = cfg["grid_points"]
    theta = _read_csv(grid_dir / "theta_marginal.csv", ["theta", "logdens"])
    alpha = _read_csv(grid_dir / "alpha_marginal.csv", ["alpha", "logdens"])
    ref = _read_csv(grid_dir / "alpha_limiting_reference.csv", ["alpha", "logdens"])
    joint = _read_csv(grid_dir / "joint_posterior.csv", ["theta", "alpha", "logdens"])
    for name, table, rows in (("theta", theta, n), ("alpha", alpha, n), ("reference", ref, n), ("joint", joint, n * n)):
        _require(table.shape[0] == rows, f"{name} grid has {table.shape[0]} rows, expected {rows}")
    _check_mass(theta[:, 0], theta[:, 1], "theta marginal")
    _check_mass(alpha[:, 0], alpha[:, 1], "alpha marginal")

    lo, hi = oracles.pooled_range(pair.original, pair.replication, cfg["theta_span"])
    _close(theta[0, 0], lo, 1e-12, "theta grid start", max(1.0, abs(lo)))
    _close(theta[-1, 0], hi, 1e-12, "theta grid end", max(1.0, abs(hi)))

    _close(float(np.max(np.abs(ref[:, 1] - stats.beta(1.5, 1.0).logpdf(ref[:, 0])))), 0.0, 1e-12,
           "limiting reference vs Be(3/2, 1)")

    # The joint grid, integrated over alpha, must give the theta marginal.
    thetas = joint[:, 0].reshape(n, n)
    alphas = joint[:, 1].reshape(n, n)
    _require(np.array_equal(thetas[:, 0], theta[:, 0]), "joint theta axis differs from the marginal's")
    _require(np.array_equal(alphas[0], alpha[:, 0]), "joint alpha axis differs from the marginal's")
    from_joint = np.trapezoid(np.exp(joint[:, 2].reshape(n, n)), alphas[0], axis=1)
    marginal = np.exp(theta[:, 1])
    # The alpha integrand behaves like sqrt(alpha) at 0, so the trapezoid
    # rule on the 401-point lattice carries an O(h^1.5) error.
    gap = float(np.trapezoid(np.abs(from_joint - marginal), theta[:, 0]))
    _close(gap, 0.0, 2e-3, "joint integrated over alpha vs theta marginal (L1)")


def check_design_grids(grid_dir: Path, pair, config: dict) -> None:
    cfg = settings(config)
    header = [
        "sigma_r", "relative_size", "n_r",
        "prs_for_compatible_under_compatible", "prs_for_compatible_under_different",
        "prs_for_different_under_compatible", "prs_for_different_under_different",
    ]
    table = _read_csv(grid_dir / "prs_curves.csv", header)
    rows = cfg["design_grid_points"]
    _require(table.shape == (rows, len(header)), f"prs_curves shape {table.shape}")
    grid = oracles.sigma_grid(
        pair.original[1], cfg["design_rel_size_min"], cfg["design_rel_size_max"], rows
    )
    _require(bool(np.allclose(table[:, 0], grid, rtol=1e-12, atol=0.0)), "prs_curves sigma_r column")
    for col, (sought, true) in enumerate(
        (("compatible", "compatible"), ("compatible", "different"),
         ("different", "compatible"), ("different", "different")), start=3
    ):
        want = [
            oracles.prob_success(float(s), pair.original, cfg["kappa2"], cfg["gamma"], sought, true)
            for s in grid
        ]
        _close(float(np.max(np.abs(table[:, col] - want))), 0.0, PROBABILITY_TOL, f"prs curve {header[col]}")


# ---------------------------------------------------------------------------
# bridge
# ---------------------------------------------------------------------------


def check_bridge(report: dict, pair, config: dict, grid_dir: Path) -> None:
    cfg = settings(config)
    check_config_echo(report, config)
    res = report["results"]
    var_o = pair.original[1] ** 2
    x, y = cfg["prior_x"], cfg["prior_y"]

    for row in res["mapping"]:
        a, tau2, i2 = row["alpha"], row["tau2"], row["i2"]
        _close(var_o / (2.0 * tau2 + var_o), a, 1e-12, "alpha from tau2")
        _close(tau2 / (tau2 + var_o), i2, 1e-12, "I2 from tau2")
        _close((1.0 - a) / (1.0 + a), i2, 1e-12, "I2 from alpha")

    # The pushed-forward priors must carry Be(x, y) back onto alpha.
    gf, gb = res["tau2_prior"], res["i2_prior"]
    for a in (0.05, 0.2, 0.5, 0.8, 0.95):
        want = float(stats.beta(x, y).logpdf(a))
        tau2 = (1.0 / a - 1.0) * var_o / 2.0
        got = oracles.gf_logpdf(tau2, gf["a"], gf["b"], gf["lam"]) + math.log(var_o / (2.0 * a * a))
        _close(got, want, 1e-10, f"tau2 prior pulled back to alpha={a}", max(1.0, abs(want)))
        i2 = (1.0 - a) / (1.0 + a)
        got = oracles.gbeta_logpdf(i2, gb["a"], gb["b"], gb["lam"]) + math.log(2.0 / (1.0 + a) ** 2)
        _close(got, want, 1e-10, f"I2 prior pulled back to alpha={a}", max(1.0, abs(want)))

    overlay = _read_csv(
        grid_dir / "posterior_overlay.csv",
        ["theta", "logdens_power_prior", "logdens_hierarchical"],
    )
    _require(overlay.shape[0] == cfg["grid_points"], "overlay row count")
    diff = np.abs(overlay[:, 1] - overlay[:, 2])
    _close(res["overlay_max_abs_logdens_diff"], float(diff.max()), 0.0, "overlay_max_abs_logdens_diff")
    # Each hierarchical density is an integral I divided by a normalizer
    # equal to the evidence. QUADPACK meets max(abs_tol, rel_tol * I), so
    # its log can be off by max(abs_tol / I, rel_tol); the normalizer and
    # the closed-form side add rel_tol each.
    log_z = oracles.log_evidence(pair.original, pair.replication, x, y)
    integral = np.exp(overlay[:, 2] + log_z)
    allowed = QUAD_SAFETY * (np.maximum(cfg["abs_tol"] / integral, cfg["rel_tol"]) + 2.0 * cfg["rel_tol"])
    worst = int(np.argmax(diff / allowed))
    _require(
        diff[worst] <= allowed[worst],
        f"overlay differs by {diff[worst]:.3g} at theta={overlay[worst, 0]!r}, allowed {allowed[worst]:.3g}",
    )


def check_bridge_bayes_factors(pprep, pair, config: dict) -> None:
    """The hierarchical tests must reproduce the power-prior tests."""
    cfg = settings(config)
    study_pair = pprep.StudyPair(pprep.Study(*pair.original), pprep.Study(*pair.replication))
    prior = pprep.BetaParams(cfg["prior_x"], cfg["prior_y"])
    quad = pprep.QuadratureSpec(cfg["rel_tol"], cfg["abs_tol"])
    cases = (
        ("effect test", pprep.effect_test_hypotheses(study_pair.original, prior),
         pprep.bf01_power_prior(study_pair, prior, quad)),
        ("compatibility test", pprep.compatibility_beta_hypotheses(study_pair.original, cfg["bf_y"]),
         pprep.bf_dc_beta(study_pair, cfg["bf_y"], quad)),
    )
    for what, (num, den), direct in cases:
        hier = pprep.hier_bayes_factor(study_pair, num, den, quad)
        allowed = QUAD_SAFETY * (hier.quadrature_err + direct.quadrature_err) + 1e-12
        _close(hier.log_bf, direct.log_bf, allowed, f"hierarchical {what} log_bf")
