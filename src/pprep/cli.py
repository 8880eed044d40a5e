"""Command-line front end.

Four subcommands cover the analysis workflow: ``estimate`` (posterior
summaries and density grids), ``test`` (the Bayes factor table), ``design``
(replication success probabilities and sample-size search), and ``bridge``
(the correspondence to the normal hierarchical model).

Input is a CSV or JSON list of study records; JSON is the canonical form.
Every report carries a reproducibility block (config echo, tool version,
quadrature tolerances, worst error estimate of the evidence and Bayes
factor integrals) and echoes its input at full precision, so a JSON
report can be fed back in as ``--input`` and reproduces itself bit for
bit. Grids are written as CSV files so any plotting tool can render them;
exit codes are 0 (success), 2 (validation error), 3 (numerical
non-convergence).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import __version__
from .bayes_factors import (
    UnitInformation,
    bf01_power_prior,
    bf01_replication,
    bf_dc_beta,
    bf_dc_beta_limit,
    bf_dc_point,
    bf_dc_point_limit,
    format_bf,
)
from .design import DesignSpec, default_sigma_grid, find_design, prob_replication_success, sigma_to_n
from .exceptions import ConvergenceError, DomainError, InputValidationError, PprepError
from .hierarchical import (
    I2_prior_from_alpha_prior,
    alpha_to_I2,
    alpha_to_tau2,
    hier_marginal_posterior_theta_r,
    tau2_prior_from_alpha_prior,
)
from .inference import (
    BetaParams,
    Study,
    StudyPair,
    alpha_empirical_bayes,
    alpha_grid,
    alpha_mode,
    evidence_and_error,
    joint_grid,
    limiting_alpha_posterior_logdensity,
    marginal_posterior_alpha,
    marginal_posterior_theta,
    summarize,
    theta_grid,
    theta_lattice,
)
from .quadrature import QuadratureSpec
from .special import gbeta_logpdf, gf_logpdf

EFFECT_TYPES = ("smd", "logor", "other")
ROLES = ("original", "replication")
# Upper bound on grid_points and design_grid_points. The joint grid holds
# grid_points^2 cells (32 MB per array at the bound) and bridge runs one
# semi-infinite quadrature per grid point.
_MAX_GRID_POINTS = 2001


# ---------------------------------------------------------------------------
# Records and configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StudyRecord:
    """One study row: estimate plus either a standard error or, for
    standardized mean differences, a total sample size."""

    id: str
    role: str
    effect_type: str
    estimate: float
    se: float | None = None
    n: int | None = None

    def validate(self, line: int | None = None) -> None:
        if self.role not in ROLES:
            raise InputValidationError(
                f"role must be one of {ROLES}, got {self.role!r}", field="role", line=line
            )
        if self.effect_type not in EFFECT_TYPES:
            raise InputValidationError(
                f"effect_type must be one of {EFFECT_TYPES}, got {self.effect_type!r}",
                field="effect_type",
                line=line,
            )
        if not math.isfinite(self.estimate):
            raise InputValidationError("estimate must be finite", field="estimate", line=line)
        if self.effect_type == "smd":
            if (self.se is None) == (self.n is None):
                raise InputValidationError(
                    "smd records need exactly one of se / sample_size (n)",
                    field="se",
                    line=line,
                )
        elif self.se is None:
            raise InputValidationError(
                f"{self.effect_type} records require se", field="se", line=line
            )
        if self.se is not None and not (self.se > 0):
            raise InputValidationError("se must be positive", field="se", line=line)
        if self.n is not None and self.n < 2:
            raise InputValidationError("sample_size must be at least 2", field="n", line=line)

    def resolved_se(self) -> float:
        if self.se is not None:
            return self.se
        return math.sqrt(4.0 / self.n)

    def to_study(self) -> Study:
        return Study(self.estimate, self.resolved_se())

    def to_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}


@dataclass(frozen=True)
class AnalysisConfig:
    """All analysis knobs with their documented defaults."""

    prior_x: float = 1.0
    prior_y: float = 1.0
    kappa2: float = 2.0
    bf_y: float = 2.0
    gamma: float = 0.1
    target_power: float = 0.8
    hypothesis: str = "compatible"
    grid_points: int = 401
    theta_span: float = 6.0
    alpha_min: float = 1e-6
    ci_level: float = 0.95
    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_subdivisions: int = 200
    design_rel_size_min: float = 0.2
    design_rel_size_max: float = 20.0
    design_grid_points: int = 60
    limits_true_effect: float | None = None
    output_format: str = "json"

    def __post_init__(self):
        positive = (
            "prior_x", "prior_y", "kappa2", "bf_y", "gamma", "theta_span",
            "alpha_min", "rel_tol", "abs_tol",
        )
        for name in positive:
            if not (getattr(self, name) > 0):
                raise InputValidationError(f"{name} must be positive", field=name)
        if not (0 < self.target_power < 1):
            raise InputValidationError("target_power must lie in (0, 1)", field="target_power")
        if not (0 < self.ci_level < 1):
            raise InputValidationError("ci_level must lie in (0, 1)", field="ci_level")
        if self.grid_points < 3:
            raise InputValidationError("grid_points must be at least 3", field="grid_points")
        if self.design_grid_points < 1:
            raise InputValidationError(
                "design_grid_points must be at least 1", field="design_grid_points"
            )
        for name in ("grid_points", "design_grid_points"):
            if getattr(self, name) > _MAX_GRID_POINTS:
                raise InputValidationError(
                    f"{name} must be at most {_MAX_GRID_POINTS}", field=name
                )
        if self.output_format not in ("json", "csv"):
            raise InputValidationError(
                "output_format must be json or csv", field="output_format"
            )

    @classmethod
    def from_dict(cls, data: dict) -> "AnalysisConfig":
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise InputValidationError(
                f"unknown config keys: {sorted(unknown)}", field=",".join(sorted(unknown))
            )
        values = dict(data)
        for f in fields(cls):
            # String fields are checked against their allowed values where
            # they are used; an optional number may be null.
            if f.name not in data or f.type == "str":
                continue
            if data[f.name] is not None or f.default is not None:
                values[f.name] = _number(data[f.name], f.name, kind=int if f.type == "int" else float)
        return cls(**values)

    def quad(self) -> QuadratureSpec:
        return QuadratureSpec(
            rel_tol=self.rel_tol,
            abs_tol=self.abs_tol,
            max_subdivisions=self.max_subdivisions,
        )

    def prior(self) -> BetaParams:
        return BetaParams(self.prior_x, self.prior_y)

    def unit_information(self) -> UnitInformation:
        return UnitInformation(self.kappa2)


# ---------------------------------------------------------------------------
# Input parsing
# ---------------------------------------------------------------------------


def _number(value, field: str, line: int | None = None, *, kind: type = float,
            text: bool = False) -> float | int:
    """Strict numeric coercion at the input boundary.

    Takes a JSON number or, with ``text`` (CSV cells), a string that parses
    as one. Booleans, null, other strings and other types are rejected, and
    an ``int`` field takes integral values only.
    """
    if text and isinstance(value, str):
        try:
            value = float(value)
        except ValueError:
            pass
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if number and (kind is float or isinstance(value, int) or value.is_integer()):
        try:
            return kind(value)
        except OverflowError:  # an integer beyond the float range
            pass
    noun = "an integer" if kind is int else "a number"
    raise InputValidationError(f"{field} must be {noun}, got {value!r}", field=field, line=line)


def _record_from_mapping(data: dict, line: int | None = None, text: bool = False) -> StudyRecord:
    if not isinstance(data, dict):
        raise InputValidationError(
            f"a record must be an object, got {data!r}", field="record", line=line
        )
    known = {"id", "role", "effect_type", "estimate", "se", "n", "sample_size"}
    unknown = set(data) - known
    if unknown:
        raise InputValidationError(
            f"unknown record fields: {sorted(unknown)}", field=",".join(sorted(unknown)), line=line
        )
    missing = {"id", "role", "effect_type", "estimate"} - set(data)
    if missing:
        raise InputValidationError(
            f"record missing fields: {sorted(missing)}", field=",".join(sorted(missing)), line=line
        )
    n = data.get("n", data.get("sample_size"))
    record = StudyRecord(
        id=str(data["id"]),
        role=str(data["role"]),
        effect_type=str(data["effect_type"]),
        estimate=_number(data["estimate"], "estimate", line, text=text),
        se=None if data.get("se") is None else _number(data["se"], "se", line, text=text),
        n=None if n is None else _number(n, "n", line, kind=int, text=text),
    )
    record.validate(line)
    return record


def _records_from_csv(text: str) -> list[StudyRecord]:
    reader = csv.DictReader(io.StringIO(text))
    required = {"id", "role", "effect_type", "estimate"}
    if reader.fieldnames is None or not required.issubset(set(reader.fieldnames)):
        raise InputValidationError(
            f"CSV header must contain {sorted(required)} (plus se and/or n)",
            field="header",
            line=1,
        )
    records = []
    for line, row in enumerate(reader, start=2):
        data = {key: row[key] for key in required}
        data.update({key: row[key] for key in ("se", "n") if row.get(key)})
        records.append(_record_from_mapping(data, line, text=True))
    return records


def load_input(path: str | Path) -> tuple[list[StudyRecord], dict]:
    """Parse an input file; returns records and any embedded config.

    Accepts a CSV table, a JSON array of records, or a previously emitted
    JSON report (whose input echo and config are reused).
    """
    text = Path(path).read_text(encoding="utf-8")
    stripped = text.lstrip()
    if stripped.startswith("[") or stripped.startswith("{"):
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InputValidationError(
                f"invalid JSON input: {exc.msg}", line=exc.lineno
            ) from None
        if isinstance(payload, list):
            payload = {"records": payload}
        if not isinstance(payload, dict):
            raise InputValidationError("JSON input must be an array of records or a previous report")
        # A previous report holds its records in its input echo.
        body = payload.get("input", {})
        if not isinstance(body, dict):
            raise InputValidationError(f"input must be an object, got {body!r}", field="input")
        if "records" not in body:
            body = payload
        records, config = body.get("records"), payload.get("config", {})
        if not isinstance(records, list):
            raise InputValidationError(f"records must be a list, got {records!r}", field="records")
        if not isinstance(config, dict):
            raise InputValidationError(f"config must be an object, got {config!r}", field="config")
        return [_record_from_mapping(rec) for rec in records], config
    return _records_from_csv(text), {}


def _studies(records: list[StudyRecord], roles: tuple[str, ...] = ROLES) -> list[Study]:
    """The one record of each role, in the order given, as studies."""
    chosen = []
    for role in roles:
        matches = [r for r in records if r.role == role]
        if len(matches) != 1:
            raise InputValidationError(
                f"need exactly one {role} record, got {len(matches)}", field="role"
            )
        chosen.extend(matches)
    return [r.to_study() for r in chosen]


# ---------------------------------------------------------------------------
# Report assembly
# ---------------------------------------------------------------------------


def _bf_entry(result) -> dict:
    return {
        "log_bf": result.log_bf,
        "bf": result.bf,
        "formatted": result.formatted(),
        "numerator": result.orientation[0],
        "denominator": result.orientation[1],
        "quadrature_err": result.quadrature_err,
    }


def _envelope(command: str, config: AnalysisConfig, records: list[StudyRecord],
              results: dict, max_err: float) -> dict:
    return {
        "command": command,
        "version": __version__,
        "config": asdict(config),
        "input": {"records": [r.to_dict() for r in records]},
        "results": results,
        "diagnostics": {"quadrature": asdict(config.quad()), "max_err_estimate": max_err},
    }


def _write_grid_csv(path: Path, header: list[str], columns: list[np.ndarray]) -> None:
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in zip(*columns):
            writer.writerow([repr(float(v)) for v in row])


def _export_grids(grid_out: Path, grids: dict[str, tuple[list[str], list[np.ndarray]]]) -> dict:
    """Write each ``{filename: (header, columns)}`` entry as a CSV file in
    ``grid_out``; returns the report's ``grids`` entry."""
    grid_out.mkdir(parents=True, exist_ok=True)
    for name, (header, columns) in grids.items():
        _write_grid_csv(grid_out / name, header, columns)
    return {"dir": str(grid_out), "files": list(grids)}


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_estimate(records: list[StudyRecord], config: AnalysisConfig,
                 grid_out: Path | None) -> dict:
    pair = StudyPair(*_studies(records))
    prior = config.prior()
    quad = config.quad()

    tgrid = theta_grid(pair, prior, num=config.grid_points, span=config.theta_span, quad=quad)
    theta_summary = summarize(
        tgrid,
        config.ci_level,
        density_fn=lambda t: marginal_posterior_theta(t, pair, prior, quad),
    )
    agrid = alpha_grid(pair, prior, num=config.grid_points, alpha_min=config.alpha_min, quad=quad)
    alpha_summary = summarize(agrid, config.ci_level)
    mode = alpha_mode(pair, prior, num=config.grid_points, alpha_min=config.alpha_min, quad=quad)

    check_alphas = np.linspace(config.alpha_min, 1.0, 200)
    check_dens = marginal_posterior_alpha(check_alphas, pair, prior, quad)
    monotone = bool(np.all(np.diff(check_dens) > 0))

    ev_err = evidence_and_error(pair, prior, quad).err_estimate

    results = {
        "theta": asdict(theta_summary),
        "alpha": {
            **asdict(alpha_summary),
            "mode": mode,
            "monotone_increasing": monotone,
            "empirical_bayes": alpha_empirical_bayes(pair),
        },
    }
    if grid_out is not None:
        jgrid = joint_grid(
            pair, prior,
            num_theta=config.grid_points, num_alpha=config.grid_points,
            span=config.theta_span, alpha_min=config.alpha_min, quad=quad,
        )
        ref_alphas = np.linspace(config.alpha_min, 1.0, config.grid_points)
        results["grids"] = _export_grids(grid_out, {
            "theta_marginal.csv": (["theta", "logdens"], [tgrid.axis1, tgrid.logdens]),
            "alpha_marginal.csv": (["alpha", "logdens"], [agrid.axis1, agrid.logdens]),
            "joint_posterior.csv": (
                ["theta", "alpha", "logdens"],
                [
                    np.repeat(jgrid.axis1, jgrid.axis2.size),
                    np.tile(jgrid.axis2, jgrid.axis1.size),
                    jgrid.logdens.ravel(),
                ],
            ),
            "alpha_limiting_reference.csv": (
                ["alpha", "logdens"],
                [ref_alphas, limiting_alpha_posterior_logdensity(ref_alphas)],
            ),
        })
    return _envelope("estimate", config, records, results, ev_err)


def cmd_test(records: list[StudyRecord], config: AnalysisConfig,
             grid_out: Path | None) -> dict:
    pair = StudyPair(*_studies(records))
    quad = config.quad()

    power = bf01_power_prior(pair, config.prior(), quad)
    replication = bf01_replication(pair)
    dc_point = bf_dc_point(pair, config.unit_information())
    dc_beta = bf_dc_beta(pair, config.bf_y, quad)
    max_err = max(0.0, *(r.quadrature_err for r in (power, replication, dc_point, dc_beta)))

    results = {
        "bf01_power_prior": _bf_entry(power),
        "bf01_replication": _bf_entry(replication),
        "bf_dc_point": _bf_entry(dc_point),
        "bf_dc_beta": _bf_entry(dc_beta),
    }
    if config.limits_true_effect is not None:
        theta_true = config.limits_true_effect
        point_limit = bf_dc_point_limit(theta_true, pair.original, config.unit_information())
        beta_limit = bf_dc_beta_limit(theta_true, pair.original, config.bf_y)
        results["limits"] = {
            "true_effect": theta_true,
            "bf_dc_point_limit": {"value": point_limit, "formatted": format_bf(point_limit)},
            "bf_dc_beta_limit": {"value": beta_limit, "formatted": format_bf(beta_limit)},
        }
    return _envelope("test", config, records, results, max_err)


def cmd_design(records: list[StudyRecord], config: AnalysisConfig,
               grid_out: Path | None) -> dict:
    [original] = _studies(records, ("original",))
    sigma_grid = default_sigma_grid(
        original,
        rel_min=config.design_rel_size_min,
        rel_max=config.design_rel_size_max,
        num=config.design_grid_points,
    )

    spec = DesignSpec(
        original=original,
        ui=config.unit_information(),
        gamma=config.gamma,
        target_power=config.target_power,
        hypothesis=config.hypothesis,
    )
    result = find_design(spec, sigma_grid)

    curves: dict[str, list[float]] = {}
    for sought in ("compatible", "different"):
        sought_spec = replace(spec, hypothesis=sought)
        for true in ("compatible", "different"):
            key = f"prs_for_{sought}_under_{true}"
            curves[key] = [
                prob_replication_success(float(s), sought_spec, true) for s in sigma_grid
            ]

    results = {
        "design": {
            **asdict(result),
            "hypothesis": spec.hypothesis,
            "gamma": spec.gamma,
            "target_power": spec.target_power,
        },
        "curve_summary": {
            "max_misleading_for_compatible_under_different": max(
                curves["prs_for_compatible_under_different"]
            ),
        },
    }
    if grid_out is not None:
        sigmas = np.asarray(sigma_grid)
        n_r = np.array([sigma_to_n(float(s)) for s in sigma_grid], dtype=float)
        results["grids"] = _export_grids(grid_out, {
            "prs_curves.csv": (
                ["sigma_r", "relative_size", "n_r"] + list(curves),
                [sigmas, original.variance / sigmas**2, n_r]
                + [np.asarray(v) for v in curves.values()],
            ),
        })
    return _envelope("design", config, records, results, 0.0)


def cmd_bridge(records: list[StudyRecord], config: AnalysisConfig,
               grid_out: Path | None) -> dict:
    pair = StudyPair(*_studies(records))
    prior = config.prior()
    quad = config.quad()
    sigma2_o = pair.original.variance

    alphas = np.round(np.linspace(0.1, 1.0, 10), 10)
    mapping = [
        {
            "alpha": float(a),
            "tau2": alpha_to_tau2(float(a), sigma2_o),
            "i2": alpha_to_I2(float(a)),
        }
        for a in alphas
    ]

    gf = tau2_prior_from_alpha_prior(prior, sigma2_o)
    gbe = I2_prior_from_alpha_prior(prior)

    thetas = theta_lattice(pair, num=config.grid_points, span=config.theta_span)
    hier_logdens = np.array(
        [hier_marginal_posterior_theta_r(float(t), pair, gf, quad) for t in thetas]
    )
    power_logdens = np.array(
        [marginal_posterior_theta(float(t), pair, prior, quad) for t in thetas]
    )
    max_diff = float(np.max(np.abs(hier_logdens - power_logdens)))

    results = {
        "mapping": mapping,
        "tau2_prior": {"family": "generalized_f", **asdict(gf)},
        "i2_prior": {"family": "generalized_beta", **asdict(gbe)},
        "overlay_max_abs_logdens_diff": max_diff,
    }
    if grid_out is not None:
        tau2s = np.linspace(1e-8, alpha_to_tau2(0.05, sigma2_o), config.grid_points)
        i2s = np.linspace(0.0, 1.0, config.grid_points)
        results["grids"] = _export_grids(grid_out, {
            "posterior_overlay.csv": (
                ["theta", "logdens_power_prior", "logdens_hierarchical"],
                [thetas, power_logdens, hier_logdens],
            ),
            "tau2_prior_density.csv": (["tau2", "logdens"], [tau2s, gf_logpdf(tau2s, gf)]),
            "i2_prior_density.csv": (["i2", "logdens"], [i2s, gbeta_logpdf(i2s, gbe)]),
        })
    return _envelope("bridge", config, records, results, 0.0)


# ---------------------------------------------------------------------------
# Output rendering and entry point
# ---------------------------------------------------------------------------


def _flatten(prefix: str, value, rows: list[tuple[str, str]]) -> None:
    if isinstance(value, dict):
        for key, sub in value.items():
            _flatten(f"{prefix}.{key}" if prefix else str(key), sub, rows)
    elif isinstance(value, list):
        for i, sub in enumerate(value):
            _flatten(f"{prefix}[{i}]", sub, rows)
    else:
        rows.append((prefix, repr(value) if isinstance(value, float) else str(value)))


def render_report(report: dict, output_format: str) -> str:
    if output_format == "json":
        return json.dumps(report, indent=2, allow_nan=True)
    rows: list[tuple[str, str]] = []
    _flatten("", report["results"], rows)
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["key", "value"])
    writer.writerows(rows)
    return out.getvalue().rstrip("\n")


COMMANDS = {
    "estimate": cmd_estimate,
    "test": cmd_test,
    "design": cmd_design,
    "bridge": cmd_bridge,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pprep",
        description=(
            "Power-prior analysis of replication studies: estimation, "
            "Bayes factor tests, replication design, and the hierarchical-"
            "model correspondence."
        ),
    )
    parser.add_argument("--version", action="version", version=f"pprep {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    help_text = {
        "estimate": "posterior summaries and density grids for effect size and power parameter",
        "test": "Bayes factor table (effect tests and compatibility tests)",
        "design": (
            "replication success probabilities over a grid of standard errors; "
            "the strong-evidence threshold gamma defaults to 1/10 by convention"
        ),
        "bridge": "alpha/tau2/I2 correspondence and matched hierarchical posteriors",
    }
    for name, fn in COMMANDS.items():
        p = sub.add_parser(name, help=help_text[name])
        p.add_argument("--input", required=True, help="CSV or JSON study records")
        p.add_argument("--config", default=None, help="JSON analysis configuration")
        p.add_argument("--grid-out", default=None, help="directory for CSV grid exports")
        p.add_argument(
            "--format", choices=("json", "csv"), default=None,
            help="report format (default json; grids are always CSV)",
        )
    return parser


def _load_config(path: str | None, embedded: dict) -> AnalysisConfig:
    data = dict(embedded)
    if path is not None:
        try:
            file_data = json.loads(Path(path).read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise InputValidationError(
                f"invalid JSON config: {exc.msg}", line=exc.lineno
            ) from None
        if not isinstance(file_data, dict):
            raise InputValidationError("config file must hold a JSON object")
        data.update(file_data)
    return AnalysisConfig.from_dict(data)


def _error_payload(exc: Exception, kind: str) -> str:
    payload = {
        "error": {
            "type": kind,
            "class": type(exc).__name__,
            "message": str(exc),
        }
    }
    for attr in ("field", "line"):
        value = getattr(exc, attr, None)
        if value is not None:
            payload["error"][attr] = value
    if isinstance(exc, ConvergenceError):
        payload["error"]["best_estimate"] = exc.best_estimate
        payload["error"]["err_estimate"] = exc.err_estimate
    return json.dumps(payload)


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        records, embedded_config = load_input(args.input)
        config = _load_config(args.config, embedded_config)
        if args.format is not None:
            config = replace(config, output_format=args.format)
        grid_out = None if args.grid_out is None else Path(args.grid_out)
        report = COMMANDS[args.command](records, config, grid_out)
    except (InputValidationError, DomainError) as exc:
        print(_error_payload(exc, "validation"), file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(_error_payload(exc, "non-convergence"), file=sys.stderr)
        return 3
    except PprepError as exc:
        print(_error_payload(exc, "error"), file=sys.stderr)
        return 3
    except OSError as exc:
        print(_error_payload(exc, "io"), file=sys.stderr)
        return 2
    print(render_report(report, config.output_format))
    return 0


if __name__ == "__main__":
    sys.exit(main())
