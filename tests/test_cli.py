"""Command-line interface: parsing, reports, grids, and exit codes."""

from __future__ import annotations

import csv
import json
import math

import numpy as np
import pytest

import pprep.inference
from pprep.cli import AnalysisConfig, StudyRecord, load_input, main
from pprep.exceptions import InputValidationError

LABELS_ORIGINAL = {
    "id": "labels-original",
    "role": "original",
    "effect_type": "smd",
    "estimate": 0.21,
    "se": 0.05,
}


def write_pair(tmp_path, name, rep_estimate, rep_se):
    records = [
        LABELS_ORIGINAL,
        {
            "id": "labels-rep",
            "role": "replication",
            "effect_type": "smd",
            "estimate": rep_estimate,
            "se": rep_se,
        },
    ]
    path = tmp_path / name
    path.write_text(json.dumps(records), encoding="utf-8")
    return path


def run_json(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return json.loads(captured.out)


class TestInputParsing:
    def test_csv_round_trip_matches_json(self, tmp_path):
        csv_path = tmp_path / "pair.csv"
        csv_path.write_text(
            "id,role,effect_type,estimate,se,n\n"
            "o,original,smd,0.21,0.05,\n"
            "r,replication,smd,0.09,0.05,\n",
            encoding="utf-8",
        )
        json_path = write_pair(tmp_path, "pair.json", 0.09, 0.05)
        csv_records, _ = load_input(csv_path)
        json_records, _ = load_input(json_path)
        assert [r.to_study() for r in csv_records] == [r.to_study() for r in json_records]

    def test_sample_size_distills_to_se(self, tmp_path):
        path = tmp_path / "n.json"
        path.write_text(
            json.dumps(
                [
                    {"id": "o", "role": "original", "effect_type": "smd",
                     "estimate": 0.21, "n": 1577},
                    {"id": "r", "role": "replication", "effect_type": "smd",
                     "estimate": 0.09, "se": 0.05},
                ]
            ),
            encoding="utf-8",
        )
        records, _ = load_input(path)
        assert records[0].resolved_se() == pytest.approx(math.sqrt(4.0 / 1577.0))

    def test_smd_needs_exactly_one_of_se_and_n(self):
        with pytest.raises(InputValidationError):
            StudyRecord("a", "original", "smd", 0.2, se=0.05, n=100).validate()
        with pytest.raises(InputValidationError):
            StudyRecord("a", "original", "smd", 0.2).validate()

    def test_non_smd_needs_se(self):
        with pytest.raises(InputValidationError):
            StudyRecord("a", "original", "logor", 0.2, n=100).validate()
        StudyRecord("a", "original", "logor", 0.2, se=0.1).validate()

    def test_unknown_config_key_rejected(self):
        with pytest.raises(InputValidationError):
            AnalysisConfig.from_dict({"piror_x": 2.0})

    def test_grid_sizes_accepted_up_to_the_cap(self):
        # One more point on either key exits 2 (test_strict_types_at_the_boundary).
        config = AnalysisConfig.from_dict({"grid_points": 2001, "design_grid_points": 2001})
        assert config.grid_points == config.design_grid_points == 2001

    def test_parse_error_reports_line_and_field(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text(
            "id,role,effect_type,estimate,se,n\no,original,smd,oops,0.05,\n",
            encoding="utf-8",
        )
        code = main(["test", "--input", str(path)])
        err = json.loads(capsys.readouterr().err)
        assert code == 2
        assert err["error"]["type"] == "validation"
        assert err["error"]["field"] == "estimate"
        assert err["error"]["line"] == 2

    @pytest.mark.parametrize(
        "record,top,field",
        [
            ({"estimate": "abc"}, {}, "estimate"),
            ({"estimate": None}, {}, "estimate"),
            ({"estimate": True}, {}, "estimate"),
            ({"se": "0.05"}, {}, "se"),
            ({"se": None, "n": 100.7}, {}, "n"),
            (5, {}, "record"),
            ({}, {"config": {"grid_points": "401"}}, "grid_points"),
            ({}, {"config": {"design_grid_points": 0}}, "design_grid_points"),
            ({}, {"config": {"grid_points": 2002}}, "grid_points"),
            ({}, {"config": {"design_grid_points": 2002}}, "design_grid_points"),
            ({}, {"config": None}, "config"),
            ({}, {"config": [1, 2]}, "config"),
            ({}, {"config": "x"}, "config"),
            ({}, {"records": 5}, "records"),
            ({}, {"records": {"a": 1}}, "records"),
            ({}, {"input": None}, "input"),
            ({}, {"input": 5}, "input"),
            ({}, {"input": {"records": None}}, "records"),
        ],
        ids=["string", "null", "boolean", "string-se", "fractional-n", "non-object",
             "string-config", "small-design-grid", "huge-grid", "huge-design-grid",
             "null-config", "array-config",
             "string-config-object", "number-records", "object-records", "null-input",
             "number-input", "null-echoed-records"],
    )
    def test_strict_types_at_the_boundary(self, tmp_path, capsys, record, top, field):
        replication = record if not isinstance(record, dict) else {
            "id": "labels-rep", "role": "replication", "effect_type": "smd",
            "estimate": 0.09, "se": 0.05, **record,
        }
        path = tmp_path / "typed.json"
        path.write_text(
            json.dumps({"records": [LABELS_ORIGINAL, replication], "config": {}, **top}),
            encoding="utf-8",
        )
        code = main(["test", "--input", str(path)])
        err = json.loads(capsys.readouterr().err)
        assert code == 2
        assert err["error"]["type"] == "validation"
        assert err["error"]["field"] == field

    def test_duplicate_original_rejected(self, tmp_path, capsys):
        path = tmp_path / "dup.json"
        path.write_text(
            json.dumps([LABELS_ORIGINAL, LABELS_ORIGINAL]), encoding="utf-8"
        )
        code = main(["estimate", "--input", str(path)])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "validation"

    def test_nonconvergence_exits_three_with_best_estimate(self, tmp_path, capsys):
        pair = write_pair(tmp_path, "rep1.json", 0.09, 0.05)
        config = tmp_path / "tight.json"
        config.write_text(
            json.dumps({"max_subdivisions": 1, "rel_tol": 1e-13, "abs_tol": 1e-300}),
            encoding="utf-8",
        )
        code = main(["test", "--input", str(pair), "--config", str(config)])
        err = json.loads(capsys.readouterr().err)
        assert code == 3
        assert err["error"]["type"] == "non-convergence"
        assert math.isfinite(err["error"]["best_estimate"])
        assert err["error"]["err_estimate"] > 0


class TestEstimateCommand:
    def test_compatible_replication_flags_monotone_alpha(self, tmp_path, capsys):
        path = write_pair(tmp_path, "rep2.json", 0.21, 0.06)
        report = run_json(capsys, ["estimate", "--input", str(path)])
        alpha = report["results"]["alpha"]
        assert alpha["monotone_increasing"] is True
        assert alpha["mode"] == pytest.approx(1.0, abs=1e-3)

    def test_conflicting_replication_alpha_mode(self, tmp_path, capsys):
        path = write_pair(tmp_path, "rep3.json", 0.44, 0.04)
        report = run_json(capsys, ["estimate", "--input", str(path)])
        assert report["results"]["alpha"]["mode"] == pytest.approx(0.05, abs=0.02)

    def test_identical_studies_recover_shared_estimate(self, tmp_path, capsys):
        path = write_pair(tmp_path, "same.json", 0.21, 0.05)
        report = run_json(capsys, ["estimate", "--input", str(path)])
        assert report["results"]["theta"]["mean"] == pytest.approx(0.21, abs=1e-9)

    def test_grid_exports(self, tmp_path, capsys):
        path = write_pair(tmp_path, "rep1.json", 0.09, 0.05)
        grid_dir = tmp_path / "grids"
        report = run_json(
            capsys, ["estimate", "--input", str(path), "--grid-out", str(grid_dir)]
        )
        assert set(report["results"]["grids"]["files"]) == {
            "theta_marginal.csv",
            "alpha_marginal.csv",
            "joint_posterior.csv",
            "alpha_limiting_reference.csv",
        }
        with (grid_dir / "theta_marginal.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 401
        thetas = np.array([float(r["theta"]) for r in rows])
        dens = np.exp(np.array([float(r["logdens"]) for r in rows]))
        assert np.trapezoid(dens, thetas) == pytest.approx(1.0, abs=1e-6)
        with (grid_dir / "joint_posterior.csv").open() as fh:
            joint_rows = list(csv.DictReader(fh))
        assert len(joint_rows) == 401 * 401
        assert set(joint_rows[0]) == {"theta", "alpha", "logdens"}


class TestTestCommand:
    def test_labels_rep1_bayes_factor_row(self, tmp_path, capsys):
        path = write_pair(tmp_path, "rep1.json", 0.09, 0.05)
        report = run_json(capsys, ["test", "--input", str(path)])
        results = report["results"]
        assert results["bf01_power_prior"]["formatted"] == "1/1.1"
        assert results["bf01_replication"]["formatted"] == "1.2"
        assert results["bf_dc_point"]["formatted"] == "1/4.8"
        assert results["bf_dc_beta"]["formatted"] == "1.3"

    def test_limits_block_via_config(self, tmp_path, capsys):
        path = write_pair(tmp_path, "same.json", 0.21, 0.05)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"limits_true_effect": 0.21}), encoding="utf-8")
        report = run_json(
            capsys, ["test", "--input", str(path), "--config", str(config)]
        )
        limits = report["results"]["limits"]
        assert 1.0 / limits["bf_dc_point_limit"]["value"] == pytest.approx(28.0, rel=0.05)
        assert limits["bf_dc_beta_limit"]["value"] == pytest.approx(8.0 / 15.0, abs=1e-10)

    def test_report_reingestion_is_bit_for_bit(self, tmp_path, capsys):
        path = write_pair(tmp_path, "rep1.json", 0.09, 0.05)
        first = main(["test", "--input", str(path)])
        out1 = capsys.readouterr().out
        assert first == 0
        again = tmp_path / "report.json"
        again.write_text(out1, encoding="utf-8")
        second = main(["test", "--input", str(again)])
        out2 = capsys.readouterr().out
        assert second == 0
        assert out1 == out2

    def test_csv_format(self, tmp_path, capsys):
        path = write_pair(tmp_path, "rep1.json", 0.09, 0.05)
        code = main(["test", "--input", str(path), "--format", "csv"])
        out = capsys.readouterr().out
        assert code == 0
        rows = {r["key"]: r["value"] for r in csv.DictReader(out.splitlines())}
        assert rows["bf01_power_prior.formatted"] == "1/1.1"
        assert float(rows["bf01_replication.bf"]) == pytest.approx(1.1813, abs=1e-3)


class TestDesignCommand:
    def test_curves_and_design_point(self, tmp_path, capsys):
        path = write_pair(tmp_path, "rep2.json", 0.21, 0.06)
        grid_dir = tmp_path / "grids"
        report = run_json(
            capsys, ["design", "--input", str(path), "--grid-out", str(grid_dir)]
        )
        design = report["results"]["design"]
        assert design["attained"] is True
        assert design["prs_under_compatible"] >= 0.8
        assert report["results"]["curve_summary"][
            "max_misleading_for_compatible_under_different"
        ] < 0.05
        with (grid_dir / "prs_curves.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 60
        for row in rows:
            assert float(row["prs_for_compatible_under_different"]) < 0.05
        climb = [float(r["prs_for_different_under_different"]) for r in rows]
        assert all(b >= a - 1e-12 for a, b in zip(climb, climb[1:]))

    def test_gamma_one_trivial_threshold(self, tmp_path, capsys):
        path = write_pair(tmp_path, "rep2.json", 0.21, 0.06)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"gamma": 1.0}), encoding="utf-8")
        report = run_json(
            capsys, ["design", "--input", str(path), "--config", str(config)]
        )
        assert report["results"]["design"]["prs_under_compatible"] > 0.5

    def test_unattainable_target_reported(self, tmp_path, capsys):
        path = write_pair(tmp_path, "rep2.json", 0.21, 0.06)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"target_power": 0.999}), encoding="utf-8")
        report = run_json(
            capsys, ["design", "--input", str(path), "--config", str(config)]
        )
        design = report["results"]["design"]
        assert design["attained"] is False
        assert design["prs_under_compatible"] < 0.999


class TestBridgeCommand:
    def test_mapping_and_overlay(self, tmp_path, capsys):
        path = write_pair(tmp_path, "rep1.json", 0.09, 0.05)
        grid_dir = tmp_path / "grids"
        report = run_json(
            capsys, ["bridge", "--input", str(path), "--grid-out", str(grid_dir)]
        )
        results = report["results"]
        assert results["tau2_prior"] == {
            "family": "generalized_f", "a": 1.0, "b": 1.0, "lam": pytest.approx(800.0)
        }
        assert results["i2_prior"]["lam"] == 2.0
        assert results["overlay_max_abs_logdens_diff"] < 1e-5
        first = results["mapping"][0]
        assert first["alpha"] == pytest.approx(0.1)
        assert first["tau2"] == pytest.approx((1 / 0.1 - 1) * 0.0025 / 2)
        assert first["i2"] == pytest.approx((1 - 0.1) / (1 + 0.1))
        with (grid_dir / "posterior_overlay.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        diffs = [
            abs(float(r["logdens_power_prior"]) - float(r["logdens_hierarchical"]))
            for r in rows
        ]
        assert max(diffs) < 1e-5

    def test_power_prior_marginal_evaluated_once_per_point(self, tmp_path, capsys, monkeypatch):
        calls = []
        log_kummer_m = pprep.inference.log_kummer_m

        def counted(*args):
            calls.append(args)
            return log_kummer_m(*args)

        monkeypatch.setattr(pprep.inference, "log_kummer_m", counted)
        path = write_pair(tmp_path, "rep1.json", 0.09, 0.05)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"grid_points": 26}), encoding="utf-8")
        run_json(capsys, ["bridge", "--input", str(path), "--config", str(config)])
        assert len(calls) == 26


class TestReproducibilityBlock:
    def test_envelope_contents(self, tmp_path, capsys):
        path = write_pair(tmp_path, "rep1.json", 0.09, 0.05)
        report = run_json(capsys, ["test", "--input", str(path)])
        assert report["version"]
        assert report["config"]["kappa2"] == 2.0
        assert report["diagnostics"]["quadrature"]["rel_tol"] == 1e-10
        assert report["diagnostics"]["max_err_estimate"] < 1e-8
        echoed = report["input"]["records"]
        assert echoed[0]["estimate"] == 0.21
