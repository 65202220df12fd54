import json
import os
import subprocess
import sys

import numpy as np
import pytest

from codazzi import ConstructionError, SchemaError
from codazzi.charts import ChartStructure
from codazzi.generators import GeneratorSpec, generate
from codazzi.structures_io import (
    canonical_json,
    emit,
    ingest,
    stat_point_from_dict,
)
from codazzi.suites import SuiteConfig, run_suite

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EQUALITY_FILE = os.path.join(REPO, "demos", "structures", "equality_point_2d.json")


class TestStatPointIO:
    def test_shipped_equality_file(self):
        sp = ingest(EQUALITY_FILE)
        k = sp.K.array
        assert np.allclose(k[:, 0, 0], [0.0, 1.0])  # K(e1,e1) = e2
        assert np.allclose(k[:, 0, 1], [1.0, 0.0])  # K(e1,e2) = e1
        assert np.allclose(k[:, 1, 1], [0.0, 3.0])  # K(e2,e2) = 3 e2

    def test_round_trip_identity(self, tmp_path):
        sp = ingest(EQUALITY_FILE)
        text = emit(sp)
        path = tmp_path / "copy.json"
        path.write_text(text + "\n")
        again = emit(ingest(path))
        assert again == text

    def test_empty_file_is_schema_error(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text("")
        with pytest.raises(SchemaError, match="invalid JSON"):
            ingest(path)

    def test_non_spd_metric_names_minor(self):
        data = {"n": 2, "g": [[1.0, 2.0], [2.0, 1.0]], "A": {}}
        with pytest.raises(ConstructionError, match="minor 2"):
            stat_point_from_dict(data)

    def test_bad_cubic_key_has_pointer(self):
        data = {"n": 2, "g": [[1.0, 0.0], [0.0, 1.0]], "A": {"211": 1.0}}
        with pytest.raises(SchemaError, match="/A/211"):
            stat_point_from_dict(data)

    def test_missing_key_reported(self):
        with pytest.raises(SchemaError, match="/g"):
            stat_point_from_dict({"n": 2, "A": {}})

    def test_out_of_range_key(self):
        data = {"n": 2, "g": [[1.0, 0.0], [0.0, 1.0]], "A": {"113": 1.0}}
        with pytest.raises(SchemaError, match="out of range"):
            stat_point_from_dict(data)


class TestChartIO:
    def test_round_trip_with_fields(self, tmp_path):
        data = {
            "n": 2,
            "domain": [[0.0, 6.283185307179586], [0.0, 6.283185307179586]],
            "periodic": [True, True],
            "h": 0.001,
            "g": [["exp(0.5*sin(x1))", "0"], ["0", "exp(0.5*sin(x1))"]],
            "A": {"111": "0.2*cos(x2)"},
            "fields": {"tau": {"degree": 1, "components": {"1": "sin(x1)", "2": "0.5"}}},
        }
        path = tmp_path / "chart.json"
        path.write_text(json.dumps(data))
        cs = ingest(path)
        assert isinstance(cs, ChartStructure)
        assert cs.periodic == (True, True)
        assert "tau" in cs.aux_fields
        tau = cs.aux_fields["tau"].fn(np.array([0.7, 0.0]))
        assert tau[0] == pytest.approx(np.sin(0.7))
        text = emit(cs)
        path2 = tmp_path / "chart2.json"
        path2.write_text(text + "\n")
        assert emit(ingest(path2)) == text

    def test_generated_charts_round_trip(self, tmp_path):
        for family, params in (
            ("G2-hessian-potential", {}),
            ("G4-random-smooth", {}),
            ("G5-periodic-trig", {"variant": "conformal"}),
        ):
            cs = generate(GeneratorSpec(family, seed=2, params=params))
            text = emit(cs)
            path = tmp_path / "x.json"
            path.write_text(text + "\n")
            assert emit(ingest(path)) == text

    def test_generator_determinism(self):
        for family, params in (
            ("G2-hessian-potential", {}),
            ("G4-random-smooth", {}),
            ("G5-periodic-trig", {"variant": "generic"}),
        ):
            a = emit(generate(GeneratorSpec(family, seed=11, params=params)))
            b = emit(generate(GeneratorSpec(family, seed=11, params=params)))
            assert a == b

    def test_expression_error_is_schema_error(self, tmp_path):
        data = {"n": 2, "domain": [[0, 1], [0, 1]],
                "g": [["1", "0"], ["0", "nope(x1)"]], "A": {}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        with pytest.raises(SchemaError, match="unknown name"):
            ingest(path)


class TestCanonicalJson:
    def test_sorted_keys_and_float_format(self):
        text = canonical_json({"b": 1.5, "a": [1, 2.0, True]})
        assert text == '{"a": [1, 2.0, true], "b": 1.5}'

    def test_seventeen_digits_round_trip(self):
        value = 0.1 + 0.2
        parsed = json.loads(canonical_json({"v": value}))
        assert parsed["v"] == value

    def test_rejects_nan(self):
        with pytest.raises(SchemaError):
            canonical_json({"v": float("nan")})


class TestReports:
    def test_determinism_modulo_timing(self):
        cfg = SuiteConfig(seeds=1, sweep_count=200)
        a = run_suite("algebraic", cfg).to_json(include_timing=False)
        b = run_suite("algebraic", cfg).to_json(include_timing=False)
        assert a == b

    def test_schema_field(self):
        rep = run_suite("algebraic", SuiteConfig(seeds=1, sweep_count=100))
        data = json.loads(rep.to_json())
        assert data["schema"] == "codazzi-report/1"
        assert data["summary"]["failed"] == 0
        assert all(
            c["verdict"] in ("pass", "fail", "precondition-skipped") for c in data["checks"]
        )

    def test_csv_row_per_check(self):
        rep = run_suite("algebraic", SuiteConfig(seeds=1, sweep_count=100))
        lines = rep.to_csv().strip().split("\n")
        assert len(lines) == len(rep.checks) + 1


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "codazzi", *args],
        capture_output=True, text=True, cwd=REPO,
    )


class TestCLI:
    def test_verify_exit_zero_and_report(self, tmp_path):
        report = tmp_path / "report.json"
        out = run_cli("verify", "--suite", "algebraic", "--report", str(report),
                      "--emit-csv", "--sweep-count", "200", "--seeds", "1")
        assert out.returncode == 0, out.stderr
        data = json.loads(report.read_text())
        assert data["schema"] == "codazzi-report/1"
        assert (tmp_path / "report.csv").exists()

    def test_unknown_suite_usage_error(self):
        assert run_cli("verify", "--suite", "nope").returncode == 2

    def test_gen_and_check(self, tmp_path):
        out_file = tmp_path / "gen.json"
        out = run_cli("gen", "--family", "G3-2d-constant-curvature",
                      "--out", str(out_file), "--params", '{"a": 1.0, "b": 0.0}')
        assert out.returncode == 0, out.stderr
        check = run_cli("check", "--file", str(out_file))
        assert check.returncode == 0, check.stderr

    def test_check_equality_file(self):
        out = run_cli("check", "--file", EQUALITY_FILE)
        assert out.returncode == 0
        assert "eighth-inequality" in out.stdout

    def test_bad_params_json(self, tmp_path):
        out = run_cli("gen", "--family", "G1-constant-A",
                      "--out", str(tmp_path / "x.json"), "--params", "{bad")
        assert out.returncode == 2

    def test_schema_error_exit(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"n": 2, "g": [[1, 0], [0, 1]], "A": {"999": 1}}')
        out = run_cli("check", "--file", str(path))
        assert out.returncode == 2
        assert "schema error" in out.stderr

    def test_plot_emission(self, tmp_path):
        svg = tmp_path / "conv.svg"
        out = run_cli("verify", "--suite", "algebraic", "--sweep-count", "100",
                      "--seeds", "1", "--plot", str(svg))
        assert out.returncode == 0
        assert svg.read_text().startswith("<svg")

    def test_strict_mode_skips(self, tmp_path):
        # the simons suite contains an intentional precondition skip
        out = run_cli("verify", "--suite", "simons", "--strict", "--seeds", "1")
        assert out.returncode == 3

    def test_report_with_skipped_checks_serializes(self, tmp_path):
        # suites with precondition skips must still produce valid reports
        report = tmp_path / "simons.json"
        out = run_cli("verify", "--suite", "simons", "--seeds", "1",
                      "--report", str(report), "--emit-csv")
        assert out.returncode == 0, out.stderr
        data = json.loads(report.read_text())
        skipped = [c for c in data["checks"] if c["verdict"] == "precondition-skipped"]
        assert skipped and all(c["residual"] is None for c in skipped)
        assert (tmp_path / "simons.csv").exists()

    def test_check_has_no_suite_option(self):
        assert run_cli("check", "--suite", "integral", "--file", EQUALITY_FILE).returncode == 2

    @pytest.mark.parametrize("flag, value", [
        ("--h", "-1"), ("--h", "0"), ("--h", "nan"),
        ("--sweep-count", "0"), ("--seeds", "0"), ("--lattice", "0"), ("--fiber-nodes", "-2"),
        ("--tol-scale", "0"), ("--tol-scale", "inf"),
    ])
    def test_invalid_config_is_usage_error(self, flag, value):
        out = run_cli("verify", "--suite", "algebraic", "--seeds", "1", "--sweep-count", "100",
                      flag, value)
        assert out.returncode == 2, out.stdout + out.stderr
        assert "Traceback" not in out.stderr

    def test_default_tol_scale_env_var(self, tmp_path):
        report = tmp_path / "r.json"
        env = dict(os.environ, CODAZZI_DEFAULT_TOL_SCALE="2.5")
        out = subprocess.run(
            [sys.executable, "-m", "codazzi", "verify", "--suite", "algebraic",
             "--seeds", "1", "--sweep-count", "100", "--report", str(report)],
            capture_output=True, text=True, cwd=REPO, env=env,
        )
        assert out.returncode == 0
        assert json.loads(report.read_text())["environment"]["tol_scale"] == 2.5

    @pytest.mark.parametrize("value", ["abc", "-1", "nan"])
    def test_bad_default_tol_scale_env_var(self, value):
        env = dict(os.environ, CODAZZI_DEFAULT_TOL_SCALE=value)
        imported = subprocess.run([sys.executable, "-c", "import codazzi"],
                                  capture_output=True, text=True, cwd=REPO, env=env)
        assert imported.returncode == 0, imported.stderr
        out = subprocess.run(
            [sys.executable, "-m", "codazzi", "verify", "--suite", "algebraic",
             "--seeds", "1", "--sweep-count", "100"],
            capture_output=True, text=True, cwd=REPO, env=env,
        )
        assert out.returncode == 2
        assert "CODAZZI_DEFAULT_TOL_SCALE" in out.stderr
        # an explicit --tol-scale does not read the variable
        explicit = subprocess.run(
            [sys.executable, "-m", "codazzi", "verify", "--suite", "algebraic",
             "--seeds", "1", "--sweep-count", "100", "--tol-scale", "1"],
            capture_output=True, text=True, cwd=REPO, env=env,
        )
        assert explicit.returncode == 0, explicit.stderr


class TestNonFiniteInput:
    """Non-finite numbers in structure files and field values exit 2 with a clear message."""

    CHART = {"n": 2, "domain": [[0.0, 1.0], [0.0, 1.0]],
             "g": [["1", "0"], ["0", "1"]], "A": {"111": "0.5"}}

    def check(self, tmp_path, data):
        path = tmp_path / "structure.json"
        path.write_text(json.dumps(data))
        out = run_cli("check", "--file", str(path))
        assert out.returncode == 2, out.stdout + out.stderr
        assert "Traceback" not in out.stderr
        return out.stderr

    def test_chart_cubic_nan(self, tmp_path):
        err = self.check(tmp_path, dict(self.CHART, A={"111": float("nan")}))
        assert "/A/111" in err and "not finite" in err

    def test_chart_cubic_overflowing_constant(self, tmp_path):
        err = self.check(tmp_path, dict(self.CHART, A={"111": "1e400"}))
        assert "/A/111" in err and "not finite" in err

    def test_chart_field_overflow(self, tmp_path):
        err = self.check(tmp_path, dict(self.CHART, g=[["exp(800*x1)", "0"], ["0", "1"]]))
        assert "metric field is not finite at x=[1.0, 0.0]" in err

    def test_point_cubic_infinity(self, tmp_path):
        data = {"n": 2, "g": [[1.0, 0.0], [0.0, 1.0]], "A": {"111": float("inf")}}
        err = self.check(tmp_path, data)
        assert "/A/111" in err and "finite" in err


class TestSuiteConfigValidation:
    @pytest.mark.parametrize("field, value", [
        ("h", -1e-3), ("h", 0.0), ("h", float("inf")), ("seeds", 0), ("sweep_count", 0),
        ("lattice", -4), ("fiber_order", 0), ("tol_scale", 0.0), ("tol_scale", float("nan")),
    ])
    def test_rejected(self, field, value):
        with pytest.raises(ConstructionError, match=field):
            SuiteConfig(**{field: value})

    def test_environment_read_per_instance(self, monkeypatch):
        monkeypatch.setenv("CODAZZI_DEFAULT_TOL_SCALE", "3.5")
        assert SuiteConfig().tol_scale == 3.5
        monkeypatch.setenv("CODAZZI_DEFAULT_TOL_SCALE", "abc")
        with pytest.raises(ConstructionError, match="CODAZZI_DEFAULT_TOL_SCALE"):
            SuiteConfig()
        assert SuiteConfig(tol_scale=2.0).tol_scale == 2.0
