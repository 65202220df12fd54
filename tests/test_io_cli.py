import json
import os
import subprocess
import sys

import numpy as np
import pytest

from codazzi import ConstructionError, SchemaError
from codazzi.charts import ChartStructure
from codazzi.cli import main
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

    def test_timing_counts_expression_compiles(self):
        # a second run finds every field function of the first in the compile cache
        first = run_suite("simons").timing
        second = run_suite("simons").timing
        assert first["expression-compiles"] + first["expression-compile-hits"] > 0
        assert second["expression-compiles"] == 0
        assert second["expression-compile-hits"] == (
            first["expression-compiles"] + first["expression-compile-hits"])

    def test_timing_counts_factorizations_and_node_power_tables(self):
        # the integral suite factors each lattice batch once and reuses its node-power tables
        timing = run_suite("integral", SuiteConfig(lattice=8, fiber_order=4)).timing
        assert 0 < timing["metric-factor-batches"] < timing["metric-factor-matrices"]
        assert timing["node-power-hits"] > timing["node-power-misses"] > 0

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

    @pytest.mark.parametrize("args", [
        ["check", "--file", "{missing}/x.json"],
        ["check", "--file", "{tmp}"],
        ["verify", "--suite", "algebraic", "--seeds", "1", "--sweep-count", "100",
         "--report", "{missing}/r.json"],
        ["verify", "--suite", "algebraic", "--seeds", "1", "--sweep-count", "100",
         "--plot", "{missing}/p.svg"],
        ["gen", "--family", "G1-constant-A", "--out", "{missing}/g.json"],
    ], ids=["check-file-missing", "check-file-directory", "verify-report", "verify-plot",
            "gen-out"])
    def test_file_system_error_is_usage_error(self, tmp_path, capsys, args):
        argv = [a.format(tmp=tmp_path, missing=tmp_path / "missing") for a in args]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno") and "Traceback" not in err

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

    def test_simons_large_step_skips_sym2_and_writes_report(self, tmp_path):
        # at h = 5e-3 the FD nabla beta of the n = 3 sphere fails the symmetry
        # precondition of the sym2 Simons formula: its checks are skipped, not fatal
        report = tmp_path / "simons.json"
        out = run_cli("verify", "--suite", "simons", "--h", "5e-3", "--report", str(report))
        assert out.returncode in (0, 1), out.stderr
        checks = {c["id"]: c for c in json.loads(report.read_text())["checks"]}
        for check_id in ("sym2-simons-n3", "convergence-sym2-simons-n3-halving0",
                         "convergence-sym2-simons-n3-halving1"):
            assert checks[check_id]["verdict"] == "precondition-skipped"
            assert "nabla beta is not symmetric" in checks[check_id]["location"]
        assert checks["sym2-simons-n2"]["verdict"] == "pass"

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

    def test_chart_metric_at_the_float_limit(self, tmp_path):
        # symmetrizing 1e308 overflows: the factorization reports it, with no LinAlgError
        err = self.check(tmp_path, dict(self.CHART, g=[["1e308", "0"], ["0", "1"]]))
        assert err.count("\n") == 1 and "metric factors are not finite at x=" in err

    def test_point_cubic_infinity(self, tmp_path):
        data = {"n": 2, "g": [[1.0, 0.0], [0.0, 1.0]], "A": {"111": float("inf")}}
        err = self.check(tmp_path, data)
        assert "/A/111" in err and "finite" in err


class TestAuxFieldSchema:
    """A malformed auxiliary field of a chart file exits 2 and names its JSON pointer."""

    @pytest.mark.parametrize("field, pointer", [
        ({"components": {"1": "x1"}}, "/fields/tau/degree"),
        ({"degree": 1, "components": {"3": "x1"}}, "/fields/tau/components/3"),
        ({"degree": 2, "components": {"1": "x1"}}, "/fields/tau/components/1"),
        ({"degree": 1, "components": {"1": "nope(x1)"}}, "/fields/tau/components/1"),
    ], ids=["missing-degree", "index-beyond-n", "key-length-not-degree", "unknown-name"])
    def test_rejected(self, tmp_path, field, pointer):
        path = tmp_path / "chart.json"
        path.write_text(json.dumps(dict(TestNonFiniteInput.CHART, fields={"tau": field})))
        out = run_cli("check", "--file", str(path))
        assert out.returncode == 2, out.stdout + out.stderr
        assert f"schema error: {pointer}:" in out.stderr and "Traceback" not in out.stderr


POINT = {"n": 2, "g": [[1.0, 0.0], [0.0, 1.0]], "A": {"111": 0.5}}


class TestMalformedStructureFile:
    """A malformed value in a structure file exits 2 and names its JSON pointer.

    JSON booleans are never read as numbers, and strings never as rows or flags.
    """

    @pytest.mark.parametrize("base, overrides, pointer", [
        ("chart", {"h": "abc"}, "/h"),
        ("chart", {"h": None}, "/h"),
        ("chart", {"h": True}, "/h"),
        ("chart", {"h": 10**400}, "/h"),
        ("chart", {"periodic": 5}, "/periodic"),
        ("chart", {"periodic": "ab"}, "/periodic"),
        ("chart", {"domain": [["a", 1.0], [0.0, 1.0]]}, "/domain/0/0"),
        ("chart", {"domain": [[[0.0], 1.0], [0.0, 1.0]]}, "/domain/0/0"),
        ("chart", {"g": ["10", ["0", "1"]]}, "/g/0"),
        ("chart", {"g": [[True, "0"], ["0", "1"]]}, "/g/0/0"),
        ("chart", {"fields": {"tau": {"degree": True, "components": {"1": "x1"}}}},
         "/fields/tau/degree"),
        ("point", {"g": [1.0, [0.0, 1.0]]}, "/g/0"),
        ("point", {"g": [[True, 0.0], [0.0, 1.0]]}, "/g/0/0"),
        ("point", {"n": True, "g": [[1.0]], "A": {}}, "/n"),
        ("point", {"A": {"111": True}}, "/A/111"),
    ], ids=["h-string", "h-null", "h-bool", "h-huge-int", "periodic-int", "periodic-string",
            "domain-string", "domain-nested", "g-row-string", "chart-g-bool", "degree-bool",
            "point-g-row-number", "point-g-bool", "point-n-bool", "point-a-bool"])
    def test_exits_two_with_pointer(self, tmp_path, capsys, base, overrides, pointer):
        path = tmp_path / "structure.json"
        path.write_text(json.dumps(dict(TestNonFiniteInput.CHART if base == "chart" else POINT,
                                        **overrides)))
        status = main(["check", "--file", str(path)])
        err = capsys.readouterr().err
        assert status == 2, err
        assert f"schema error: {pointer}:" in err


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


HESSIAN_FILE = os.path.join(REPO, "demos", "structures", "hessian_chart_2d.json")


class TestOneToleranceRule:
    """Every FD check, in the suites and in ``check``, gets its tolerance from one rule."""

    def test_closed_form_curvatures_scale_with_h(self, tmp_path, capsys):
        # residuals of O(h^2) (r/h^2 ~ 7 and 6) once failed a fixed 1e-5 tolerance here
        report = tmp_path / "all.json"
        assert main(["verify", "--suite", "all", "--h", "3e-3", "--report", str(report)]) == 0
        checks = {c["id"]: c for c in json.loads(report.read_text())["checks"]}
        for check_id in ("poincare-sectional", "sphere-scalar-curvature"):
            assert checks[check_id]["tolerance"] == 700.0 * 3e-3 * 3e-3 + 1e-10
        # a skipped check prints its location, which carries the reason, not a residual
        guard = checks["cubic-precondition-guard"]
        assert guard["verdict"] == "precondition-skipped"
        out = capsys.readouterr().out
        assert f"[skip] cubic-precondition-guard: {guard['location']}\n" in out
        assert "nan" not in out

    def _check_report(self, monkeypatch, tmp_path, path, tol_scale):
        monkeypatch.setenv("CODAZZI_DEFAULT_TOL_SCALE", tol_scale)
        report = tmp_path / f"check-{tol_scale}.json"
        assert main(["check", "--file", path, "--report", str(report)]) == 0
        return {c["id"]: c["tolerance"] for c in json.loads(report.read_text())["checks"]}

    def test_check_honours_default_tol_scale(self, monkeypatch, tmp_path, capsys):
        one = self._check_report(monkeypatch, tmp_path, HESSIAN_FILE, "1.0")
        scaled = self._check_report(monkeypatch, tmp_path, HESSIAN_FILE, "2.5")
        for check_id in ("curvature-two-routes", "ricci-decomposition"):
            # tol = C h^2 tol_scale + 1e-10: the absolute floor does not scale
            assert scaled[check_id] - 1e-10 == pytest.approx(2.5 * (one[check_id] - 1e-10),
                                                              rel=1e-12)
        assert scaled["quarter-inequality"] == one["quarter-inequality"] == 1e-12

    @pytest.mark.parametrize("path", [HESSIAN_FILE, EQUALITY_FILE])
    def test_check_rejects_bad_default_tol_scale(self, monkeypatch, capsys, path):
        monkeypatch.setenv("CODAZZI_DEFAULT_TOL_SCALE", "abc")
        assert main(["check", "--file", path]) == 2
        assert "CODAZZI_DEFAULT_TOL_SCALE" in capsys.readouterr().err

    @pytest.mark.parametrize("h", [1e-3, 5e-4])
    def test_plot_draws_the_simons_series(self, tmp_path, capsys, h):
        from codazzi import cli
        from codazzi.suites import laplacian_series

        plot = tmp_path / "plot.svg"
        assert main(["verify", "--suite", "algebraic", "--seeds", "1", "--sweep-count", "100",
                     "--h", str(h), "--plot", str(plot)]) == 0
        steps, series, skips = laplacian_series(2, h)
        assert skips == {}
        drawn = tmp_path / "drawn.svg"
        cli._convergence_plot(str(drawn), steps, {name: series[name]
                                                  for name in ("ricci-identity", "simons-formula")})
        assert plot.read_text() == drawn.read_text()
