import itertools
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from codazzi import ConstructionError, NotPositiveDefiniteError, SchemaError, spheres
from codazzi.charts import ChartStructure
from codazzi.cli import main
from codazzi.generators import GeneratorSpec, generate
from codazzi.points import require_finite
from codazzi.structures_io import (
    canonical_json,
    cubic_from_entries,
    cubic_triples,
    emit,
    ingest,
    stat_point_from_dict,
)
from codazzi.suites import SuiteConfig, run_suite
from codazzi.tensors import metric_factors, raise_last

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
EQUALITY_FILE = os.path.join(REPO, "demos", "structures", "equality_point_2d.json")


class TestStatPointIO:
    def test_shipped_equality_file(self):
        g, a = ingest(EQUALITY_FILE)
        k = raise_last(metric_factors(g)[0], a)
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

    def test_non_spd_metric_names_pivot(self):
        # the factorization runs from the last row up, so this metric fails at pivot 1
        data = {"n": 2, "g": [[1.0, 2.0], [2.0, 1.0]], "A": {}}
        with pytest.raises(NotPositiveDefiniteError, match="pivot 1 "):
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


class TestPointFileProperties:
    """Random point structures at n = 1..4: ingest of emit gives back (g, a), emit is stable,
    and the dense cubic form built from packed entries is exactly symmetric."""

    @staticmethod
    def _structures():
        st = pytest.importorskip("hypothesis.strategies")
        finite = st.floats(allow_nan=False, allow_infinity=False, width=64)

        @st.composite
        def structure(draw):
            n = draw(st.integers(1, 4))
            # diagonally dominant, so positive definite; each off-diagonal pair drawn once
            g = np.diag([draw(st.floats(1.0, 10.0)) for _ in range(n)])
            for i, j in itertools.combinations(range(n), 2):
                g[i, j] = g[j, i] = draw(st.floats(-0.5 / n, 0.5 / n))
            entries = draw(st.dictionaries(st.sampled_from(cubic_triples(n)), finite))
            return g, entries

        return structure()

    def test_ingest_of_emit_is_the_identity(self, tmp_path):
        hypothesis = pytest.importorskip("hypothesis")
        path = tmp_path / "point.json"

        @hypothesis.settings(max_examples=150, deadline=None, database=None)
        @hypothesis.given(self._structures())
        def round_trip(structure):
            g, entries = structure
            a = cubic_from_entries(len(g), entries)
            text = emit((g, a))
            path.write_text(text + "\n")
            g2, a2 = ingest(path)
            # the contract of emit's docstring (and the README's "Structure files"): equal
            # values, with -0.0 back as 0.0, so signed zeros compare as one value
            for want, got in ((g, g2), (a, a2)):
                assert (got + 0.0).tobytes() == (want + 0.0).tobytes()
            assert emit((g2, a2)) == text

        round_trip()

    def test_dense_from_packed_entries_is_exactly_symmetric(self):
        hypothesis = pytest.importorskip("hypothesis")

        @hypothesis.settings(max_examples=150, deadline=None, database=None)
        @hypothesis.given(self._structures())
        def symmetric(structure):
            g, entries = structure
            a = cubic_from_entries(len(g), entries)
            for p in itertools.permutations(range(3)):
                assert np.transpose(a, p).tobytes() == a.tobytes()

        symmetric()


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

    @pytest.mark.parametrize("value, text", [
        (0.1, "0.10000000000000001"),
        (-0.0, "0.0"),
        (-3.0, "-3.0"),
        (1e15 - 1, "999999999999999.0"),
        (1e15, "1000000000000000"),
        (2.5e300, "2.5000000000000001e+300"),
        (5e-324, "4.9406564584124654e-324"),
        (np.float64(0.1), "0.10000000000000001"),
        (np.float32(0.1), "0.10000000149011612"),
        (np.float64(-0.0), "0.0"),
        (np.int64(-7), "-7"),
        (np.uint8(255), "255"),
        (True, "true"),
        (None, "null"),
        ("é\n\"x\"", json.dumps("é\n\"x\"")),
        (np.array([[1.0, 2.5], [0.1, -0.0]]), "[[1.0, 2.5], [0.10000000000000001, 0.0]]"),
        (np.arange(3), "[0, 1, 2]"),
        ((1, [2.0, ()]), "[1, [2.0, []]]"),
        ({"b": {10: None, 2: "x"}, "a": {"z": 0.5, "y": []}},
         '{"a": {"y": [], "z": 0.5}, "b": {"2": "x", "10": null}}'),
    ])
    def test_writes_each_kind_of_value(self, value, text):
        assert canonical_json(value) == text
        # the same value inside a list and a dict gets the same bytes
        assert canonical_json({"v": [value]}) == '{"v": [' + text + "]}"

    @pytest.mark.parametrize("value", [
        float("inf"), -float("inf"), np.float64("nan"), np.float32("inf"),
        np.array([1.0, np.nan]), {"v": [float("inf")]}, object(), {1, 2}, b"bytes",
    ])
    def test_rejects_non_finite_and_unknown_values(self, value):
        with pytest.raises(SchemaError):
            canonical_json(value)


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
        # the integral suite factors each lattice batch once and reuses its node-power tables;
        # a cold cache, since an earlier test may have built them all
        spheres._product_gauss.cache_clear()
        spheres._node_power_table.cache_clear()
        timing = run_suite("integral", SuiteConfig(lattice=8, fiber_order=4)).timing
        assert 0 < timing["metric-factor-batches"] < timing["metric-factor-matrices"]
        assert timing["node-power-hits"] > timing["node-power-misses"] > 0

    def test_timing_counts_quadrature_rules(self):
        # a second run finds every quadrature rule of the first in the caches
        cfg = SuiteConfig(lattice=8, fiber_order=4)
        first = run_suite("integral", cfg).timing
        second = run_suite("integral", cfg).timing
        assert first["quadrature-rule-builds"] + first["quadrature-rule-hits"] > 0
        assert second["quadrature-rule-builds"] == 0
        assert second["quadrature-rule-hits"] == (
            first["quadrature-rule-builds"] + first["quadrature-rule-hits"])

    # (field-calls, field-points) of each suite at the defaults: the integral suite reads each
    # lattice point once (the 64 lattice of the refinement pair is the 128 lattice's even-index
    # part), and Gamma at a curvature point is its stencil's centre row
    FIELD_EVALUATIONS = {"integral": (80, 319140), "differential": (166, 2462),
                         "simons": (107, 1905), "bounds": (27, 2569), "algebraic": (0, 0)}

    @pytest.mark.parametrize("suite", sorted(FIELD_EVALUATIONS))
    def test_field_evaluations_per_suite(self, suite):
        timing = run_suite(suite, SuiteConfig()).timing
        assert (timing["field-calls"], timing["field-points"]) == self.FIELD_EVALUATIONS[suite]

    # (memo-lookups, memo-hits) of each suite at the defaults: a memo hit needs bit-identical
    # coordinates, whatever part of them the memo key holds
    MEMO_LOOKUPS = {"integral": (247, 84), "differential": (260, 143), "simons": (326, 217),
                    "bounds": (101, 50), "algebraic": (0, 0)}

    @pytest.mark.parametrize("suite", sorted(MEMO_LOOKUPS))
    def test_memo_lookups_per_suite(self, suite):
        timing = run_suite(suite, SuiteConfig()).timing
        assert (timing["memo-lookups"], timing["memo-hits"]) == self.MEMO_LOOKUPS[suite]

    def test_field_counts_stay_out_of_the_report_body(self):
        report = run_suite("bounds", SuiteConfig())
        assert report.timing["field-points"] > 0
        assert "field-points" not in report.to_json(include_timing=False)

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


_VERIFY = ["verify", "--suite", "algebraic", "--seeds", "1", "--sweep-count", "100"]
_GEN = ["gen", "--out", "{tmp}/g.json", "--family"]
# each bad value with the argument list around it and the name its message gives
BAD_CONFIGS = {
    **{f"{flag}-{value}": (_VERIFY + [flag, value], name) for flag, value, name in [
        ("--h", "-1", "h"), ("--h", "0", "h"), ("--h", "nan", "h"),
        ("--sweep-count", "0", "sweep_count"), ("--seeds", "0", "seeds"),
        ("--lattice", "0", "lattice"), ("--fiber-nodes", "-2", "fiber_order"),
        ("--fiber-nodes", "3", "fiber_order"), ("--tol-scale", "0", "tol_scale"),
        ("--tol-scale", "inf", "tol_scale")]},
    "gen-n-above-the-largest-dimension": (_GEN + ["G1-constant-A", "--n", "9"], "dimension 9"),
    "gen-n-0": (_GEN + ["G1-constant-A", "--n", "0"], "dimension 0"),
    "gen-seed-negative": (_GEN + ["G1-constant-A", "--seed", "-1"], "seed"),
    "gen-params-not-an-object": (_GEN + ["G1-constant-A", "--params", "[1,2]"], "params"),
    "gen-params-h-not-a-number": (_GEN + ["G1-constant-A", "--params", '{"h": "x"}'], "'h'"),
    "gen-params-fractional-count": (
        _GEN + ["G5-periodic-trig", "--params", '{"variant": "generic", "freq": 1.5}'],
        "'freq'"),
}


class TestCLI:
    def test_verify_exit_zero_and_report(self, tmp_path):
        report = tmp_path / "report.json"
        out = run_cli("verify", "--suite", "algebraic", "--report", str(report),
                      "--emit-csv", "--sweep-count", "200", "--seeds", "1")
        assert out.returncode == 0, out.stderr
        data = json.loads(report.read_text())
        assert data["schema"] == "codazzi-report/1"
        assert (tmp_path / "report.csv").exists()

    def test_fiber_nodes_below_four_is_usage_error(self, capsys):
        # fewer nodes than the fiber integrands' degree would fail correct identities
        assert main(["verify", "--suite", "integral", "--fiber-nodes", "3"]) == 2
        assert "fiber_order must be at least 4" in capsys.readouterr().err
        assert main(["verify", "--suite", "integral", "--fiber-nodes", "4"]) == 0

    def test_unknown_suite_usage_error(self):
        assert run_cli("verify", "--suite", "nope").returncode == 2

    def test_emit_csv_needs_a_report(self, tmp_path, capsys, monkeypatch):
        # the CSV is written next to the report, so without --report the flag would do nothing
        monkeypatch.chdir(tmp_path)
        status = main(["verify", "--suite", "algebraic", "--seeds", "1", "--sweep-count", "100",
                       "--emit-csv"])
        out = capsys.readouterr()
        assert status == 2
        assert out.out == "" and out.err.count("\n") == 1 and "--report" in out.err
        assert list(tmp_path.iterdir()) == []

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

    def test_one_parser_serves_every_call(self, tmp_path, capsys):
        from codazzi import cli

        assert cli._build_parser() is cli._build_parser()
        report = tmp_path / "check.json"
        for _ in range(2):
            assert main(["verify", "--suite", "nope"]) == 2
            bad = capsys.readouterr()
            assert "invalid choice: 'nope'" in bad.err and bad.out == ""
            assert main(["check", "--file", EQUALITY_FILE, "--report", str(report)]) == 0
            good = capsys.readouterr()
            assert "eighth-inequality" in good.out and good.err == ""
            assert json.loads(report.read_text())["suite"] == "check"
            assert main(["--help"]) == 0
            helped = capsys.readouterr()
            assert helped.out.startswith("usage: codazzi") and helped.err == ""
            assert main(["check", "--help"]) == 0
            assert "--strict" in capsys.readouterr().out

    def test_check_has_no_suite_option(self):
        assert run_cli("check", "--suite", "integral", "--file", EQUALITY_FILE).returncode == 2

    @pytest.mark.parametrize("case", list(BAD_CONFIGS))
    def test_invalid_config_is_usage_error(self, tmp_path, case):
        args, name = BAD_CONFIGS[case]
        out = run_cli(*(a.replace("{tmp}", str(tmp_path)) for a in args))
        assert out.returncode == 2, out.stdout + out.stderr
        assert "Traceback" not in out.stderr
        assert out.stderr.startswith("error: ") and name in out.stderr, out.stderr
        assert list(tmp_path.iterdir()) == []

    def test_check_of_a_file_above_the_largest_dimension_is_usage_error(self, tmp_path, capsys):
        n = 9
        path = tmp_path / "nine.json"
        path.write_text(json.dumps({
            "n": n, "domain": [[0.0, 1.0]] * n, "A": {"111": "0.5"},
            "g": [["1" if i == j else "0" for j in range(n)] for i in range(n)]}))
        assert main(["check", "--file", str(path)]) == 2
        assert capsys.readouterr().err == "error: dimension 9 must lie in 1..8\n"


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

    @pytest.mark.parametrize("change", [{"A": {"112": 1.0, "222": 1e308}},
                                        {"g": [[1e-300, 0.0], [0.0, 1.0]]}])
    def test_point_overflow_is_an_input_error(self, tmp_path, capsys, change):
        # finite entries whose derived quantities overflow: one line naming the first, no warning
        data = dict(json.loads(open(EQUALITY_FILE, encoding="utf-8").read()), **change)
        path = tmp_path / "structure.json"
        path.write_text(json.dumps(data))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["check", "--file", str(path)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: ||A||^2 is not finite: the entries of g or A are out of range\n"

    @pytest.mark.parametrize("chart", [False, True], ids=["point", "chart-midpoint"])
    def test_ill_conditioned_metric_is_an_input_error(self, tmp_path, capsys, chart):
        # condition number 1e17 > 1/(2 eps): g^-1 keeps no correct digit, so before the bar
        # commutator-scalar-two-routes read 1.9e36 and check exited 1
        if chart:
            data = dict(self.CHART, g=[["1", "0"], ["0", "1e-17"]])
        else:
            data = dict(json.loads(open(EQUALITY_FILE, encoding="utf-8").read()),
                        g=[[1.0, 0.0], [0.0, 1e-17]])
        path = tmp_path / "structure.json"
        path.write_text(json.dumps(data))
        assert main(["check", "--file", str(path)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "error: g has condition number 1e+17, above 1/(n eps) = 2.25e+15\n"

    def test_shipped_and_generated_structures_are_below_the_condition_bar(self):
        structures = [ingest(path) for path in sorted(
            os.path.join(REPO, "demos", "structures", name)
            for name in os.listdir(os.path.join(REPO, "demos", "structures")))]
        structures += [generate(GeneratorSpec(family, n=n, seed=seed))
                       for family, dims in (("G1-constant-A", (2, 3)),
                                            ("G2-hessian-potential", (2, 3)),
                                            ("G4-random-smooth", (2, 3)),
                                            ("G5-periodic-trig", (2,)))
                       for n in dims for seed in range(4)]
        structures.append(generate(GeneratorSpec("G3-2d-constant-curvature",
                                                 params={"chart": True})))
        for structure in structures:
            if isinstance(structure, ChartStructure):
                mid = structure.domain.mean(axis=1)
                structure = structure.metric_at(mid), structure.cubic_at(mid)
            require_finite(*structure)


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
        ("lattice", -4), ("fiber_order", 0), ("fiber_order", 3), ("tol_scale", 0.0),
        ("tol_scale", float("nan")), ("seeds", 2.5), ("seeds", True), ("fiber_order", 12.5),
        ("fiber_order", True), ("lattice", 32.0), ("lattice", True), ("sweep_count", 2000.0),
        ("sweep_count", True),
    ])
    def test_rejected(self, field, value):
        with pytest.raises(ConstructionError, match=field):
            SuiteConfig(**{field: value})

    def test_numpy_integer_counts_are_python_integers(self):
        cfg = SuiteConfig(seeds=np.int64(1), sweep_count=np.int64(100))
        assert type(cfg.seeds) is int and type(cfg.sweep_count) is int
        assert (run_suite("algebraic", cfg).to_json(include_timing=False)
                == run_suite("algebraic", SuiteConfig(seeds=1, sweep_count=100)).to_json(
                    include_timing=False))

    def test_tol_scale_defaults_to_one(self, monkeypatch):
        # the retired CODAZZI_DEFAULT_TOL_SCALE variable sets nothing
        monkeypatch.setenv("CODAZZI_DEFAULT_TOL_SCALE", "3.5")
        assert SuiteConfig().tol_scale == 1.0
        assert SuiteConfig(tol_scale=2.0).tol_scale == 2.0


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

    @pytest.mark.parametrize("name", ["hessian_chart_2d.json", "equality_point_2d.json"])
    def test_check_reads_no_tol_scale_variable(self, monkeypatch, tmp_path, capsys, name):
        # check has no --tol-scale, and its report could not show why a bar moved
        path = os.path.join(REPO, "demos", "structures", name)
        reports = []
        for value in (None, "1e6", "abc"):
            if value is not None:
                monkeypatch.setenv("CODAZZI_DEFAULT_TOL_SCALE", value)
            report = tmp_path / f"check-{value}.json"
            assert main(["check", "--file", path, "--report", str(report)]) == 0
            reports.append(report.read_bytes())
        assert reports[1] == reports[2] == reports[0]

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
