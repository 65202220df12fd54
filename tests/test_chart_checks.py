"""``check`` on a chart records the structural checks of ``differential_suite`` through one
routine, ``suites.chart_checks``, at the chart midpoint.
"""

import contextlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from codazzi import suites
from codazzi.cli import main
from codazzi.generators import GeneratorSpec, generate, sample_points
from codazzi.structures_io import emit, ingest

STRUCTURES = Path(__file__).resolve().parents[1] / "demos" / "structures"

# the chart files: the shipped ones, and those generated at the benchmark's pool seeds
# (G3 is generated as a point), each with the family whose differential checks it must get
SHIPPED = {"hessian_chart_2d": "G2-hessian-potential", "conformal_torus_2d": "G5-periodic-trig"}
GENERATED = [(family, n, seed)
             for family, dims in (("G1-constant-A", (2, 3)), ("G2-hessian-potential", (2, 3)),
                                  ("G4-random-smooth", (2, 3)), ("G5-periodic-trig", (2,)))
             for n in dims for seed in range(8)]

# differential_suite records these stems outside chart_checks
OWN_ROWS = {"hessian-flatness"}

# a 1-D chart whose A vanishes at its midpoint, so every masked key applies there
LINE_CHART = {"n": 1, "domain": [[0.5, 1.5]], "periodic": [False], "h": 0.001,
              "g": [["1 + 0.3*x1**2"]], "A": {"111": "0.2*(x1 - 1)"}}


@pytest.fixture(scope="module")
def family_stems():
    """The stems differential_suite records at the sample points of each family."""
    out = {}
    for check in suites.run_suite("differential").checks:
        family, _, where = check.location.partition("/")
        if where.startswith("seed=") and check.id not in OWN_ROWS:
            out.setdefault(family, set()).add(check.id)
    return out


def check_file(path) -> tuple[int, dict]:
    report = Path(str(path) + ".report.json")
    with contextlib.redirect_stdout(io.StringIO()):
        status = main(["check", "--file", str(path), "--report", str(report)])
    return status, json.loads(report.read_text())


def assert_checked_like_the_family(path, family, family_stems):
    status, report = check_file(path)
    assert status == 0
    verdicts = {c["id"]: c["verdict"] for c in report["checks"]}
    assert family_stems[family] <= set(verdicts), sorted(family_stems[family] - set(verdicts))
    # the eighth bound may skip on its hypothesis; every other row passes
    assert {v for k, v in verdicts.items() if k != "eighth-inequality"} == {"pass"}
    assert verdicts["eighth-inequality"] != "fail"


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_shipped_chart_gets_the_structural_checks_of_its_family(name, family_stems, tmp_path):
    path = tmp_path / f"{name}.json"
    path.write_bytes((STRUCTURES / path.name).read_bytes())
    assert_checked_like_the_family(path, SHIPPED[name], family_stems)


@pytest.mark.parametrize("family, n, seed", GENERATED)
def test_generated_chart_gets_the_structural_checks_of_its_family(family, n, seed,
                                                                   family_stems, tmp_path):
    path = tmp_path / f"{family}-n{n}-s{seed}.json"
    path.write_text(emit(generate(GeneratorSpec(family, n=n, seed=seed))) + "\n")
    assert_checked_like_the_family(path, family, family_stems)


@pytest.mark.parametrize("name, bits", [
    ("hessian_chart_2d", {"curvature-two-routes": ("0x0.0p+0", "0x1.a36e3c70341fcp-13"),
                          "ricci-decomposition": ("0x1.7b9feb37cc52fp-20",
                                                  "0x1.a36e3c70341fcp-13")}),
    ("conformal_torus_2d", {"curvature-two-routes": ("0x1.454f9e06bacd4p-44",
                                                     "0x1.de269edc56546p-11"),
                            "ricci-decomposition": ("0x1.c949c7a0ebfd6p-45",
                                                    "0x1.de269edc56546p-11")}),
])
def test_the_two_earlier_rows_keep_their_bits(name, bits):
    # the values check recorded when these were its only structural rows
    checks = {c.id: c for c in suites.check_structure(ingest(STRUCTURES / f"{name}.json")).checks}
    for check_id, (residual, tolerance) in bits.items():
        assert (checks[check_id].residual.hex(), checks[check_id].tolerance.hex()) == (
            residual, tolerance)


def test_one_dimensional_chart_gets_every_row_but_the_sectional(tmp_path):
    # A of the 2-D Hessian chart vanishes at its midpoint too, so it gets every row
    line, plane = tmp_path / "line.json", tmp_path / "hessian_chart_2d.json"
    line.write_text(json.dumps(LINE_CHART))
    plane.write_bytes((STRUCTURES / plane.name).read_bytes())
    status, report = check_file(line)
    assert status == 0
    assert all(c["verdict"] == "pass" for c in report["checks"])
    _, full = check_file(plane)
    assert [c["id"] for c in report["checks"]] == [
        c["id"] for c in full["checks"] if c["id"] != "sectional-sum"]


@pytest.mark.parametrize("family, n", [("G2-hessian-potential", 3), ("G4-random-smooth", 2),
                                       ("G5-periodic-trig", 2)])
def test_a_point_gets_the_same_checks_alone_and_in_a_batch(family, n):
    # check reads its midpoint alone, differential_suite its sample points as one batch
    cs = generate(GeneratorSpec(family, n=n, seed=1))
    xs = sample_points(cs, 3, seed=1)
    cfg = suites.SuiteConfig()
    batch = suites._Collector(cfg)
    scales = suites.chart_checks(batch, cs, xs, [f"x{i}" for i in range(len(xs))])
    alone = suites._Collector(cfg)
    for i, x in enumerate(xs):
        assert suites.chart_checks(alone, cs.with_step(cs.h), x, [f"x{i}"]) == scales[i]
    assert [(c.id, c.location, c.tolerance, c.verdict) for c in alone.checks] == [
        (c.id, c.location, c.tolerance, c.verdict) for c in batch.checks]
    # a batch of stencils may round differently from one stencil
    assert [c.residual for c in alone.checks] == pytest.approx(
        [c.residual for c in batch.checks], rel=1e-9, abs=1e-15)
    assert np.all(np.asarray(scales) > 1.0)
