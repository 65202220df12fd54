"""The three workloads: inputs made from the seed, one timed pass, and the verdicts it produced.

A pass returns ``{source: [[id, location, verdict, residual, tolerance], ...]}``
where a source is ``suite:<name>`` or ``check:<file label>``.  Residuals and
tolerances come from the reports at full precision (never from
``ResidualReport.timing``).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from pathlib import Path

WORKLOADS = ("integral", "pointwise", "sweep")
SIZES = ("full", "tiny")

# The reference holds verdicts for this many generated-structure seeds; the
# benchmark seed picks one of them (seed % POOL), so any seed has a reference.
POOL = 8

# families and dimensions generated for the pointwise check phase
GENERATED = (
    ("G1-constant-A", (2, 3)),
    ("G2-hessian-potential", (2, 3)),
    ("G3-2d-constant-curvature", (2,)),
    ("G4-random-smooth", (2, 3)),
    ("G5-periodic-trig", (2,)),
)

POINTWISE_SUITES = ("differential", "simons", "bounds")


def suite_config(suites, workload: str, size: str):
    """The SuiteConfig of a workload; ``tiny`` keeps every code path at the smallest size."""
    if workload == "integral":
        return suites.SuiteConfig() if size == "full" else suites.SuiteConfig(
            seeds=1, lattice=8, fiber_order=6)
    if workload == "pointwise":
        return suites.SuiteConfig() if size == "full" else suites.SuiteConfig(seeds=1)
    if workload == "sweep":
        return suites.SuiteConfig(sweep_count=100000 if size == "full" else 2000)
    raise ValueError(f"unknown workload {workload!r}")


def _records(checks) -> list[list]:
    return [[c.id, c.location, c.verdict, _number(c.residual), _number(c.tolerance)]
            for c in checks]


def _number(value):
    value = float(value) if value is not None else None
    return value if value is not None and not math.isnan(value) else None


class Workload:
    """One workload at one size and seed; ``setup`` builds inputs, ``run_pass`` is timed."""

    def __init__(self, name: str, size: str, seed: int, root: Path, workdir: Path):
        if name not in WORKLOADS:
            raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
        if size not in SIZES:
            raise ValueError(f"unknown size {size!r}; choose from {SIZES}")
        self.name, self.size, self.seed = name, size, seed
        self.root, self.workdir = root, workdir
        self.files: list[tuple[str, Path]] = []
        self.cfg = None

    def setup(self) -> None:
        from codazzi import suites

        self.cfg = suite_config(suites, self.name, self.size)
        if self.name == "pointwise":
            self._write_structures()

    def _write_structures(self) -> None:
        import numpy as np
        from codazzi import cli  # noqa: F401  (imported here so set-up pays for it)
        from codazzi.generators import GeneratorSpec, generate
        from codazzi.structures_io import emit

        demos = sorted((self.root / "demos" / "structures").glob("*.json"))
        if not demos:
            raise FileNotFoundError("demos/structures/*.json not found in the checkout")
        self.files = [(f"demo-{p.stem}", p) for p in demos]
        self.workdir.mkdir(parents=True, exist_ok=True)
        pool_seed = self.seed % POOL
        rng = np.random.default_rng(pool_seed)
        for family, dims in GENERATED:
            for n in dims:
                params = {}
                if family == "G3-2d-constant-curvature":
                    params = {"a": round(float(rng.uniform(0.3, 1.2)), 6),
                              "b": round(float(rng.uniform(-0.8, 0.8)), 6)}
                structure = generate(GeneratorSpec(family, n=n, seed=pool_seed, params=params))
                label = f"{family}-n{n}-s{pool_seed}"
                path = self.workdir / f"{label}.json"
                path.write_text(emit(structure) + "\n", encoding="utf-8")
                self.files.append((label, path))

    def sources(self) -> list[str]:
        """Sources a pass must produce (valid after ``setup``)."""
        if self.name == "integral":
            return ["suite:integral"]
        if self.name == "sweep":
            return ["suite:algebraic"]
        return [f"suite:{part}" for part in POINTWISE_SUITES] + [
            f"check:{label}" for label, _ in self.files]

    def run_pass(self) -> dict[str, list[list]]:
        from codazzi import suites

        if self.name == "integral":
            return {"suite:integral": _records(suites.run_suite("integral", self.cfg).checks)}
        if self.name == "sweep":
            return {"suite:algebraic": _records(suites.run_suite("algebraic", self.cfg).checks)}
        out = {f"suite:{part}": _records(suites.run_suite(part, self.cfg).checks)
               for part in POINTWISE_SUITES}
        out.update(self._check_files())
        return out

    def _check_files(self) -> dict[str, list[list]]:
        from codazzi import cli

        out = {}
        for label, path in self.files:
            report_path = self.workdir / f"{label}.report.json"
            report_path.unlink(missing_ok=True)
            with contextlib.redirect_stdout(io.StringIO()):
                status = cli.main(["check", "--file", str(path), "--report", str(report_path)])
            records = [["cli-exit-status", "", str(status), None, None]]
            if report_path.exists():
                report = json.loads(report_path.read_text(encoding="utf-8"))
                records += [[c["id"], c["location"], c["verdict"], c["residual"], c["tolerance"]]
                            for c in report["checks"]]
            out[f"check:{label}"] = records
        return out

    def cleanup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
