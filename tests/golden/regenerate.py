"""Write the golden reports that tests/test_golden_reports.py compares byte for byte.

Each golden file is the deterministic body of one report, to_json(include_timing=False):
run_suite("all") at three configs, and the check report of each structure file in
demos/structures/.  Run from the repository root after a change that moves report bits on
purpose, and list the moved records in CHANGES.md:

    PYTHONPATH=src python tests/golden/regenerate.py

The files were recorded with numpy 2.4.6 (the only runtime dependency) under CPython 3.11
on Linux x86_64.  The bits do not depend on the number of BLAS threads.
"""

from __future__ import annotations

from pathlib import Path

from codazzi.structures_io import ingest
from codazzi.suites import SuiteConfig, check_structure, run_suite

GOLDEN = Path(__file__).resolve().parent
STRUCTURES = GOLDEN.parents[1] / "demos" / "structures"

# golden file stem -> the SuiteConfig of a run_suite("all") report
SUITE_CONFIGS = {
    "all-defaults": {},
    "all-seeds1-h5e-3": {"seeds": 1, "h": 5e-3},
    "all-seeds2-lattice16": {"seeds": 2, "lattice": 16},
}


def reports() -> dict[str, str]:
    """Golden file name -> the report's deterministic JSON, as the report writes it."""
    out = {f"{stem}.json": run_suite("all", SuiteConfig(**kwargs)).to_json(include_timing=False)
           for stem, kwargs in SUITE_CONFIGS.items()}
    for path in sorted(STRUCTURES.glob("*.json")):
        out[f"check-{path.name}"] = check_structure(ingest(path)).to_json(include_timing=False)
    return out


def main() -> None:
    for name, text in reports().items():
        (GOLDEN / name).write_text(text, encoding="utf-8")
        print(f"wrote tests/golden/{name} ({len(text)} bytes)")


if __name__ == "__main__":
    main()
