"""Record the reference verdicts the benchmark checks every pass against.

    python3 perfbench/record_reference.py

Runs one pass of every workload at every size (the pointwise workload once per
generated-structure seed in the pool) and writes ``perfbench/reference.jsonl``.
Run it only on the commit whose verdicts are the reference; a later change to
a verdict or residual must show up as a mismatch or as drift, not be recorded
over.
"""

from __future__ import annotations

import datetime
import os
import sys
import tempfile
from pathlib import Path

for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from reference import REFERENCE_PATH, dumps  # noqa: E402
from workloads import POOL, SIZES, WORKLOADS, Workload  # noqa: E402


def main() -> int:
    if "CODAZZI_DEFAULT_TOL_SCALE" in os.environ:
        print("error: CODAZZI_DEFAULT_TOL_SCALE is set; it changes verdicts", file=sys.stderr)
        return 2
    import codazzi

    tables = {}
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        for name in WORKLOADS:
            tables[name] = {}
            for size in SIZES:
                table = tables[name][size] = {}
                for seed in range(POOL if name == "pointwise" else 1):
                    workload = Workload(name, size, seed, ROOT, Path(tmp) / f"{name}-{size}-{seed}")
                    workload.setup()
                    for source, records in workload.run_pass().items():
                        if table.setdefault(source, records) != records:
                            raise RuntimeError(f"{source} differs between seeds")
                    print(f"recorded {name}/{size}/seed {seed}", flush=True)
    header = {"recorded": datetime.date.today().isoformat(), "codazzi": codazzi.__version__,
              "pool": POOL}
    REFERENCE_PATH.write_text(dumps(header, tables), encoding="utf-8")
    print(f"wrote {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
