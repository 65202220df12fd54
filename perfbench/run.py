"""codazzi benchmark: run one workload in fresh single-threaded processes and print its metrics.

    python3 perfbench/run.py --workload {integral,pointwise,sweep} --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; codazzi is imported from ``src/``.
Set-up time is the median over several fresh processes (after one unmeasured
process that fills the bytecode cache).  Passes then run closed-loop, one
client, for ``--seconds``; every verdict is checked against
``perfbench/reference.jsonl``.  The last line of standard output is one JSON
object: ``correct``, ``attempted`` and ``failed`` count checks (``failed`` is
checks_failed: a ``fail`` verdict, a verdict that differs from the reference,
or a missing check), and ``metrics`` holds the end-to-end metrics, or with
``--trace 1`` the per-layer metrics of a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import PER_LAYER  # noqa: E402
from workloads import SIZES, WORKLOADS  # noqa: E402

# (name, unit, better, bound): the end-to-end metrics of an untraced run
END_TO_END = (
    ("pass_s", "s", "lower", 0.15),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

SETUP_SAMPLES = 8
DEADLINE_S = 170.0
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class BenchmarkError(Exception):
    pass


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full",
                        help="tiny runs every code path at the smallest size (self-test)")
    return parser.parse_args(argv)


def _worker_env() -> dict:
    env = dict(os.environ)
    for name in THREAD_VARIABLES:
        env[name] = "1"
    env["PYTHONHASHSEED"] = "0"
    # numpy asks for transparent huge pages for large arrays; whether the kernel
    # grants them varies with host memory state and moved peak RSS by 6% between runs
    env["NUMPY_MADVISE_HUGEPAGE"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def _worker(args, phase: str, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(args.seconds),
           "--trace", str(args.trace), "--size", args.size, "--phase", phase]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchmarkError("out of time before the measured run")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_worker_env(), capture_output=True,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker ({phase}) did not finish within {remaining:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"worker ({phase}) exited {proc.returncode}:\n{proc.stderr[-4000:]}")
    if proc.stderr.strip():
        print(proc.stderr.rstrip(), file=sys.stderr)
    return json.loads(lines[-1])


def _fmt(values) -> str:
    return " ".join(f"{v:.4f}" for v in values)


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main(argv=None) -> int:
    args = _parse(argv)
    if "CODAZZI_DEFAULT_TOL_SCALE" in os.environ:
        print("error: refusing to run with CODAZZI_DEFAULT_TOL_SCALE set: SuiteConfig reads it "
              "at import and it changes verdicts", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "codazzi" / "__init__.py").is_file():
        print(f"error: no codazzi sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    try:
        _worker(args, "setup", deadline)  # fills the bytecode cache; not measured
        probes = [_worker(args, "setup", deadline) for _ in range(SETUP_SAMPLES)]
        run = _worker(args, "run", deadline)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not args.trace:
        probes.append(run)
    _report(args, probes, run)
    return 0


def _report(args, probes, run) -> None:
    setups = [p["setup_s"] for p in probes]
    env = run["environment"]
    print(f"workload {args.workload} size {args.size} seed {args.seed} trace {args.trace}: "
          f"python {env['python']}, numpy {env['numpy']}, nproc {env['nproc']}")
    passes = run["passes"]
    lo, hi = _quartiles(passes)
    print(f"pass_s: median {statistics.median(passes):.6f} s, quartiles {lo:.6f}..{hi:.6f}, "
          f"n={len(passes)} untraced passes")
    lo, hi = _quartiles(setups)
    print(f"setup_s: median {statistics.median(setups):.6f} s, quartiles {lo:.6f}..{hi:.6f}, "
          f"n={len(setups)} fresh processes")
    print(f"  raw wall seconds: passes {_fmt(run['raw_passes'])}; set-up "
          f"{_fmt([p['setup_raw_s'] for p in probes])}; speed {_fmt(run['speeds'])}")
    print(f"peak_rss_mb: {run['peak_rss_mb']:.1f} MB")
    print(f"checks_failed: {run['failed']} of checks_run {run['attempted']}"
          + (" (a pass raised)" if run["crashed"] else ""))
    for text in run["mismatches"]:
        print(f"  mismatch: {text}")
    print("residual drift against the reference, per check family (max relative, max absolute):")
    for fam, (rel, change) in sorted(run["drift"].items()):
        print(f"  {fam}: {rel:.3e} {change:.3e}")

    if args.trace:
        metrics = {}
        for name, unit, _better in PER_LAYER:
            value = run["layers"].get(name)
            metrics[name] = ({"value": value, "unit": unit} if value is not None
                             else {"value": None, "unit": unit, "absent": True})
        print(f"traced passes: {len(run['traced_passes'])}; tracing overhead "
              f"{run['layers'].get('trace.overhead_share', float('nan')):+.3f} of the untraced pass")
        for name, metric in metrics.items():
            shown = "absent" if metric.get("absent") else f"{metric['value']:.6g} {metric['unit']}"
            print(f"  {name}: {shown}")
    else:
        values = {"pass_s": statistics.median(passes), "setup_s": statistics.median(setups),
                  "peak_rss_mb": run["peak_rss_mb"]}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit, _, _ in END_TO_END}
    print(json.dumps({"correct": run["failed"] == 0 and not run["crashed"],
                      "attempted": run["attempted"], "failed": run["failed"],
                      "metrics": metrics}))


if __name__ == "__main__":
    sys.exit(main())
