"""One fresh benchmark process: import codazzi, build inputs, run passes, print one JSON line.

Started by ``run.py`` with BLAS/OpenMP pinned to one thread.  ``--phase setup``
stops after building the inputs and reports only the set-up time; ``--phase
run`` then runs passes closed-loop (one after another) for ``--seconds``.
With ``--trace 1`` it alternates untraced and traced passes, so the tracing
overhead is measured in the same process, and writes the spans of its last
traced pass to ``.perfbench_out/``.

Pass and set-up times are scaled to a reference machine speed (see ``speed.py``).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"

import reference  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
from workloads import Workload  # noqa: E402


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", default="full")
    parser.add_argument("--phase", choices=("setup", "run"), default="run")
    return parser.parse_args(argv)


def _import_codazzi():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import codazzi

    if Path(codazzi.__file__).resolve().parent != (src / "codazzi").resolve():
        raise ImportError(f"codazzi imported from {codazzi.__file__}, not from {src}")


def main(argv=None) -> int:
    args = _parse(argv)
    if "CODAZZI_DEFAULT_TOL_SCALE" in os.environ:
        print("error: CODAZZI_DEFAULT_TOL_SCALE is set; it changes verdicts", file=sys.stderr)
        return 2
    workdir = OUT_DIR / f"work-{os.getpid()}"

    started = time.perf_counter()
    _import_codazzi()
    tracer = None
    if args.trace and args.phase == "run":
        tracer = tracing.Tracer()
        tracer.install()
    workload = Workload(args.workload, args.size, args.seed, ROOT, workdir)
    try:
        workload.setup()
        setup_s = time.perf_counter() - started
        if args.phase == "setup":
            print(json.dumps({"setup_s": setup_s * speed.speed(), "setup_raw_s": setup_s}))
            return 0
        result = _run(args, workload, tracer)
    finally:
        workload.cleanup()
    result["setup_raw_s"] = setup_s
    result["setup_s"] = setup_s * result["speeds"][0]
    print(json.dumps(result))
    return 0


def _run(args, workload, tracer) -> dict:
    import numpy as np

    ref = reference.load()
    expected = reference.expected_sources(ref, args.workload, args.size, workload.sources())
    comparison = reference.Comparison()
    layers = {}
    if tracer is not None:
        layers.update({f"setup.{k}": v for k, v in tracer.layer_values().items()})
        tracer.uninstall()

    untraced, traced, per_pass, raw = [], [], [], []
    timer = speed.ScaledTimer()
    crashed = None
    started = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - started
        want_traced = tracer is not None and len(traced) < len(untraced)
        if elapsed >= args.seconds and (tracer is None or (traced and untraced)):
            break
        gc.collect()
        if want_traced:
            tracer.install()
            tracer.reset()
        try:
            produced, seconds, scaled = timer.run(workload.run_pass)
        except Exception:  # a pass that raises is reported as failed checks, not a crash
            crashed = traceback.format_exc()
            if want_traced:
                tracer.uninstall()
            comparison.add({}, expected)  # every expected check is missing
            break
        raw.append(seconds)
        if want_traced:
            tracer.uninstall()
            traced.append(scaled)
            per_pass.append(tracer.layer_values(timer.pauses))
        else:
            untraced.append(scaled)
        comparison.add(produced, expected)

    if crashed:
        print(crashed, file=sys.stderr)
    if tracer is not None and per_pass:
        layers.update(_median_layers(per_pass))
        layers["trace.pass_s"] = statistics.median(traced)
        layers["trace.untraced_pass_s"] = statistics.median(untraced)
        layers["trace.overhead_share"] = (
            layers["trace.pass_s"] / layers["trace.untraced_pass_s"] - 1.0)
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{args.workload}-{args.size}.json"
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed, "pass": len(traced) - 1,
                       **tracer.dump()}, fh)
    return {
        "passes": untraced,
        "traced_passes": traced,
        "raw_passes": raw,
        "speeds": timer.speeds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": comparison.attempted,
        "failed": comparison.failed,
        "mismatches": comparison.mismatches,
        "drift": comparison.drift,
        "crashed": crashed is not None,
        "layers": layers,
        "environment": {"python": platform.python_version(), "numpy": np.__version__,
                        "nproc": os.cpu_count()},
    }


def _median_layers(per_pass: list[dict]) -> dict:
    out = {}
    for name in per_pass[0]:
        values = [p[name] for p in per_pass]
        out[name] = None if values[0] is None else statistics.median(values)
    out["trace.spans_per_pass"] = out.pop("trace.spans")
    return out


if __name__ == "__main__":
    sys.exit(main())
