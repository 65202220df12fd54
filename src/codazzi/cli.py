"""Command-line front end: run verification suites, generate structures, check files.

Exit codes: 0 all checks pass, 1 at least one check failed, 2 usage or
configuration error or a file that cannot be read or written, 3 precondition
infeasibility under --strict.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .errors import CodazziError, SchemaError
from .generators import FAMILIES, GeneratorSpec, generate
from .structures_io import emit, ingest
from .suites import SUITE_NAMES, SuiteConfig, check_structure, laplacian_series, run_suite

USAGE_ERROR = 2


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="codazzi",
        description="Numerical verification of statistical-structure identities",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run a named verification suite")
    verify.add_argument("--suite", required=True, choices=SUITE_NAMES)
    verify.add_argument("--seeds", type=int, default=3)
    verify.add_argument("--h", type=float, default=1e-3, help="finite-difference step")
    verify.add_argument("--tol-scale", type=float, default=1.0)
    verify.add_argument("--sweep-count", type=int, default=2000)
    verify.add_argument("--lattice", type=int, default=32,
                        help="lattice points per axis of the bundle integrals only")
    verify.add_argument("--fiber-nodes", type=int, default=12)
    verify.add_argument("--report", type=str, default=None, help="write the JSON report here")
    verify.add_argument("--emit-csv", action="store_true", help="write a CSV next to the report")
    verify.add_argument("--plot", type=str, default=None,
                        help="write a residual-vs-h convergence plot (SVG)")
    verify.add_argument("--strict", action="store_true",
                        help="treat precondition skips as exit status 3")

    gen = sub.add_parser("gen", help="generate a structure file")
    gen.add_argument("--family", required=True, choices=FAMILIES)
    gen.add_argument("--out", required=True)
    gen.add_argument("--n", type=int, default=2)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--params", type=str, default="{}",
                     help="JSON object of family parameters")

    check = sub.add_parser("check", help="ingest a structure file and run the checks that apply")
    check.add_argument("--file", required=True)
    check.add_argument("--report", type=str, default=None)
    check.add_argument("--strict", action="store_true")
    return parser


def _suite_config(args) -> SuiteConfig:
    # one constructor call, so validation sees every value
    return SuiteConfig(seeds=args.seeds, h=args.h, tol_scale=args.tol_scale,
                       lattice=args.lattice, fiber_order=args.fiber_nodes,
                       sweep_count=args.sweep_count)


def _print_summary(report) -> None:
    for check in report.checks:
        if check.verdict == "precondition-skipped":
            # a skip has no residual; its location carries the reason
            print(f"[skip] {check.id}: {check.location}")
            continue
        mark = "ok  " if check.verdict == "pass" else "FAIL"
        print(f"[{mark}] {check.id}: residual {check.residual:.3e} "
              f"tol {check.tolerance:.3e} ({check.location})")
    s = report.to_dict()["summary"]
    print(f"{report.suite}: {s['passed']}/{s['total']} passed, "
          f"{s['failed']} failed, {s['skipped']} skipped")


def _write_report(report, path: str, emit_csv: bool) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(report.to_json() + "\n")
    if emit_csv:
        csv_path = path[:-5] + ".csv" if path.endswith(".json") else path + ".csv"
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write(report.to_csv())


def _convergence_plot(path: str, h_values, series: dict) -> None:
    """Line plot of residual vs step on log-log axes, written as bare SVG."""
    width, height, margin = 640, 420, 60
    xs = [np.log10(h) for h in h_values]
    all_vals = [v for values in series.values() for v in values if v > 0]
    if not all_vals:
        all_vals = [1e-16]
    ys_lo = np.floor(np.log10(min(all_vals))) - 0.5
    ys_hi = np.ceil(np.log10(max(all_vals))) + 0.5
    x_lo, x_hi = min(xs) - 0.1, max(xs) + 0.1

    def px(x):
        return margin + (x - x_lo) / (x_hi - x_lo) * (width - 2 * margin)

    def py(y):
        return height - margin - (y - ys_lo) / (ys_hi - ys_lo) * (height - 2 * margin)

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" y2="{height - margin}" '
        f'stroke="black"/>',
        f'<text x="{width // 2}" y="{height - 15}" text-anchor="middle" '
        f'font-size="13">log10 h</text>',
        f'<text x="18" y="{height // 2}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 18 {height // 2})">log10 residual</text>',
    ]
    for i, (name, values) in enumerate(sorted(series.items())):
        color = colors[i % len(colors)]
        points = " ".join(
            f"{px(x):.1f},{py(np.log10(max(v, 1e-300))):.1f}" for x, v in zip(xs, values)
        )
        parts.append(f'<polyline points="{points}" fill="none" stroke="{color}" '
                     f'stroke-width="1.5"/>')
        parts.append(f'<text x="{width - margin + 4}" '
                     f'y="{py(np.log10(max(values[-1], 1e-300))):.1f}" font-size="10" '
                     f'fill="{color}">{name}</text>')
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE_ERROR if exc.code not in (0, None) else 0

    try:
        if args.command == "verify":
            if args.emit_csv and not args.report:
                print("error: --emit-csv writes the CSV next to the report; give --report too",
                      file=sys.stderr)
                return USAGE_ERROR
            cfg = _suite_config(args)
            report = run_suite(args.suite, cfg)
            _print_summary(report)
            if args.report:
                _write_report(report, args.report, args.emit_csv)
            if args.plot:
                steps, series, _ = laplacian_series(2, args.h)
                _convergence_plot(args.plot, steps, {name: series[name] for name in
                                                     ("ricci-identity", "simons-formula")})
            return report.exit_status(strict=args.strict)

        if args.command == "gen":
            try:
                params = json.loads(args.params)
            except json.JSONDecodeError as exc:
                print(f"error: --params is not valid JSON: {exc}", file=sys.stderr)
                return USAGE_ERROR
            spec = GeneratorSpec(args.family, n=args.n, seed=args.seed, params=params)
            structure = generate(spec)
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(emit(structure) + "\n")
            print(f"wrote {args.family} structure to {args.out}")
            return 0

        if args.command == "check":
            structure = ingest(args.file)
            report = check_structure(structure)
            _print_summary(report)
            if args.report:
                _write_report(report, args.report, False)
            return report.exit_status(strict=args.strict)
    except SchemaError as exc:
        print(f"schema error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (CodazziError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
