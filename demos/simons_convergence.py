#!/usr/bin/env python3
"""Second-order convergence of the Laplacian-identity residuals.

Each identity is exact in the continuum; the finite-difference residual
must shrink by a factor of about four every time the step halves.  The
residuals are those the simons suite reads, from suites.laplacian_series
in dimension 2 at the steps 4e-3, 2e-3 and 1e-3.
"""

from codazzi.suites import laplacian_series

ROWS = {"ricci-identity": "ricci-identity", "simons-formula": "simons-formula",
        "weitzenbock": "weitzenbock", "laplace-cubic": "laplace-cubic-ricci"}


def main():
    steps, series, _ = laplacian_series(2, 1e-3)
    rows = {name: series[key] for name, key in ROWS.items()}

    header = f"  {'identity':<18}" + "".join(f"  h={h:g}" .rjust(12) for h in steps) + "   ratios"
    print("Residuals of the Laplacian identities under step halving")
    print(header)
    print("  " + "-" * (len(header) - 2))
    all_ok = True
    for name, values in rows.items():
        ratios = [values[i] / values[i + 1] for i in range(len(values) - 1)]
        ok = all(3.2 <= r <= 4.8 for r in ratios)
        all_ok &= ok
        cells = "".join(f"{v:12.3e}" for v in values)
        print(f"  {name:<18}{cells}   {', '.join(f'{r:.2f}' for r in ratios)}"
              f"  {'PASS' if ok else 'FAIL'}")
    print(f"\n  second-order convergence everywhere: {'PASS' if all_ok else 'FAIL'}")


if __name__ == "__main__":
    main()
