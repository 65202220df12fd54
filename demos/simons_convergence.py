#!/usr/bin/env python3
"""Second-order convergence of the Laplacian-identity residuals.

Each identity is exact in the continuum; the finite-difference residual
must shrink by a factor of about four every time the step halves.
"""

import numpy as np

from codazzi.charts import (
    ChartStructure,
    constant_field,
    cubic_simons_residuals,
    hessian_from_potential,
    ricci_identity_residual,
    simons_residual,
    weitzenbock_residual,
)


def main():
    x = np.array([0.15, -0.22])
    steps = [4e-3, 2e-3, 1e-3]
    rows = {"ricci-identity": [], "simons-formula": [], "weitzenbock": [],
            "laplace-cubic": []}
    for h in steps:
        hess = hessian_from_potential(
            "0.5*x1**2*x2**2 + 0.5*(x1**2 + x2**2)", [[-0.6, 0.6]] * 2, h=h
        )
        sphere_metric = lambda y: 4.0 * np.eye(2) / (1 + np.sum(y * y, axis=-1))[..., None, None]**2
        sph = ChartStructure(2, [[-0.4, 0.4]] * 2, sphere_metric,
                             constant_field(np.zeros((2, 2, 2))), h=h)
        tau = lambda y: np.stack(
            [np.sin(y[..., 0] + 2 * y[..., 1]), np.cos(y[..., 0] - y[..., 1])], axis=-1)
        rows["ricci-identity"].append(ricci_identity_residual(hess, hess.a_field, x))
        rows["simons-formula"].append(simons_residual(hess, hess.a_field, x))
        rows["weitzenbock"].append(weitzenbock_residual(sph, tau, x)["weitzenbock"])
        rows["laplace-cubic"].append(cubic_simons_residuals(hess, x)["laplace-cubic-ricci"])

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
