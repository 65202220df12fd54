#!/usr/bin/env python3
"""Structural identities of the dual connections, verified by finite differences.

Builds a Hessian structure from a convex potential (so the coordinate
connection is flat by construction) and checks the curvature and Ricci
decompositions at sample points; every residual should sit at the O(h^2)
finite-difference floor.
"""

import numpy as np

from codazzi.charts import (
    conjugate_symmetry_defect,
    duality_involution_defect,
    hessian_from_potential,
    residuals_at,
    ricci_decomposition_residuals,
    sectional_hat,
    sectional_nabla,
    statistical_connections,
)
from codazzi.points import sectional_k


def main():
    cs = hessian_from_potential(
        "0.5*x1**2*x2**2 + 0.5*(x1**2 + x2**2)", [[-0.6, 0.6]] * 2, h=1e-3
    )
    x = np.array([0.15, -0.22])
    print(f"Hessian chart from a convex potential, h = {cs.h:g}, at x = {x.tolist()}")
    print(f"  g(x) =\n{cs.metric_at(x)}")

    conn = statistical_connections(cs, x)
    print(f"\n  |R| of the dual-flat connection: {np.max(np.abs(conn.r_nabla)):.3e}")
    print(f"  conjugate-symmetry defect:       {conjugate_symmetry_defect(cs, x):.3e}")
    print(f"  duality involution round-trip:   {duality_involution_defect(cs, x):.3e}")

    print("\n  structural residuals (all O(h^2)):")
    for key, value in residuals_at(conn.residuals, ()).items():
        print(f"    {key:<28} {value:.3e}")

    print("\n  Ricci / scalar decompositions:")
    for key, value in residuals_at(ricci_decomposition_residuals(cs, x), ()).items():
        print(f"    {key:<28} {value:.3e}")

    k_hat = sectional_hat(cs, x, ([1, 0], [0, 1]))
    k_total = sectional_nabla(cs, x, ([1, 0], [0, 1]))
    k_comm = sectional_k(cs.metric_at(x), cs.cubic_at(x), [1, 0], [0, 1])
    print(f"\n  sectional curvatures: hat {k_hat:+.6f}, commutator {k_comm:+.6f}")
    print(f"  sum rule k = k_hat + k_K: {k_total:+.6f} vs {k_hat + k_comm:+.6f}")
    ok = abs(k_total - k_hat - k_comm) < 1e-5
    print(f"  {'PASS' if ok else 'FAIL'}")


if __name__ == "__main__":
    main()
