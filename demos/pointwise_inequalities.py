#!/usr/bin/env python3
"""Sharp pointwise inequalities of a statistical structure, with equality cases.

Walks through the quarter and eighth trace bounds, the norm-gap bound, and
the squared-norm bounds on ||L||^2 + ||P||^2, first on the structure that
attains equality and then on random sweeps.
"""

import numpy as np

from codazzi import (
    check_ineq_eighth,
    check_ineq_n2over3,
    check_ineq_quarter,
    contract,
    lpq,
    metric_factors,
    random_stat_point,
    raise_last,
    trace_k,
)
from codazzi.generators import equality_point, hyperbolic_point


def banner(title):
    print("=" * 64)
    print(title)
    print("=" * 64)


def main():
    banner("The equality structure: K(e1,e1)=e2, K(e1,e2)=e1, K(e2,e2)=3e2")
    g, a = equality_point()
    ginv = metric_factors(g)[0]
    e = ginv @ trace_k(raise_last(ginv, a))
    print(f"  trace vector E = {e},  ||A||^2 = {contract(ginv, a, a):g}")

    lhs, rhs, cert = check_ineq_quarter(g, a, [0.0, 1.0])
    print(f"\n  quarter bound at U=e2: lhs = {lhs:g} <= rhs = {rhs:g}  (strict)")

    lhs, rhs, cert = check_ineq_eighth(g, a, [1.0, 0.0])
    print(f"  eighth  bound at U=e1: lhs = {lhs:g} <= rhs = {rhs:g}  (equality!)")
    print("  equality certificate witnesses:")
    for name, value in cert.witnesses:
        print(f"    {name:<32} {value:.2e}")
    print(f"  certificate holds: {cert.holds}")

    residual, cert = check_ineq_n2over3(g, a)
    print(f"\n  norm-gap bound: (n+2)/3*||A||^2 - ||E||^2 = {residual:.2e}  (equality!)")
    (name, value), = cert.witnesses
    print(f"  equality certificate witness {name} = {value:.2e}, holds: {cert.holds}")

    banner("Random sweep: the bounds never fail")
    worst_q = worst_n = -np.inf
    for seed in range(500):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 6))
        g, a = random_stat_point(n, rng, metric="random")
        u = rng.uniform(-1, 1, n)
        lhs, rhs, _ = check_ineq_quarter(g, a, u)
        worst_q = max(worst_q, lhs - rhs)
        residual, _ = check_ineq_n2over3(g, a)
        worst_n = max(worst_n, -residual)
    print(f"  500 random structures, n = 2..5")
    print(f"  worst quarter margin:  {worst_q:+.3e}  (<= 0 means the bound held)")
    print(f"  worst norm-gap margin: {worst_n:+.3e}")

    banner("Squared-norm bounds for trace-free structures")
    g, a = hyperbolic_point(1.0, 0.0)
    normsq_l, normsq_p, _, pairing = lpq(g, a)
    u = contract(metric_factors(g)[0], a, a)
    print(f"  hyperbolic family (a=1, b=0): u = {u:g}")
    print(f"  ||L||^2 = {normsq_l:g}, ||P||^2 = {normsq_p:g}, -g(Q,A) = {-pairing:g}")
    print(f"  n = 2 pins the sum at (3/2) u^2 = {1.5 * u * u:g}")
    ok = abs(normsq_l + normsq_p - 1.5 * u * u) < 1e-10
    print(f"  {'PASS' if ok else 'FAIL'}")


if __name__ == "__main__":
    main()
