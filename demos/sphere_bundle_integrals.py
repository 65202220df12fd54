#!/usr/bin/env python3
"""Integral identities over unit-sphere fibers and the unit sphere bundle.

Covers the fiber-integral identity for covariant tensors, the spherical
codifferential it comes from, the vanishing bundle integral of the traced
covariant derivative, and the curvature-coupled functional whose two large
terms cancel for conjugate symmetric structures.
"""

import numpy as np

from codazzi.generators import GeneratorSpec, generate
from codazzi.spheres import (
    fiber_identity_residuals,
    product_gauss,
    ros_refinement,
    sphere_codiff_residual,
    unit_bundle_functional,
)
from codazzi.tensors import symmetrize


def main():
    rng = np.random.default_rng(11)
    print("Fiber-integral identity, product-Gauss quadrature")
    for n in (2, 3):
        quad = product_gauss(n)
        for k in (2, 3, 4):
            s = symmetrize(rng.uniform(-1, 1, (n,) * k))
            r = max(fiber_identity_residuals(s, quad))
            print(f"  n={n} k={k}: worst slot residual {r:.2e}  {'PASS' if r < 1e-9 else 'FAIL'}")

    print("\nSpherical codifferential, pointwise over the nodes")
    s = symmetrize(rng.uniform(-1, 1, (3, 3, 3)))
    r = sphere_codiff_residual(s, i0=1)
    print(f"  n=3 k=3: max pointwise residual {r:.2e}  {'PASS' if r < 1e-5 else 'FAIL'}")

    print("\nBundle integral of tr(nabla s) over the periodic torus")
    gen = generate(GeneratorSpec("G5-periodic-trig", seed=3,
                                 params={"variant": "generic", "freq": 3}))
    # both lattices from one pass over the 64 lattice, whose even-index points are the 32 lattice
    for m, r in zip((32, 64), ros_refinement(gen, gen.a_field, k=3, lattice=32)):
        print(f"  lattice {m}^2: |integral| = {r:.2e}  {'PASS' if r < 1e-6 else 'FAIL'}")

    print("\nCurvature-coupled functional on the conformal torus")
    conf = generate(GeneratorSpec(
        "G5-periodic-trig", seed=4,
        params={"variant": "conformal", "h": 5e-4, "amp": 0.25, "a": 0.8, "b": -0.5}))
    tg, tc, total = unit_bundle_functional(conf, lattice=64)
    print(f"  gradient term   {tg:+.6f}")
    print(f"  curvature term  {tc:+.6f}")
    print(f"  sum             {total:+.2e}  {'PASS' if abs(total) < 1e-5 else 'FAIL'}")
    print("  (two large terms cancel: the identity couples |nabla K| to curvature)")


if __name__ == "__main__":
    main()
