"""Walkthrough: the derivation-twisted plane.

Two polynomial lines k[y] and k[x] glued by the twisting map that moves x
across y at the cost of a derivative (tau(x (x) y) = y (x) x + 1 (x) 1)
multiply out to the algebra with x y - y x = 1.  This script checks the
twist, builds the twisted product of the two one-variable wedge
resolutions, identifies it with the wedge resolution computed directly on
the two-generator presentation, and extracts the cohomology table."""

from twistres.algebra import weyl_algebra
from twistres.twist import check_hexagon, weyl_twist
from twistres.complex import compose_check, exactness_report
from twistres.resolutions import ore_koszul
from twistres.twistprod import (
    complexes_match, koszul_pair_product, transport_complex,
)
from twistres.homology import hochschild_cohomology


def main():
    t = weyl_twist()
    prod = t.product(name="k<x,y>/(xy-yx-1)")

    print("== the twist ==")
    rep = check_hexagon(t, degree_bound=3, sample_count=200, seed=0)
    print(rep)
    y = prod.element({((0,), (1,)): prod.field.one})
    x = prod.element({((1,), (0,)): prod.field.one})
    print("y * x  ->", y * x)
    print("x * y  ->", x * y)

    print("\n== the twisted product of two wedge resolutions ==")
    tc = koszul_pair_product(t)
    print(tc.bicomplex.anticommute_report())
    print(compose_check(tc.complex))
    print(exactness_report(tc.complex, 6))

    print("\n== identification with the direct wedge resolution ==")
    target = weyl_algebra()
    moved = transport_complex(tc.complex, target,
                              lambda pair: pair[0] + pair[1],
                              lambda lab: lab[2] + tuple(g + 1
                                                         for g in lab[3]))
    direct = ore_koszul(target)
    print(complexes_match(moved, direct.complex))

    print("\n== cohomology ==")
    table = hochschild_cohomology(direct, cutoff=8)
    print(table)
    for n in sorted(table.dims):
        flag = "stable" if table.stable[n] else "UNSTABLE"
        print("  stage %d: dim %d (%s)" % (n, table.dims[n], flag))


if __name__ == "__main__":
    main()
