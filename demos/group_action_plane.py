"""Walkthrough: a cyclic group acting on a plane in dividing
characteristic.

Over a field with p elements, the order-p group generated by the
substitution x -> x, y -> x + y acts on k[x, y]; the twisted product of
the group algebra with the plane is the corresponding skew group algebra.
The group factor is resolved by the two-periodic complex, the plane by
the wedge complex, and the factor-moving lifts glue them into one total
resolution.  The interesting feature: in characteristic p the action is
unipotent, not semisimple, so nothing splits -- yet the total complex is
still exact."""

from twistres.twist import check_hexagon, triangular_action_twist
from twistres.complex import compose_check, truncate
from twistres.resolutions import check_lift_chain_map, check_lift_compat
from twistres.twistprod import kunneth_degree0_check, triangular_skew_product

P = 3


def main():
    t = triangular_action_twist(P)
    print("== the group-action twist (p = %d) ==" % P)
    print(check_hexagon(t, degree_bound=3, sample_count=200, seed=0))

    print("\n== periodic x wedge total complex ==")
    tc = triangular_skew_product(P, periodic_degree=4)
    print(tc.bicomplex.anticommute_report())
    print(compose_check(tc.complex))

    print("\n== the factor-moving lifts are chain maps ==")
    for bundle in (tc.bicomplex.pm, tc.bicomplex.pn):
        print(check_lift_chain_map(bundle, 2))
        for compat in check_lift_compat(bundle, 2).values():
            print(compat)

    print("\n== stage 0 recovers the skew group algebra, degree by "
          "degree ==")
    tr = truncate(tc.complex, 4)
    kun = kunneth_degree0_check(tc, tr)
    print(kun)
    for d in sorted(kun.rows):
        got, want = kun.rows[d]
        print("  degree <= %d: %d free generators survive, %d monomials "
              "in the algebra" % (d, got, want))

    print("\n== windowed exactness ==")
    print(tr.exactness())


if __name__ == "__main__":
    main()
