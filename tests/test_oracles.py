"""Random-input oracles: an independent route to a verdict the package
reaches, run on inputs nobody picked.

Hexagon and associativity.  A unital tau makes A (x)_tau B associative
exactly when it satisfies the hexagon identity (Cap, Schichl & Vanzura,
Comm. Algebra 23, 1995).  So on a perturbed shipped twist,
``check_hexagon(t, d)`` must pass exactly when brute force finds every
triple of monomials a (x) b (deg a, deg b <= d) associative under the
product of ``t.product()``, the one path for tau on elements.  The
perturbations change tau on pairs inside that same degree <= d box.
"""

from hypothesis import event, given, settings, strategies as st

from twistres.algebra import AlgebraElement, basis_up_to
from twistres.kernel import PrimeField
from twistres.twist import (
    check_hexagon, solvable_pair_twist, triangular_action_twist, weyl_twist,
)

SHIPPED = {
    "weyl": weyl_twist,
    "weyl-F3": lambda: weyl_twist(PrimeField(3)),
    "solvable-pair": solvable_pair_twist,
    "triangular-2": lambda: triangular_action_twist(2),
    "triangular-3": lambda: triangular_action_twist(3),
}


def associative(t, d):
    """Brute force: (uv)w == u(vw) in A (x)_tau B for every triple of
    monomials a (x) b with deg a, deg b <= d."""
    p = t.product()
    one = t.field.one
    monos = [AlgebraElement(p, {(am, bm): one})
             for am in basis_up_to(t.a_spec, d)
             for bm in basis_up_to(t.b_spec, d)]
    for u in monos:
        for v in monos:
            uv = u * v
            for w in monos:
                if uv * w != u * (v * w):
                    return False
    return True


@st.composite
def perturbed_twists(draw):
    """(t, d): a shipped twist with one to three of its non-unit pairs of
    degree <= d each moved by c (a' (x) b'), deg a', deg b' <= d + 1 and
    c in {-1, 0, 1, 2} (c = 0 and repeats leave tau as it was)."""
    t = SHIPPED[draw(st.sampled_from(sorted(SHIPPED)))]()
    d = draw(st.integers(1, 2))
    f = t.field
    bs = [m for m in basis_up_to(t.b_spec, d) if m != t.b_spec.one_monomial()]
    as_ = [m for m in basis_up_to(t.a_spec, d) if m != t.a_spec.one_monomial()]
    targets = [(am, bm) for am in basis_up_to(t.a_spec, d + 1)
               for bm in basis_up_to(t.b_spec, d + 1)]
    table = {}
    for _ in range(draw(st.integers(1, 3))):
        pair = (draw(st.sampled_from(bs)), draw(st.sampled_from(as_)))
        image = dict(table.get(pair) or t.monomial_rule(*pair))
        target = draw(st.sampled_from(targets))
        c = f.coerce(draw(st.sampled_from([-1, 0, 1, 2])))
        image[target] = f.add(image.get(target, f.zero), c)
        table[pair] = image
    return t.with_overrides(table), d


@settings(max_examples=120, derandomize=True, deadline=None)
@given(perturbed_twists())
def test_hexagon_passes_exactly_when_the_product_is_associative(case):
    t, d = case
    hexagon, assoc = check_hexagon(t, d).passed, associative(t, d)
    event("hexagon %s, associativity %s" % ("passes" if hexagon else "fails",
                                            "holds" if assoc else "fails"))
    assert hexagon == assoc


def test_hexagon_reads_pairs_beyond_the_triples_box():
    # check_hexagon(t, d) reads tau(bb' (x) aa') with bb', aa' of degree up
    # to 2d, the triples of degree <= d only up to (2d, d) and (d, 2d):
    # a change to tau(y^2 (x) x^2) alone is seen by the degree-1 hexagon
    # and by the degree-2 triples, not by the degree-1 triples
    t = weyl_twist()
    image = dict(t.monomial_rule((2,), (2,)))
    image[((0,), (0,))] += 1
    bad = t.with_overrides({((2,), (2,)): image})
    assert not check_hexagon(bad, 1).passed
    assert associative(bad, 1)
    assert not associative(bad, 2)
    assert check_hexagon(t, 2).passed and associative(t, 2)
