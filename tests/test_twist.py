"""Twisting maps: oracles for the rules, hexagon checks, inversion,
twisted multiplication, and module compatibility."""

import gc
import hashlib
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from twistres import twist
from twistres.algebra import (
    AlgebraElement, SpecMismatchError, basis_up_to, cyclic_group_algebra,
    filtration_degree, parse_element, polynomial_algebra,
    solvable_2dim_algebra, weyl_algebra,
)
from twistres.complex import BIMODULE, LEFT_MODULE, FreeModuleTerm
from twistres.kernel import QQ, CheckReport, PrimeField, add_term
from twistres.resolutions import lift_twist, poly_koszul
from twistres.twist import (
    LEFT_BIMODULE, ONE_SIDED, RIGHT_BIMODULE,
    AlgebraAsBimodule, CompatMap, GroundModule, MissingRuleError,
    NonInvertibleTwistError, TwistError, check_bimodule_compat,
    check_hexagon, custom_twist, flip_twist,
    invert_twist, ore_twist, self_bimodule_compat, self_right_bimodule_compat,
    skew_group_twist, solvable_pair_twist, transposition_compat,
    triangular_action_twist, weyl_twist,
)


def flip_xy():
    return flip_twist(polynomial_algebra(("x",)), polynomial_algebra(("y",)))


def flip_compat(t, module, kind):
    """The plain flip across ``module`` as a compat map of any kind;
    ``transposition_compat`` builds the one-sided one."""
    if kind == ONE_SIDED:
        return transposition_compat(t, module)
    one = t.field.one
    return CompatMap(kind, t, module, lambda x, y, lookup: {(y, x): one},
                     name="transposition")


def tau(t, b, a):
    """tau(b (x) a) in A (x)_tau B: the product (1 (x) b)(a (x) 1)."""
    p = t.product()
    return p.from_pair(t.a_spec.one(), b) * p.from_pair(a, t.b_spec.one())


def _digest(violations):
    """SHA-256 of a violation list's repr: pins every record exactly."""
    return hashlib.sha256(repr(violations).encode()).hexdigest()


# -- rule oracles -------------------------------------------------------------


def test_weyl_rule_on_generators():
    t = weyl_twist()
    y = parse_element("y", t.b_spec)
    x = parse_element("x", t.a_spec)
    out = tau(t, y, x)
    assert out == parse_element("x⊗y - 1", t.product())


def test_unit_conditions():
    t = weyl_twist()
    one_b = t.b_spec.one()
    x = parse_element("x", t.a_spec)
    assert tau(t, one_b, x) == parse_element("x", t.product())
    y = parse_element("y", t.b_spec)
    assert tau(t, y, t.a_spec.one()) == parse_element("y", t.product())


def test_weyl_rule_on_square():
    # two rewriting steps by hand: y^2 x = x y^2 - 2 y
    t = weyl_twist()
    y2 = parse_element("y^2", t.b_spec)
    x = parse_element("x", t.a_spec)
    assert tau(t, y2, x) == parse_element("x⊗y^2 - 2*y", t.product())


def test_product_crosses_by_the_monomial_rule():
    # (1 (x) b)(a (x) 1) is tau(b (x) a) on every monomial pair
    for t in (weyl_twist(), solvable_pair_twist(), triangular_action_twist(3)):
        one = t.field.one
        for bm in basis_up_to(t.b_spec, 3):
            for am in basis_up_to(t.a_spec, 3):
                out = tau(t, AlgebraElement(t.b_spec, {bm: one}),
                          AlgebraElement(t.a_spec, {am: one}))
                assert out.terms == t.monomial_rule(bm, am)


def test_unit_conditions_hold_on_all_kinds():
    for t in (weyl_twist(), flip_xy(), solvable_pair_twist(),
              triangular_action_twist(3)):
        one_a = t.a_spec.one_monomial()
        one_b = t.b_spec.one_monomial()
        for am in basis_up_to(t.a_spec, 2):
            assert t.monomial_rule(one_b, am) == {(am, one_b): t.field.one}
        for bm in basis_up_to(t.b_spec, 2):
            assert t.monomial_rule(bm, one_a) == {(one_a, bm): t.field.one}


# -- hexagon ------------------------------------------------------------------


def test_hexagon_weyl():
    rep = check_hexagon(weyl_twist(), 3, sample_count=200, seed=11)
    assert rep.passed and rep.checked == 256 + 200


def test_hexagon_flip():
    rep = check_hexagon(flip_xy(), 3)
    assert rep.passed


def test_hexagon_solvable_pair():
    assert check_hexagon(solvable_pair_twist(), 3, sample_count=100, seed=3).passed


@pytest.mark.parametrize("p", [2, 3])
def test_hexagon_triangular_action(p):
    assert check_hexagon(triangular_action_twist(p), 3, sample_count=100,
                         seed=5).passed


def test_hexagon_catches_corrupted_sign():
    t = weyl_twist()
    bad = t.with_overrides({(((1,), (1,))): {((1,), (1,)): 1, ((0,), (0,)): 1}})
    rep = check_hexagon(bad, 2)
    assert not rep.passed
    broken = {(v["b"], v["b_prime"], v["a"], v["a_prime"])
              for v in rep.violations}
    assert ("y", "y", "x", "x") in broken
    v = next(iter(rep.violations))
    assert v["lhs"] != v["rhs"]
    # exact records at degree 3, on the grid and on grid plus samples
    # (one pure-product memo serves both): a memo key that drops a
    # monomial shows here
    rep = check_hexagon(bad, 3)
    assert (rep.checked, len(rep.violations)) == (256, 111)
    assert rep.violations[0] == {
        "b": "1", "b_prime": "y", "a": "x", "a_prime": "x",
        "lhs": "-2·(x⊗1) + 1·(x^2⊗y)", "rhs": "2·(x⊗1) + 1·(x^2⊗y)"}
    rep = check_hexagon(bad, 3, sample_count=50, seed=3)
    assert (rep.checked, len(rep.violations)) == (306, 137)
    assert _digest(rep.violations) == (
        "c1557c0bbfd9d69465948227986a7032a74bb005b8f7246d0869ec6b946d562f")


# -- twisted multiplication ---------------------------------------------------


def test_twisted_multiply_weyl_relation():
    prod = weyl_twist().product()
    u = parse_element("y", prod)
    v = parse_element("x", prod)
    assert u * v == parse_element("x⊗y - 1", prod)
    assert v * u == parse_element("x⊗y", prod)


def test_twisted_multiply_skew_order_two():
    # g of order 2 acting by s -> -s: (1(x)s)(g(x)1) = g(x)(-s)
    kg = cyclic_group_algebra(2, field=QQ)
    ks = polynomial_algebra(("s",), field=QQ)
    t = skew_group_twist(kg, ks, {"s": "-s"})
    prod = t.product()
    s = parse_element("s", prod)
    g = parse_element("g", prod)
    assert s * g == -parse_element("g⊗s", prod)
    assert g * s == parse_element("g⊗s", prod)


def test_twisted_multiply_spec_guard():
    # a factor's element is not an element of the twisted product
    t = weyl_twist()
    with pytest.raises(SpecMismatchError):
        parse_element("x", t.a_spec) * parse_element("x", t.product())


def test_product_generator_name_clash():
    t = flip_twist(polynomial_algebra(("x",)), polynomial_algebra(("x",)))
    with pytest.raises(TwistError):
        t.product()


def test_product_element_degree():
    prod = weyl_twist().product()
    assert filtration_degree(parse_element("x⊗y", prod)) == 2


@st.composite
def product_elements(draw, prod, bound=2):
    basis = basis_up_to(prod, bound)
    n = draw(st.integers(min_value=1, max_value=2))
    terms = {}
    for _ in range(n):
        m = draw(st.sampled_from(basis))
        c = draw(st.integers(min_value=-3, max_value=3))
        terms[m] = c
    return prod.element({m: c for m, c in terms.items() if c})


@settings(max_examples=60, derandomize=True, deadline=None)
@given(st.data())
def test_twisted_multiply_associative_weyl(data):
    prod = weyl_twist().product()
    u = data.draw(product_elements(prod))
    v = data.draw(product_elements(prod))
    w = data.draw(product_elements(prod))
    assert (u * v) * w == u * (v * w)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.data())
def test_twisted_multiply_associative_triangular(data):
    prod = triangular_action_twist(3).product()
    u = data.draw(product_elements(prod))
    v = data.draw(product_elements(prod))
    w = data.draw(product_elements(prod))
    assert (u * v) * w == u * (v * w)


# -- cross-module oracle: twist vs PBW rewriting ------------------------------


def test_ore_twist_matches_ore_normal_form():
    t = weyl_twist()
    ore = weyl_algebra()
    x = parse_element("x", ore)
    y = parse_element("y", ore)
    for n in range(5):
        for d in range(5):
            crossed = t.monomial_rule((n,), (d,))
            direct = y ** n * x ** d if n or d else ore.one()
            got = {(i, j): c for ((i,), (j,)), c in crossed.items()}
            assert got == direct.terms


def test_solvable_twist_matches_ore_normal_form():
    t = solvable_pair_twist()
    ore = solvable_2dim_algebra()  # generators ordered (y, x)
    x = parse_element("x", ore)
    y = parse_element("y", ore)
    for n in range(5):
        for d in range(5):
            crossed = t.monomial_rule((n,), (d,))
            direct = x ** n * y ** d if n or d else ore.one()
            got = {(j, i): c for ((j,), (i,)), c in crossed.items()}
            assert got == direct.terms


def closed_form_derivation(spec, images, mono):
    """delta(x^e) = sum_i e_i x^(e - 1_i) delta(x_i) on a commutative
    polynomial algebra: the reference for the product-rule extension."""
    f = spec.field
    out = {}
    for i, e in enumerate(mono):
        img = images.get(i)
        if e == 0 or img is None:
            continue
        rest = tuple(v - 1 if j == i else v for j, v in enumerate(mono))
        for m, c in img.terms.items():
            add_term(f, out, tuple(u + v for u, v in zip(m, rest)),
                     f.mul(f.coerce(e), c))
    return out


@pytest.mark.parametrize("make", [
    lambda: ore_twist(polynomial_algebra(("a", "b", "c")),
                      polynomial_algebra(("x",)),
                      {"a": "b^2 + c", "b": "a*c", "c": "a^2*b - 3"}),
    lambda: ore_twist(polynomial_algebra(("a", "b"), field=PrimeField(3)),
                      polynomial_algebra(("x",), field=PrimeField(3)),
                      {"a": "b^2", "b": "a - 1"}),
    weyl_twist, solvable_pair_twist,
], ids=["nonlinear", "nonlinear-f3", "weyl", "solvable-pair"])
def test_ore_derivation_matches_closed_form(make):
    t = make()
    for mono in basis_up_to(t.a_spec, 5):
        assert t.delta_of_monomial(mono) == closed_form_derivation(
            t.a_spec, t.delta_images, mono)


@pytest.mark.parametrize("make", [
    weyl_twist, solvable_pair_twist, flip_xy,
    lambda: triangular_action_twist(3),
], ids=["weyl", "solvable-pair", "flip", "skew-p3"])
def test_twist_is_freed_with_its_last_reference(make):
    # with the cyclic collector off, only reference counting frees the
    # twist and its memo: a rule that reached back to its own twist (the
    # Ore recursion through x^(m-1)) would keep both alive
    enabled = gc.isenabled()
    gc.disable()
    try:
        t = make()
        assert check_hexagon(t, 3).passed
        ref = weakref.ref(t)
        del t
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


# -- graded twists preserve bidegree ------------------------------------------


def test_flip_and_skew_preserve_bidegree():
    for t in (flip_xy(), triangular_action_twist(2), triangular_action_twist(3)):
        for bm in basis_up_to(t.b_spec, 3):
            for am in basis_up_to(t.a_spec, 3):
                for (am2, bm2) in t.monomial_rule(bm, am):
                    assert t.a_spec.monomial_degree(am2) == t.a_spec.monomial_degree(am)
                    assert t.b_spec.monomial_degree(bm2) == t.b_spec.monomial_degree(bm)


# -- inversion ----------------------------------------------------------------


def test_invert_flip_is_flip():
    inv = invert_twist(flip_xy(), 3)
    assert inv.kind == "flip"
    assert inv.monomial_rule((2,), (1,)) == {((1,), (2,)): QQ.one}


def test_invert_weyl_hand_oracle():
    t = weyl_twist()
    inv = invert_twist(t, 4)
    # tau(y(x)x + 1(x)1) = x(x)y, so the inverse of x(x)y is y(x)x + 1(x)1
    got = inv.monomial_rule((1,), (1,))  # input pair x (x) y of A (x) B
    assert got == {((1,), (1,)): QQ.one, ((0,), (0,)): QQ.one}


def test_invert_skew_is_forward_action():
    t = triangular_action_twist(3)
    inv = invert_twist(t, 2)
    # tau^-1(g (x) y) = g(y) (x) g = (x + y) (x) g
    f = t.field
    got = inv.monomial_rule(1, (0, 1))
    assert got == {((1, 0), 1): f.one, ((0, 1), 1): f.one}


def test_invert_roundtrip_on_truncation():
    for t in (weyl_twist(), solvable_pair_twist(), triangular_action_twist(2)):
        bound = 3
        inv = invert_twist(t, bound)
        f = t.field
        for bm in basis_up_to(t.b_spec, bound):
            for am in basis_up_to(t.a_spec, bound):
                if (t.b_spec.monomial_degree(bm)
                        + t.a_spec.monomial_degree(am)) > bound:
                    continue
                back = {}
                for (a1, b1), c in t.monomial_rule(bm, am).items():
                    for pair, v in inv.monomial_rule(a1, b1).items():
                        acc = f.coerce(back.get(pair, f.zero) + f.mul(c, v))
                        if f.is_zero(acc):
                            back.pop(pair, None)
                        else:
                            back[pair] = acc
                assert back == {(bm, am): f.one}


def test_invert_rejects_collapsed_rule():
    t = weyl_twist()
    bad = t.with_overrides({(((1,), (1,))): {}})  # tau(y(x)x) := 0
    with pytest.raises(NonInvertibleTwistError):
        invert_twist(bad, 2)


def test_bijectivity_rank_check():
    # invert_twist ranks the truncation and fails exactly when it is short
    assert invert_twist(weyl_twist(), 4).kind == "custom"
    bad = weyl_twist().with_overrides({(((1,), (1,))): {}})
    with pytest.raises(NonInvertibleTwistError):
        invert_twist(bad, 2)


def test_tabulated_zero_term_is_dropped():
    # the Weyl rule plus a zero term on a pair outside the truncation:
    # the same twist, so the truncation stays bijective and invertible
    t = weyl_twist().with_overrides({((1,), (1,)): {
        ((1,), (1,)): 1, ((0,), (0,)): -1, ((3,), (3,)): 0}})
    assert t.monomial_rule((1,), (1,)) == {((1,), (1,)): 1, ((0,), (0,)): -1}
    inv = invert_twist(t, 2)
    assert (inv.monomial_rule((1,), (1,))
            == invert_twist(weyl_twist(), 2).monomial_rule((1,), (1,)))


def test_custom_twist_missing_entry():
    a = polynomial_algebra(("x",))
    b = polynomial_algebra(("y",))
    t = custom_twist(a, b, {})
    with pytest.raises(MissingRuleError):
        t.monomial_rule((1,), (1,))


# -- skew-group validation ----------------------------------------------------


def test_skew_rejects_nonlinear_action():
    kg = cyclic_group_algebra(2, field=QQ)
    ks = polynomial_algebra(("s",), field=QQ)
    with pytest.raises(TwistError):
        skew_group_twist(kg, ks, {"s": "s^2"})


def test_skew_rejects_wrong_order_action():
    kg = cyclic_group_algebra(2, field=QQ)
    s2 = polynomial_algebra(("x", "y"), field=QQ)
    # g.y = x + y has order 2 only in characteristic 2
    with pytest.raises(TwistError):
        skew_group_twist(kg, s2, {"x": "x", "y": "x+y"})


# -- compatibility maps -------------------------------------------------------


def test_self_compat_left_weyl():
    rep = check_bimodule_compat(self_bimodule_compat(weyl_twist()), 2)
    assert rep.passed and rep.checked > 0


def test_self_compat_right_skew():
    rep = check_bimodule_compat(self_right_bimodule_compat(
        triangular_action_twist(2)), 2)
    assert rep.passed


def test_flip_compat_on_plain_tensor():
    t = flip_xy()
    left = flip_compat(t, AlgebraAsBimodule(t.a_spec), LEFT_BIMODULE)
    right = flip_compat(t, AlgebraAsBimodule(t.b_spec), RIGHT_BIMODULE)
    assert check_bimodule_compat(left, 2).passed
    assert check_bimodule_compat(right, 2).passed


def test_one_sided_compat_trivial_module_solvable():
    # epsilon . delta = 0 for delta(y) = y, so the flip is compatible
    t = solvable_pair_twist()
    c = transposition_compat(t, GroundModule(t.a_spec))
    assert check_bimodule_compat(c, 3).passed


def test_one_sided_compat_trivial_module_weyl_fails():
    # epsilon(delta(x)) = -1 != 0: the flip is NOT compatible for the
    # Weyl pair, and the module-side equation must catch it
    t = weyl_twist()
    c = transposition_compat(t, GroundModule(t.a_spec))
    rep = check_bimodule_compat(c, 2)
    assert not rep.passed
    # exact records: an action memo or an inputs formatter bound to the
    # wrong tuple shows here
    assert rep.checked == 19
    assert rep.violations == [
        {"equation": "module-side", "inputs": ("y", "x", "[k]", ""),
         "lhs": "[]", "rhs": "[(('k', (0,)), Fraction(-1, 1))]"},
        {"equation": "module-side", "inputs": ("y^2", "x", "[k]", ""),
         "lhs": "[]", "rhs": "[(('k', (1,)), Fraction(-2, 1))]"},
        {"equation": "module-side", "inputs": ("y^2", "x^2", "[k]", ""),
         "lhs": "[]", "rhs": "[(('k', (0,)), Fraction(2, 1))]"},
    ]


@pytest.mark.parametrize("kind, first, digest", [
    (LEFT_BIMODULE, ("y", "1", "1", "x"),
     "0f3c2e86f40b897697a12b9be6c04d3bfc53c554ebd96c464ebdc0936d980bdc"),
    (RIGHT_BIMODULE, ("1", "1", "y", "x"),
     "dc064020fb4c45babf1120223b5ce1e9d9120e4ea1ea64eabb2a783d9ee217d4"),
])
def test_bimodule_transposition_weyl_violation_records(kind, first, digest):
    # the flip is not compatible with the Weyl twist on either side; the
    # exact records cover the two-sided action memo (a right factor in
    # every key) on both kinds
    t = weyl_twist()
    algebra = t.a_spec if kind == LEFT_BIMODULE else t.b_spec
    c = flip_compat(t, AlgebraAsBimodule(algebra), kind)
    rep = check_bimodule_compat(c, 2)
    assert (rep.checked, len(rep.violations)) == (111, 48)
    assert {v["equation"] for v in rep.violations} == {"module-side"}
    assert rep.violations[0]["inputs"] == first
    assert _digest(rep.violations) == digest


# -- the checker against its per-tuple reference ------------------------------


def reference_check_bimodule_compat(c, degree_bound):
    """check_bimodule_compat with every move recomputed per tuple and every
    lhs built through CompatMap.apply: the reference the shared-sum
    checker must match record for record."""
    t = c.twist
    f = t.field
    mod = c.module
    report = CheckReport("compat(%s, %s, deg<=%d)"
                         % (c.name, c.kind, degree_bound), " tuples")
    mkeys = mod.basis(degree_bound)
    act = mod.act

    if c.kind in (LEFT_BIMODULE, ONE_SIDED):
        bs = basis_up_to(t.b_spec, degree_bound)
        as_ = basis_up_to(t.a_spec, degree_bound)
        for m in mkeys:
            lhs = c.pair_rule(t.b_spec.one_monomial(), m)
            report.record_equation(f, "unit", "inputs",
                                   lambda: (mod.format_key(m),), lhs,
                                   {(m, t.b_spec.one_monomial()): f.one})
        # multiplication side
        for b in bs:
            for b2 in bs:
                for m in mkeys:
                    lhs = {}
                    for bm, bc in t.b_spec.mono_mul(b, b2).items():
                        for pair, v in c.pair_rule(bm, m).items():
                            add_term(f, lhs, pair, f.mul(bc, v))
                    rhs = {}
                    for (m1, b1), c1 in c.pair_rule(b2, m).items():
                        for (m2, b2b), c2 in c.pair_rule(b, m1).items():
                            w = f.mul(c1, c2)
                            for bm, bc in t.b_spec.mono_mul(b2b, b1).items():
                                add_term(f, rhs, (m2, bm), f.mul(w, bc))
                    report.record_equation(
                        f, "product-side", "inputs",
                        lambda: (t.b_spec.format_monomial(b),
                                 t.b_spec.format_monomial(b2),
                                 mod.format_key(m)), lhs, rhs)
        # module side; one-sided modules have no a' (a2 None)
        rights = as_ if c.kind == LEFT_BIMODULE else [None]
        for b in bs:
            for a in as_:
                for m in mkeys:
                    for a2 in rights:
                        lhs = c.apply({(b, k): v
                                       for k, v in act(a, m, a2).items()})
                        rhs = {}
                        for (a1, b1), c1 in t.monomial_rule(b, a).items():
                            for (m1, b2b), c2 in c.pair_rule(b1, m).items():
                                w = f.mul(c1, c2)
                                moves = ({(None, b2b): f.one} if a2 is None
                                         else t.monomial_rule(b2b, a2))
                                for (a3, b3), c3 in moves.items():
                                    w3 = f.mul(w, c3)
                                    for k, kc in act(a1, m1, a3).items():
                                        add_term(f, rhs, (k, b3),
                                                 f.mul(w3, kc))
                        report.record_equation(
                            f, "module-side", "inputs",
                            lambda: (t.b_spec.format_monomial(b),
                                     t.a_spec.format_monomial(a),
                                     mod.format_key(m),
                                     "" if a2 is None
                                     else t.a_spec.format_monomial(a2)),
                            lhs, rhs)
        return report

    # right-of-bimodule: N over B, rule (key, a_mono) -> (a', key')
    as_ = basis_up_to(t.a_spec, degree_bound)
    bs = basis_up_to(t.b_spec, degree_bound)
    for m in mkeys:
        lhs = c.pair_rule(m, t.a_spec.one_monomial())
        report.record_equation(f, "unit", "inputs",
                               lambda: (mod.format_key(m),), lhs,
                               {(t.a_spec.one_monomial(), m): f.one})
    # multiplication side
    for m in mkeys:
        for a in as_:
            for a2 in as_:
                lhs = {}
                for am, ac in t.a_spec.mono_mul(a, a2).items():
                    for pair, v in c.pair_rule(m, am).items():
                        add_term(f, lhs, pair, f.mul(ac, v))
                rhs = {}
                for (a1, m1), c1 in c.pair_rule(m, a).items():
                    for (a2b, m2), c2 in c.pair_rule(m1, a2).items():
                        w = f.mul(c1, c2)
                        for am, ac in t.a_spec.mono_mul(a1, a2b).items():
                            add_term(f, rhs, (am, m2), f.mul(w, ac))
                report.record_equation(
                    f, "product-side", "inputs",
                    lambda: (mod.format_key(m),
                             t.a_spec.format_monomial(a),
                             t.a_spec.format_monomial(a2)), lhs, rhs)
    # module side: tau_mod((b n b') (x) a)
    for b in bs:
        for m in mkeys:
            for b2 in bs:
                for a in as_:
                    lhs = c.apply({(k, a): v
                                   for k, v in act(b, m, b2).items()})
                    rhs = {}
                    for (a1, b1), c1 in t.monomial_rule(b2, a).items():
                        for (a2v, m2), c2 in c.pair_rule(m, a1).items():
                            w = f.mul(c1, c2)
                            for (a3, b3), c3 in t.monomial_rule(b, a2v).items():
                                w3 = f.mul(w, c3)
                                for k, kc in act(b3, m2, b1).items():
                                    add_term(f, rhs, (a3, k), f.mul(w3, kc))
                    report.record_equation(
                        f, "module-side", "inputs",
                        lambda: (t.b_spec.format_monomial(b),
                                 mod.format_key(m),
                                 t.b_spec.format_monomial(b2),
                                 t.a_spec.format_monomial(a)), lhs, rhs)
    return report


class SignModule(GroundModule):
    """k over a cyclic group algebra of even order, its generator acting
    by -1: odd powers act on the one key with coefficient -1."""

    def act(self, l, key, r):
        f = self.algebra.field
        return {key: f.neg(f.one) if l is not None and l % 2 else f.one}


def _corrupted_weyl(extra=1):
    """The Weyl twist with tau(y (x) x) overridden; extra=0 leaves a term
    with coefficient zero in the tabulated image."""
    return weyl_twist().with_overrides(
        {((1,), (1,)): {((1,), (1,)): 1, ((0,), (0,)): extra}})


def _self_compat_maps():
    maps = []
    for t in (weyl_twist(), solvable_pair_twist(), triangular_action_twist(2),
              triangular_action_twist(3), _corrupted_weyl(),
              _corrupted_weyl(extra=0)):
        maps += [self_bimodule_compat(t), self_right_bimodule_compat(t)]
    return maps


def _transposition_maps():
    t = weyl_twist()
    return [flip_compat(t, AlgebraAsBimodule(t.a_spec), LEFT_BIMODULE),
            flip_compat(t, AlgebraAsBimodule(t.b_spec), RIGHT_BIMODULE),
            flip_compat(t, GroundModule(t.a_spec), ONE_SIDED)]


def _general_lhs_maps():
    """Maps whose acted elements have several terms (actions of the Weyl
    and solvable 2-dim algebras on free modules) or one key with
    coefficient -1 (the sign module)."""
    weyl, solv = weyl_algebra(), solvable_2dim_algebra()
    kz = polynomial_algebra(("z",))
    left, right = flip_twist(weyl, kz), flip_twist(kz, solv)
    kg, kx = cyclic_group_algebra(2), polynomial_algebra(("x",))
    return [
        flip_compat(left, AlgebraAsBimodule(weyl), LEFT_BIMODULE),
        flip_compat(left, FreeModuleTerm(
            weyl, ("e", "f"), BIMODULE, {"f": 1}), LEFT_BIMODULE),
        flip_compat(left, FreeModuleTerm(
            weyl, ("e",), LEFT_MODULE), ONE_SIDED),
        flip_compat(right, AlgebraAsBimodule(solv), RIGHT_BIMODULE),
        flip_compat(right, FreeModuleTerm(
            solv, ("e",), BIMODULE), RIGHT_BIMODULE),
        flip_compat(skew_group_twist(kg, kx, {"x": "x"}),
                    SignModule(kg), ONE_SIDED),
        flip_compat(skew_group_twist(kg, kx, {"x": "-x"}),
                    SignModule(kg), ONE_SIDED),
    ]


def _suite_lift_maps():
    from test_acceptance import _suite_products
    return [cm for tc in _suite_products()
            for bundle in (tc.bicomplex.pm, tc.bicomplex.pn)
            for cm in (getattr(bundle, "lifts", None) or {}).values()]


def _assert_matches_reference(ref_map, c, degree_bound):
    """The checker on ``c`` against the reference on ``ref_map``, a second
    copy of ``c`` from the same factory: first on ``c`` as built, so the
    checker computes its own misses, then on ``c`` with its shared memo
    filled by the reference, which the checker reads and never changes."""
    ref = reference_check_bimodule_compat(ref_map, degree_bound)
    expected = (ref.checked, ref.violations)
    rep = check_bimodule_compat(c, degree_bound)
    assert (rep.checked, rep.violations) == expected, c
    reference_check_bimodule_compat(c, degree_bound)
    images = {pair: dict(image) for pair, image in c._cache.items()}
    rep = check_bimodule_compat(c, degree_bound)
    assert (rep.checked, rep.violations) == expected, c
    assert all(c._cache[pair] == image for pair, image in images.items())
    return rep


@pytest.mark.parametrize("maps", [_self_compat_maps, _transposition_maps,
                                  _suite_lift_maps])
def test_compat_matches_reference(maps):
    for degree_bound in (1, 2):
        for ref_map, c in zip(maps(), maps()):
            _assert_matches_reference(ref_map, c, degree_bound)


def test_compat_matches_reference_on_general_lhs(monkeypatch):
    seen = set()
    image_of = twist._image_of

    def recording(f, vec, image):
        if len(vec) > 1:
            seen.add("several terms")
        elif any(v != f.one for v in vec.values()):
            seen.add("one key, coefficient not one")
        return image_of(f, vec, image)

    monkeypatch.setattr(twist, "_image_of", recording)
    outcomes = [_assert_matches_reference(ref_map, c, 2).passed
                for ref_map, c in zip(_general_lhs_maps(), _general_lhs_maps())]
    # only the sign module under the x -> -x action fails
    assert outcomes == [True] * 6 + [False]
    assert seen == {"several terms", "one key, coefficient not one"}


# -- the lift memo: shared with every consumer, only read by the check ---------


def test_compat_check_leaves_the_lift_memo_as_it_found_it():
    # the closed-form Koszul left rule reaches b^m through the check's own
    # lookup, so it stores nothing in the lift memo either
    lifts = _suite_lift_maps()
    assert len(lifts) == 30
    for c in lifts:
        reference_check_bimodule_compat(c, 1)
        before = dict(c._cache)
        assert check_bimodule_compat(c, 2).passed, c
        assert c._cache.keys() == before.keys(), c
        assert all(c._cache[pair] is image for pair, image in before.items())


@pytest.mark.parametrize("side", ["left", "right"])
def test_compat_check_reads_a_planted_lift_image(side):
    # the planting of test_check_reports._corrupted_lift: one lift image
    # of the moved generator across the stage-1 generator, scaled by 2
    t = weyl_twist()
    bundle = lift_twist(poly_koszul(t.a_spec if side == "left" else t.b_spec),
                        t, side=side)
    term = bundle.complex.terms[1]
    gen = next(iter(term.generator(term.labels[0]).terms))
    lift = bundle.lifts[1]
    pair = ((1,), gen) if side == "left" else (gen, (1,))
    assert check_bimodule_compat(lift, 2).passed
    lift._cache[pair] = {k: 2 * v for k, v in lift.image(*pair, lift.pair_rule).items()}
    assert not check_bimodule_compat(lift, 2).passed
