"""Resolution builders: frozen small differentials, d.d = 0, exactness
windows, and the attached factor-moving lifts with their checks."""

from itertools import combinations, permutations

import pytest

from twistres.kernel import CheckReport, PrimeField, add_term
from twistres.algebra import (
    basis_up_to, polynomial_algebra, cyclic_group_algebra, weyl_algebra,
    solvable_2dim_algebra, heisenberg_algebra,
)
from twistres.complex import (
    BIMODULE, ChainComplexSpec, CutoffError, FreeElement, FreeModuleTerm,
    compose_check, exactness_report,
)
from twistres.twist import (
    CompatMap, flip_twist, ore_twist, weyl_twist, solvable_pair_twist,
    triangular_action_twist,
)
from twistres.resolutions import (
    BAR, REDUCED_BAR, POLY_KOSZUL, ORE_KOSZUL, ONE_SIDED_KOSZUL,
    CYCLIC_PERIODIC, RESOLVES_ALGEBRA, RESOLVES_GROUND,
    AugmentationError, ChainMapError, ResolutionBundle, ResolutionError,
    RestrictionError,
    bar, poly_koszul, ore_koszul, one_sided_koszul_kx, cyclic_periodic,
    lift_twist, check_lift_chain_map, check_lift_compat,
    sigma_delta_chain_maps, sort_wedge, wedge_to_bar,
    crosscheck_koszul_lift,
)


def test_sort_wedge():
    assert sort_wedge((0, 1, 2)) == ((0, 1, 2), 1)
    assert sort_wedge((1, 0)) == ((0, 1), -1)
    assert sort_wedge((2, 0, 1)) == ((0, 1, 2), 1)
    assert sort_wedge((1, 1)) is None
    assert sort_wedge(()) == ((), 1)


# ---------------------------------------------------------------------------
# bar


def test_bar_kx_degree_one():
    kx = polynomial_algebra(("x",))
    b = bar(kx, 2, middle_cutoff=3)
    assert b.family == BAR
    assert b.resolved == RESOLVES_ALGEBRA
    d1 = b.complex.differentials[1][((1,),)]
    assert d1.terms == {((1,), (), (0,)): 1, ((0,), (), (1,)): -1}


def test_bar_label_counts():
    kx = polynomial_algebra(("x",))
    full = bar(kx, 2, middle_cutoff=3)
    red = bar(kx, 2, middle_cutoff=3, reduced=True)
    # pairs of exponents with sum <= 3: C(5,2) = 10; positive pairs: 3
    assert len(full.complex.terms[2].labels) == 10
    assert len(red.complex.terms[2].labels) == 3
    assert red.family == REDUCED_BAR


def test_bar_composes_to_zero():
    kx = polynomial_algebra(("x",))
    for red in (False, True):
        b = bar(kx, 3, middle_cutoff=4, reduced=red)
        rep = compose_check(b.complex)
        assert rep.passed, rep.violations


def test_bar_group_algebra_reduced_merge():
    k2 = cyclic_group_algebra(2, PrimeField(2))
    full = bar(k2, 2, middle_cutoff=0)
    red = bar(k2, 2, middle_cutoff=0, reduced=True)
    lab = (1, 1)  # the pair (g, g); g.g = 1 merges away in the reduced bar
    d_full = full.complex.differentials[2][lab]
    d_red = red.complex.differentials[2][lab]
    assert d_full.terms == {(1, (1,), 0): 1, (0, (0,), 0): 1, (0, (1,), 1): 1}
    assert d_red.terms == {(1, (1,), 0): 1, (0, (1,), 1): 1}
    assert compose_check(full.complex).passed
    assert compose_check(red.complex).passed


def test_bar_group_algebra_char0_composes():
    k3 = cyclic_group_algebra(3)
    b = bar(k3, 3, reduced=True)
    assert compose_check(b.complex).passed
    assert len(b.complex.terms[3].labels) == 8


# ---------------------------------------------------------------------------
# wedge families


def test_poly_koszul_kxy_degree_two():
    kxy = polynomial_algebra(("x", "y"))
    kz = poly_koszul(kxy)
    assert kz.family == POLY_KOSZUL
    d2 = kz.complex.differentials[2][(0, 1)]
    assert d2.terms == {
        ((1, 0), (1,), (0, 0)): 1, ((0, 0), (1,), (1, 0)): -1,
        ((0, 1), (0,), (0, 0)): -1, ((0, 0), (0,), (0, 1)): 1,
    }
    assert compose_check(kz.complex).passed


def test_poly_koszul_exactness():
    kxy = polynomial_algebra(("x", "y"))
    kz = poly_koszul(kxy)
    rep = exactness_report(kz.complex, 5)
    assert rep.passed
    assert all(v == 0 for v in rep.homology.values())


def test_poly_koszul_rejects_ore():
    with pytest.raises(ResolutionError):
        poly_koszul(weyl_algebra())


def test_one_sided_koszul_kx():
    kx = polynomial_algebra(("x",))
    b = one_sided_koszul_kx(kx)
    assert b.family == ONE_SIDED_KOSZUL
    assert b.resolved == RESOLVES_GROUND
    d1 = b.complex.differentials[1][(0,)]
    assert d1.terms == {((1,), ()): 1}
    rep = exactness_report(b.complex, 5)
    assert rep.passed


def test_ore_koszul_weyl_matches_poly_shape():
    w = weyl_algebra()
    kz = ore_koszul(w)
    assert kz.family == ORE_KOSZUL
    d2 = kz.complex.differentials[2][(0, 1)]
    # the commutator is central: no lower-order wedge term appears
    assert d2.terms == {
        ((1, 0), (1,), (0, 0)): 1, ((0, 0), (1,), (1, 0)): -1,
        ((0, 1), (0,), (0, 0)): -1, ((0, 0), (0,), (0, 1)): 1,
    }
    assert compose_check(kz.complex).passed


def test_ore_koszul_solvable_extra_term():
    u = solvable_2dim_algebra()
    kz = ore_koszul(u)
    d2 = kz.complex.differentials[2][(0, 1)]
    # gens are (y, x) with x.y = y.x + y: one extra unit-coefficient term
    assert d2.terms[((0, 0), (0,), (0, 0))] == 1
    assert len(d2.terms) == 5
    assert compose_check(kz.complex).passed


def test_ore_koszul_heisenberg_composes():
    h = heisenberg_algebra()
    kz = ore_koszul(h)
    assert compose_check(kz.complex).passed
    d2 = kz.complex.differentials[2][(1, 2)]  # y^x slot pair: extra z wedge
    assert d2.terms[((0, 0, 0), (0,), (0, 0, 0))] == 1


def test_ore_koszul_on_polynomial_equals_poly_koszul():
    kxy = polynomial_algebra(("x", "y"))
    a = poly_koszul(kxy)
    b = ore_koszul(kxy)
    for n in range(1, 3):
        for lab in a.complex.terms[n].labels:
            assert (a.complex.differentials[n][lab].terms
                    == b.complex.differentials[n][lab].terms)


def test_ore_koszul_exactness_windowed():
    u = solvable_2dim_algebra()
    kz = ore_koszul(u)
    rep = exactness_report(kz.complex, 6)
    assert rep.passed


# ---------------------------------------------------------------------------
# cyclic periodic


def test_cyclic_periodic_differentials():
    p2 = cyclic_periodic(2, 4)
    assert p2.family == CYCLIC_PERIODIC
    d1 = p2.complex.differentials[1]["e1"]
    d2 = p2.complex.differentials[2]["e2"]
    assert d1.terms == {(1, "e0", 0): 1, (0, "e0", 1): 1}  # char 2: -1 = 1
    assert d2.terms == {(1, "e1", 0): 1, (0, "e1", 1): 1}
    assert compose_check(p2.complex).passed


def test_cyclic_periodic_p3():
    p3 = cyclic_periodic(3, 5)
    d2 = p3.complex.differentials[2]["e2"]
    assert d2.terms == {(2, "e1", 0): 1, (1, "e1", 1): 1, (0, "e1", 2): 1}
    assert compose_check(p3.complex).passed
    rep = exactness_report(p3.complex, 5)
    assert rep.passed


def test_cyclic_periodic_spec_mismatch():
    k2 = cyclic_group_algebra(2, PrimeField(2))
    with pytest.raises(ResolutionError):
        cyclic_periodic(3, 2, spec=k2)


# ---------------------------------------------------------------------------
# wedge lifts (closed form) over derivation twists


def test_koszul_left_lift_weyl_frozen():
    t = weyl_twist()
    kz = lift_twist(poly_koszul(t.a_spec), t, side="left")
    unit = ((0,), (), (0,))
    # moving y across x (x) 1: the derivation eats the coefficient
    out = kz.lifts[0].pair_rule((1,), ((1,), (), (0,)))
    assert out == {(((1,), (), (0,)), (1,)): 1, (((0,), (), (0,)), (0,)): -1}
    # the wedge generator passes through untouched (constant derivative)
    out1 = kz.lifts[1].pair_rule((1,), ((0,), (0,), (0,)))
    assert out1 == {(((0,), (0,), (0,)), (1,)): 1}
    # unit stays unit
    assert kz.lifts[0].pair_rule((0,), unit) == {(unit, (0,)): 1}


def test_koszul_left_lift_weyl_checks():
    t = weyl_twist()
    kz = lift_twist(poly_koszul(t.a_spec), t, side="left")
    assert check_lift_chain_map(kz, 3).passed
    reports = check_lift_compat(kz, 2)
    assert all(r.passed for r in reports.values())


def test_koszul_left_lift_solvable_slot_term():
    t = solvable_pair_twist()
    kz = lift_twist(poly_koszul(t.a_spec), t, side="left")
    gen1 = ((0,), (0,), (0,))
    out = kz.lifts[1].pair_rule((1,), gen1)
    # delta(y) = y is linear: the slot reproduces itself with coefficient 1
    assert out == {(gen1, (1,)): 1, (gen1, (0,)): 1}
    assert check_lift_chain_map(kz, 3).passed
    reports = check_lift_compat(kz, 2)
    assert all(r.passed for r in reports.values())


def test_koszul_left_lift_powers_consistent_with_twist():
    t = solvable_pair_twist()
    kz = lift_twist(poly_koszul(t.a_spec), t, side="left")
    # degree-zero wedge keys behave exactly like the twist on coefficients
    for m in range(4):
        for d in range(4):
            got = kz.lifts[0].pair_rule((m,), ((d,), (), (0,)))
            want = {(((am[0],), (), (0,)), bm): c
                    for (am, bm), c in t.monomial_rule((m,), (d,)).items()}
            assert got == want


def test_koszul_one_sided_lift():
    t = solvable_pair_twist()
    b = lift_twist(poly_koszul(t.a_spec, bimodule=False), t, side="left")
    out = b.lifts[1].pair_rule((1,), ((0,), (0,)))
    assert out == {(((0,), (0,)), (1,)): 1, (((0,), (0,)), (0,)): 1}
    assert check_lift_chain_map(b, 3).passed
    reports = check_lift_compat(b, 2)
    assert all(r.passed for r in reports.values())


def test_koszul_one_sided_lift_weyl_not_a_chain_map():
    # the constant derivative has no right coefficient to cancel against,
    # so the one-sided lift fails the square at degree 1
    t = weyl_twist()
    b = lift_twist(poly_koszul(t.a_spec, bimodule=False), t, side="left")
    rep = check_lift_chain_map(b, 2)
    assert not rep.passed
    assert any(v["equation"] == "square" and v["where"][0] == 1
               for v in rep.violations)


def test_koszul_right_lift_weyl():
    t = weyl_twist()
    kz = lift_twist(poly_koszul(t.b_spec), t, side="right")
    gen1 = ((0,), (0,), (0,))
    assert kz.lifts[1].pair_rule(gen1, (1,)) == {((1,), gen1): 1}
    out = kz.lifts[0].pair_rule(((1,), (), (0,)), (1,))
    assert out == {((1,), ((1,), (), (0,))): 1, ((0,), ((0,), (), (0,))): -1}
    assert check_lift_chain_map(kz, 3).passed
    reports = check_lift_compat(kz, 2)
    assert all(r.passed for r in reports.values())


def test_lift_restriction_error_for_degree_raising_derivation():
    a = polynomial_algebra(("u",))
    bspec = polynomial_algebra(("x",))
    t = ore_twist(a, bspec, {"u": "u^2"})
    with pytest.raises(RestrictionError):
        lift_twist(poly_koszul(a), t, side="left")


def test_lift_side_validation():
    t = weyl_twist()
    with pytest.raises(ResolutionError):
        lift_twist(poly_koszul(t.a_spec), t, side="right")
    with pytest.raises(ResolutionError):
        lift_twist(poly_koszul(t.b_spec), t, side="left")
    with pytest.raises(ResolutionError):
        lift_twist(poly_koszul(t.a_spec, bimodule=False), t, side="up")


# ---------------------------------------------------------------------------
# bar lifts


def test_bar_left_lift_weyl_frozen():
    t = weyl_twist()
    b = lift_twist(bar(t.a_spec, 2, middle_cutoff=3), t, side="left")
    key = ((0,), ((1,),), (0,))  # 1 (x) [x] (x) 1
    out = b.lifts[1].pair_rule((1,), key)
    # y crosses x once in the middle: x [x] 1 (x) y  - 1 [1] 1 (x) 1 ... the
    # derivation lands once per factor
    assert out == {(key, (1,)): 1, (((0,), ((0,),), (0,)), (0,)): -1}
    assert check_lift_chain_map(b, 2).passed


def test_bar_reduced_lift_quotient_agrees():
    t = weyl_twist()
    full = lift_twist(bar(t.a_spec, 2, middle_cutoff=3), t, side="left")
    red = lift_twist(bar(t.a_spec, 2, middle_cutoff=3, reduced=True), t,
                     side="left")
    n = 2
    unit = t.a_spec.one_monomial()
    for key in red.complex.terms[n].basis(3):
        for m in range(3):
            lifted = full.lifts[n].apply({((m,), key): 1})
            # the projection onto the reduced bar term drops every key
            # whose label holds the unit
            q_full = {(k2, bm): c for (k2, bm), c in lifted.items()
                      if unit not in k2[1]}
            direct = red.lifts[n].pair_rule((m,), key)
            assert q_full == dict(direct)


def test_bar_right_lift_checks():
    t = solvable_pair_twist()
    b = lift_twist(bar(t.b_spec, 2, middle_cutoff=3), t, side="right")
    assert check_lift_chain_map(b, 2).passed
    reports = check_lift_compat(b, 1)
    assert all(r.passed for r in reports.values())


def test_bar_lift_cutoff_error():
    a = polynomial_algebra(("u",))
    bspec = polynomial_algebra(("x",))
    t = ore_twist(a, bspec, {"u": "u^2"})
    b = lift_twist(bar(a, 1, middle_cutoff=1), t, side="left")
    with pytest.raises(CutoffError):
        b.lifts[1].pair_rule((1,), ((0,), ((1,),), (0,)))


# ---------------------------------------------------------------------------
# skew lifts: diagonal on wedges, embedded on the periodic side


def test_skew_right_lift_diagonal():
    t = triangular_action_twist(3)
    kz = lift_twist(poly_koszul(t.b_spec), t, side="right")
    gen_y = ((0, 0), (1,), (0, 0))
    out = kz.lifts[1].pair_rule(gen_y, 1)
    # g^-1 = g^2 sends y to 2x + y
    assert out == {(1, ((0, 0), (0,), (0, 0))): 2, (1, gen_y): 1}
    gen_xy = ((0, 0), (0, 1), (0, 0))
    out2 = kz.lifts[2].pair_rule(gen_xy, 1)
    # the wedge x^y is preserved: g^2(x)^g^2(y) = x^(2x+y) = x^y
    assert out2 == {(1, gen_xy): 1}
    assert check_lift_chain_map(kz, 2).passed
    reports = check_lift_compat(kz, 2)
    assert all(r.passed for r in reports.values())


def test_periodic_left_lift_closed_form():
    t = triangular_action_twist(3)
    per = lift_twist(cyclic_periodic(3, 4, spec=t.a_spec), t, side="left")
    y = (0, 1)
    # degree 0, trivial coefficients: y passes through untouched
    assert per.lifts[0].pair_rule(y, (0, "e0", 0)) == {((0, "e0", 0), y): 1}
    # degree 1: conjugation by g^-1: y -> 2x + y
    out = per.lifts[1].pair_rule(y, (0, "e1", 0))
    assert out == {((0, "e1", 0), (1, 0)): 2, ((0, "e1", 0), (0, 1)): 1}
    # coefficients g ... g add two more conjugations: total g^-3 = identity
    out2 = per.lifts[1].pair_rule(y, (1, "e1", 1))
    assert out2 == {((1, "e1", 1), y): 1}
    # degree 2: the embedded generator is translation invariant
    assert per.lifts[2].pair_rule(y, (0, "e2", 0)) == {((0, "e2", 0), y): 1}


def test_periodic_left_lift_checks():
    for p in (2, 3):
        t = triangular_action_twist(p)
        per = lift_twist(cyclic_periodic(p, 4, spec=t.a_spec), t,
                         side="left")
        assert check_lift_chain_map(per, 2).passed
        reports = check_lift_compat(per, 2)
        assert all(r.passed for r in reports.values())


def _reference_skew_right_image(t, key, e):
    """The skew right lift of g^e across key = b0 (x) w (x) b1, recomputed
    without memos: g^-e acts on both coefficients and on the wedge of
    linear forms w, expanded by minors (the determinant of the rows S of
    the action's matrix on the slots of w gives the coefficient of x_S)."""
    f = t.field
    order = t.group_order
    if e == 0:
        return {(0, key): 1}
    inv = (order - e) % order
    b0, w, b1 = key
    ngens = len(b0)
    cols = []
    for i in w:
        gen = tuple(int(j == i) for j in range(ngens))
        cols.append({mono.index(1): c
                     for mono, c in t.group_action(inv, gen).items()})
    wedge = {}
    for rows in combinations(range(ngens), len(w)):
        det = 0
        for perm in permutations(range(len(w))):
            sign = (-1) ** sum(perm[i] > perm[j]
                               for i in range(len(perm))
                               for j in range(i + 1, len(perm)))
            term = sign
            for col, row in zip(cols, (rows[k] for k in perm)):
                term *= col.get(row, 0)
            det += term
        if det % f.characteristic:
            wedge[rows] = det % f.characteristic
    out = {}
    for m0, c0 in t.group_action(inv, b0).items():
        for w2, cw in wedge.items():
            for m1, c1 in t.group_action(inv, b1).items():
                k = (e, (m0, w2, m1))
                v = (out.get(k, 0) + c0 * cw * c1) % f.characteristic
                if v:
                    out[k] = v
                else:
                    out.pop(k, None)
    return out


@pytest.mark.parametrize("p", [2, 3])
def test_skew_right_lift_matches_the_unmemoized_wedge_action(p):
    # a fresh lift, so its wedge memo fills while the images are read: each
    # wedge is asked for under every group exponent
    t = triangular_action_twist(p)
    kz = lift_twist(poly_koszul(t.b_spec), t, side="right")
    sums = 0
    for n, lift in kz.lifts.items():
        for key in kz.complex.terms[n].basis(4):
            for e in range(p):
                image = lift.pair_rule(key, e)
                assert image == _reference_skew_right_image(t, key, e), \
                    (n, key, e)
                sums += len(image) > 1
    assert sums  # the action mixes slots, so some images have several terms


def _through(mu, d_gen, term):
    """mu applied to d(e) = sum of c.g^l e' g^r: sum of c.g^l mu g^r."""
    out = term.zero()
    for (l, _lab, r), c in d_gen.terms.items():
        out = out + mu.act(l, r).scale(c)
    return out


def _bar_embedding(bundle):
    """The embedding mu_n of the two-periodic resolution of k[Z/p] into the
    reduced bar resolution, built degree by degree with the extra
    degeneracy (prepend the left coefficient as a new first middle
    factor, killing unit left coefficients): mu_n(e_n) is the degeneracy
    of mu_(n-1) applied to d(e_n).  Returns the reduced bar bundle and
    [mu_0, ..., mu_n_max]."""
    spec = bundle.algebra
    barb = bar(spec, bundle.n_max, middle_cutoff=0, reduced=True)
    bterms = barb.complex.terms
    unit = spec.one_monomial()
    mu = [bterms[0].generator(())]
    for n in range(1, bundle.n_max + 1):
        x = _through(mu[n - 1], bundle.complex.differentials[n]["e%d" % n],
                     bterms[n - 1])
        mu.append(FreeElement(bterms[n], {
            (unit, (l,) + mids, r): c
            for (l, mids, r), c in x.terms.items() if l != unit}))
    return barb, mu


@pytest.mark.parametrize("p", [2, 3])
def test_periodic_left_lift_matches_fresh_translates(p):
    # each image, written back in the bar resolution through the
    # translates mu_n.act(a, b), is the bar lift of the embedded key
    t = triangular_action_twist(p)
    f = t.field
    per = lift_twist(cyclic_periodic(p, 4, spec=t.a_spec), t, side="left")
    barb, mu = _bar_embedding(per)
    for n in range(1, 5):
        # mu is a chain map: d(mu_n(e_n)) = mu_(n-1)(d(e_n))
        assert barb.complex.apply_differential(n, mu[n]) == _through(
            mu[n - 1], per.complex.differentials[n]["e%d" % n],
            barb.complex.terms[n - 1])
    bar_lifts = lift_twist(barb, t, side="left").lifts
    s_monos = [m for m in basis_up_to(t.b_spec, 2) if any(m)]
    for n in range(5):
        for ga in range(p):
            for gb in range(p):
                key = (ga, "e%d" % n, gb)
                for s in s_monos:
                    image = per.lifts[n].pair_rule(s, key)
                    embedded = {}
                    for ((a, _lab, b), s2), c in image.items():
                        for k, v in mu[n].act(a, b).terms.items():
                            add_term(f, embedded, (k, s2), c * v)
                    expected = bar_lifts[n].apply(
                        {(s, k): v
                         for k, v in mu[n].act(ga, gb).terms.items()})
                    assert embedded == expected, (n, key, s)


def test_periodic_lift_needs_a_homogeneous_differential():
    # d(e1) = g.e0 - e0 mixes group degrees 1 and 0, so no single power of
    # g moves the polynomial factor across e1
    t = triangular_action_twist(3)
    kg = t.a_spec
    terms = [FreeModuleTerm(kg, [lab], BIMODULE, {lab: 0})
             for lab in ("e0", "e1")]
    e0 = terms[0].generator("e0")
    cplx = ChainComplexSpec(kg, terms,
                            [{}, {"e1": e0.left_mul(kg.gen("g")) - e0}],
                            augmentation={"e0": {kg.one_monomial(): 1}},
                            aug_kind=RESOLVES_ALGEBRA, complete_above=False,
                            name="inhomogeneous")
    bundle = ResolutionBundle(cplx, CYCLIC_PERIODIC)
    with pytest.raises(RestrictionError):
        lift_twist(bundle, t, side="left")


def test_periodic_lift_wrong_shape():
    t = weyl_twist()
    per = cyclic_periodic(3, 2)
    with pytest.raises(ResolutionError):
        lift_twist(per, t, side="left")


# ---------------------------------------------------------------------------
# derivation chain maps on one-sided resolutions


def test_sigma_delta_solvable():
    ky = polynomial_algebra(("y",))
    b = poly_koszul(ky, bimodule=False)
    maps = sigma_delta_chain_maps(b, {"y": "y"})
    e0 = b.complex.terms[0].generator(())
    three = FreeElement(b.complex.terms[0], {((3,), ()): 1})
    assert maps.delta(0, e0).is_zero()
    assert maps.delta(0, three).terms == {((3,), ()): 3}
    e1 = b.complex.terms[1].generator((0,))
    assert maps.delta(1, e1) == e1


def test_sigma_delta_two_variables():
    kzy = polynomial_algebra(("z", "y"))
    b = poly_koszul(kzy, bimodule=False)
    maps = sigma_delta_chain_maps(b, {"y": "z"})  # central commutator shape
    e_y = b.complex.terms[1].generator((1,))
    assert maps.delta(1, e_y).terms == {((0, 0), (0,)): 1}
    e_zy = b.complex.terms[2].generator((0, 1))
    assert maps.delta(2, e_zy).is_zero()  # z^z collapses


def test_sigma_delta_augmentation_error():
    kx = polynomial_algebra(("x",))
    b = poly_koszul(kx, bimodule=False)
    with pytest.raises(AugmentationError):
        sigma_delta_chain_maps(b, {"x": "-1"})


def test_sigma_delta_chain_map_error():
    ku = polynomial_algebra(("u",))
    b = poly_koszul(ku, bimodule=False)
    with pytest.raises(ChainMapError):
        sigma_delta_chain_maps(b, {"u": "u^2"})


def test_sigma_delta_needs_one_sided():
    ky = polynomial_algebra(("y",))
    with pytest.raises(ResolutionError):
        sigma_delta_chain_maps(poly_koszul(ky), {"y": "y"})


# ---------------------------------------------------------------------------
# symmetrize - move across - project


def test_wedge_to_bar_signs():
    kxy = polynomial_algebra(("x", "y"))
    barb = bar(kxy, 2, middle_cutoff=2, reduced=True)
    bterm = barb.complex.terms[2]
    unit = (0, 0)
    elem = wedge_to_bar(bterm, (unit, (0, 1), unit))
    assert elem.terms == {
        (unit, ((1, 0), (0, 1)), unit): 1,
        (unit, ((0, 1), (1, 0)), unit): -1,
    }


def test_crosscheck_weyl_and_solvable():
    for t in (weyl_twist(), solvable_pair_twist()):
        kz = lift_twist(poly_koszul(t.a_spec), t, side="left")
        rep = crosscheck_koszul_lift(kz, n_bound=2, degree_bound=2)
        assert rep.passed, rep.violations


def test_crosscheck_two_generator_base():
    a = polynomial_algebra(("u", "v"))
    bspec = polynomial_algebra(("x",))
    t = ore_twist(a, bspec, {"u": "v", "v": "0"})
    kz = lift_twist(poly_koszul(a), t, side="left")
    assert check_lift_chain_map(kz, 2).passed
    rep = crosscheck_koszul_lift(kz, n_bound=2, degree_bound=2)
    assert rep.passed, rep.violations


def test_crosscheck_flip_two_generators():
    a = polynomial_algebra(("x", "y"))
    bspec = polynomial_algebra(("w",))
    t = flip_twist(a, bspec)
    kz = lift_twist(poly_koszul(a), t, side="left")
    rep = crosscheck_koszul_lift(kz, n_bound=2, degree_bound=2)
    assert rep.passed, rep.violations


# ---------------------------------------------------------------------------
# detecting corruption


def test_chain_map_check_detects_corruption():
    # x.gen + gen.x instead of x.gen - gen.x: the derivation corrections
    # no longer cancel between the two sides
    t = weyl_twist()
    kz = poly_koszul(t.a_spec)
    gen = kz.complex.terms[0].generator(())
    x = t.a_spec.gen("x")
    kz.complex.differentials[1][(0,)] = gen.left_mul(x) + gen.right_mul(x)
    lifted = lift_twist(kz, t, side="left")
    rep = check_lift_chain_map(lifted, 2)
    assert not rep.passed


# ---------------------------------------------------------------------------
# the two-copy lift code that one side-parametrised path replaced, kept as
# the reference: the left and right bar rules and the two-branch check of
# the lift squares


def _reference_bar_left_rule(t, term, reduced):
    f = t.field
    unit = t.a_spec.one_monomial()

    def rule(b_mono, key, lookup):
        l, mids, r = key
        factors = (l,) + tuple(mids) + (r,)
        state = {((), b_mono): f.one}
        for fac in factors:
            new = {}
            for (built, bcur), c in state.items():
                for (am, bm), cc in t.monomial_rule(bcur, fac).items():
                    add_term(f, new, (built + (am,), bm), c * cc)
            state = new
        out = {}
        for (built, bfin), c in state.items():
            mids2 = built[1:-1]
            if reduced and any(m == unit for m in mids2):
                continue
            if not term.has_label(mids2):
                raise CutoffError(
                    "lift image needs the missing label %r" % (mids2,))
            add_term(f, out, ((built[0], mids2, built[-1]), bfin), c)
        return out

    return rule


def _reference_bar_right_rule(t, term, reduced):
    f = t.field
    unit = t.b_spec.one_monomial()

    def rule(key, a_mono, lookup):
        b0, mids, b1 = key
        factors = (b0,) + tuple(mids) + (b1,)
        state = {((), a_mono): f.one}
        for fac in reversed(factors):
            new = {}
            for (built, acur), c in state.items():
                for (am, bm), cc in t.monomial_rule(fac, acur).items():
                    add_term(f, new, (built + (bm,), am), c * cc)
            state = new
        out = {}
        for (built, afin), c in state.items():
            facs = built[::-1]
            mids2 = facs[1:-1]
            if reduced and any(m == unit for m in mids2):
                continue
            if not term.has_label(mids2):
                raise CutoffError(
                    "lift image needs the missing label %r" % (mids2,))
            add_term(f, out, (afin, (facs[0], mids2, facs[-1])), c)
        return out

    return rule


def _reference_check_lift_chain_map(bundle, degree_bound):
    t = bundle.twist
    f = t.field
    cplx = bundle.complex
    side = bundle.lift_side
    report = CheckReport("lift-chain-map(%s, %s, deg<=%d)"
                         % (cplx.name, side, degree_bound), " squares")
    movers = basis_up_to(t.b_spec if side == "left" else t.a_spec,
                         degree_bound)
    for n in range(1, bundle.n_max + 1):
        term = cplx.terms[n]
        for lab in term.labels:
            genkey = next(iter(term.generator(lab).terms))
            d_img = cplx.differentials[n][lab]
            for mono in movers:
                if side == "left":
                    lhs = bundle.lifts[n - 1].apply(
                        {(mono, k): c for k, c in d_img.terms.items()})
                    rhs = {}
                    for (k2, b2), c in bundle.lifts[n].pair_rule(
                            mono, genkey).items():
                        img = cplx.apply_differential(
                            n, FreeElement(term, {k2: f.one}))
                        for k3, c3 in img.terms.items():
                            add_term(f, rhs, (k3, b2), c * c3)
                else:
                    lhs = bundle.lifts[n - 1].apply(
                        {(k, mono): c for k, c in d_img.terms.items()})
                    rhs = {}
                    for (a2, k2), c in bundle.lifts[n].pair_rule(
                            genkey, mono).items():
                        img = cplx.apply_differential(
                            n, FreeElement(term, {k2: f.one}))
                        for k3, c3 in img.terms.items():
                            add_term(f, rhs, (a2, k3), c * c3)
                report.record_equation(f, "square", "where",
                                       lambda: (n, lab, mono), lhs, rhs)
    term0 = cplx.terms[0]
    aug = cplx.augmentation_image
    for lab in term0.labels:
        genkey = next(iter(term0.generator(lab).terms))
        for mono in movers:
            if side == "left":
                pairs = bundle.lifts[0].pair_rule(mono, genkey)
                if cplx.aug_kind == RESOLVES_ALGEBRA:
                    lhs = {}
                    for (k2, b2), c in pairs.items():
                        for am, ac in aug(k2).items():
                            add_term(f, lhs, (am, b2), c * ac)
                    rhs = {}
                    for am, ac in aug(genkey).items():
                        for (a2, b2), c2 in t.monomial_rule(mono, am).items():
                            add_term(f, rhs, (a2, b2), ac * c2)
                else:
                    lhs = {}
                    for (k2, b2), c in pairs.items():
                        for s in aug(k2).values():
                            add_term(f, lhs, b2, c * s)
                    rhs = {}
                    for s in aug(genkey).values():
                        add_term(f, rhs, mono, s)
            else:
                pairs = bundle.lifts[0].pair_rule(genkey, mono)
                lhs = {}
                for (a2, k2), c in pairs.items():
                    for bm, bc in aug(k2).items():
                        add_term(f, lhs, (a2, bm), c * bc)
                rhs = {}
                for bm, bc in aug(genkey).items():
                    for (a2, b2), c2 in t.monomial_rule(bm, mono).items():
                        add_term(f, rhs, (a2, b2), bc * c2)
            report.record_equation(f, "augmentation", "where",
                                   lambda: (0, lab, mono), lhs, rhs)
    return report


def _reference_twists():
    return [("weyl", weyl_twist()),
            ("flip", flip_twist(polynomial_algebra(("x",), name="k[x]"),
                                polynomial_algebra(("y",), name="k[y]"))),
            ("solvable-pair", solvable_pair_twist())]


@pytest.mark.parametrize("reduced", [False, True], ids=["bar", "reduced"])
@pytest.mark.parametrize("side", ["left", "right"])
@pytest.mark.parametrize("which", range(3),
                         ids=[name for name, _ in _reference_twists()])
def test_bar_lifts_match_the_two_copy_reference(which, side, reduced):
    # every key of the bar terms up to middle degree 3, every moved
    # monomial up to degree 3, the unit included: the rule itself, then
    # the lift's memoized image against a map around the reference rule
    t = _reference_twists()[which][1]
    left = side == "left"
    spec, movers = ((t.a_spec, t.b_spec) if left else (t.b_spec, t.a_spec))
    built = bar(spec, 3, middle_cutoff=3, reduced=reduced)
    lifted = lift_twist(built, t, side=side)
    reference = (_reference_bar_left_rule if left
                 else _reference_bar_right_rule)
    compared = 0
    for n, term in enumerate(built.complex.terms):
        lift = lifted.lifts[n]
        assert lift.name == "%s-%s-%d" % (built.family, side, n)
        ref_rule = reference(t, term, reduced)
        ref_map = CompatMap(lift.kind, t, term, ref_rule)
        for key in term.basis(3):
            for mono in basis_up_to(movers, 3):
                pair = (mono, key) if left else (key, mono)
                assert lift._rule(*pair, None) == ref_rule(*pair, None), pair
                assert lift.pair_rule(*pair) == ref_map.pair_rule(*pair)
                compared += 1
    assert compared > 100


def _lifted_bundles():
    """Every lifted factor of the suite products, then bar lifts of both
    sides under the Weyl, flip and solvable-pair twists."""
    from test_acceptance import _suite_products
    out = [b for tc in _suite_products()
           for b in (tc.bicomplex.pm, tc.bicomplex.pn) if b.lifts]
    for _, t in _reference_twists():
        for side, spec in (("left", t.a_spec), ("right", t.b_spec)):
            for reduced in (False, True):
                out.append(lift_twist(
                    bar(spec, 2, middle_cutoff=3, reduced=reduced), t,
                    side=side))
    return out


def _records(report):
    return repr(report), report.checked, report.violations


def test_lift_chain_map_check_matches_the_two_branch_reference():
    bundles = _lifted_bundles()
    assert {b.lift_side for b in bundles} == {"left", "right"}
    for bundle in bundles:
        rep = check_lift_chain_map(bundle, 2)
        assert _records(rep) == _records(
            _reference_check_lift_chain_map(bundle, 2)), repr(bundle)
        assert rep.passed


def _corrupted_right_lift(stage):
    # x moved across the stage's generator of the right lift over k[y],
    # scaled by 2 in the lift's memo
    t = weyl_twist()
    bundle = lift_twist(poly_koszul(t.b_spec), t, side="right")
    term = bundle.complex.terms[stage]
    gen = next(iter(term.generator(term.labels[0]).terms))
    lift = bundle.lifts[stage]
    lift._cache[(gen, (1,))] = {
        k: 2 * v for k, v in lift.pair_rule(gen, (1,)).items()}
    return bundle


@pytest.mark.parametrize("stage, equation, where", [
    (1, "square", (1, (0,), (1,))),
    (0, "augmentation", (0, (), (1,))),
])
def test_corrupted_right_lift_records_match_the_reference(stage, equation,
                                                          where):
    bundle = _corrupted_right_lift(stage)
    rep = check_lift_chain_map(bundle, 2)
    assert _records(rep) == _records(
        _reference_check_lift_chain_map(bundle, 2))
    assert repr(rep) == ("lift-chain-map(poly-koszul(k[y]), right, deg<=2): "
                         "FAIL(1) on 6 squares")
    [violation] = rep.violations
    assert (violation["equation"], violation["where"]) == (equation, where)
