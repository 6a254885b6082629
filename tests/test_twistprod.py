"""Product totals: grid assembly, the twisted action through lifts,
changes of presentation, one-variable extensions, and their oracles."""

from fractions import Fraction

import pytest

from twistres.kernel import QQ
from twistres.algebra import (
    POLYNOMIAL, AlgebraElement, basis_up_to, heisenberg_algebra,
    iterated_ore_algebra, polynomial_algebra, solvable_2dim_algebra,
    weyl_algebra,
)
from twistres.complex import GROUND_KEY, FreeElement, compose_check, \
    exactness_report, truncate
from twistres.twist import (
    flip_twist, ore_twist, solvable_pair_twist, triangular_action_twist,
    weyl_twist,
)
from twistres.resolutions import (
    ONE_SIDED_KOSZUL, RESOLVES_ALGEBRA, RESOLVES_GROUND, AugmentationError,
    bar,
    cyclic_periodic, lift_twist, one_sided_koszul_kx, ore_koszul,
    poly_koszul,
)
from twistres.twistprod import (
    MissingLiftError, ProductError, TwistedBicomplex, bimodule_twisted_product,
    complexes_match, iterated_ore_tower, koszul_pair_product,
    kunneth_degree0_check, one_sided_twisted_product, ore_module_resolution,
    present_over_twisted_algebra, transport_complex, triangular_skew_product,
)


def _kx():
    return polynomial_algebra(("x",), name="k[x]")


def _ky():
    return polynomial_algebra(("y",), name="k[y]")


def _merge_mono(pair):
    return pair[0] + pair[1]


def _merge_label(offset):
    def mapper(lab):
        return lab[2] + tuple(g + offset for g in lab[3])
    return mapper


# ---------------------------------------------------------------------------
# grid assembly and the plain presentation


def test_total_labels_and_provenance():
    tc = koszul_pair_product(flip_twist(_kx(), _ky()))
    assert [len(t.labels) for t in tc.complex.terms] == [1, 2, 1]
    assert tc.complex.terms[1].labels == ((0, 1, (), (0,)), (1, 0, (0,), ()))
    for n, term in enumerate(tc.complex.terms):
        for lab in term.labels:
            i, j = lab[:2]
            assert i + j == n == term.internal_degree[lab]


def test_internal_degrees_add_up():
    t = triangular_action_twist(3)
    pm = lift_twist(cyclic_periodic(3, 3, spec=t.a_spec), t, side="left")
    pn = lift_twist(poly_koszul(t.b_spec), t, side="right")
    tc = bimodule_twisted_product(pm, pn, t)
    for n, term in enumerate(tc.complex.terms):
        for lab in term.labels:
            i, j, v, w = lab
            want = (pm.complex.terms[i].internal_degree[v]
                    + pn.complex.terms[j].internal_degree[w])
            assert term.internal_degree[lab] == want


def test_plain_presentation_is_twist_free():
    # the stored differentials of flip and derivation-twisted products of
    # the same factor shapes coincide; the twist only enters the action
    flip_tc = koszul_pair_product(flip_twist(_kx(), _ky()))
    weyl_tc = koszul_pair_product(weyl_twist())
    for n in range(1, 3):
        for lab in flip_tc.complex.terms[n].labels:
            assert (flip_tc.complex.differentials[n][lab].terms
                    == weyl_tc.complex.differentials[n][lab].terms)


def test_weyl_total_frozen_differential():
    tc = koszul_pair_product(weyl_twist())
    top = tc.complex.differentials[2][(1, 1, (0,), (0,))]
    assert top.terms == {
        (((1,), (0,)), (0, 1, (), (0,)), ((0,), (0,))): Fraction(1),
        (((0,), (0,)), (0, 1, (), (0,)), ((1,), (0,))): Fraction(-1),
        (((0,), (1,)), (1, 0, (0,), ()), ((0,), (0,))): Fraction(-1),
        (((0,), (0,)), (1, 0, (0,), ()), ((0,), (1,))): Fraction(1),
    }
    aug = tc.complex.augmentation[(0, 0, (), ())]
    assert aug == {((0,), (0,)): Fraction(1)}


def test_completeness_bookkeeping():
    kx, ky = _kx(), _ky()
    t = flip_twist(kx, ky)
    full = koszul_pair_product(t)
    assert full.complex.complete_above
    pm = lift_twist(bar(kx, 2), t, side="left")
    pn = lift_twist(poly_koszul(ky), t, side="right")
    tc = bimodule_twisted_product(pm, pn, t)
    # the truncated factor caps the trustworthy range
    assert not tc.complex.complete_above
    assert tc.n_max == 2


def test_bar_square_block_zero_is_free_of_rank_one():
    kx, ky = _kx(), _ky()
    t = flip_twist(kx, ky)
    pm = lift_twist(bar(kx, 2), t, side="left")
    pn = lift_twist(bar(ky, 2), t, side="right")
    tc = bimodule_twisted_product(pm, pn, t)
    assert tc.complex.terms[0].labels == ((0, 0, (), ()),)
    # rank one over a pair of coefficient slots: basis keys are exactly
    # (left pair, label, right pair)
    keys = tc.complex.terms[0].basis(1)
    plain = tc.complex.algebra
    pairs = basis_up_to(plain, 1)
    want = sum(1 for l in pairs for r in pairs
               if plain.monomial_degree(l) + plain.monomial_degree(r) <= 1)
    assert len(keys) == want
    assert compose_check(tc.complex).passed


# ---------------------------------------------------------------------------
# flip product == wedge resolution of the merged polynomial algebra


def test_flip_product_matches_two_variable_koszul():
    tc = koszul_pair_product(flip_twist(_kx(), _ky()))
    kxy = polynomial_algebra(("x", "y"), name="k[x,y]")
    moved = transport_complex(tc.complex, kxy, _merge_mono, _merge_label(1))
    rep = complexes_match(moved, poly_koszul(kxy).complex)
    assert rep.passed, rep.violations


def test_flip_product_composes_and_is_exact():
    tc = koszul_pair_product(flip_twist(_kx(), _ky()))
    assert compose_check(tc.complex).passed
    rep = exactness_report(tc.complex, 5)
    assert rep.passed
    assert rep.homology == {1: 0, 2: 0}


# ---------------------------------------------------------------------------
# derivation twist: the Weyl-type product


def test_weyl_product_composes_and_is_exact():
    tc = koszul_pair_product(weyl_twist())
    assert compose_check(tc.complex).passed
    rep = exactness_report(tc.complex, 6)
    assert rep.passed
    assert rep.homology == {1: 0, 2: 0}
    assert rep.h0_relative == 0 and rep.aug_coker == 0


def test_weyl_product_matches_pbw_wedge_resolution():
    tc = koszul_pair_product(weyl_twist())
    target = weyl_algebra()
    moved = transport_complex(tc.complex, target, _merge_mono, _merge_label(1))
    rep = complexes_match(moved, ore_koszul(target).complex)
    assert rep.passed, rep.violations


def test_weyl_action_commutes_with_differential():
    tc = koszul_pair_product(weyl_twist())
    rep = tc.action_commutes_report(degree_bound=3, samples=15, seed=11)
    assert rep.passed, rep.violations
    assert rep.checked > 0


def test_weyl_action_is_genuinely_twisted():
    tc = koszul_pair_product(weyl_twist())
    C = tc.product
    f = C.field
    gen = tc.complex.terms[1].generator((1, 0, (0,), ()))
    y = AlgebraElement(C, {((0,), (1,)): f.one})
    moved = tc.act_left(y, gen)
    # y crosses the first-slot generator: a flip term plus the derivation
    # correction hitting the coefficient
    assert moved.terms == {
        (((0,), (1,)), (1, 0, (0,), ()), ((0,), (0,))): f.one,
    }
    # against a coefficient x on the left the correction shows up
    xgen = gen.left_mul(AlgebraElement(tc.complex.algebra,
                                       {((1,), (0,)): f.one}))
    moved = tc.act_left(y, xgen)
    assert moved.terms == {
        (((1,), (1,)), (1, 0, (0,), ()), ((0,), (0,))): f.one,
        (((0,), (0,)), (1, 0, (0,), ()), ((0,), (0,))): f.neg(f.one),
    }


def test_basis_action_is_a_bimodule_action():
    # act(l, key, r) applies l first; (l·key)·r must equal l·(key·r)
    tc = koszul_pair_product(weyl_twist())
    C = tc.product
    f = C.field
    monos = basis_up_to(C, 1)
    for n in range(tc.n_max + 1):
        term = tc.complex.terms[n]
        for key in term.basis(2):
            assert tc.act(None, key, None) == {key: f.one}
            for l in monos:
                for r in monos:
                    right_first = tc.act_left(
                        AlgebraElement(C, {l: f.one}),
                        FreeElement(term, tc.act(None, key, r)))
                    assert tc.act(l, key, r) == right_first.terms


def test_anticommute_report():
    tc = koszul_pair_product(weyl_twist())
    assert tc.anticommute_report().passed
    bad = koszul_pair_product(weyl_twist(), vertical_sign=False)
    assert not bad.anticommute_report().passed


def test_dropping_vertical_sign_breaks_square_zero():
    bad = koszul_pair_product(weyl_twist(), vertical_sign=False)
    rep = compose_check(bad.complex)
    assert not rep.passed
    # the square picks up twice the mixed term; visible away from char 2
    assert len(rep.violations) == 1


# ---------------------------------------------------------------------------
# twisted coordinates


def test_presented_weyl_total_composes_over_twisted_algebra():
    tc = koszul_pair_product(weyl_twist())
    pres = present_over_twisted_algebra(tc)
    assert pres.algebra is tc.product
    assert compose_check(pres).passed
    rep = exactness_report(pres, 5)
    assert rep.passed
    # for this twist the coordinate change is transparent on generators
    for n in range(1, 3):
        for lab in pres.terms[n].labels:
            assert (pres.differentials[n][lab].terms
                    == tc.complex.differentials[n][lab].terms)


def test_presented_group_action_total_has_nontrivial_coordinates():
    tc = triangular_skew_product(2, periodic_degree=2)
    pres = present_over_twisted_algebra(tc)
    assert compose_check(pres).passed
    changed = any(
        pres.differentials[n][lab].terms
        != tc.complex.differentials[n][lab].terms
        for n in range(1, 3) for lab in pres.terms[n].labels)
    assert changed


def test_presented_total_against_wrong_sign_table_fails():
    # rewriting the resolution over an algebra whose commutator table has
    # the opposite sign must be caught by the composition check
    tsol = solvable_pair_twist()
    tc = ore_module_resolution(one_sided_koszul_kx(tsol.a_spec), tsol)
    reb = tc.ore_form.rebundled
    wrong = iterated_ore_algebra(("y", "x"), {(1, 0): {(1, 0): -1}},
                                 name="U(wrong-sign)")
    moved = transport_complex(reb.complex, wrong, lambda m: m, lambda l: l)
    rep = compose_check(moved)
    assert not rep.passed
    assert rep.violations


# ---------------------------------------------------------------------------
# group-action product


def test_skew_product_shape_and_compose():
    tc = triangular_skew_product(3, periodic_degree=4)
    assert [len(t.labels) for t in tc.complex.terms] == [1, 3, 4, 4, 4]
    assert not tc.complex.complete_above
    assert compose_check(tc.complex).passed


def test_skew_product_exact_window():
    tc = triangular_skew_product(3, periodic_degree=4)
    rep = exactness_report(tc.complex, 4)
    assert rep.passed
    assert rep.homology == {1: 0, 2: 0, 3: 0}


def test_skew_action_commutes():
    tc = triangular_skew_product(3, periodic_degree=4)
    rep = tc.action_commutes_report(degree_bound=2, samples=8, seed=7)
    assert rep.passed, rep.violations


# ---------------------------------------------------------------------------
# degree-0 homology


def test_kunneth_degree0_plain():
    tc = koszul_pair_product(flip_twist(_kx(), _ky()))
    rep = kunneth_degree0_check(tc, truncate(tc.complex, 4))
    assert rep.passed
    assert rep.rows[2] == (6, 6)


def test_kunneth_degree0_weyl():
    tc = koszul_pair_product(weyl_twist())
    rep = kunneth_degree0_check(tc, truncate(tc.complex, 4))
    assert rep.passed


def test_kunneth_degree0_group_action():
    tc = triangular_skew_product(3, periodic_degree=4)
    rep = kunneth_degree0_check(tc, truncate(tc.complex, 3))
    assert rep.passed
    # three group elements in each polynomial degree slice
    assert rep.rows[0] == (3, 3)
    assert rep.rows[1] == (9, 9)


def test_kunneth_degree0_one_sided():
    tsol = solvable_pair_twist()
    tc = ore_module_resolution(one_sided_koszul_kx(tsol.a_spec), tsol)
    rep = kunneth_degree0_check(tc, truncate(tc.complex, 4))
    assert rep.passed
    assert all(want == 1 for _, want in rep.rows.values())


# ---------------------------------------------------------------------------
# one-sided products


def test_one_sided_flip_product_shape():
    kx, ky = _kx(), _ky()
    t = flip_twist(kx, ky)
    pm = lift_twist(one_sided_koszul_kx(kx), t, side="left")
    tc = one_sided_twisted_product(pm, one_sided_koszul_kx(ky))
    assert [len(t_.labels) for t_ in tc.complex.terms] == [1, 2, 1]
    assert compose_check(tc.complex).passed
    rep = exactness_report(tc.complex, 5)
    assert rep.passed and rep.aug_coker == 0


def test_total_augmentation_multiplies_the_factor_values():
    # ε(v)⊗ε(w) on the stage-0 label: with the factor augmentations scaled
    # by 2 and 3 (still resolutions) both values show in the product
    kx, ky = _kx(), _ky()
    t = flip_twist(kx, ky)
    pm = lift_twist(poly_koszul(kx), t, side="left")
    pn = lift_twist(poly_koszul(ky), t, side="right")
    pm.complex.augmentation = {(): {(0,): 2}}
    pn.complex.augmentation = {(): {(0,): 3}}
    tc = bimodule_twisted_product(pm, pn, t)
    assert tc.complex.augmentation == {(0, 0, (), ()): {((0,), (0,)): 6}}
    assert exactness_report(tc.complex, 3).passed
    pm = lift_twist(one_sided_koszul_kx(kx), t, side="left")
    pn = one_sided_koszul_kx(ky)
    pm.complex.augmentation = {(): {GROUND_KEY: 2}}
    pn.complex.augmentation = {(): {GROUND_KEY: 3}}
    tc = one_sided_twisted_product(pm, pn)
    assert tc.complex.augmentation == {(0, 0, (), ()): {GROUND_KEY: 6}}
    assert exactness_report(tc.complex, 3).passed


def test_one_sided_dropping_sign_breaks_square_zero():
    tsol = solvable_pair_twist()
    pm = lift_twist(one_sided_koszul_kx(tsol.a_spec), tsol, side="left")
    pn = one_sided_koszul_kx(tsol.b_spec)
    good = one_sided_twisted_product(pm, pn)
    assert compose_check(good.complex).passed
    bad = TwistedBicomplex(pm, pn, tsol, vertical_sign=False).total()
    assert not compose_check(bad.complex).passed


# ---------------------------------------------------------------------------
# one-variable extensions


def test_extension_resolution_two_dim_solvable():
    tsol = solvable_pair_twist()
    tc = ore_module_resolution(one_sided_koszul_kx(tsol.a_spec), tsol)
    assert [len(t.labels) for t in tc.complex.terms] == [1, 2, 1]
    assert compose_check(tc.complex).passed
    rep = exactness_report(tc.complex, 6)
    assert rep.passed


def test_extension_rebundles_to_pbw_wedge_resolution():
    tsol = solvable_pair_twist()
    tc = ore_module_resolution(one_sided_koszul_kx(tsol.a_spec), tsol)
    reb = tc.ore_form.rebundled
    assert reb.family == ONE_SIDED_KOSZUL
    assert reb.resolved == RESOLVES_GROUND
    oracle = ore_koszul(solvable_2dim_algebra(), bimodule=False)
    rep = complexes_match(reb.complex, oracle.complex)
    assert rep.passed, rep.violations
    # frozen top differential: commutator correction term included
    top = reb.complex.differentials[2][(0, 1)]
    assert top.terms == {
        ((1, 0), (1,)): Fraction(1),
        ((0, 1), (0,)): Fraction(-1),
        ((0, 0), (0,)): Fraction(1),
    }


def test_extension_free_form_roundtrip_and_values():
    tsol = solvable_pair_twist()
    tc = ore_module_resolution(one_sided_koszul_kx(tsol.a_spec), tsol)
    ff = tc.ore_form
    assert ff.roundtrip_report(degree_bound=2).passed
    f = QQ
    # moving one power of the new variable across a coefficient costs the
    # derivation correction: (y . gen) (x) x becomes y x (x) wedge
    term = tc.complex.terms[1]
    e = FreeElement(term, {(((1,), (1,)), (0, 1, (), (0,))): f.one})
    assert ff.from_total(1, e).terms == {((1, 1), (1,)): f.one}
    back = ff.to_total(1, FreeElement(ff.terms[1], {((1, 1), (1,)): f.one}))
    assert back.terms == e.terms


def test_extension_zero_derivation_gives_polynomial_stage():
    kz = polynomial_algebra(("z",), name="k[z]")
    tc = ore_module_resolution(one_sided_koszul_kx(kz), {}, x_name="w")
    assert tc.ore_form.skew.variant == POLYNOMIAL
    kzw = polynomial_algebra(("z", "w"), name="k[z,w]")
    rep = complexes_match(tc.ore_form.rebundled.complex,
                          poly_koszul(kzw, bimodule=False).complex)
    assert rep.passed, rep.violations


def test_extension_rejects_constant_commutators():
    kx = _kx()
    with pytest.raises(AugmentationError):
        ore_module_resolution(one_sided_koszul_kx(kx), {"x": "-1"},
                              x_name="y")


def test_extension_rejects_wrong_shapes():
    kx, ky = _kx(), _ky()
    with pytest.raises(ProductError):
        ore_module_resolution(poly_koszul(kx), {}, x_name="y")
    two = polynomial_algebra(("u", "v"), name="k[u,v]")
    t_bad = flip_twist(kx, two)
    with pytest.raises(ProductError):
        ore_module_resolution(one_sided_koszul_kx(kx), t_bad)
    with pytest.raises(ProductError):
        ore_module_resolution(one_sided_koszul_kx(kx), {}, x_name="x")


def test_bundles_read_what_they_resolve_off_their_complex():
    from test_acceptance import _suite_products, _suite_resolutions
    for bundle in _suite_resolutions():
        assert bundle.resolved == bundle.complex.aug_kind
        assert bundle.resolved in (RESOLVES_ALGEBRA, RESOLVES_GROUND)
    t = flip_twist(_kx(), _ky())
    lifted = lift_twist(poly_koszul(t.a_spec), t, side="left")
    assert lifted.resolved == RESOLVES_ALGEBRA
    totals = [tc for tc in _suite_products() if hasattr(tc, "ore_form")]
    totals += iterated_ore_tower(("z", "y", "x"), {("x", "y"): "z"})[0]
    assert len(totals) == 3
    for tc in totals:
        reb = tc.ore_form.rebundled
        assert reb.resolved == reb.complex.aug_kind == RESOLVES_GROUND


def test_tower_heisenberg():
    totals, bundle = iterated_ore_tower(("z", "y", "x"), {("x", "y"): "z"})
    assert [len(t.labels) for t in bundle.complex.terms] == [1, 3, 3, 1]
    # the first stage has zero brackets, so iteration passes through a
    # plain polynomial algebra
    assert totals[0].ore_form.skew.variant == POLYNOMIAL
    oracle = ore_koszul(heisenberg_algebra(), bimodule=False)
    rep = complexes_match(bundle.complex, oracle.complex)
    assert rep.passed, rep.violations
    rep = exactness_report(totals[-1].complex, 5)
    assert rep.passed


def test_tower_abelian_matches_polynomial_wedge():
    totals, bundle = iterated_ore_tower(("u", "v"), {})
    kuv = polynomial_algebra(("u", "v"), name="k[u,v]")
    rep = complexes_match(bundle.complex,
                          poly_koszul(kuv, bimodule=False).complex)
    assert rep.passed
    assert [len(t.labels) for t in bundle.complex.terms] == [1, 2, 1]


def test_tower_rejects_noncommutative_stage():
    with pytest.raises(ProductError):
        iterated_ore_tower(("y", "x", "w"),
                           {("x", "y"): "y", ("w", "x"): "x"})


# ---------------------------------------------------------------------------
# validation errors


def test_missing_lifts_are_rejected():
    kx, ky = _kx(), _ky()
    t = flip_twist(kx, ky)
    with pytest.raises(MissingLiftError):
        bimodule_twisted_product(poly_koszul(kx), poly_koszul(ky), t)
    pm = lift_twist(poly_koszul(kx), t, side="left")
    with pytest.raises(MissingLiftError):
        bimodule_twisted_product(pm, poly_koszul(ky), t)
    with pytest.raises(MissingLiftError):
        one_sided_twisted_product(one_sided_koszul_kx(kx),
                                  one_sided_koszul_kx(ky))


def test_mismatched_factors_are_rejected():
    kx, ky = _kx(), _ky()
    t = flip_twist(kx, ky)
    pm_one = lift_twist(one_sided_koszul_kx(kx), t, side="left")
    pn_two = lift_twist(poly_koszul(ky), t, side="right")
    with pytest.raises(ProductError):
        bimodule_twisted_product(pm_one, pn_two, t)
    other = flip_twist(polynomial_algebra(("u",), name="k[u]"), ky)
    pm_other = lift_twist(poly_koszul(other.a_spec), other, side="left")
    with pytest.raises(ProductError):
        bimodule_twisted_product(pm_other, pn_two, t)


def test_wrong_twist_for_lifts_is_rejected():
    kx, ky = _kx(), _ky()
    t1 = flip_twist(kx, ky)
    t2 = ore_twist(kx, ky, {"x": "-1"})
    pm = lift_twist(poly_koszul(kx), t1, side="left")
    pn = lift_twist(poly_koszul(ky), t1, side="right")
    with pytest.raises(MissingLiftError):
        bimodule_twisted_product(pm, pn, t2)


def test_one_sided_total_has_no_right_action():
    tsol = solvable_pair_twist()
    tc = ore_module_resolution(one_sided_koszul_kx(tsol.a_spec), tsol)
    gen = tc.complex.terms[0].generator((0, 0, (), ()))
    u = AlgebraElement(tc.product, {tc.product.one_monomial(): QQ.one})
    with pytest.raises(ProductError):
        tc.act_right(gen, u)
    key, = gen.terms
    with pytest.raises(ProductError):
        tc.act(None, key, tc.product.one_monomial())
