"""Dimension extraction: cochain cohomology with algebra/ground
coefficients, ground-field collapse, and the cross-checks between
independently built resolutions."""

from math import comb

import pytest

from twistres.kernel import QQ, PrimeField, SparseMatrix
from twistres.algebra import (
    cyclic_group_algebra, heisenberg_algebra, parse_element,
    polynomial_algebra, solvable_2dim_algebra, weyl_algebra,
)
from twistres.twist import flip_twist, solvable_pair_twist, weyl_twist
from twistres.resolutions import (
    bar, cyclic_periodic, lift_twist, one_sided_koszul_kx, ore_koszul,
    poly_koszul,
)
from twistres.twistprod import (
    koszul_pair_product, one_sided_twisted_product, ore_module_resolution,
)
from twistres.complex import (
    BIMODULE, GROUND_KEY, LEFT_MODULE, ChainComplexSpec, FreeModuleTerm,
    GroundModule,
)
from twistres.homology import (
    CochainTruncation, HomologyError, _resolve_algebra_source,
    ext_over_augmented, hochschild_cohomology, tor_over_augmented,
)

from test_complex import NOT_COMPLEXES


def _kx():
    return polynomial_algebra(("x",), name="k[x]")


def _ky():
    return polynomial_algebra(("y",), name="k[y]")


# ---------------------------------------------------------------------------
# gradedness detection


def test_graded_detection():
    assert _kx().degree_additive
    assert cyclic_group_algebra(3, PrimeField(3)).degree_additive
    assert not weyl_algebra().degree_additive
    assert not solvable_2dim_algebra().degree_additive
    assert flip_twist(_kx(), _ky()).product().degree_additive
    assert not weyl_twist().product().degree_additive
    assert poly_koszul(_kx()).complex.homogeneous
    assert not ore_koszul(weyl_algebra()).complex.homogeneous


@pytest.mark.parametrize("degree, graded", [(0, True), (1, False)])
def test_graded_detection_reads_ground_augmentations(degree, graded):
    # a ground ε is read through the target's key degree like an algebra
    # ε: nonzero on a label of internal degree 1 it lowers degree by one
    kxy = polynomial_algebra(("x", "y"), name="k[x,y]")
    assert poly_koszul(kxy, bimodule=False).complex.homogeneous
    kx = _kx()
    t0 = FreeModuleTerm(kx, ("a",), side=LEFT_MODULE,
                        internal_degree={"a": degree})
    stub = ChainComplexSpec(kx, [t0], [{}],
                            augmentation={"a": {GROUND_KEY: 1}},
                            aug_kind="ground", name="stub")
    assert stub.homogeneous is graded


def test_cochain_codifferentials_compose_to_zero():
    # on matrices whose cutoffs line up exactly: the rows of the first are
    # the columns of the second
    for cplx in (poly_koszul(polynomial_algebra(("x", "y"),
                                                name="k[x,y]")).complex,
                 ore_koszul(weyl_algebra()).complex):
        co = CochainTruncation(cplx)
        for n in (0, 1):
            m1, _cols1, rows1 = co.matrix(n, 4)
            m2, cols2, _rows2 = co.matrix(
                n + 1, 4 + cplx.coefficient_shift(n + 1))
            assert rows1 == cols2
            assert m2.compose(m1).is_zero()


# ---------------------------------------------------------------------------
# group algebra in dividing characteristic


def test_cyclic_group_char3_dimension_three_every_stage():
    rep = hochschild_cohomology(cyclic_periodic(3, 5), cutoff=2)
    assert rep.graded
    assert rep.dims == {0: 3, 1: 3, 2: 3, 3: 3, 4: 3}
    assert rep.per_degree == {(n, 0): 3 for n in range(5)}
    assert rep.all_stable


def test_cyclic_group_cross_checked_against_reduced_bar():
    b = bar(cyclic_group_algebra(3, PrimeField(3)), 3, middle_cutoff=0,
            reduced=True)
    rep = hochschild_cohomology(b, cutoff=2)
    assert rep.dims == {0: 3, 1: 3, 2: 3}


def test_cyclic_group_ground_coefficients():
    rep = hochschild_cohomology(cyclic_periodic(3, 5), coeff="ground",
                                cutoff=2)
    assert rep.dims == {n: 1 for n in range(5)}


def test_polynomial_ground_coefficients_kill_both_sides():
    # epsilon(x) = 0 on either side of d(e_x) = x⊗1 - 1⊗x, so the
    # codifferential is zero and HH^n(k[x,y], k) has dimension C(2, n)
    kxy = polynomial_algebra(("x", "y"), name="k[x,y]")
    rep = hochschild_cohomology(poly_koszul(kxy), coeff="ground", cutoff=4)
    assert rep.dims == {0: 1, 1: 2, 2: 1}
    assert rep.per_degree == {(0, 0): 1, (1, -1): 2, (2, -2): 1}


def test_ground_coefficients_need_the_counit_on_both_sides():
    # d(e) = x⊗1 + 1⊗x: epsilon(x) = 0 kills each term on its own side;
    # the two terms do not cancel, so a term surviving on one side shows
    kx = _kx()
    x = parse_element("x", kx)
    t0 = FreeModuleTerm(kx, ("1",), side=BIMODULE)
    t1 = FreeModuleTerm(kx, ("e",), side=BIMODULE, internal_degree={"e": 1})
    one = t0.generator("1")
    cplx = ChainComplexSpec(kx, [t0, t1],
                            [None, {"e": one.left_mul(x) + one.right_mul(x)}],
                            augmentation={"1": kx.one().terms},
                            aug_kind="algebra", name="anticommutator")
    mat, cols, rows = CochainTruncation(cplx, "ground").matrix(0, 2)
    assert (cols, rows) == ([("1",)], [("e",)])
    assert mat.entries == {}


def test_truncated_resolution_rejects_deep_stages():
    with pytest.raises(HomologyError):
        hochschild_cohomology(cyclic_periodic(3, 5), n_top=5, cutoff=2)


# ---------------------------------------------------------------------------
# commutative polynomial algebra: zero codifferential


def test_two_variable_polynomial_per_degree_table():
    kxy = polynomial_algebra(("x", "y"), name="k[x,y]")
    rep = hochschild_cohomology(poly_koszul(kxy), cutoff=8)
    assert rep.graded
    # every total dimension keeps growing with the cutoff, and the
    # stability flags say so honestly
    assert rep.unstable == [0, 1, 2]
    for n in range(3):
        for d in range(7):
            assert rep.per_degree[(n, d - n)] == (d + 1) * comb(2, n)


def test_resolution_independence_wedge_vs_reduced_bar():
    kxy = polynomial_algebra(("x", "y"), name="k[x,y]")
    rep_w = hochschild_cohomology(poly_koszul(kxy), cutoff=5)
    rep_b = hochschild_cohomology(bar(kxy, 3, middle_cutoff=3, reduced=True),
                                  cutoff=5)
    common = set(rep_w.per_degree) & set(rep_b.per_degree)
    assert any(n == 2 for n, _ in common)
    for key in common:
        assert rep_w.per_degree[key] == rep_b.per_degree[key]


# ---------------------------------------------------------------------------
# filtered case: the derivation-twisted plane


def test_weyl_dimensions_and_stability():
    rep = hochschild_cohomology(ore_koszul(weyl_algebra()), cutoff=8)
    assert not rep.graded
    assert rep.per_degree is None
    assert rep.dims == {0: 1, 1: 0, 2: 0}
    assert rep.all_stable


def test_weyl_stability_monotone_up_to_ten():
    previous = None
    for cutoff in (6, 8, 10):
        rep = hochschild_cohomology(ore_koszul(weyl_algebra()), cutoff=cutoff)
        assert rep.dims == {0: 1, 1: 0, 2: 0}
        assert rep.all_stable
        if previous is not None:
            assert rep.dims == previous
        previous = rep.dims


def test_weyl_product_total_routes_through_twisted_coordinates():
    rep = hochschild_cohomology(koszul_pair_product(weyl_twist()), cutoff=6)
    assert not rep.graded
    assert rep.dims == {0: 1, 1: 0, 2: 0}
    assert rep.all_stable


# ---------------------------------------------------------------------------
# Kunneth convolution for the plain product


def test_product_cohomology_is_kunneth_convolution():
    kx, ky = _kx(), _ky()
    rep_prod = hochschild_cohomology(koszul_pair_product(flip_twist(kx, ky)),
                                     cutoff=6)
    assert rep_prod.graded
    rep_x = hochschild_cohomology(poly_koszul(kx), cutoff=8)
    rep_y = hochschild_cohomology(poly_koszul(ky), cutoff=8)
    for n in range(3):
        for t in range(-n, 4):
            if (n, t) not in rep_prod.per_degree:
                continue
            want = sum(
                rep_x.per_degree.get((n1, t1), 0)
                * rep_y.per_degree.get((n - n1, t - t1), 0)
                for n1 in range(n + 1) for t1 in range(-4, 9))
            assert rep_prod.per_degree[(n, t)] == want


def test_product_cohomology_matches_merged_algebra():
    kxy = polynomial_algebra(("x", "y"), name="k[x,y]")
    rep_prod = hochschild_cohomology(
        koszul_pair_product(flip_twist(_kx(), _ky())), cutoff=6)
    rep_xy = hochschild_cohomology(poly_koszul(kxy), cutoff=6)
    for key, want in rep_xy.per_degree.items():
        if key in rep_prod.per_degree:
            assert rep_prod.per_degree[key] == want


# ---------------------------------------------------------------------------
# ground-field collapse


def test_collapse_dimensions_for_bracket_tables():
    assert tor_over_augmented(
        ore_koszul(solvable_2dim_algebra(), bimodule=False)) == [1, 1, 0]
    kxy = polynomial_algebra(("x", "y"), name="k[x,y]")
    assert tor_over_augmented(poly_koszul(kxy, bimodule=False)) == [1, 2, 1]
    assert tor_over_augmented(
        ore_koszul(heisenberg_algebra(), bimodule=False)) == [1, 2, 2, 1]


def test_collapse_through_extension_total_uses_rebundled_form():
    tsol = solvable_pair_twist()
    tc = ore_module_resolution(one_sided_koszul_kx(tsol.a_spec), tsol)
    assert tor_over_augmented(tc) == [1, 1, 0]
    assert ext_over_augmented(tc) == [1, 1, 0]


def test_collapse_through_one_sided_product():
    kx, ky = _kx(), _ky()
    t = flip_twist(kx, ky)
    pm = lift_twist(one_sided_koszul_kx(kx), t, side="left")
    tc = one_sided_twisted_product(pm, one_sided_koszul_kx(ky))
    assert tor_over_augmented(tc) == [1, 2, 1]


def test_transposed_collapse_matches_direct_collapse():
    for bundle in (
            ore_koszul(solvable_2dim_algebra(), bimodule=False),
            ore_koszul(heisenberg_algebra(), bimodule=False),
            poly_koszul(polynomial_algebra(("x", "y"), name="k[x,y]"),
                        bimodule=False),
    ):
        assert tor_over_augmented(bundle) == ext_over_augmented(bundle)


def test_single_variable_collapse_with_padding():
    assert ext_over_augmented(one_sided_koszul_kx(_kx()), n_top=3) \
        == [1, 1, 0, 0]


def test_collapse_rejects_two_sided_input():
    with pytest.raises(HomologyError):
        tor_over_augmented(poly_koszul(_kx()))
    with pytest.raises(HomologyError):
        hochschild_cohomology(one_sided_koszul_kx(_kx()))


# ---------------------------------------------------------------------------
# differential test: the t-blocks and the transposed counit collapse against
# the per-slice restriction and the ground accumulation loop they replaced


class RefCochains(CochainTruncation):
    """The reference cochain truncation: ground codifferentials from a loop
    that keeps an entry when the counit is nonzero on both of its sides,
    and each degree-t slice restricted out of the full matrices."""

    def t_value(self, col, n):
        base = self.cplx.terms[n].internal_degree[col[0]]
        if self.coeff == "ground":
            return -base
        return self.alg.monomial_degree(col[1]) - base

    def matrix(self, n, cutoff):
        if self.coeff != "ground" or n + 1 > self.top:
            return super().matrix(n, cutoff)
        cols = self.basis(n, cutoff)[0]
        rows = self.basis(n + 1, cutoff)[0]
        col_index = {c: i for i, c in enumerate(cols)}
        row_index = {r: i for i, r in enumerate(rows)}
        eps = GroundModule(self.alg).act
        sums = {}
        for mu, img in self.cplx.differentials[n + 1].items():
            for (l, lab, r), c in img.terms.items():
                if eps(l, lab, None) and eps(r, lab, None):
                    ij = (row_index[(mu,)], col_index[(lab,)])
                    sums[ij] = sums.get(ij, 0) + c
        entries = [(i, j, v) for (i, j), v in sums.items()]
        return SparseMatrix(len(rows), len(cols), entries, self.field), \
            cols, rows

    def degree_slice_dim(self, n, t, cutoff):
        stages = [m for m in (n - 1, n, n + 1) if 0 <= m <= self.top]
        maxlab = max(self.cplx.terms[m].internal_degree[lab]
                     for m in stages for lab in self.cplx.terms[m].labels)
        if t + maxlab > cutoff:
            return None
        mat, cols, rows = self.matrix(n, cutoff)
        keep_c = [i for i, col in enumerate(cols) if self.t_value(col, n) == t]
        keep_r = [i for i, row in enumerate(rows)
                  if self.t_value(row, n + 1) == t]
        kernel = mat.restrict(rows=keep_r, cols=keep_c).kernel_dim()
        if n == 0:
            return kernel
        prev, pcols, prows = self.matrix(n - 1, cutoff)
        keep_pc = [i for i, col in enumerate(pcols)
                   if self.t_value(col, n - 1) == t]
        keep_pr = [i for i, row in enumerate(prows)
                   if self.t_value(row, n) == t]
        return kernel - prev.restrict(rows=keep_pr, cols=keep_pc).rank()


def ref_cohomology(cplx, coeff, cutoff, recheck):
    """(dims, stable, per_degree) as ``hochschild_cohomology`` reports
    them, read from the reference truncation."""
    co = RefCochains(cplx, coeff)
    dims, stable, per_degree = {}, {}, {}
    for n in range(cplx.trusted_top + 1):
        dims[n] = co.window_dim(n, cutoff)
        stable[n] = dims[n] == co.window_dim(n, recheck)
    for n in range(cplx.trusted_top + 1):
        for t in sorted({co.t_value(col, n)
                         for col in co.basis(n, cutoff)[0]}):
            d = co.degree_slice_dim(n, t, cutoff)
            if d is not None:
                per_degree[(n, t)] = d
    return dims, stable, per_degree


def _two_sided_suite():
    from test_acceptance import _suite_products, _suite_resolutions
    out = {}
    for i, built in enumerate(_suite_resolutions() + _suite_products()):
        cplx = getattr(built, "complex", built)
        if cplx.terms[0].side == BIMODULE and cplx.aug_kind == "algebra":
            out["suite-%d" % i] = _resolve_algebra_source(built)
    return out


def _graded_cases():
    cases = {name: cplx for name, cplx in _two_sided_suite().items()
             if cplx.homogeneous}
    # reduced bar labels carry degree, so the fit rule drops ground slices
    cases["bar-k[x]"] = bar(_kx(), 3, middle_cutoff=2, reduced=True).complex
    return cases


GRADED_CASES = sorted(_graded_cases())


@pytest.mark.parametrize("name", GRADED_CASES)
def test_cochain_blocks_match_restrict_reference(name):
    cplx = _graded_cases()[name]
    for coeff in ("self", "ground"):
        dropped = False
        for cutoff in range(7):
            rep = hochschild_cohomology(cplx, cutoff=cutoff, coeff=coeff)
            dims, stable, per_degree = ref_cohomology(
                cplx, coeff, cutoff, rep.recheck_cutoff)
            assert rep.dims == dims, (coeff, cutoff)
            assert rep.stable == stable, (coeff, cutoff)
            assert list(rep.per_degree.items()) == list(per_degree.items()), \
                (coeff, cutoff)
            slices = {(n, t) for n in rep.dims
                      for t in CochainTruncation(cplx, coeff)
                      .basis(n, cutoff)[1]}
            dropped |= bool(slices - set(per_degree))
        if name == "bar-k[x]" and coeff == "ground":
            assert dropped


def test_ground_cochains_match_accumulation_reference():
    for name, cplx in sorted(_two_sided_suite().items()):
        co = CochainTruncation(cplx, "ground")
        ref = RefCochains(cplx, "ground")
        for n in range(co.top + 1):
            for cutoff in (0, 4):
                mat, cols, rows = co.matrix(n, cutoff)
                want, ref_cols, ref_rows = ref.matrix(n, cutoff)
                assert (cols, rows) == (ref_cols, ref_rows), (name, n)
                assert (mat.nrows, mat.ncols) == (want.nrows, want.ncols)
                assert mat.entries == want.entries, (name, n)


@pytest.mark.parametrize("name", sorted(NOT_COMPLEXES))
@pytest.mark.parametrize("coeff", ["self", "ground"])
def test_hochschild_cohomology_refuses_a_sequence_that_is_not_a_complex(
        name, coeff):
    # the cochain matrices are still built: only the cohomology refuses
    c = NOT_COMPLEXES[name]()
    assert CochainTruncation(c, coeff).matrix(1, 4)[0].ncols
    with pytest.raises(HomologyError, match="is not a complex.*stage 2"):
        hochschild_cohomology(c, cutoff=6, coeff=coeff)
