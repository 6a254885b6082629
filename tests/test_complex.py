"""Chain-complex machinery on small hand-built resolutions of k[x]."""

import functools

import pytest
from hypothesis import given, settings, strategies as st

from twistres.algebra import (
    CYCLIC_GROUP, ITERATED_ORE, POLYNOMIAL, TWISTED_PRODUCT, basis_up_to,
    cyclic_group_algebra, heisenberg_algebra, iterated_ore_algebra,
    parse_element, polynomial_algebra, weyl_algebra,
)
from twistres.complex import (
    BIMODULE, GROUND_KEY, LEFT_MODULE, ChainComplexSpec, ComplexError,
    DegreeRaisingError, FreeElement, FreeModuleTerm, compose_check,
    exactness_report, image_of, truncate,
)
from twistres.cli import _PRESETS, _build_total, config_from_data
from twistres.kernel import QQ, PrimeField, SparseMatrix
from twistres.resolutions import (
    bar, cyclic_periodic, ore_koszul, poly_koszul,
    one_sided_koszul_kx as koszul_kx_resolution,
)
from twistres.twist import solvable_pair_twist, triangular_action_twist, \
    weyl_twist
from twistres.twistprod import (
    koszul_pair_product, kunneth_degree0_check, ore_module_resolution,
    triangular_skew_product,
)

from test_acceptance import _suite_products, _suite_resolutions
from test_imports import _bench_module


def bimodule_koszul_kx():
    """0 -> A(x)[e](x)A -> A(x)[1](x)A -> A -> 0 for A = k[x]."""
    a = polynomial_algebra(("x",))
    t0 = FreeModuleTerm(a, ("1",), side=BIMODULE)
    t1 = FreeModuleTerm(a, ("e",), side=BIMODULE, internal_degree={"e": 1})
    x = parse_element("x", a)
    one = a.one()
    d1 = {"e": t0.generator("1").left_mul(x) - t0.generator("1").right_mul(x)}
    aug = {"1": one.terms}
    return ChainComplexSpec(a, [t0, t1], [None, d1], augmentation=aug,
                            aug_kind="algebra", name="koszul-kx")


def one_sided_koszul_kx():
    """0 -> A(x)[e] -> A(x)[1] -> k -> 0 for A = k[x]."""
    a = polynomial_algebra(("x",))
    t0 = FreeModuleTerm(a, ("1",), side=LEFT_MODULE)
    t1 = FreeModuleTerm(a, ("e",), side=LEFT_MODULE, internal_degree={"e": 1})
    x = parse_element("x", a)
    d1 = {"e": t0.generator("1").left_mul(x)}
    return ChainComplexSpec(a, [t0, t1], [None, d1], augmentation={"1": {GROUND_KEY: 1}},
                            aug_kind="ground", name="one-sided-kx")


def test_generator_and_degrees():
    c = bimodule_koszul_kx()
    g = c.terms[1].generator("e")
    assert c.terms[1].key_degree(next(iter(g.terms))) == 1
    assert c.terms[0].key_degree(((2,), "1", (1,))) == 3


def test_basis_enumeration_deterministic():
    c = bimodule_koszul_kx()
    b = c.terms[0].basis(1)
    assert b[0] == ((0,), "1", (0,))
    assert len(b) == 3  # 1(x)1, x(x)1, 1(x)x
    assert c.terms[1].basis(1) == [((0,), "e", (0,))]
    assert c.terms[1].basis(0) == []


def test_element_arithmetic_and_actions():
    c = bimodule_koszul_kx()
    a = c.algebra
    x = parse_element("x", a)
    g = c.terms[0].generator("1")
    lhs = g.left_mul(x * x).right_mul(x)
    assert lhs.terms == {((2,), "1", (1,)): QQ.one}
    assert (lhs - lhs).is_zero()
    assert (lhs + lhs).terms == {((2,), "1", (1,)): QQ.coerce(2)}


def test_differential_is_bimodule_map():
    c = bimodule_koszul_kx()
    a = c.algebra
    x = parse_element("x", a)
    g = c.terms[1].generator("e")
    img = c.apply_differential(1, g.left_mul(x))
    expect = c.differentials[1]["e"].left_mul(x)
    assert img == expect


def test_compose_check_passes_and_augmentation_guard():
    rep = compose_check(bimodule_koszul_kx())
    assert rep.passed and rep.checked == 1  # aug . d_1 only; no d_2


def test_compose_check_catches_bad_augmentation():
    c = bimodule_koszul_kx()
    bad = c.terms[0].generator("1")
    c.differentials[1]["e"] = c.differentials[1]["e"] + bad
    rep = compose_check(c)
    assert not rep.passed
    assert rep.violations == [(1, "e", "augmentation: 1")]


@pytest.mark.parametrize("field, shown", [(QQ, "Fraction(3, 1)"),
                                          (PrimeField(5), "3")])
def test_ground_augmentation_failure_record(field, shown):
    # the record shows a Q value as a Fraction whether it is held as an
    # int or a Fraction, so report bytes do not depend on the storage
    c = poly_koszul(polynomial_algebra(("x",), field=field),
                    bimodule=False).complex
    lab = c.terms[1].labels[0]
    unit = c.terms[0].generator(c.terms[0].labels[0])
    c.differentials[1][lab] = c.differentials[1][lab] + unit.scale(3)
    rep = compose_check(c)
    assert rep.violations == [(1, lab, "augmentation: %s" % shown)]


def test_truncate_matrix_shapes_and_grading():
    tc = truncate(bimodule_koszul_kx(), 3)
    assert tc.matrices[1].nrows == len(tc.bases[0])
    assert tc.matrices[1].ncols == len(tc.bases[1])
    assert tc.max_drop == 0 and tc.graded


def test_exactness_bimodule_koszul():
    rep = exactness_report(bimodule_koszul_kx(), 4)
    assert rep.passed
    assert rep.window == 4 and rep.graded
    assert rep.homology == {1: 0}
    assert rep.h0_relative == 0 and rep.aug_coker == 0
    assert rep.per_degree == {}


def test_exactness_one_sided_koszul():
    rep = exactness_report(one_sided_koszul_kx(), 5)
    assert rep.passed
    assert rep.h0_relative == 0 and rep.aug_coker == 0


def test_windowed_h0_without_relative_aug():
    tc = truncate(one_sided_koszul_kx(), 4)
    # term0 / im(d_1) should be 1-dimensional (the resolved ground field)
    free = sum(1 for d in tc.key_degrees[0] if d <= tc.window)
    assert free - tc.boundary_dim_in_window(0) == 1


def test_broken_differential_detected():
    c = bimodule_koszul_kx()
    # drop the right-hand term of d_1: no longer a resolution
    t0 = c.terms[0]
    x = parse_element("x", c.algebra)
    c.differentials[1] = {"e": t0.generator("1").left_mul(x)}
    rep = compose_check(c)
    assert not rep.passed  # augmentation no longer kills d_1


def test_degree_raising_rejected():
    a = polynomial_algebra(("x",))
    t0 = FreeModuleTerm(a, ("1",), side=BIMODULE)
    t1 = FreeModuleTerm(a, ("e",), side=BIMODULE, internal_degree={"e": 1})
    x2 = parse_element("x^2", a)
    d1 = {"e": t0.generator("1").left_mul(x2)}
    c = ChainComplexSpec(a, [t0, t1], [None, d1], name="raising")
    with pytest.raises(DegreeRaisingError):
        truncate(c, 3)
    # at cutoff 1 the image x^2(x)[1](x)1 lies outside the enumerated basis
    with pytest.raises(DegreeRaisingError):
        truncate(c, 1)


def test_incomplete_above_excludes_top_spot():
    c = bimodule_koszul_kx()
    c.complete_above = False
    rep = exactness_report(c, 4)
    assert rep.top_spot_reported == 0
    assert rep.homology == {}


def test_term_mismatch_raises():
    c1 = bimodule_koszul_kx()
    c2 = bimodule_koszul_kx()
    with pytest.raises(ComplexError):
        c1.terms[0].generator("1") + c2.terms[0].generator("1")


def test_augmentation_value_must_be_a_dict():
    # the scalar shape ε(1) = 1 is refused when the complex is built,
    # naming the label, rather than failing later inside truncate
    a = polynomial_algebra(("x",))
    t0 = FreeModuleTerm(a, ["1"], LEFT_MODULE)
    with pytest.raises(ComplexError, match="'1'"):
        ChainComplexSpec(a, [t0], [{}], augmentation={"1": 1},
                         aug_kind="ground")


# -- differential tests against the per-key FreeElement assembly ---------------

def reference_basis(term, n):
    """Keys of total degree <= n, enumerated one label and left monomial at
    a time and sorted by (degree, left key, right key)."""
    a = term.algebra
    out = []
    for lab in term.labels:
        room = n - term.internal_degree[lab]
        if room < 0:
            continue
        if term.side == BIMODULE:
            keys = [(l, lab, r) for l in basis_up_to(a, room)
                    for r in basis_up_to(a, room - a.monomial_degree(l))]
            keys.sort(key=lambda k: (a.monomial_degree(k[0]) + a.monomial_degree(k[2]),
                                     a.monomial_key(k[0]), a.monomial_key(k[2])))
        else:
            keys = [(l, lab) for l in basis_up_to(a, room)]
            keys.sort(key=lambda k: a.monomial_key(k[0]))
        out.extend(keys)
    return out


def reference_apply_differential(c, n, elem):
    """d_n through scale, left_mul, right_mul and __add__, one key at a time."""
    alg = c.algebra
    out = c.terms[n - 1].zero()
    for k, coeff in elem.terms.items():
        piece = c.differentials[n][k[1]].scale(coeff)
        piece = piece.left_mul(alg.element({k[0]: alg.field.one}))
        if c.terms[n].side == BIMODULE:
            piece = piece.right_mul(alg.element({k[2]: alg.field.one}))
        out = out + piece
    return out


def reference_apply_augmentation(c, elem):
    """The augmentation through scale, element products and __add__, one
    key at a time (aug_kind "algebra"); the ground case is a scalar sum,
    where epsilon(l) is 1 exactly when l has degree 0."""
    alg = c.algebra
    f = alg.field
    if c.aug_kind == "algebra":
        out = alg.zero()
        for k, coeff in elem.terms.items():
            img = alg.element(c.augmentation[k[1]]).scale(coeff)
            l = alg.element({k[0]: f.one})
            if c.terms[0].side == BIMODULE:
                out = out + l * img * alg.element({k[2]: f.one})
            else:
                out = out + l * img
        return out
    total = f.zero
    for (l, lab), coeff in elem.terms.items():
        if alg.monomial_degree(l) == 0:
            eps = f.coerce(c.augmentation[lab].get(GROUND_KEY, 0))
            total = f.coerce(total + f.mul(coeff, eps))
    return total


def reference_truncation(c, cutoff):
    """Bases, key degrees, max drop, matrix entries (one column per key)
    and augmentation entries."""
    f = c.algebra.field
    bases = [reference_basis(t, cutoff) for t in c.terms]
    degrees = [[t.key_degree(k) for k in b] for t, b in zip(c.terms, bases)]
    max_drop = 0
    matrices = [None]
    for n in range(1, c.n_max + 1):
        index = {k: i for i, k in enumerate(bases[n - 1])}
        entries = {}
        for j, key in enumerate(bases[n]):
            src = c.terms[n].key_degree(key)
            img = reference_apply_differential(
                c, n, FreeElement(c.terms[n], {key: f.one}))
            for k, v in img.terms.items():
                max_drop = max(max_drop, src - c.terms[n - 1].key_degree(k))
                entries[(index[k], j)] = v
        matrices.append((len(bases[n - 1]), len(bases[n]), entries))
    aug = {}
    alg = c.algebra
    target = {m: i for i, m in enumerate(basis_up_to(alg, cutoff))}
    for j, key in enumerate(bases[0] if c.augmentation is not None else ()):
        img = reference_apply_augmentation(
            c, FreeElement(c.terms[0], {key: f.one}))
        if c.aug_kind == "algebra":
            for m, v in img.terms.items():
                max_drop = max(max_drop, degrees[0][j] - alg.monomial_degree(m))
                aug[(target[m], j)] = v
        elif not f.is_zero(img):
            # the ground field: one target row, in degree 0
            max_drop = max(max_drop, degrees[0][j])
            aug[(0, j)] = img
    return bases, degrees, max_drop, matrices, aug


def _kxy(field=QQ):
    return polynomial_algebra(("x", "y"), field, name="k[x,y]")


def _ore_module_product(t):
    return ore_module_resolution(koszul_kx_resolution(t.a_spec), t).complex


COMPLEX_CASES = {
    "poly-bimodule-Q": lambda: poly_koszul(_kxy()).complex,
    "poly-bimodule-F5": lambda: poly_koszul(_kxy(PrimeField(5))).complex,
    "poly-one-sided-F5": lambda: poly_koszul(_kxy(PrimeField(5)),
                                             bimodule=False).complex,
    "ore-bimodule-Q": lambda: ore_koszul(weyl_algebra()).complex,
    "ore-one-sided-Q": lambda: ore_koszul(heisenberg_algebra(),
                                          bimodule=False).complex,
    "cyclic-bimodule-F3": lambda: cyclic_periodic(3, 5).complex,
    "cyclic-bar-F3": lambda: bar(cyclic_group_algebra(3, PrimeField(3)), 3,
                                 reduced=True).complex,
    "product-bimodule-Q": lambda: koszul_pair_product(weyl_twist()).complex,
    "product-bimodule-F2": lambda: triangular_skew_product(2).complex,
    "product-one-sided-Q": lambda: _ore_module_product(solvable_pair_twist()),
    "kx-bimodule-Q": bimodule_koszul_kx,
    "kx-one-sided-Q": one_sided_koszul_kx,
}


@functools.lru_cache(maxsize=None)
def complex_case(name):
    return COMPLEX_CASES[name]()


def test_complex_cases_cover_sides_fields_and_variants():
    seen = set()
    for name in COMPLEX_CASES:
        c = complex_case(name)
        seen.add((c.algebra.variant, c.terms[0].side,
                  c.algebra.field.characteristic == 0))
    for variant in (POLYNOMIAL, ITERATED_ORE, CYCLIC_GROUP, TWISTED_PRODUCT):
        assert any(v == variant and side == BIMODULE for v, side, _ in seen)
    for variant in (POLYNOMIAL, ITERATED_ORE, TWISTED_PRODUCT):
        assert any(v == variant and side == LEFT_MODULE for v, side, _ in seen)
    assert {q for _, _, q in seen} == {True, False}


@st.composite
def free_elements(draw, term, cutoff=3):
    """Sums over a few low basis keys; keys repeat, so coefficients may
    add up or cancel."""
    keys = term.basis(cutoff)
    f = term.algebra.field
    if f.characteristic == 0:
        coeffs = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    else:
        coeffs = st.integers(-3, 3)
    elem = term.zero()
    if not keys:
        return elem
    picks = draw(st.lists(st.tuples(st.integers(0, min(len(keys), 8) - 1),
                                    coeffs), max_size=6))
    for i, v in picks:
        elem = elem + FreeElement(term, {keys[i]: f.coerce(v)})
    return elem


@settings(max_examples=80, derandomize=True, deadline=None)
@given(data=st.data())
def test_apply_differential_matches_reference(data):
    c = complex_case(data.draw(st.sampled_from(sorted(COMPLEX_CASES))))
    n = data.draw(st.integers(1, c.n_max))
    elem = data.draw(free_elements(c.terms[n]))
    got = c.apply_differential(n, elem)
    assert got == reference_apply_differential(c, n, elem)
    if n < c.n_max:
        # d_n kills a boundary, so its image cancels term by term
        z = data.draw(free_elements(c.terms[n + 1]))
        mixed = elem + reference_apply_differential(c, n + 1, z)
        assert c.apply_differential(n, mixed) == got
        assert reference_apply_differential(c, n, mixed) == got


@settings(max_examples=60, derandomize=True, deadline=None)
@given(data=st.data())
def test_apply_augmentation_matches_reference(data):
    names = sorted(name for name in COMPLEX_CASES
                   if complex_case(name).augmentation is not None)
    c = complex_case(data.draw(st.sampled_from(names)))
    elem = data.draw(free_elements(c.terms[0]))
    want = reference_apply_augmentation(c, elem)
    if c.aug_kind == "algebra":
        want = want.terms
    else:
        want = {GROUND_KEY: want} if want else {}
    assert image_of(c.algebra.field, elem.terms,
                    c.augmentation_image) == want


@pytest.mark.parametrize("name", sorted(COMPLEX_CASES))
def test_truncation_matches_reference(name):
    c = complex_case(name)
    for cutoff in range(6):
        tc = truncate(c, cutoff)
        bases, degrees, max_drop, matrices, aug = reference_truncation(c, cutoff)
        assert tc.bases == bases
        assert tc.key_degrees == degrees
        assert tc.max_drop == max_drop
        for n in range(1, c.n_max + 1):
            m = tc.matrices[n]
            assert (m.nrows, m.ncols, m.entries) == matrices[n]
        if c.augmentation is not None:
            assert tc.aug_matrix.entries == aug


@pytest.mark.parametrize("name", sorted(COMPLEX_CASES))
def test_basis_keeps_documented_order(name):
    c = complex_case(name)
    for term in c.terms:
        a = term.algebra
        keys = term.basis(5)
        assert len(set(keys)) == len(keys)
        if term.side == BIMODULE:
            sort_key = [(term.labels.index(lab),
                         a.monomial_degree(l) + a.monomial_degree(r),
                         a.monomial_key(l), a.monomial_key(r))
                        for l, lab, r in keys]
        else:
            sort_key = [(term.labels.index(lab), a.monomial_key(l))
                        for l, lab in keys]
        assert sort_key == sorted(sort_key)


@pytest.mark.parametrize("spec", [
    polynomial_algebra(("x", "y", "z")), weyl_algebra(),
    cyclic_group_algebra(4), triangular_action_twist(3).a_spec,
    koszul_pair_product(weyl_twist()).complex.algebra,
    triangular_skew_product(2).complex.algebra,
], ids=["polynomial", "iterated-ore", "cyclic-group", "cyclic-group-F3",
        "twisted-product", "twisted-product-cyclic"])
def test_basis_up_to_is_ordered_by_monomial_key(spec):
    """graded_basis cuts each degree bound as a prefix of basis_up_to and
    orders keys by position in it; both rest on this order."""
    full = basis_up_to(spec, 5)
    keys = [spec.monomial_key(m) for m in full]
    assert keys == sorted(keys) and len(set(keys)) == len(keys)
    assert [k[0] for k in keys] == [spec.monomial_degree(m) for m in full]
    for d in range(5):
        assert basis_up_to(spec, d) == full[:len(basis_up_to(spec, d))]


# ---------------------------------------------------------------------------
# rank_on against the per-query restrictions it replaced


def _copy(m):
    """m as a new matrix, so the references rank without filling the
    truncation's own matrices' rank memo."""
    return SparseMatrix._adopt(m.nrows, m.ncols, dict(m.entries), m.field)


def _ref_outgoing(tc, n):
    if n == 0:
        if tc.aug_matrix is not None:
            return _copy(tc.aug_matrix)
        return SparseMatrix(0, len(tc.bases[0]), [], tc.field)
    return _copy(tc.matrices[n])


def _ref_incoming(tc, n):
    if n + 1 <= tc.spec.n_max:
        return _copy(tc.matrices[n + 1])
    return SparseMatrix(len(tc.bases[n]), 0, [], tc.field)


def ref_boundary_dims(tc, n, windows):
    """{w: boundary dim in window w} at spot n; the full rank r1 does not
    depend on the window, so it is ranked once here."""
    inc = _ref_incoming(tc, n)
    r1 = inc.rank()
    out = {}
    for d in windows:
        high = [i for i, dg in enumerate(tc.key_degrees[n]) if dg > d]
        r2 = inc.restrict(rows=high).rank()
        out[d] = r1 - r2
    return out


def ref_cycle_dim(tc, n, d):
    out = _ref_outgoing(tc, n)
    cols = [j for j, dg in enumerate(tc.key_degrees[n]) if dg <= d]
    return out.restrict(cols=cols).kernel_dim()


def ref_augmentation_cokernel(tc):
    if tc.aug_matrix is None:
        return None
    d = tc.window
    aug = _copy(tc.aug_matrix)
    r1 = aug.rank()
    high = [i for i, dg in enumerate(tc.target_degrees) if dg > d]
    r2 = aug.restrict(rows=high).rank()
    free = sum(1 for dg in tc.target_degrees if dg <= d)
    return free - (r1 - r2)


def ref_graded_homology(tc, n, d):
    out = _ref_outgoing(tc, n)
    inc = _ref_incoming(tc, n)
    cols = [j for j, dg in enumerate(tc.key_degrees[n]) if dg == d]
    ker = out.restrict(cols=cols).kernel_dim()
    if n + 1 <= tc.spec.n_max:
        inc_cols = [j for j, dg in enumerate(tc.key_degrees[n + 1]) if dg == d]
        rows = [i for i, dg in enumerate(tc.key_degrees[n]) if dg == d]
        bnd = inc.restrict(rows=rows, cols=inc_cols).rank()
    else:
        bnd = 0
    return ker - bnd


def _skew_p3():
    config = config_from_data(_PRESETS["skew-p3"]())
    return _build_total(config.products["P"], {"n_max": 4}, config)


RANK_CASES = dict(
    [("resolution-%d" % i, (lambda i=i: _suite_resolutions()[i]))
     for i in range(13)]
    + [("product-%d" % i, (lambda i=i: _suite_products()[i]))
       for i in range(6)]
    + [("skew-p3", _skew_p3)])


@pytest.mark.parametrize("name", sorted(RANK_CASES))
def test_rank_on_matches_restrict_reference(name):
    built = RANK_CASES[name]()
    c = getattr(built, "complex", built)
    for cutoff in range(6):
        tc = truncate(c, cutoff)
        # the windows in play: every w in 0..N and the faithful one
        windows = sorted(set(range(cutoff + 1)) | {tc.window})
        bnd = {(n, w): dim for n in range(c.n_max + 1)
               for w, dim in ref_boundary_dims(tc, n, windows).items()}
        for n in range(c.n_max + 1):
            for w in windows:
                assert tc.boundary_dim_in_window(n, w) == bnd[n, w], \
                    (cutoff, n, w)
            assert tc.cycle_dim_in_window(n) == \
                ref_cycle_dim(tc, n, tc.window), (cutoff, n)
            assert tc.windowed_homology(n) == (
                ref_cycle_dim(tc, n, tc.window) - bnd[n, tc.window])
            per_degree = [tc.graded_homology(n, d) for d in range(cutoff + 1)]
            assert per_degree == [ref_graded_homology(tc, n, d)
                                  for d in range(cutoff + 1)], (cutoff, n)
            if tc.graded:
                assert tc.windowed_homology(n) == sum(per_degree)
        assert tc.augmentation_cokernel() == ref_augmentation_cokernel(tc)
        assert tc.boundary_dim_in_window(0) == bnd[0, tc.window]
        if c is not built:
            # the Künneth rows as the check computed them before it took
            # a truncation: basis counts and the reference boundaries
            alg = c.algebra
            base = min((c.terms[0].internal_degree[lab]
                        for lab in c.terms[0].labels), default=0)
            want = {d: (len(c.terms[0].basis(d)) - bnd[0, d],
                        len(basis_up_to(alg, d))
                        if c.aug_kind == "algebra" else 1)
                    for d in range(base, tc.window + 1)}
            assert kunneth_degree0_check(built, tc).rows == want, cutoff


# -- one gradedness rule --------------------------------------------------------

# the suite complexes that are filtered but whose truncations at cutoffs 0
# and 1 drop no degree, so that a measured rule (graded when the largest
# drop is zero) called them graded there
FILTERED_WITHOUT_LOW_DROP = (
    "bar(Weyl)", "ore-koszul(Weyl)", "ore-koszul(Weyl_2)",
    "ore-koszul(U(solv2))", "one-sided-koszul(U(solv2))",
    "one-sided-koszul(U(heis3))")


def windowed_numbers(rep):
    return rep.homology, rep.h0_relative, rep.aug_coker, rep.window


def gradedness_disagreements():
    """(suite index, complex name, cutoff, what) for every truncation of
    the 19 suite complexes at cutoffs 0-4 that breaks the one rule: the
    spec's ``homogeneous`` forces a zero drop, ``TruncatedComplex.graded``
    is that rule, and every windowed number and the verdict equal those
    of the same truncation under the measured rule it replaced."""
    out = []
    suite = _suite_resolutions() + _suite_products()
    for i, built in enumerate(suite):
        c = built.complex
        for cutoff in range(5):
            tc = truncate(c, cutoff)
            if c.homogeneous and tc.max_drop:
                out.append((i, c.name, cutoff, "drop"))
            if tc.graded != c.homogeneous:
                out.append((i, c.name, cutoff, "graded"))
            rep = tc.exactness()
            measured = truncate(c, cutoff)
            measured.graded = measured.max_drop == 0
            ref = measured.exactness()
            if (windowed_numbers(rep) != windowed_numbers(ref)
                    or rep.passed != ref.passed):
                out.append((i, c.name, cutoff, "numbers"))
    return out


def test_one_gradedness_rule_on_the_suite():
    assert gradedness_disagreements() == []
    suite = _suite_resolutions() + _suite_products()
    low = [b.complex.name for b in suite
           if not b.complex.homogeneous
           and all(truncate(b.complex, n).max_drop == 0 for n in (0, 1))]
    assert low == list(FILTERED_WITHOUT_LOW_DROP)
    for built in suite:
        for cutoff in (0, 1):
            if built.complex.name in FILTERED_WITHOUT_LOW_DROP:
                assert not exactness_report(built.complex, cutoff).graded


# -- sequences that are not complexes -----------------------------------------


def flipped_delta_term():
    """The wedge resolution of y x = x y + x with the sign of its delta
    term flipped: in d_2 that is the one term with no coefficient on
    either side."""
    alg = iterated_ore_algebra(("x", "y"), {(1, 0): {(1, 0): 1}},
                               name="y x = x y + x")
    c = ore_koszul(alg).complex
    unit, f = alg.one_monomial(), alg.field
    diffs = list(c.differentials)
    diffs[2] = {w: FreeElement(img.term, {
        k: f.neg(v) if k[0] == k[2] == unit else v
        for k, v in img.terms.items()}) for w, img in diffs[2].items()}
    return ChainComplexSpec(alg, c.terms, diffs, augmentation=c.augmentation,
                            aug_kind=c.aug_kind, name="flipped-delta-term")


def dropped_wedge_term():
    """The benchmark's Weyl wedge resolution with one stage-2 term
    dropped."""
    return _bench_module("workloads").dropped_wedge_term()


NOT_COMPLEXES = {"dropped-wedge-term": dropped_wedge_term,
                 "flipped-delta-term": flipped_delta_term}


@pytest.mark.parametrize("name", sorted(NOT_COMPLEXES))
def test_exactness_refuses_a_sequence_that_is_not_a_complex(name):
    c = NOT_COMPLEXES[name]()
    rep = compose_check(c)
    assert not rep.passed and rep.violations[0][0] == 2
    # the truncation is still built: its matrices can be inspected
    tc = truncate(c, 4)
    assert tc.matrices[2].entries
    with pytest.raises(ComplexError, match="is not a complex.*stage 2"):
        tc.exactness()
    with pytest.raises(ComplexError, match="is not a complex"):
        exactness_report(c, 4)
