"""Tests for presented algebras and PBW rewriting."""

import random

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from twistres.kernel import PrimeField, add_term, field_of_characteristic
from twistres.algebra import (
    AlgebraSpec, ITERATED_ORE,
    polynomial_algebra, cyclic_group_algebra, iterated_ore_algebra,
    weyl_algebra, solvable_2dim_algebra, heisenberg_algebra,
    basis_up_to, filtration_degree, parse_element,
    delta_table_from_strings,
    UnknownGeneratorError, SpecMismatchError, ZeroElementError,
    DeltaTableError,
)
from twistres.twist import triangular_action_twist, weyl_twist


def E(text, spec):
    return parse_element(text, spec)


def gens_product(names, spec):
    """The product of the named generators, in order."""
    out = spec.one()
    for name in names:
        out = out * spec.gen(name)
    return out


# ------------------------------------------------------------------ normalize

def test_weyl_normalize_yx():
    w = weyl_algebra()
    assert gens_product("yx", w) == E("y*x", w) == E("x*y - 1", w)


def test_normalize_square():
    w = weyl_algebra()
    assert gens_product("xx", w) == E("x^2", w)


def test_cyclic_group_relation():
    g3 = cyclic_group_algebra(3)
    assert gens_product("ggg", g3) == g3.one()


def test_unknown_generator():
    w = weyl_algebra()
    with pytest.raises(UnknownGeneratorError):
        w.gen("q")


# ------------------------------------------------------------------ multiply

def test_weyl_y_times_x():
    w = weyl_algebra()
    assert E("y", w) * E("x", w) == E("x*y - 1", w)


def test_weyl_ysq_times_x():
    # hand oracle: y^2 x = y(xy - 1) = (xy - 1)y - y = x y^2 - 2y
    w = weyl_algebra()
    assert E("y^2", w) * E("x", w) == E("x*y^2 - 2*y", w)


def test_cyclic_power_product():
    g3 = cyclic_group_algebra(3)
    assert E("g^2", g3) * E("g^2", g3) == E("g", g3)


def test_spec_mismatch():
    w = weyl_algebra()
    p = polynomial_algebra(["x", "y"])
    with pytest.raises(SpecMismatchError):
        E("x", w) * E("x", p)


def test_solvable_relation():
    u = solvable_2dim_algebra()
    assert E("x", u) * E("y", u) == E("y*x + y", u)


def test_heisenberg_relations():
    h = heisenberg_algebra()
    x, y, z = E("x", h), E("y", h), E("z", h)
    assert x * y - y * x == z
    assert x * z == z * x
    assert y * z == z * y


def test_weyl2_relations():
    w = weyl_algebra(n=2)
    x1, x2 = E("x1", w), E("x2", w)
    y1, y2 = E("y1", w), E("y2", w)
    one = w.one()
    assert x1 * y1 - y1 * x1 == one
    assert x2 * y2 - y2 * x2 == one
    assert x1 * y2 == y2 * x1
    assert x2 * y1 == y1 * x2
    assert x1 * x2 == x2 * x1


def test_delta_zero_matches_polynomial():
    ore = iterated_ore_algebra(("x", "y"), {})
    poly = polynomial_algebra(("x", "y"))
    rng = random.Random(0)
    monos = basis_up_to(poly, 3)
    for _ in range(25):
        m1, m2 = rng.choice(monos), rng.choice(monos)
        assert ore.mono_mul(m1, m2) == poly.mono_mul(m1, m2)


def test_delta_table_validation():
    # delta_2(x_1) = x_2 violates the filtered condition
    with pytest.raises(DeltaTableError):
        iterated_ore_algebra(("a", "b"), {(1, 0): {(0, 1): 1}})
    with pytest.raises(DeltaTableError):
        iterated_ore_algebra(("a", "b"), {(1, 0): {(2, 0): 1}})  # degree 2


# ------------------------------------------------------------------ basis

def test_basis_polynomial():
    p = polynomial_algebra(("x", "y"))
    b = basis_up_to(p, 2)
    assert b == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    assert len(b) == 6


def test_basis_cyclic():
    g3 = cyclic_group_algebra(3)
    assert basis_up_to(g3, 0) == [0, 1, 2]
    assert basis_up_to(g3, 7) == [0, 1, 2]


def test_basis_weyl_degree1():
    w = weyl_algebra()
    assert basis_up_to(w, 1) == [(0, 0), (1, 0), (0, 1)]  # 1, x, y


def test_basis_deterministic():
    p = polynomial_algebra(("x", "y", "z"))
    assert basis_up_to(p, 4) == basis_up_to(p, 4)


# ------------------------------------------------------------------ degrees

def test_degree_weyl_element():
    w = weyl_algebra()
    assert filtration_degree(E("x*y - 1", w)) == 2


def test_degree_group_element():
    g3 = cyclic_group_algebra(3)
    assert filtration_degree(E("g^2", g3)) == 0


def test_degree_zero_errors():
    w = weyl_algebra()
    with pytest.raises(ZeroElementError):
        filtration_degree(w.zero())


# ------------------------------------------------------------------ invariants

SPECS = {
    "weyl": weyl_algebra,
    "weyl2": lambda: weyl_algebra(n=2),
    "solv": solvable_2dim_algebra,
    "heis": heisenberg_algebra,
    "poly": lambda: polynomial_algebra(("x", "y")),
    "cyc5": lambda: cyclic_group_algebra(5),
    "poly_p3": lambda: polynomial_algebra(("x", "y"), PrimeField(3)),
}


@pytest.mark.parametrize("name", sorted(SPECS))
def test_associativity_random_triples(name):
    spec = SPECS[name]()
    rng = random.Random(7)
    monos = basis_up_to(spec, 3)

    def rand_elem():
        terms = {}
        for _ in range(rng.randint(1, 3)):
            terms[rng.choice(monos)] = rng.randint(-3, 3)
        return spec.element(terms)

    for _ in range(20):
        a, b, c = rand_elem(), rand_elem(), rand_elem()
        assert (a * b) * c == a * (b * c)


@pytest.mark.parametrize("name", sorted(SPECS))
def test_normalize_idempotent(name):
    spec = SPECS[name]()
    rng = random.Random(3)
    gens = list(spec.gens)
    for _ in range(10):
        names = [rng.choice(gens) for _ in range(rng.randint(0, 5))]
        once = gens_product(names, spec)
        # renormalizing the normal form changes nothing: multiply by 1
        assert once * spec.one() == once
        assert spec.one() * once == once


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.lists(st.sampled_from(["x", "y"]), min_size=1, max_size=6),
       st.lists(st.sampled_from(["x", "y"]), min_size=1, max_size=6))
def test_degree_subadditive_and_polynomial_equality(wa, wb):
    w = weyl_algebra()
    p = polynomial_algebra(("x", "y"))
    a, b = gens_product(wa, w), gens_product(wb, w)
    prod = a * b
    if prod:
        assert filtration_degree(prod) <= filtration_degree(a) + filtration_degree(b)
    pa, pb = gens_product(wa, p), gens_product(wb, p)
    assert filtration_degree(pa * pb) == filtration_degree(pa) + filtration_degree(pb)


def test_rewriting_is_bounded():
    # the Ore recursion ends: a worst-case small product finishes with
    # its top-degree term x^6 y^6
    w = weyl_algebra()
    y6x6 = E("y^6", w) * E("x^6", w)
    assert filtration_degree(y6x6) == 12
    # leading term stays x^6 y^6
    assert y6x6.terms[(6, 6)] == 1


def test_mod_p_coefficients():
    w3 = iterated_ore_algebra(("x", "y"), {(1, 0): {(0, 0): -1}},
                              PrimeField(3))
    # y^3 x = x y^3 - 3 y^2 = x y^3 in characteristic 3
    assert E("y^3", w3) * E("x", w3) == E("x*y^3", w3)


# ------------------------------------------------------------------ parsing

def test_parse_roundtrip_weyl():
    from fractions import Fraction
    w = weyl_algebra()
    e = E("2*x^2*y - 1/2*x + 3", w)
    assert e.terms == {(2, 1): 2, (1, 0): Fraction(-1, 2), (0, 0): 3}


def test_parse_unicode_minus_and_tensor():
    p = polynomial_algebra(("x", "y"))
    assert E("x*y − 1", p) == E("x*y - 1", p)
    assert E("x⊗y", p) == E("x*y", p)


def test_parse_rejects_unknown_gen():
    p = polynomial_algebra(("x",))
    with pytest.raises(UnknownGeneratorError):
        E("x + q", p)


def test_delta_table_from_strings():
    table = delta_table_from_strings(("x", "y"), {"y": {"x": "-1"}})
    assert table == {(1, 0): {(0, 0): -1}}
    table2 = delta_table_from_strings(("y", "x"), {"x": {"y": "y"}})
    assert table2 == {(1, 0): {(1, 0): 1}}


# ------------------------------------------------- Ore multiplication vs rewriting
#
# The reference below reaches the normal form by word rewriting: rewrite
# the leftmost descent x_j x_i (i < j) of the whole word to
# x_i x_j + delta[(j, i)] until no descent is left.  It needs only a field
# and a delta table, so it also runs on tables the library rejects.


def _exp(t, word):
    e = [0] * t
    for i in word:
        e[i] += 1
    return tuple(e)


def reference_normalize(field, t, delta, word, cache):
    hit = cache.get(word)
    if hit is not None:
        return hit
    pending = {word: field.one}
    done = {}
    while pending:
        w, c = pending.popitem()
        k = None
        for pos in range(len(w) - 1):
            if w[pos] > w[pos + 1]:
                k = pos
                break
        if k is None:
            add_term(field, done, _exp(t, w), c)
            continue
        j, i = w[k], w[k + 1]
        add_term(field, pending, w[:k] + (i, j) + w[k + 2:], c)
        for dm, dc in delta.get((j, i), {}).items():
            frag = AlgebraSpec._word(dm)
            add_term(field, pending, w[:k] + frag + w[k + 2:],
                     field.mul(c, field.coerce(dc)))
    cache[word] = done
    return done


def reference_mul(field, t, delta, x, y, cache):
    """Reference product of two monomial -> scalar dicts."""
    out = {}
    for m1, c1 in x.items():
        for m2, c2 in y.items():
            word = AlgebraSpec._word(m1) + AlgebraSpec._word(m2)
            for m, c in reference_normalize(field, t, delta, word,
                                            cache).items():
                add_term(field, out, m, field.mul(field.mul(c1, c2), c))
    return out


def reference_fails_associativity(field, t, delta):
    """Whether (x_a x_b) x_c != x_a (x_b x_c) for some generator triple,
    each product normalized by the reference rewriting."""
    cache = {}
    e = [{tuple(int(m == k) for m in range(t)): field.one} for k in range(t)]
    for a in range(t):
        for b in range(t):
            for c in range(t):
                ab = reference_mul(field, t, delta, e[a], e[b], cache)
                bc = reference_mul(field, t, delta, e[b], e[c], cache)
                if (reference_mul(field, t, delta, ab, e[c], cache)
                        != reference_mul(field, t, delta, e[a], bc, cache)):
                    return True
    return False


def assert_matches_reference(spec, monos, max_degree=None):
    cache = {}
    t = len(spec.gens)
    for m1 in monos:
        for m2 in monos:
            if (max_degree is not None and spec.monomial_degree(m1)
                    + spec.monomial_degree(m2) > max_degree):
                continue
            want = reference_normalize(
                spec.field, t, spec.delta,
                AlgebraSpec._word(m1) + AlgebraSpec._word(m2), cache)
            assert spec.mono_mul(m1, m2) == want, (m1, m2)


ORE_SPECS = sorted(name for name in SPECS
                   if SPECS[name]().variant == ITERATED_ORE)


@pytest.mark.parametrize("name", ORE_SPECS)
def test_mono_mul_matches_reference_rewriting(name):
    """Every pair of normal monomials of degree <= 5."""
    spec = SPECS[name]()
    assert_matches_reference(spec, basis_up_to(spec, 5))


@st.composite
def ore_tables(draw, zeros=2):
    """A 3- or 4-generator delta table meeting the filtered condition:
    delta[(j, i)] is a constant plus x_0..x_{j-1}, coefficients in
    {-1, 0, 1}, each 0 with weight ``zeros`` against 1 for 1 and -1."""
    t = draw(st.integers(3, 4))
    coeff = st.sampled_from((0,) * zeros + (1, -1))
    table = {}
    for j in range(t):
        for i in range(j):
            row = {}
            for m in range(-1, j):
                c = draw(coeff)
                if c:
                    row[tuple(int(k == m) for k in range(t))] = c
            if row:
                table[(j, i)] = row
    return t, table


# b a = a b + a and c a = a c + b, c b = b c: (c b) a - c (b a) = -b
INCONSISTENT = (3, {(1, 0): {(1, 0, 0): 1}, (2, 0): {(0, 1, 0): 1}})


@settings(max_examples=60, derandomize=True, deadline=None)
@given(ore_tables(), st.sampled_from((0, 3)))
@example(INCONSISTENT, 0)
@example((3, {(2, 1): {(1, 0, 0): 1}}), 3)
def test_validation_rejects_exactly_the_non_associative_tables(drawn, p):
    t, table = drawn
    field = field_of_characteristic(p)
    try:
        iterated_ore_algebra("abcd"[:t], table, field)
        rejected = False
    except DeltaTableError:
        rejected = True
    assert rejected == reference_fails_associativity(field, t, table)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(ore_tables(), st.sampled_from((0, 3)))
@example((4, {(3, 0): {(1, 0, 0, 0): 1}, (2, 1): {(0, 0, 0, 0): 1},
              (3, 2): {(0, 1, 0, 0): -1}}), 0)
def test_mono_mul_matches_reference_on_random_tables(drawn, p):
    t, table = drawn
    try:
        spec = iterated_ore_algebra("abcd"[:t], table, field_of_characteristic(p))
    except DeltaTableError:
        assume(False)
    assert_matches_reference(spec, basis_up_to(spec, 3), max_degree=5)


@settings(max_examples=40, derandomize=True, deadline=None)
@given(ore_tables(), st.sampled_from((0, 3)), st.randoms(use_true_random=False))
@example((4, {(3, 0): {(1, 0, 0, 0): 1}, (2, 1): {(0, 0, 0, 0): 1},
              (3, 2): {(0, 1, 0, 0): -1}}), 0, random.Random(0))
def test_mono_mul_from_memoized_prefixes_matches_reference(drawn, p, rng):
    """m1 * m2 is built from m1 times the longest memoized prefix of m2:
    the products agree with the reference rewriting when every prefix is
    memoized first (m2 by increasing degree), when none is (decreasing
    degree, so each product fills its prefixes on the way) and on a cold
    memo, one product per fresh spec; and a cold product leaves m1 times
    each nonempty prefix of m2 in the memo."""
    t, table = drawn
    field = field_of_characteristic(p)
    names = "abcd"[:t]
    try:
        iterated_ore_algebra(names, table, field)
    except DeltaTableError:
        assume(False)
    spec = iterated_ore_algebra(names, table, field)
    monos = basis_up_to(spec, 3)
    pairs = [(m1, m2) for m1 in monos for m2 in monos
             if sum(m1) + sum(m2) <= 5]
    cache = {}
    want = {(m1, m2): reference_normalize(
        field, t, table, AlgebraSpec._word(m1) + AlgebraSpec._word(m2), cache)
        for m1, m2 in pairs}
    for descending in (False, True):
        spec = iterated_ore_algebra(names, table, field)
        for m1, m2 in sorted(pairs, key=lambda pr: sum(pr[1]),
                             reverse=descending):
            assert spec.mono_mul(m1, m2) == want[(m1, m2)], (m1, m2)
    for m1, m2 in rng.sample(pairs, 12):
        spec = iterated_ore_algebra(names, table, field)
        assert spec.mono_mul(m1, m2) == want[(m1, m2)], (m1, m2)
        word = AlgebraSpec._word(m2)
        for k in range(1, len(word) + 1):
            prefix = _exp(t, word[:k])
            assert spec._mul_cache[(m1, prefix)] == reference_normalize(
                field, t, table, AlgebraSpec._word(m1) + word[:k], cache)


def test_inconsistent_table_names_its_overlap():
    t, table = INCONSISTENT
    with pytest.raises(DeltaTableError) as info:
        iterated_ore_algebra(("a", "b", "c"), table)
    assert "(c*b)*a" in str(info.value) and "c*(b*a)" in str(info.value)


def test_deep_product_needs_no_recursion():
    # y^1500 x walks 1500 steps down the Ore recursion, past the default
    # recursion limit: y^n x = x y^n - n y^(n-1)
    w = weyl_algebra()
    assert w.mono_mul((0, 1500), (1, 0)) == {(1, 1500): 1, (0, 1499): -1500}


def test_degree_200_weyl_product():
    w = weyl_algebra()
    prod = w.mono_mul((0, 200), (200, 0))
    assert len(prod) == 201
    # the constant term of y^n x^n is (-1)^n n!
    fact = 1
    for k in range(1, 201):
        fact *= k
    assert prod[(0, 0)] == fact and prod[(200, 200)] == 1


# ------------------------------------------------------------------ basis memo

def test_basis_copy_is_the_callers():
    w = weyl_algebra()
    first = basis_up_to(w, 2)
    want = list(first)
    first.append((9, 9))
    first[0] = None
    first.sort(key=repr)
    assert basis_up_to(w, 2) == want


BASIS_SPECS = {
    "poly": lambda: polynomial_algebra(("x", "y", "z")),
    "weyl": weyl_algebra,
    "weyl-twisted": lambda: weyl_twist().product(),
    "triangular-twisted": lambda: triangular_action_twist(3).product(),
}


@pytest.mark.parametrize("name", sorted(BASIS_SPECS))
def test_smaller_bound_is_a_prefix(name):
    # large bound first, then small, on a fresh spec; then the other way
    big_first = BASIS_SPECS[name]()
    full = basis_up_to(big_first, 4)
    small_first = BASIS_SPECS[name]()
    for d in range(5):
        part = basis_up_to(big_first, d)
        assert part == full[:len(part)]
        assert basis_up_to(small_first, d) == part
        assert all(big_first.monomial_degree(m) <= d for m in part)
        assert len(full) == len(part) or \
            big_first.monomial_degree(full[len(part)]) > d


def test_cyclic_group_basis_at_any_bound():
    g = cyclic_group_algebra(5, PrimeField(3))
    for n in (7, 0, 3, 0, 100):
        assert basis_up_to(g, n) == [0, 1, 2, 3, 4]
