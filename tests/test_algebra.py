"""Tests for presented algebras and PBW rewriting."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from twistres.kernel import QQ, PrimeField
from twistres.algebra import (
    polynomial_algebra, cyclic_group_algebra, iterated_ore_algebra,
    weyl_algebra, solvable_2dim_algebra, heisenberg_algebra,
    normalize, basis_up_to, filtration_degree, parse_element,
    delta_table_from_strings,
    AlgebraError, UnknownGeneratorError, SpecMismatchError, ZeroElementError,
    DeltaTableError,
)


def E(text, spec):
    return parse_element(text, spec)


# ------------------------------------------------------------------ normalize

def test_weyl_normalize_yx():
    w = weyl_algebra()
    assert normalize(["y", "x"], w) == E("x*y - 1", w)


def test_normalize_square():
    w = weyl_algebra()
    assert normalize(["x", "x"], w) == E("x^2", w)


def test_cyclic_group_relation():
    g3 = cyclic_group_algebra(3)
    assert normalize(["g", "g", "g"], g3) == g3.one()


def test_unknown_generator():
    w = weyl_algebra()
    with pytest.raises(UnknownGeneratorError):
        normalize(["q"], w)


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
        word = [rng.choice(gens) for _ in range(rng.randint(0, 5))]
        once = normalize(word, spec)
        # renormalizing the normal form changes nothing: multiply by 1
        assert once * spec.one() == once
        assert spec.one() * once == once


@settings(max_examples=40, derandomize=True, deadline=None)
@given(st.lists(st.sampled_from(["x", "y"]), min_size=1, max_size=6),
       st.lists(st.sampled_from(["x", "y"]), min_size=1, max_size=6))
def test_degree_subadditive_and_polynomial_equality(wa, wb):
    w = weyl_algebra()
    p = polynomial_algebra(("x", "y"))
    a, b = normalize(wa, w), normalize(wb, w)
    prod = a * b
    if prod:
        assert filtration_degree(prod) <= filtration_degree(a) + filtration_degree(b)
    pa, pb = normalize(wa, p), normalize(wb, p)
    assert filtration_degree(pa * pb) == filtration_degree(pa) + filtration_degree(pb)


def test_rewriting_is_bounded():
    # terminating rewriting: a worst-case small product finishes and the
    # word cache only holds finitely many entries afterwards
    w = weyl_algebra()
    y6x6 = E("y^6", w) * E("x^6", w)
    assert filtration_degree(y6x6) == 12
    # leading term stays x^6 y^6
    assert y6x6.terms[(6, 6)] == 1


def test_mod_p_coefficients():
    w3 = weyl_algebra(PrimeField(3))
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
