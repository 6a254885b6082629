"""The one basis-level module action, act(l, key, r), pinned against
multiplication in the algebra: the algebra on itself, free bimodule and
one-sided terms, and the ground field through the augmentation."""

import pytest

from twistres.algebra import (
    basis_up_to, cyclic_group_algebra, iterated_ore_algebra,
    solvable_2dim_algebra, weyl_algebra,
)
from twistres.complex import (
    BIMODULE, LEFT_MODULE, ComplexError, FreeElement, FreeModuleTerm,
)
from twistres.kernel import PrimeField
from twistres.twist import AlgebraAsBimodule, GroundModule, weyl_twist


ALGEBRAS = {
    "weyl": weyl_algebra,
    "weyl-F3": lambda: iterated_ore_algebra(
        ("x", "y"), {(1, 0): {(0, 0): -1}}, PrimeField(3)),
    "solvable-2dim": solvable_2dim_algebra,
    "kZ3": lambda: cyclic_group_algebra(3),
    "twisted-product": lambda: weyl_twist().product(),
}
with_algebra = pytest.mark.parametrize("name", sorted(ALGEBRAS))


def _algebra(name):
    """Noncommutative Weyl (over Q or F_3, where y^2 x = x y^2 + y), the
    2-dim solvable algebra, kZ/3 or a twisted product, with its monomials
    of degree <= 2."""
    spec = ALGEBRAS[name]()
    return spec, basis_up_to(spec, 2)


def _mono(spec, m):
    return spec.element({m: spec.field.one})


def _product(spec, l, m, r):
    """l * m * r in the algebra, None meaning no factor."""
    out = _mono(spec, m)
    if l is not None:
        out = _mono(spec, l) * out
    if r is not None:
        out = out * _mono(spec, r)
    return out


@with_algebra
def test_algebra_on_itself_acts_by_multiplication(name):
    spec, monos = _algebra(name)
    mod = AlgebraAsBimodule(spec)
    sides = [None] + monos
    for l in sides:
        for m in monos:
            for r in sides:
                assert mod.act(l, m, r) == _product(spec, l, m, r).terms


@with_algebra
def test_free_bimodule_term_multiplies_the_outer_coefficients(name):
    spec, monos = _algebra(name)
    term = FreeModuleTerm(spec, ("e", "f"), BIMODULE, {"f": 1})
    sides = [None] + monos
    for l in sides:
        for r in sides:
            for kl in monos:
                for kr in monos:
                    key = (kl, "f", kr)
                    left = _product(spec, l, kl, None).terms
                    right = _product(spec, None, kr, r).terms
                    expect = {(m1, "f", m2): spec.field.mul(c1, c2)
                              for m1, c1 in left.items()
                              for m2, c2 in right.items()}
                    assert term.act(l, key, r) == expect
                    # the element-level actions are its extension
                    elem = FreeElement(term, {key: spec.field.one})
                    assert elem.act(l, r).terms == expect


@with_algebra
def test_one_sided_term_acts_on_the_left_only(name):
    spec, monos = _algebra(name)
    term = FreeModuleTerm(spec, ("e",), LEFT_MODULE)
    for l in [None] + monos:
        for kl in monos:
            expect = {(m, "e"): c
                      for m, c in _product(spec, l, kl, None).terms.items()}
            assert term.act(l, (kl, "e"), None) == expect
    with pytest.raises(ComplexError):
        term.act(None, (monos[0], "e"), monos[-1])
    with pytest.raises(ComplexError):
        term.generator("e").right_mul(spec.one())


@with_algebra
def test_ground_module_acts_through_the_augmentation(name):
    spec, monos = _algebra(name)
    mod = GroundModule(spec)
    one = spec.field.one
    assert mod.act(None, "k", None) == {"k": one}
    for l in monos:
        eps = {"k": one} if spec.monomial_degree(l) == 0 else {}
        assert mod.act(l, "k", None) == eps
    with pytest.raises(ComplexError):
        mod.act(None, "k", monos[0])
