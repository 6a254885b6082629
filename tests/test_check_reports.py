"""The printed form of every pass/fail check, passing and failing: the
report's repr and its first violation exactly as a task record folds them
in (the text the JSON report carries)."""

import pytest

from twistres.cli import TaskRecord
from twistres.complex import compose_check
from twistres.resolutions import (
    check_lift_chain_map, crosscheck_koszul_lift, lift_twist,
    one_sided_koszul_kx, poly_koszul,
)
from twistres.twist import (
    LEFT_BIMODULE, ONE_SIDED, RIGHT_BIMODULE, AlgebraAsBimodule,
    GroundModule, check_bimodule_compat, check_hexagon, solvable_pair_twist,
    weyl_twist,
)
from twistres.twistprod import (
    complexes_match, koszul_pair_product, ore_module_resolution,
)

from test_twist import flip_compat

WEYL_TOTAL = "total(poly-koszul(k[x]) ⊗ poly-koszul(k[y]))"


def _corrupted_weyl_hexagon():
    bad = weyl_twist().with_overrides(
        {((1,), (1,)): {((1,), (1,)): 1, ((0,), (0,)): 1}})
    return check_hexagon(bad, 3, sample_count=50, seed=3)


def _transposition(kind):
    t = weyl_twist()
    module = {LEFT_BIMODULE: AlgebraAsBimodule(t.a_spec),
              RIGHT_BIMODULE: AlgebraAsBimodule(t.b_spec),
              ONE_SIDED: GroundModule(t.a_spec)}[kind]
    return check_bimodule_compat(flip_compat(t, module, kind), 2)


def _weyl_lift():
    t = weyl_twist()
    return lift_twist(poly_koszul(t.a_spec), t, side="left")


def _corrupted_lift():
    # one lift image, y moved across the stage-1 generator, scaled by 2;
    # the image of y^2 is built from it and fails too
    bundle = _weyl_lift()
    term = bundle.complex.terms[1]
    gen = next(iter(term.generator(term.labels[0]).terms))
    lift = bundle.lifts[1]
    image = {k: 2 * v for k, v in lift.pair_rule((1,), gen).items()}
    lift._cache[((1,), gen)] = image
    return check_lift_chain_map(bundle, 2)


def _roundtrip():
    tsol = solvable_pair_twist()
    tc = ore_module_resolution(one_sided_koszul_kx(tsol.a_spec), tsol)
    return tc.ore_form.roundtrip_report(degree_bound=2)


CASES = [
    ("hexagon-pass", lambda: check_hexagon(weyl_twist(), 2),
     "hexagon(weyl, deg<=2, 0 samples): pass on 81 tuples", []),
    ("hexagon-corrupted", _corrupted_weyl_hexagon,
     "hexagon(weyl+overrides, deg<=3, 50 samples): FAIL(137) on 306 tuples",
     ["a=x; a_prime=x; b=1; b_prime=y; lhs=-2·(x⊗1) + 1·(x^2⊗y); "
      "rhs=2·(x⊗1) + 1·(x^2⊗y)", "... 132 more"]),
    ("compat-left", lambda: _transposition(LEFT_BIMODULE),
     "compat(transposition, left-of-bimodule, deg<=2): FAIL(48) on 111 "
     "tuples",
     ["equation=module-side; inputs=('y', '1', '1', 'x'); "
      "lhs=[(((1,), (1,)), Fraction(1, 1))]; "
      "rhs=[(((0,), (0,)), Fraction(-1, 1)), (((1,), (1,)), Fraction(1, 1))]",
      "... 43 more"]),
    ("compat-right", lambda: _transposition(RIGHT_BIMODULE),
     "compat(transposition, right-of-bimodule, deg<=2): FAIL(48) on 111 "
     "tuples",
     ["equation=module-side; inputs=('1', '1', 'y', 'x'); "
      "lhs=[(((1,), (1,)), Fraction(1, 1))]; "
      "rhs=[(((0,), (0,)), Fraction(-1, 1)), (((1,), (1,)), Fraction(1, 1))]",
      "... 43 more"]),
    ("compat-one-sided", lambda: _transposition(ONE_SIDED),
     "compat(transposition, one-sided, deg<=2): FAIL(3) on 19 tuples",
     ["equation=module-side; inputs=('y', 'x', '[k]', ''); lhs=[]; "
      "rhs=[(('k', (0,)), Fraction(-1, 1))]"]),
    ("compose-pass",
     lambda: compose_check(koszul_pair_product(weyl_twist()).complex),
     "compose_check(%s): pass on 3 labels" % WEYL_TOTAL, []),
    ("compose-unsigned",
     lambda: compose_check(
         koszul_pair_product(weyl_twist(), vertical_sign=False).complex),
     "compose_check(%s): FAIL(1) on 3 labels" % WEYL_TOTAL,
     ["2 / (1, 1, (0,), (0,)) / 2·1⊗1⊗[(0, 0, (), ())]⊗x⊗y + "
      "-2·1⊗y⊗[(0, 0, (), ())]⊗x⊗1 + -2·x⊗1⊗[(0, 0, (), ())]⊗1⊗y + "
      "2·x⊗y⊗[(0, 0, (), ())]⊗1⊗1"]),
    ("lift-pass", lambda: check_lift_chain_map(_weyl_lift(), 2),
     "lift-chain-map(poly-koszul(k[x]), left, deg<=2): pass on 6 squares",
     []),
    ("lift-corrupted", _corrupted_lift,
     "lift-chain-map(poly-koszul(k[x]), left, deg<=2): FAIL(2) on 6 squares",
     ["equation=square; "
      "lhs=[((((0,), (), (1,)), (1,)), Fraction(-1, 1)), "
      "((((1,), (), (0,)), (1,)), Fraction(1, 1))]; "
      "rhs=[((((0,), (), (1,)), (1,)), Fraction(-2, 1)), "
      "((((1,), (), (0,)), (1,)), Fraction(2, 1))]; "
      "where=(1, (0,), (1,))"]),
    ("crosscheck-pass",
     lambda: crosscheck_koszul_lift(_weyl_lift(), n_bound=2, degree_bound=2),
     "wedge-vs-bar lift crosscheck(poly-koszul(k[x]), n<=1, deg<=2): pass "
     "on 6", []),
    ("anticommute-pass",
     lambda: koszul_pair_product(weyl_twist()).anticommute_report(),
     "<GridReport anticommute(k[x]⊗k[y]): 1 checked, ok>", []),
    ("anticommute-unsigned",
     lambda: koszul_pair_product(
         weyl_twist(), vertical_sign=False).anticommute_report(),
     "<GridReport anticommute(k[x]⊗k[y]): 1 checked, FAILED(1)>",
     ["2 / (1, 1, (0,), (0,))"]),
    ("action-pass",
     lambda: koszul_pair_product(weyl_twist()).action_commutes_report(
         degree_bound=3, samples=15, seed=11),
     "<GridReport action(%s): 90 checked, ok>" % WEYL_TOTAL, []),
    ("roundtrip-pass", _roundtrip,
     "<GridReport free-form roundtrip(k<y,x>): 26 checked, ok>", []),
]


@pytest.mark.parametrize("build, shown, first", [c[1:] for c in CASES],
                         ids=[c[0] for c in CASES])
def test_printed_form(build, shown, first):
    # ``first``: the first violation as the record folds it in, then the
    # "... k more" line the record adds after its first five
    rep = build()
    record = TaskRecord("check", "x")
    record.check(rep)
    assert repr(rep) == shown
    assert record.detail == shown
    assert record.violations[:1] == first[:1]
    assert record.violations[5:] == first[1:]
    assert len(record.violations) == min(len(rep.violations), 6)
    assert rep.passed == (not first)
    assert record.status == ("pass" if rep.passed else "fail")


def test_complexes_match_printed_form():
    # one comparison each: the stage count, every stage's label set, every
    # label's degree, every differential, the augmentation kind and every
    # stage-0 augmentation
    signed = koszul_pair_product(weyl_twist()).complex
    unsigned = koszul_pair_product(weyl_twist(), vertical_sign=False).complex
    name = "complexes_match(%s == %s)" % (WEYL_TOTAL, WEYL_TOTAL)
    rep = complexes_match(signed, signed)
    assert (repr(rep), rep.violations) == (
        name + ": pass on 13 comparisons", [])
    rep = complexes_match(signed, unsigned)
    assert repr(rep) == name + ": FAIL(1) on 13 comparisons"
    assert rep.violations[0][:3] == ("differential", 2, (1, 1, (0,), (0,)))
