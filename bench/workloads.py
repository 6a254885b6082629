"""The benchmark's three workloads, built from a seed, and the per-case
correctness gate.

A workload is a list of steps.  ``Step.run()`` drives twistres through its
public functions and returns ``{case name: observed}``; ``Step.expect`` holds
``{case name: expected}``.  Every expected name is one attempted case, and a
case fails when its step raises, when its observed value differs from the
expected one, or when it is missing.  Observed values carry the verdict,
the exact dimensions and the exact number of items a check examined, so a
speed-up that checks less shows as a failed case, not as a gain.

Import this module only after ``src/`` is on ``sys.path``.
"""

import hashlib
import io
import json
import re
from contextlib import redirect_stdout

from twistres.algebra import (
    cyclic_group_algebra, heisenberg_algebra, polynomial_algebra,
    solvable_2dim_algebra, weyl_algebra,
)
from twistres.cli import main as cli_main
from twistres.complex import ChainComplexSpec, FreeElement, compose_check, \
    exactness_report
from twistres.homology import hochschild_cohomology
from twistres.kernel import PrimeField
from twistres.resolutions import (
    bar, check_lift_chain_map, check_lift_compat, crosscheck_koszul_lift,
    cyclic_periodic, lift_twist, one_sided_koszul_kx, ore_koszul,
    poly_koszul,
)
from twistres.twist import (
    check_hexagon, flip_twist, solvable_pair_twist, triangular_action_twist,
    weyl_twist,
)
from twistres.twistprod import (
    koszul_pair_product, ore_module_resolution, triangular_skew_product,
)


class Step:
    """One unit of work in a pass; ``context`` collects run facts that are
    not cases (the presets report digest)."""

    def __init__(self, run, expect):
        self.run = run
        self.expect = expect
        self.context = {}


def evaluate(step):
    """Run one step; returns ``(attempted, [failure message, ...])``."""
    names = list(step.expect)
    try:
        observed = step.run()
    except Exception as exc:  # a raising step fails every case it holds
        return len(names), ["%s: %s: %s" % (n, type(exc).__name__, exc)
                            for n in names]
    failures = []
    for name in names:
        if name not in observed:
            failures.append("%s: no result" % name)
        elif observed[name] != step.expect[name]:
            failures.append("%s: expected %r, got %r"
                            % (name, step.expect[name], observed[name]))
    for name in observed:
        if name not in step.expect:
            failures.append("%s: unexpected case" % name)
    return len(names), failures


def _report(rep):
    return {"passed": rep.passed, "checked": rep.checked}


# ---------------------------------------------------------------------------
# presets: the eight canned pipelines through the CLI entry point

PRESETS = ("weyl", "weyl-2", "skew-p2", "skew-p3", "ue-solvable-2dim",
           "heisenberg", "cyclic-p", "lie-sl2-excluded")

_COUNT = re.compile(r"on (\d+) (?:tuples|labels|squares)\b|(\d+) checked\b")


def _rows(*dims, graded=()):
    """Dimension rows as the report prints them: windowed totals, then
    per-degree slices at internal degree 0."""
    rows = [(n, None, d, True) for n, d in enumerate(dims)]
    rows += [(n, 0, d, True) for n, d in enumerate(graded)]
    return rows


# (task, target, status, dims rows, item counts the record's checks report)
PRESET_EXPECT = {
    "weyl": [
        ("check-twist", "W", "pass", [], [4 ** 4 + 200]),
        ("verify-resolution", "PW", "pass", [], [3]),
        ("twisted-product", "W", "pass", [],
         [1, 3, 6, 222, 111, 6, 222, 111]),
        ("hochschild", "PW", "pass", _rows(1, 0, 0), []),
    ],
    "weyl-2": [
        ("verify-resolution", "PW2", "pass", [], [15]),
    ],
    "skew-p2": [
        ("check-twist", "P", "pass", [], [2 * 2 * 10 * 10 + 200]),
        ("twisted-product", "P", "pass", [],
         [8, 15, 30, 244, 244, 244, 244, 244, 8, 1155, 770, 77]),
    ],
    "skew-p3": [
        ("check-twist", "P", "pass", [], [3 * 3 * 10 * 10 + 200]),
        ("twisted-product", "P", "pass", [],
         [8, 15, 30, 819, 819, 819, 819, 819, 12, 1770, 1180, 118]),
    ],
    "ue-solvable-2dim": [
        ("check-twist", "U", "pass", [], [4 * 4 * 4 * 4 + 200]),
        ("verify-resolution", "CE", "pass", [], [3]),
        ("twisted-product", "U", "pass", [], [1, 3, 6, 57, 38, 26]),
        ("tor-ext", "U", "pass", _rows(1, 1, 0), []),
        ("tor-ext", "CE", "pass", _rows(1, 1, 0), []),
    ],
    "heisenberg": [
        ("verify-resolution", "CE", "pass", [], [7]),
        ("tor-ext", "CE", "pass", _rows(1, 2, 2, 1), []),
    ],
    "cyclic-p": [
        ("verify-resolution", "PG", "pass", [], [5]),
        ("hochschild", "PG", "pass",
         _rows(3, 3, 3, 3, 3, graded=(3, 3, 3, 3, 3)), []),
        ("hochschild", "PG", "pass",
         _rows(1, 1, 1, 1, 1, graded=(1, 1, 1, 1, 1)), []),
    ],
    "lie-sl2-excluded": [
        ("preset:lie-sl2-excluded", "sl2", "fail", [], []),
    ],
}


def _record_view(rec, prefix):
    task = rec["task"]
    if task.startswith(prefix + "/"):
        task = task[len(prefix) + 1:]
    counts = [int(a or b) for a, b in _COUNT.findall(rec["detail"])]
    dims = [(r["n"], r["degree"], r["dim"], r["stable"]) for r in rec["dims"]]
    return (task, rec["target"], rec["status"], dims, counts)


def observe_presets(data):
    """Group a JSON report's records by preset, in the shape of
    ``PRESET_EXPECT``."""
    out = {}
    for name in PRESETS:
        prefix = "preset:%s" % name
        out[name] = [_record_view(rec, prefix) for rec in data["records"]
                     if rec["task"] == prefix
                     or rec["task"].startswith(prefix + "/")]
    return out


def _presets(seed):
    argv = ["--seed", str(seed), "--format", "json"]
    for name in PRESETS:
        argv += ["--task", "preset:%s" % name]

    def run():
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli_main(argv)
        text = buf.getvalue()
        data = json.loads(text)
        step.context["report_sha256"] = hashlib.sha256(
            text.encode("utf-8")).hexdigest()
        # the same report with the seed blanked: identical across seeds
        data_noseed = json.loads(text)
        data_noseed["seed"] = None
        data_noseed["config"]["seed"] = None
        step.context["report_sha256_noseed"] = hashlib.sha256(json.dumps(
            data_noseed, indent=2, sort_keys=True).encode("utf-8")).hexdigest()
        observed = observe_presets(data)
        observed["report"] = {"exit_code": code, "overall": data["overall"]}
        return observed

    expect = dict(PRESET_EXPECT)
    expect["report"] = {"exit_code": 1, "overall": "fail"}
    step = Step(run, expect)
    return [step]


# ---------------------------------------------------------------------------
# filtered-ladder: windowed exactness and cohomology of the filtered Weyl
# resolutions over Q, across the dense/sparse size switch


def _exactness_case(name, cplx, cutoff, spots):
    def run():
        rep = exactness_report(cplx, cutoff)
        return {name: {"passed": rep.passed, "homology": rep.homology,
                       "h0_relative": rep.h0_relative,
                       "aug_coker": rep.aug_coker}}

    zero = {"passed": True, "homology": {n: 0 for n in spots},
            "h0_relative": 0, "aug_coker": 0}
    return Step(run, {name: zero})


def _hochschild_case(name, source, cutoff, dims):
    def run():
        rep = hochschild_cohomology(source, cutoff=cutoff)
        return {name: {"dims": rep.dims, "stable": rep.stable}}

    want = {"dims": dims, "stable": {n: True for n in dims}}
    return Step(run, {name: want})


def _filtered_ladder(seed):
    weyl = ore_koszul(weyl_algebra())
    pair = koszul_pair_product(weyl_twist())
    steps = [_exactness_case("exactness(ore-koszul(weyl), N=%d)" % n,
                             weyl.complex, n, (1, 2)) for n in (4, 6, 8)]
    steps.append(_exactness_case("exactness(weyl pair product, N=6)",
                                 pair.complex, 6, (1, 2)))
    steps += [_hochschild_case("HH(ore-koszul(weyl), cutoff=%d)" % c, weyl,
                               c, {0: 1, 1: 0, 2: 0}) for c in (8, 10)]
    return steps


# ---------------------------------------------------------------------------
# symbolic-checks: hexagon, d.d = 0, lift squares and action sampling,
# no linear algebra to speak of; plus seeded corruptions that must fail


def _kx():
    return polynomial_algebra(("x",), name="k[x]")


def _ky():
    return polynomial_algebra(("y",), name="k[y]")


def _kxy():
    return polynomial_algebra(("x", "y"), name="k[x,y]")


def suite_resolutions():
    """The resolutions whose d.d = 0 the release gate checks."""
    return [
        bar(weyl_algebra(), 3, middle_cutoff=4),
        bar(cyclic_group_algebra(3, PrimeField(3)), 3, middle_cutoff=4,
            reduced=True),
        poly_koszul(_kx()),
        poly_koszul(_kxy()),
        poly_koszul(_kxy(), bimodule=False),
        ore_koszul(weyl_algebra()),
        ore_koszul(weyl_algebra(n=2)),
        ore_koszul(solvable_2dim_algebra()),
        ore_koszul(solvable_2dim_algebra(), bimodule=False),
        ore_koszul(heisenberg_algebra(), bimodule=False),
        one_sided_koszul_kx(_kx()),
        cyclic_periodic(2, 5),
        cyclic_periodic(3, 5),
    ]


def suite_products():
    """The product complexes of the release gate; the first three are the
    Koszul pair products."""
    tsol = solvable_pair_twist()
    return [
        koszul_pair_product(weyl_twist()),
        koszul_pair_product(flip_twist(_kx(), _ky())),
        koszul_pair_product(tsol),
        triangular_skew_product(2, periodic_degree=4),
        triangular_skew_product(3, periodic_degree=4),
        ore_module_resolution(one_sided_koszul_kx(tsol.a_spec), tsol),
    ]


def corrupted_weyl_twist():
    """The Weyl twist with one wrong table entry: tau(y (x) x) gains
    1 (x) 1."""
    return weyl_twist().with_overrides(
        {((1,), (1,)): {((1,), (1,)): 1, ((0,), (0,)): 1}})


def dropped_wedge_term():
    """The Weyl Ore-Koszul complex with one term of a stage-2 differential
    removed."""
    cplx = ore_koszul(weyl_algebra()).complex
    label = cplx.terms[2].labels[0]
    image = cplx.differentials[2][label]
    kept = dict(image.terms)
    kept.pop(sorted(kept, key=repr)[0])
    diffs = list(cplx.differentials)
    diffs[2] = dict(diffs[2])
    diffs[2][label] = FreeElement(image.term, kept)
    return ChainComplexSpec(cplx.algebra, cplx.terms, diffs,
                            augmentation=cplx.augmentation,
                            aug_kind=cplx.aug_kind, name="dropped-term")


def _single(name, fn, want):
    return Step(lambda: {name: fn()}, {name: want})


HEXAGON_DEGREE = 4
HEXAGON_SAMPLES = 200
LIFT_DEGREE = 3
ACTION_DEGREE = 3
ACTION_SAMPLES = 20

# grid sizes |B<=4|^2 |A<=4|^2 of the hexagon check at degree 4: one
# variable has 5 monomials, two variables 15, a cyclic group of order p
# has p group elements
HEXAGON_GRID = {
    "weyl": 5 ** 4,
    "flip(k[x],k[y])": 5 ** 4,
    "triangular-action(2)": 2 ** 2 * 15 ** 2,
    "triangular-action(3)": 3 ** 2 * 15 ** 2,
    "solvable-pair": 5 ** 4,
}

# labels checked by compose_check, in suite order
RESOLUTION_LABELS = [295, 14, 1, 3, 3, 3, 15, 3, 3, 7, 1, 5, 5]
PRODUCT_LABELS = [3, 3, 3, 15, 15, 3]
# squares checked by check_lift_chain_map at degree 3, and tuples checked
# per lift degree by check_lift_compat, per (product, side)
LIFT_EXPECT = {
    (0, "pm"): (8, {0: 810, 1: 486}),
    (0, "pn"): (8, {0: 810, 1: 486}),
    (1, "pm"): (8, {0: 810, 1: 486}),
    (1, "pn"): (8, {0: 810, 1: 486}),
    (2, "pm"): (8, {0: 810, 1: 486}),
    (2, "pn"): (8, {0: 810, 1: 486}),
    (3, "pm"): (50, {n: 564 for n in range(5)}),
    (3, "pn"): (8, {0: 7175, 1: 6150, 2: 1025}),
    (4, "pm"): (50, {n: 1719 for n in range(5)}),
    (4, "pn"): (12, {0: 10850, 1: 9300, 2: 1550}),
    (5, "pm"): (8, {0: 132, 1: 99}),
}
# items checked by action_commutes_report on the Koszul pair products
ACTION_CHECKED = [120, 120, 120]
CROSSCHECK_CHECKED = [6, 6]
DROPPED_LABELS = 3
UNSIGNED_LABELS = 3


def _symbolic_checks(seed):
    twists = [weyl_twist(), flip_twist(_kx(), _ky()),
              triangular_action_twist(2), triangular_action_twist(3),
              solvable_pair_twist()]
    resolutions = suite_resolutions()
    products = suite_products()
    kz = [lift_twist(poly_koszul(t.a_spec), t, side="left")
          for t in (weyl_twist(), solvable_pair_twist())]
    corrupted = corrupted_weyl_twist()
    unsigned = koszul_pair_product(weyl_twist(), vertical_sign=False)
    dropped = dropped_wedge_term()

    steps = []
    for t, grid in zip(twists, HEXAGON_GRID.values()):
        steps.append(_single(
            "hexagon(%s)" % t.name,
            lambda t=t: _report(check_hexagon(
                t, HEXAGON_DEGREE, sample_count=HEXAGON_SAMPLES, seed=seed)),
            {"passed": True, "checked": grid + HEXAGON_SAMPLES}))
    for i, (bundle, n) in enumerate(zip(resolutions, RESOLUTION_LABELS)):
        steps.append(_single(
            "compose_check(resolution %d: %s)" % (i, bundle.complex.name),
            lambda c=bundle.complex: _report(compose_check(c)),
            {"passed": True, "checked": n}))
    for i, (tc, n) in enumerate(zip(products, PRODUCT_LABELS)):
        steps.append(_single(
            "compose_check(product %d: %s)" % (i, tc.complex.name),
            lambda c=tc.complex: _report(compose_check(c)),
            {"passed": True, "checked": n}))
    for i, tc in enumerate(products):
        for side, bundle in (("pm", tc.bicomplex.pm), ("pn", tc.bicomplex.pn)):
            if not getattr(bundle, "lifts", None):
                continue
            squares, compat = LIFT_EXPECT[(i, side)]
            steps.append(_single(
                "lift_chain_map(product %d %s)" % (i, side),
                lambda b=bundle: _report(check_lift_chain_map(b, LIFT_DEGREE)),
                {"passed": True, "checked": squares}))
            steps.append(_single(
                "lift_compat(product %d %s)" % (i, side),
                lambda b=bundle: {n: _report(r) for n, r in
                                  check_lift_compat(b, LIFT_DEGREE).items()},
                {n: {"passed": True, "checked": c}
                 for n, c in compat.items()}))
    for bundle, n in zip(kz, CROSSCHECK_CHECKED):
        steps.append(_single(
            "crosscheck_koszul_lift(%s)" % bundle.twist.name,
            lambda b=bundle: _report(crosscheck_koszul_lift(
                b, n_bound=2, degree_bound=2)),
            {"passed": True, "checked": n}))
    for i, (tc, n) in enumerate(zip(products[:3], ACTION_CHECKED)):
        steps.append(_single(
            "action_commutes(product %d)" % i,
            lambda tc=tc: _report(tc.action_commutes_report(
                ACTION_DEGREE, samples=ACTION_SAMPLES, seed=seed)),
            {"passed": True, "checked": n}))
    # seeded corruptions: each must be reported as a failure
    steps.append(_single(
        "corrupted weyl table must fail hexagon",
        lambda: _report(check_hexagon(corrupted, HEXAGON_DEGREE,
                                      sample_count=HEXAGON_SAMPLES,
                                      seed=seed)),
        {"passed": False,
         "checked": HEXAGON_GRID["weyl"] + HEXAGON_SAMPLES}))
    steps.append(_single(
        "unsigned pair product must fail compose_check",
        lambda: _report(compose_check(unsigned.complex)),
        {"passed": False, "checked": UNSIGNED_LABELS}))
    steps.append(_single(
        "dropped wedge term must fail compose_check",
        lambda: _report(compose_check(dropped)),
        {"passed": False, "checked": DROPPED_LABELS}))
    return steps


WORKLOADS = {
    "presets": _presets,
    "filtered-ladder": _filtered_ladder,
    "symbolic-checks": _symbolic_checks,
}


def build(workload, seed):
    """Construct the workload's inputs; returns its steps in pass order."""
    return WORKLOADS[workload](seed)
