"""Assembled matrices are adopted without re-validation, and every rank
pivots on the shortest row: differential tests against the checked
constructor and, on the skew-p3 blocks, against sympy.

The truncations, cochain matrices and collapses built by the eight presets
and by the filtered Weyl cases (exactness at N = 4, 6, 8, the Weyl pair
product at N = 6, HH at cutoffs 8 and 10) are recorded as they are adopted;
each must equal ``SparseMatrix(nrows, ncols, triples, field)`` built from
the same entries, with every entry in range, reduced and nonzero, and each
truncation column must be the image of its key under the element-level
reference differential and augmentation."""

import io
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from twistres import kernel
from twistres.algebra import polynomial_algebra, weyl_algebra
from twistres.cli import main
from twistres.complex import (
    GROUND_KEY, LEFT_MODULE, ChainComplexSpec, FreeElement, FreeModuleTerm,
    TruncatedComplex, exactness_report, truncate,
)
from twistres.homology import hochschild_cohomology
from twistres.kernel import QQ, PrimeField, SparseMatrix
from twistres.resolutions import ore_koszul
from twistres.twist import custom_twist, flip_twist, weyl_twist
from twistres.twistprod import koszul_pair_product

from test_complex import (
    reference_apply_augmentation, reference_apply_differential,
)

PRESETS = ("weyl", "weyl-2", "skew-p2", "skew-p3", "ue-solvable-2dim",
           "heisenberg", "cyclic-p", "lie-sl2-excluded")


def _record(monkeypatch):
    """Record every adopted matrix, every truncation and every elimination
    block (copied before it is consumed) until the test ends."""
    seen = {"adopted": [], "truncations": [], "blocks": []}
    adopt = SparseMatrix._adopt.__func__

    def recording_adopt(cls, nrows, ncols, entries, field):
        m = adopt(cls, nrows, ncols, entries, field)
        seen["adopted"].append(m)
        return m

    init = TruncatedComplex.__init__

    def recording_init(self, spec, cutoff):
        init(self, spec, cutoff)
        seen["truncations"].append(self)

    eliminate = kernel._eliminate

    def recording_eliminate(rows, field, tags=(), first=0):
        seen["blocks"].append(([dict(r) for r in rows], field, tags))
        return eliminate(rows, field, tags, first)

    monkeypatch.setattr(SparseMatrix, "_adopt", classmethod(recording_adopt))
    monkeypatch.setattr(TruncatedComplex, "__init__", recording_init)
    monkeypatch.setattr(kernel, "_eliminate", recording_eliminate)
    return seen


@pytest.fixture(scope="module")
def preset_run():
    mp = pytest.MonkeyPatch()
    try:
        seen = _record(mp)
        argv = ["--seed", "11", "--format", "json"]
        for name in PRESETS:
            argv += ["--task", "preset:" + name]
        with redirect_stdout(io.StringIO()):
            main(argv)
    finally:
        mp.undo()
    return seen


@pytest.fixture(scope="module")
def ladder_run():
    mp = pytest.MonkeyPatch()
    try:
        seen = _record(mp)
        weyl = ore_koszul(weyl_algebra())
        for n in (4, 6, 8):
            assert exactness_report(weyl.complex, n).passed
        assert exactness_report(
            koszul_pair_product(weyl_twist()).complex, 6).passed
        for cutoff in (8, 10):
            assert hochschild_cohomology(weyl, cutoff=cutoff).dims == \
                {0: 1, 1: 0, 2: 0}
    finally:
        mp.undo()
    return seen


def _is_reduced(field, v):
    p = field.characteristic
    if p:
        return v.__class__ is int and 0 < v < p
    if v.__class__ is int:
        return v != 0
    return v.__class__ is Fraction and v.denominator != 1


def _assert_adopted_matrices_are_checked_ones(seen):
    assert seen["adopted"]
    for m in seen["adopted"]:
        f = m.field
        triples = [(i, j, v) for (i, j), v in m.entries.items()]
        assert SparseMatrix(m.nrows, m.ncols, triples, f) == m
        for (i, j), v in m.entries.items():
            assert 0 <= i < m.nrows and 0 <= j < m.ncols
            assert _is_reduced(f, v), (m, (i, j), v)


@pytest.mark.parametrize("run", ["preset_run", "ladder_run"])
def test_adopted_matrices_equal_the_checked_construction(run, request):
    _assert_adopted_matrices_are_checked_ones(request.getfixturevalue(run))


@pytest.mark.parametrize("run", ["preset_run", "ladder_run"])
def test_every_truncation_matrix_was_adopted(run, request):
    seen = request.getfixturevalue(run)
    adopted = {id(m) for m in seen["adopted"]}
    assert seen["truncations"]
    for tc in seen["truncations"]:
        maps = tc.matrices[1:] + ([tc.aug_matrix] if tc.aug_matrix else [])
        assert all(id(m) in adopted for m in maps)


def _columns(m):
    """A matrix's columns as {column: {row: value}}."""
    cols = {}
    for (i, j), v in m.entries.items():
        cols.setdefault(j, {})[i] = v
    return cols


@pytest.mark.parametrize("run", ["preset_run", "ladder_run"])
def test_assembled_columns_equal_the_reference_images(run, request):
    """Each column of d_n is d_n of its key through scale, left_mul,
    right_mul and __add__ (one key at a time), and each augmentation column
    the reference augmentation, read in the row basis."""
    seen = set()
    for tc in request.getfixturevalue(run)["truncations"]:
        spec, one = tc.spec, tc.field.one
        if (id(spec), tc.cutoff) in seen:
            continue
        seen.add((id(spec), tc.cutoff))
        for n in range(1, spec.n_max + 1):
            rows = {k: i for i, k in enumerate(tc.bases[n - 1])}
            cols = _columns(tc.matrices[n])
            for j, key in enumerate(tc.bases[n]):
                img = reference_apply_differential(
                    spec, n, FreeElement(spec.terms[n], {key: one}))
                assert cols.get(j, {}) == {rows[k]: v
                                           for k, v in img.terms.items()}
        if tc.aug_matrix is None:
            continue
        rows = {k: i for i, k in enumerate(tc.target_basis)}
        cols = _columns(tc.aug_matrix)
        for j, key in enumerate(tc.bases[0]):
            img = reference_apply_augmentation(
                spec, FreeElement(spec.terms[0], {key: one}))
            want = ({rows[m]: v for m, v in img.terms.items()}
                    if spec.aug_kind == "algebra"
                    else {rows[GROUND_KEY]: img} if img else {})
            assert cols.get(j, {}) == want


def test_a_term_cancelling_above_the_cutoff_does_not_raise():
    # over k[x, z] (x) k[y] with tau(y (x) x) = x (x) y + x^3 (x) 1 and
    # tau(y (x) z) = z (x) y - x^3 (x) 1, d(e) = x.[f] + z.[f] raises each
    # term's degree on y.[e], but the two x^3.[f] terms cancel: the
    # truncation at N = 2 sees only the reduced column x y.[f] + z y.[f]
    a = polynomial_algebra(("x", "z"), name="k[x,z]")
    b = polynomial_algebra(("y",), name="k[y]")
    x, z, y, a1, b1 = (1, 0), (0, 1), (1,), (0, 0), (0,)
    tau = custom_twist(a, b, {
        (y, x): {(x, y): 1, ((3, 0), b1): 1},
        (y, z): {(z, y): 1, ((3, 0), b1): -1},
    }, base=flip_twist(a, b))
    alg = tau.product()
    assert alg.mono_mul((a1, y), (x, b1)) == {(x, y): 1, ((3, 0), b1): 1}
    t0 = FreeModuleTerm(alg, ["f"], LEFT_MODULE)
    t1 = FreeModuleTerm(alg, ["e"], LEFT_MODULE, {"e": 1})
    d = FreeElement(t0, {((x, b1), "f"): 1, ((z, b1), "f"): 1})
    tc = truncate(ChainComplexSpec(alg, [t0, t1], [{}, {"e": d}]), 2)
    j = tc.bases[1].index(((a1, y), "e"))
    rows = tc.bases[0]
    assert _columns(tc.matrices[1])[j] == {
        rows.index(((x, y), "f")): 1, rows.index(((z, y), "f")): 1}
    assert tc.max_drop == 0


def test_presets_adopt_both_augmentation_kinds(preset_run):
    kinds = {tc.spec.aug_kind for tc in preset_run["truncations"]
             if tc.aug_matrix is not None and tc.aug_matrix.entries}
    assert kinds == {"algebra", "ground"}


@pytest.mark.parametrize("field", [QQ, PrimeField(3)])
def test_ground_augmentation_keeps_no_zero_entry(field):
    # of the keys 1⊗a, x⊗a, 1⊗b, x⊗b only 1⊗a augments to nonzero: x acts
    # by zero, and b augments to zero (3 = 0 in F_3)
    alg = polynomial_algebra(["x"], field)
    t0 = FreeModuleTerm(alg, ["a", "b"], side=LEFT_MODULE)
    b_value = 0 if field is QQ else 3
    spec = ChainComplexSpec(alg, [t0], [{}], aug_kind="ground",
                            augmentation={"a": {GROUND_KEY: 2},
                                          "b": {GROUND_KEY: b_value}})
    tr = truncate(spec, 1)
    assert len(tr.bases[0]) == 4
    assert tr.aug_matrix.entries == {(0, tr.bases[0].index(((0,), "a"))): 2}


# ------------------------------------------------------------ pivot rule


def _dense(sparse_rows):
    cols = sorted({c for r in sparse_rows for c in r})
    at = {c: j for j, c in enumerate(cols)}
    dense = [[0] * len(cols) for _ in sparse_rows]
    for i, r in enumerate(sparse_rows):
        for c, v in r.items():
            dense[i][at[c]] = v
    return dense


def test_rank_of_skew_p3_truncation_blocks(preset_run):
    # the F_3 rank blocks (untagged, so not a solve) of the skew-p3
    # truncation at N = 4, as the presets hand them to the eliminator; the
    # largest forty
    blocks = [(rows, f) for rows, f, tags in preset_run["blocks"]
              if f.characteristic == 3 and not tags]
    blocks.sort(key=lambda b: -sum(map(len, b[0])))
    assert len(blocks) >= 40 and len(blocks[0][0]) >= 64
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix
    for rows, f in blocks[:40]:
        want = DomainMatrix.from_list(_dense(rows), sympy.GF(3)).rank()
        assert len(kernel._eliminate([dict(r) for r in rows], f)) == want
