"""Tests for the exact linear algebra kernel."""

import random
from fractions import Fraction

import pytest
from hypothesis import event, given, settings, strategies as st

from twistres import kernel
from twistres.kernel import (
    QQ, KernelError, PrimeField, SparseMatrix, CompositionNonzeroError,
    NonInvertibleError, _components, add_term, homology_dim, invert_dense,
    reduce_sums, solve_dense,
)

GF2 = PrimeField(2)
GF3 = PrimeField(3)


def M(rows, field=QQ):
    """The matrix with these dense rows."""
    return SparseMatrix(len(rows), len(rows[0]) if rows else 0,
                        [(i, j, v) for i, row in enumerate(rows)
                         for j, v in enumerate(row)], field)


def zeros(nrows, ncols, field=QQ):
    return SparseMatrix(nrows, ncols, [], field)


def eye(n, field=QQ):
    return SparseMatrix(n, n, [(i, i, field.one) for i in range(n)], field)


# ---------------------------------------------------------------- rank basics

def test_rank_identity():
    assert eye(3).rank() == 3


def test_rank_proportional_rows():
    assert M([[1, 2], [2, 4]]).rank() == 1


def test_rank_equal_rows_mod2():
    assert M([[1, 1], [1, 1]], GF2).rank() == 1


def test_rank_zero_matrix():
    assert zeros(4, 7).rank() == 0


def test_rank_fractions():
    assert M([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3, 2), 1]]).rank() == 1


def test_rank_mod_p_differs_from_rational():
    # [[1,1],[1,-1]] is invertible over Q but rank 1 over F_2
    rows = [[1, 1], [1, -1]]
    assert M(rows).rank() == 2
    assert M(rows, GF2).rank() == 1


# ---------------------------------------------------------------- kernel dims

def test_kernel_dim_zero_matrix():
    assert zeros(2, 5).kernel_dim() == 5


def test_kernel_dim_identity():
    assert eye(3).kernel_dim() == 0


def test_kernel_dim_rank_one():
    assert M([[1, 2], [2, 4]]).kernel_dim() == 1


# ---------------------------------------------------------------- homology

def test_homology_dim_no_incoming():
    d_in = zeros(1, 0)     # nothing comes in
    d_out = zeros(1, 1)    # zero map out of a line
    assert homology_dim(d_in, d_out) == 1


def test_homology_dim_exact_spot():
    d_in = eye(2)
    d_out = zeros(1, 2)
    assert homology_dim(d_in, d_out) == 0


def test_homology_dim_line_into_plane():
    d_in = M([[1], [0]])
    d_out = M([[0, 1]])
    assert homology_dim(d_in, d_out) == 0


def test_homology_rejects_nonzero_composite():
    d_in = eye(2)
    d_out = M([[1, 0]])
    with pytest.raises(CompositionNonzeroError):
        homology_dim(d_in, d_out)


# ---------------------------------------------------------------- properties

int_entries = st.integers(min_value=-9, max_value=9)
fraction_entries = st.fractions(min_value=-5, max_value=5, max_denominator=4)


@st.composite
def int_matrices(draw, max_dim=8, entries=int_entries):
    n = draw(st.integers(1, max_dim))
    m = draw(st.integers(1, max_dim))
    rows = draw(st.lists(st.lists(entries, min_size=m, max_size=m),
                         min_size=n, max_size=n))
    return rows


@settings(max_examples=60, derandomize=True, deadline=None)
@given(int_matrices())
def test_rank_equals_transpose_rank(rows):
    a = M(rows)
    assert a.rank() == a.transpose().rank()


@settings(max_examples=60, derandomize=True, deadline=None)
@given(int_matrices())
def test_rank_matches_sympy(rows):
    sympy = pytest.importorskip("sympy")
    assert M(rows).rank() == sympy.Matrix(rows).rank()


@settings(max_examples=40, derandomize=True, deadline=None)
@given(int_matrices(max_dim=6))
def test_rank_mod_large_prime_matches_rational(rows):
    # same integer matrix over a large prime: rank agrees for all but
    # finitely many p, and 2^31 - 1 dodges the tiny entries used here
    big = PrimeField(2**31 - 1)
    assert M(rows).rank() == M(rows, big).rank()


@settings(max_examples=30, derandomize=True, deadline=None)
@given(int_matrices(max_dim=5), int_matrices(max_dim=5))
def test_homology_additive_over_blocks(rows_a, rows_b):
    # block-diagonal complexes: 0 -> A -> 0 style spots add up
    a, b = M(rows_a), M(rows_b)
    # homology of 0 -> source --matrix--> target at the source spot
    ha = homology_dim(zeros(a.ncols, 0), a)
    hb = homology_dim(zeros(b.ncols, 0), b)
    block = [[0] * (a.ncols + b.ncols) for _ in range(a.nrows + b.nrows)]
    for (i, j), v in a.entries.items():
        block[i][j] = v
    for (i, j), v in b.entries.items():
        block[a.nrows + i][a.ncols + j] = v
    hblock = homology_dim(zeros(a.ncols + b.ncols, 0), M(block))
    assert hblock == ha + hb


# ---------------------------------------------------------------- sparse path

def test_sparse_path_agrees_with_dense_on_structured_matrix():
    # a 520-column matrix of known rank whose 41 rows form one component
    n = 520
    ent = []
    for i in range(40):
        ent.append((i, i, 1))
        ent.append((i, i + 40, 2))
        ent.append((40, i, 1))  # row 40 = sum of e_i rows' first entries
    a = SparseMatrix(41, n, ent, QQ)
    assert a.rank() == 41
    b = SparseMatrix(41, n, [(i, j, v) for (i, j, v) in ent if i < 40], QQ)
    assert b.rank() == 40


def test_sparse_rank_mod_p():
    p = PrimeField(3)
    n = 600
    ent = [(i, i, 1) for i in range(50)] + [(i, i + 1, 2) for i in range(50)]
    ent += [(50, 0, 1), (50, 1, 2)]  # = row 0
    a = SparseMatrix(51, n, ent, p)
    assert a.rank() == 50


# ------------------------------------------------- differential: F_p, blocks

def sympy_rank_mod(rows, p):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.matrices import DomainMatrix
    return DomainMatrix.from_list(rows, sympy.GF(p)).rank()


@pytest.mark.parametrize("p", [2, 3, 2**31 - 1])
@settings(max_examples=40, derandomize=True, deadline=None)
@given(rows=int_matrices())
def test_rank_mod_p_matches_sympy(p, rows):
    assert M(rows, PrimeField(p)).rank() == sympy_rank_mod(rows, p)


@st.composite
def scattered_blocks(draw, entries=int_entries):
    """(blocks, rows): small blocks placed on disjoint, shuffled rows and
    columns of one dense matrix that may also have all-zero rows and columns,
    so no two blocks share a row or a column."""
    blocks = draw(st.lists(int_matrices(max_dim=4, entries=entries),
                           min_size=2, max_size=4))
    nrows = sum(len(b) for b in blocks) + draw(st.integers(0, 3))
    ncols = sum(len(b[0]) for b in blocks) + draw(st.integers(0, 3))
    row_at = draw(st.permutations(range(nrows)))
    col_at = draw(st.permutations(range(ncols)))
    rows = [[0] * ncols for _ in range(nrows)]
    r = c = 0
    for block in blocks:
        for i, brow in enumerate(block):
            for j, v in enumerate(brow):
                rows[row_at[r + i]][col_at[c + j]] = v
        r += len(block)
        c += len(block[0])
    return blocks, rows


@settings(max_examples=60, derandomize=True, deadline=None)
@given(scattered_blocks(entries=fraction_entries))
def test_rank_of_scattered_blocks_is_sum_of_block_ranks(case):
    sympy = pytest.importorskip("sympy")
    blocks, rows = case
    want = sum(sympy.Matrix(b).rank() for b in blocks)
    assert want == sympy.Matrix(rows).rank()
    assert M(rows).rank() == want


@pytest.mark.parametrize("p", [2, 3])
@settings(max_examples=40, derandomize=True, deadline=None)
@given(case=scattered_blocks())
def test_rank_mod_p_of_scattered_blocks_matches_sympy(p, case):
    blocks, rows = case
    want = sum(sympy_rank_mod(b, p) for b in blocks)
    assert M(rows, PrimeField(p)).rank() == want


# ------------------------------------------ pivot rule: structured cases


def assert_rank_matches_sympy(rows, field):
    p = field.characteristic
    if p:
        want = sympy_rank_mod([[field.coerce(v) for v in r] for r in rows], p)
    else:
        want = pytest.importorskip("sympy").Matrix(rows).rank()
    m = M(rows, field)
    assert m.rank() == want == m.transpose().rank()


@pytest.mark.parametrize("field", [QQ, GF2, GF3])
@pytest.mark.parametrize("n, sign", [(5, 1), (5, -1), (6, 1), (6, -1),
                                     (9, 1)])
def test_rank_with_ties_between_equal_length_rows(field, n, sign):
    # the incidence rows of an n-cycle: every row has two entries and
    # every column two rows, so each pivot step breaks a tie
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = 1
        rows[i][(i + 1) % n] = sign
    assert_rank_matches_sympy(rows, field)


@pytest.mark.parametrize("field", [QQ, GF3])
def test_rank_of_singleton_rows(field):
    # one entry per row, columns repeated: rank = number of columns hit
    rng = random.Random(7)
    rows = []
    for _ in range(40):
        row = [0] * 15
        row[rng.randrange(15)] = rng.choice([1, 2, -1, Fraction(1, 2)])
        rows.append(row)
    assert_rank_matches_sympy(rows, field)
    assert M(rows, field).rank() == \
        len({next(j for j, v in enumerate(r) if v) for r in rows})


@pytest.mark.parametrize("field", [QQ, GF3, PrimeField(2**31 - 1)])
@pytest.mark.parametrize("inner", [3, 12])
def test_rank_of_dense_block(field, inner):
    # a dense 12 x 14 product of a 12 x inner and an inner x 14 matrix
    rng = random.Random(inner)
    a = [[rng.randint(-4, 4) for _ in range(inner)] for _ in range(12)]
    b = [[rng.randint(-4, 4) for _ in range(14)] for _ in range(inner)]
    rows = [[sum(a[i][k] * b[k][j] for k in range(inner)) for j in range(14)]
            for i in range(12)]
    assert_rank_matches_sympy(rows, field)


def test_components_of_block_diagonal_matrix():
    # blocks of rank 1, 3 and 1 with a zero row and a zero column between
    # them; the middle identity block is three components by itself
    h = Fraction(1, 2)
    rows = [
        [h, Fraction(1, 3), 0, 0, 0, 0, 0, 0],
        [3 * h, 1, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0, 0, 0],
        [0, 0, 0, 1, 0, 0, 0, 0],
        [0, 0, 0, 0, 1, 0, 0, 0],
        [0, 0, 0, 0, 0, 1, 0, 0],
        [0, 0, 0, 0, 0, 0, 2, 4],
        [0, 0, 0, 0, 0, 0, -1, -2],
    ]
    a = M(rows)
    assert len(_components(a._integer_rows())) == 5
    assert a.rank() == 5
    assert a.transpose().rank() == 5
    assert M(rows, PrimeField(5)).rank() == 5
    assert a.kernel_dim() == 3


def test_components_join_through_shared_columns():
    # rows 0 and 2 meet only through row 1's columns
    rows = [{0: 1}, {0: 1, 5: 1}, {5: 2}, {3: 1}]
    blocks = sorted(_components(rows), key=len)
    assert blocks == [[{3: 1}], [{0: 1}, {0: 1, 5: 1}, {5: 2}]]


# ------------------------------------- meet_dim: windowed counts, rank memo

MEET_FIELDS = {
    "QQ": (QQ, fraction_entries),
    "F2": (GF2, int_entries),
    "F3": (GF3, int_entries),
    "F2^31-1": (PrimeField(2**31 - 1), int_entries),
}


@st.composite
def meet_cases(draw, entries):
    """(nrows, ncols, cells, low): a sparse matrix, possibly with no rows or
    columns and with zero rows, and the set of its low rows, possibly none
    or all of them."""
    nrows = draw(st.integers(0, 9))
    ncols = draw(st.integers(0, 9))
    cells = {}
    if nrows and ncols:
        cells = draw(st.dictionaries(
            st.tuples(st.integers(0, nrows - 1), st.integers(0, ncols - 1)),
            entries, max_size=nrows * ncols))
        zero_rows = draw(st.sets(st.integers(0, nrows - 1), max_size=3))
        cells = {k: v for k, v in cells.items() if k[0] not in zero_rows}
    low = draw(st.one_of(st.just(set()), st.just(set(range(nrows))),
                         st.sets(st.integers(0, max(nrows - 1, 0)))
                         if nrows else st.just(set())))
    return nrows, ncols, cells, low


@pytest.mark.parametrize("name", sorted(MEET_FIELDS))
@settings(max_examples=120, derandomize=True, deadline=None)
@given(data=st.data())
def test_meet_dim_is_rank_minus_rank_of_the_high_rows(name, data):
    field, entries = MEET_FIELDS[name]
    nrows, ncols, cells, low = data.draw(meet_cases(entries))

    def fresh():
        return SparseMatrix(nrows, ncols, [(i, j, v) for (i, j), v
                                           in cells.items()], field)

    high = [i for i in range(nrows) if i not in low]
    full = fresh().rank()
    want = full - fresh().restrict(rows=high).rank()
    cold = fresh()
    assert cold.meet_dim(low) == want
    if low and high:  # a real split eliminates once and memoizes rank(M)
        assert cold._rank == full
    assert cold.meet_dim(low) == want
    assert cold.rank() == full
    warm = fresh()
    warm.rank()
    assert warm.meet_dim(sorted(low)) == want
    event("low rows: %s" % ("none" if not low else "all" if not high
                            else "some"))
    event("zero rows: %s" % any(
        all(r != i for r, _ in cells) for i in range(nrows)))
    event("count %s" % ("0" if want == 0 else ">0"))


@pytest.mark.parametrize("field", [QQ, GF2, PrimeField(2**31 - 1)],
                         ids=repr)
def test_meet_dim_pivots_on_the_high_rows_first(field):
    # rows 0 and 2 (high) span the plane, so the low row 1 adds nothing;
    # the shortest-row rule alone would pivot on row 1 first and count 1
    a = M([[-1, 1], [1, 0], [1, 2]], field)
    assert a.meet_dim([1]) == 0
    assert a.rank() == 2


def test_meet_dim_rejects_a_row_out_of_range():
    with pytest.raises(KernelError):
        M([[1, 0], [0, 1]]).meet_dim([2])


def _counting_eliminate(monkeypatch):
    """Count the rows every elimination is handed, call by call."""
    calls = []
    eliminate = kernel._eliminate

    def counting(rows, field, tags=(), first=0):
        calls.append(len(rows))
        return eliminate(rows, field, tags, first)

    monkeypatch.setattr(kernel, "_eliminate", counting)
    return calls


@pytest.mark.parametrize("field", [QQ, GF3], ids=repr)
def test_a_second_rank_or_kernel_dim_eliminates_nothing(monkeypatch, field):
    calls = _counting_eliminate(monkeypatch)
    a = M([[1, 2, 0], [2, 4, 0], [0, 1, 1]], field)
    assert a.rank() == 2
    first = len(calls)
    assert first > 0
    assert a.rank() == 2 and a.kernel_dim() == 1
    b = M([[1, 2, 0], [2, 4, 0], [0, 1, 1]], field)
    assert b.kernel_dim() == 1 and b.rank() == 2
    assert len(calls) == 2 * first


def test_a_warm_meet_eliminates_only_the_high_rows(monkeypatch):
    # rows 0-3 low, rows 4 and 5 high; the memo answers rank(M)
    a = M([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1],
           [1, 1, 0, 0], [0, 0, 1, 1]])
    assert a.rank() == 4
    calls = _counting_eliminate(monkeypatch)
    assert a.meet_dim(range(4)) == 2
    assert sum(calls) == 2


@pytest.mark.parametrize("field", [QQ, GF3, PrimeField(2**31 - 1)],
                         ids=repr)
def test_rank_and_meet_leave_the_entries_untouched(field):
    h = Fraction(1, 2)
    rows = [[h, Fraction(1, 7), 0, 4], [3 * h, 1, 0, 12], [0, 0, 0, 0],
            [6, 0, 9, 3], [0, 2, 0, 1]]
    a = M(rows, field)
    before = [(k, type(v), v) for k, v in a.entries.items()]
    assert a.meet_dim([0, 2, 4]) == M(rows, field).rank() - M(
        rows, field).restrict(rows=[1, 3]).rank()
    a.rank()
    a.kernel_dim()
    assert [(k, type(v), v) for k, v in a.entries.items()] == before


# ---------------------------------------------------------------- solving

def test_solve_dense_consistent_and_inconsistent():
    a = M([[1, 0, 0], [2, 1, 0], [0, 0, 3], [1, 0, 0]])
    assert solve_dense(a, {0: 1, 1: 2, 2: 6, 3: 1}) == {0: 1, 2: 2}
    assert solve_dense(a, {0: 1, 1: 3}) is None
    assert solve_dense(a, {}) == {}
    with pytest.raises(NonInvertibleError):    # column 1 = 2 * column 0
        solve_dense(M([[1, 2, 0], [2, 4, 0], [0, 0, 3]]), {0: 1, 1: 2, 2: 6})


def test_solve_dense_rejects_rhs_rows_out_of_range():
    # row 4 of a 3x2 matrix once read as the tag column of x_1, and row -1
    # as an inconsistent equation
    a = M([[1, 0], [0, 1], [1, 1]])
    for rhs in ({4: 1}, {-1: 1}, {3: 1}, {0: 1, 5: 0}):
        with pytest.raises(KernelError):
            solve_dense(a, rhs)
    assert solve_dense(a, {0: 1, 1: 1, 2: 2}) == {0: 1, 1: 1}


def test_solve_dense_mod_p():
    a = M([[1, 1], [1, 2]], GF3)
    sol = solve_dense(a, {0: 2, 1: 0})
    assert sol == {0: 1, 1: 1}


def reference_solve(m, rhs):
    """Dense Gauss-Jordan on [m | rhs] for this one right-hand side: the
    reference that solve_dense and invert_dense are checked against."""
    f = m.field
    nc = m.ncols
    rows = [[f.zero] * (nc + 1) for _ in range(m.nrows)]
    for (i, j), v in m.entries.items():
        rows[i][j] = v
    for i, v in rhs.items():
        rows[i][nc] = f.coerce(v)
    pivots = []
    for c in range(nc):
        r = len(pivots)
        for piv in range(r, len(rows)):
            if not f.is_zero(rows[piv][c]):
                break
        else:
            continue
        prow = rows[piv]
        rows[r], rows[piv] = prow, rows[r]
        inv = f.inv(prow[c])
        support = [k for k in range(c, nc + 1) if not f.is_zero(prow[k])]
        for k in support:
            prow[k] = f.mul(inv, prow[k])
        for row in rows:
            fac = row[c]
            if row is not prow and not f.is_zero(fac):
                for k in support:
                    row[k] = f.coerce(row[k] - f.mul(fac, prow[k]))
        pivots.append(c)
    if any(not f.is_zero(row[-1]) for row in rows[len(pivots):]):
        return None
    return {c: rows[i][-1] for i, c in enumerate(pivots)
            if not f.is_zero(rows[i][-1])}


def _apply(m, x):
    """m . x for a sparse vector x (dict col -> value)."""
    f = m.field
    out = {}
    for (i, j), v in m.entries.items():
        out[i] = f.coerce(out.get(i, f.zero) + f.mul(v, x.get(j, f.zero)))
    return out


@st.composite
def linear_systems(draw):
    """(m, [rhs, ...]) over Q or F_p: m may be rank-deficient (a repeated
    or combined row); right-hand sides are images m . x (consistent),
    arbitrary vectors (often inconsistent), empty, and repeats."""
    field = draw(st.sampled_from([QQ, GF2, GF3, PrimeField(7)]))
    entries = fraction_entries if field is QQ else int_entries
    rows = draw(int_matrices(max_dim=6, entries=entries))
    if len(rows) > 1 and draw(st.booleans()):
        rows.append([u + 2 * v for u, v in zip(rows[0], rows[1])])
    m = M(rows, field)
    f = m.field
    rhss = [{}]
    for _ in range(draw(st.integers(1, 5))):
        if draw(st.booleans()):
            x = draw(st.lists(entries, min_size=m.ncols, max_size=m.ncols))
            rhss.append(_apply(m, {j: f.coerce(v) for j, v in enumerate(x)}))
        else:
            rhss.append(draw(st.dictionaries(
                st.integers(0, m.nrows - 1), entries, max_size=m.nrows)))
    rhss += draw(st.lists(st.sampled_from(rhss), max_size=3))
    return m, draw(st.permutations(rhss))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(linear_systems())
def test_solve_dense_matches_per_call_elimination(case):
    m, rhss = case
    f = m.field
    if m.rank() < m.ncols:
        event("dependent columns")
        with pytest.raises(NonInvertibleError):
            solve_dense(m, rhss[0])
        return
    event("independent columns")
    for rhs in rhss:
        sol = solve_dense(m, rhs)
        assert sol == reference_solve(m, rhs)
        if sol is not None:
            image = _apply(m, sol)
            assert all(f.is_zero(f.coerce(image.get(i, f.zero)
                                          - f.coerce(rhs.get(i, 0))))
                       for i in range(m.nrows))


# ---------------------------------------------------------------- inversion

def test_invert_dense_roundtrip():
    a = M([[1, 2], [3, 4]])
    cols = invert_dense(a)
    inv = SparseMatrix(2, 2, [(i, j, v) for j, col in enumerate(cols)
                              for i, v in col.items()], QQ)
    assert a.compose(inv) == eye(2)


def test_invert_dense_singular():
    with pytest.raises(NonInvertibleError):
        invert_dense(M([[1, 2], [2, 4]]))


@st.composite
def square_matrices(draw):
    """A square m over Q or F_p; half the time its last row is a multiple
    of its first, so it is singular."""
    field = draw(st.sampled_from([QQ, GF2, GF3, PrimeField(7)]))
    entries = fraction_entries if field is QQ else int_entries
    n = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                         min_size=n, max_size=n))
    if n > 1 and draw(st.booleans()):
        c = draw(entries)
        rows[-1] = [c * v for v in rows[0]]
    return M(rows, field)


@settings(max_examples=150, derandomize=True, deadline=None)
@given(square_matrices())
def test_invert_dense_matches_reference_solve(m):
    if m.rank() < m.nrows:
        event("singular")
        with pytest.raises(NonInvertibleError):
            invert_dense(m)
        return
    event("invertible")
    assert invert_dense(m) == [reference_solve(m, {i: 1})
                               for i in range(m.nrows)]


def test_invert_dense_mod_p_and_non_square():
    a = M([[0, 1, 0], [1, 0, 0], [1, 1, 2]], GF3)
    cols = invert_dense(a)
    inv = SparseMatrix(3, 3, [(i, j, v) for j, col in enumerate(cols)
                              for i, v in col.items()], GF3)
    assert a.compose(inv) == eye(3, GF3)
    with pytest.raises(NonInvertibleError):
        invert_dense(M([[1, 2]]))


def test_restrict_keeps_entries_and_refuses_repeated_indices():
    m = M([[1, 2, 0], [0, Fraction(1, 2), 3]])
    sub = m.restrict(rows=[1], cols=[2, 1])
    assert sub == SparseMatrix(1, 2, [(0, 0, 3), (0, 1, Fraction(1, 2))], QQ)
    assert m.transpose().transpose() == m
    with pytest.raises(KernelError):
        m.restrict(rows=[0, 0])
    with pytest.raises(KernelError):
        m.restrict(cols=[2, 0, 2])


# ------------------------------------------- Q elements: int when integral

# ints, integral Fractions (which coerce must turn into ints) and proper
# fractions with small denominators, so sums and products often cancel to
# integers or to zero
rationals = st.one_of(
    st.integers(-6, 6),
    st.integers(-6, 6).map(Fraction),
    st.fractions(min_value=-3, max_value=3, max_denominator=6),
)


def assert_q_value(got, expected):
    """got equals the Fraction result, and is an int exactly when integral."""
    assert got == expected
    if expected.denominator == 1:
        assert type(got) is int
    else:
        assert type(got) is Fraction


@settings(max_examples=300, derandomize=True, deadline=None)
@given(a=rationals, b=rationals)
def test_rational_field_matches_fraction_arithmetic(a, b):
    fa, fb = Fraction(a), Fraction(b)
    x, y = QQ.coerce(a), QQ.coerce(b)
    assert_q_value(x, fa)
    # raw operands (integral Fractions included) and coerced ones alike
    for u, v in ((a, b), (x, y)):
        assert_q_value(QQ.mul(u, v), fa * fb)
    assert_q_value(QQ.neg(x), -fa)
    if fa:
        assert_q_value(QQ.inv(a), 1 / fa)
        assert_q_value(QQ.mul(x, QQ.inv(x)), Fraction(1))
    else:
        with pytest.raises(ZeroDivisionError):
            QQ.inv(a)


def _reference_accumulate(terms, reduce):
    """key -> running sum, dropping a key whose sum is zero (so a key that
    comes back is appended at the end), in plain arithmetic."""
    ref = {}
    for k, v in terms:
        acc = reduce(ref.get(k, 0) + v)
        if acc:
            ref[k] = acc
        else:
            ref.pop(k, None)
    return ref


@settings(max_examples=200, derandomize=True, deadline=None)
@given(terms=st.lists(st.tuples(st.integers(0, 3), rationals), max_size=14))
def test_add_term_over_q_matches_fraction_sums(terms):
    out = {}
    for k, v in terms:
        add_term(QQ, out, k, QQ.coerce(v))
    ref = _reference_accumulate(((k, Fraction(v)) for k, v in terms),
                                lambda acc: acc)
    assert list(out) == list(ref) and out == ref
    for k, v in out.items():
        assert_q_value(v, ref[k])


@pytest.mark.parametrize("p", [2, 3, 2**31 - 1])
@settings(max_examples=100, derandomize=True, deadline=None)
@given(terms=st.lists(st.tuples(st.integers(0, 3),
                                st.integers(-2**40, 2**40)), max_size=14))
def test_add_term_over_prime_fields(p, terms):
    f = PrimeField(p)
    out = {}
    for k, v in terms:
        add_term(f, out, k, f.coerce(v))
    ref = _reference_accumulate(terms, lambda acc: acc % p)
    assert list(out.items()) == list(ref.items())
    assert all(type(v) is int and 0 < v < p for v in out.values())


# -- add_term reduces its own value, so callers pass raw products

def test_add_term_stores_an_unreduced_product_over_f3_reduced():
    out = {}
    add_term(GF3, out, "k", 2 * 2)
    assert out == {"k": 1}
    add_term(GF3, out, "j", 2 * 2 * 2)
    assert list(out.items()) == [("k", 1), ("j", 2)]


def test_add_term_drops_a_cancelling_pair_of_products():
    for f in (QQ, GF3):
        out = {}
        add_term(f, out, "k", 2 * 5)
        add_term(f, out, "k", -5 * 2)
        assert out == {}
    out = {}
    add_term(GF3, out, "k", 2 * 1)
    add_term(GF3, out, "k", 2 * 2)
    assert out == {}


def test_add_term_stores_an_integral_fraction_product_over_q_as_int():
    out = {}
    add_term(QQ, out, "k", Fraction(2, 3) * Fraction(3, 2))
    assert out == {"k": 1} and type(out["k"]) is int
    add_term(QQ, out, "k", Fraction(1, 2) * 3)
    assert out == {"k": Fraction(5, 2)}
    add_term(QQ, out, "k", Fraction(1, 4) * 2)
    assert out == {"k": 3} and type(out["k"]) is int


def _exactly(d):
    """A dict's items in order, each value with its type."""
    return [(k, type(v), v) for k, v in d.items()]


@settings(max_examples=150, derandomize=True, deadline=None)
@given(data=st.data(), p=st.sampled_from((0, 2, 3, 7)))
def test_add_term_of_a_raw_product_equals_add_term_of_the_reduced_one(data, p):
    f = QQ if p == 0 else PrimeField(p)
    scalars = rationals if p == 0 else st.integers(0, p - 1)
    terms = data.draw(st.lists(st.tuples(st.integers(0, 3), scalars, scalars),
                               max_size=14))
    raw, reduced = {}, {}
    for k, a, b in terms:
        a, b = f.coerce(a), f.coerce(b)
        add_term(f, raw, k, a * b)
        add_term(f, reduced, k, f.mul(a, b))
        assert _exactly(raw) == _exactly(reduced)


# -- reduce_sums: a raw sum built in one pass, reduced once


@settings(max_examples=150, derandomize=True, deadline=None)
@given(data=st.data(), p=st.sampled_from((0, 2, 3, 7, 2**31 - 1)))
def test_reduce_sums_equals_add_term_of_each_product(data, p):
    f = QQ if p == 0 else PrimeField(p)
    scalars = rationals if p == 0 else st.integers(0, p - 1)
    terms = data.draw(st.lists(st.tuples(st.integers(0, 3), scalars, scalars),
                               max_size=14))
    raw, want = {}, {}
    for k, a, b in terms:
        a, b = f.coerce(a), f.coerce(b)
        raw[k] = raw.get(k, 0) + a * b
        add_term(f, want, k, a * b)
    got = reduce_sums(f, raw)
    # the same values of the same types; a key keeps its first position
    assert {k: (type(v), v) for k, v in got.items()} == \
        {k: (type(v), v) for k, v in want.items()}
    assert list(got) == [k for k in raw if k in want]


def test_reduce_sums_drops_cancelled_sums_and_leaves_its_input():
    raw = {"a": Fraction(1, 2) + Fraction(1, 2), "b": 2 * 5 - 5 * 2,
           "c": Fraction(1, 3)}
    got = reduce_sums(QQ, raw)
    assert got == {"a": 1, "c": Fraction(1, 3)} and type(got["a"]) is int
    assert got is not raw and "b" in raw
    assert reduce_sums(GF3, {"k": 2 * 2, "j": 2 * 2 * 2 + 1}) == {"k": 1}
