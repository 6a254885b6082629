"""Exact scalar arithmetic and sparse exact linear algebra.

Everything downstream reduces to ranks and kernel dimensions of sparse
matrices over an exact field: either the rationals (elements are
``int`` when integral, else ``fractions.Fraction``) or a prime field F_p
with p < 2^31 (elements are ints in [0, p)).  No floating point appears
in the field arithmetic.

Over the rationals, elimination is fraction-free: rows are cleared to
integers and kept gcd-reduced, so entries stay integral and exact while
coefficient growth stays controlled (two-term cross-multiplication
updates, each followed by a gcd reduction).  Over F_p elimination is the
straightforward one.  Every rank goes through one sparse elimination,
run on each connected component of the matrix's row/column graph
separately; each step pivots on the shortest row and, within it, on the
column with the fewest entries.  Solves and inverses run on the same
elimination, with tag columns that record each pivot row's combination.
A windowed count dim(im M ∩ span of some rows) runs it once too, taking
the other rows first (``SparseMatrix.meet_dim``).  A matrix memoizes its
rank, so a second rank or kernel dimension eliminates nothing.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction
from math import gcd, inf


class KernelError(Exception):
    pass


class CompositionNonzeroError(KernelError):
    """d_out . d_in != 0 — a broken differential upstream."""


class NonInvertibleError(KernelError):
    pass


def _is_prime(p):
    if p < 2:
        return False
    if p % 2 == 0:
        return p == 2
    f = 3
    while f * f <= p:
        if p % f == 0:
            return False
        f += 2
    return True


class RationalField:
    """The field Q; elements are int when integral, else Fraction.

    Most coefficients are integers, and int arithmetic is far cheaper than
    Fraction arithmetic, so every operation hands back an integral result
    as an int; equality and hashing agree between the two forms."""

    characteristic = 0
    one = 1
    zero = 0

    def coerce(self, v):
        if v.__class__ is int:
            return v
        if not isinstance(v, Fraction):
            v = Fraction(v)
        return v.numerator if v.denominator == 1 else v

    def is_zero(self, v):
        return v == 0

    def mul(self, a, b):
        r = a * b
        if r.__class__ is int:
            return r
        return r.numerator if r.denominator == 1 else r

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of 0")
        return self.coerce(1 / Fraction(a))

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")

    def __repr__(self):
        return "QQ"


def add_term(field, out, key, value):
    """out[key] += value in a sparse dict key -> scalar, dropping zeros.

    The term-by-term accumulate of the package, specialised by field:
    residues are reduced mod p, and over Q an integral Fraction sum becomes
    an int (``reduce_sums`` reduces a whole raw sum once instead).
    Since the stored sum is reduced here, callers pass raw products
    (``c1 * c2``, not ``field.mul(c1, c2)``); ``value`` need not be
    reduced, only an int or Fraction of the field's kind."""
    p = field.characteristic
    acc = out.get(key, 0) + value
    if p:
        acc %= p
    elif acc.__class__ is Fraction and acc.denominator == 1:
        acc = acc.numerator
    if acc:
        out[key] = acc
    else:
        out.pop(key, None)


def reduce_sums(field, sums):
    """A new dict of the raw sums key -> scalar, each reduced once: mod p,
    or an integral Q value as an int; zero sums are dropped.

    The other accumulate of the package, for a sum built in one pass: the
    caller adds raw products into ``sums`` (``acc[k] = acc.get(k, 0) +
    c1 * c2``) and reduces the whole dict here, rather than reducing each
    term through ``add_term``."""
    p = field.characteristic
    out = {}
    if p:
        for key, v in sums.items():
            v %= p
            if v:
                out[key] = v
        return out
    for key, v in sums.items():
        if v:
            out[key] = (v.numerator if v.__class__ is Fraction
                        and v.denominator == 1 else v)
    return out


def record_value(field, v):
    """A scalar as check records show it: Q elements as Fraction, so a
    record reads the same whether the value is held as int or Fraction."""
    return Fraction(v) if field.characteristic == 0 else v


def terms_repr(field, terms):
    """A sparse dict key -> scalar as check records show it: its items
    sorted by repr, values through record_value."""
    return repr(sorted(((k, record_value(field, v)) for k, v in terms.items()),
                       key=repr))


class CheckReport:
    """Outcome of a pass/fail check: how many items were checked and one
    record for each that failed.  Prints as
    ``<title>: pass|FAIL(k) on <checked><unit>``."""

    def __init__(self, title, unit=""):
        self.title = title
        self.unit = unit
        self.checked = 0
        self.violations = []

    @property
    def passed(self):
        return not self.violations

    def record(self, ok, violation):
        """Count one checked item; ``violation()`` builds its record only
        when the item fails."""
        self.checked += 1
        if not ok:
            self.violations.append(violation())

    def record_equation(self, field, equation, key, where, lhs, rhs):
        """Count one checked equation lhs = rhs between sparse dicts; on a
        failure record it, with ``where()`` (the inputs) under ``key`` and
        both sides through terms_repr."""
        self.checked += 1
        if lhs != rhs:
            self.violations.append({
                "equation": equation,
                key: where(),
                "lhs": terms_repr(field, lhs),
                "rhs": terms_repr(field, rhs),
            })

    def __repr__(self):
        state = "pass" if self.passed else "FAIL(%d)" % len(self.violations)
        return "%s: %s on %d%s" % (self.title, state, self.checked, self.unit)


class PrimeField:
    """F_p for prime p < 2^31; elements are ints in [0, p)."""

    def __init__(self, p):
        if not (2 <= p < 2**31 and _is_prime(p)):
            raise ValueError("prime modulus < 2^31 required, got %r" % (p,))
        self.p = p
        self.characteristic = p

    def coerce(self, v):
        if isinstance(v, Fraction):
            if v.denominator % self.p == 0:
                raise ZeroDivisionError("denominator divisible by %d" % self.p)
            return v.numerator * pow(v.denominator, -1, self.p) % self.p
        return int(v) % self.p

    def is_zero(self, v):
        return v % self.p == 0

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        return pow(a, -1, self.p)

    one = 1
    zero = 0

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))

    def __repr__(self):
        return "GF(%d)" % self.p


QQ = RationalField()


def field_of_characteristic(ch):
    return QQ if ch == 0 else PrimeField(ch)


class SparseMatrix:
    """Immutable sparse matrix over an exact field.

    Entries are stored as a dict (row, col) -> nonzero scalar.  The matrix
    acts on column vectors: column j holds the image of the j-th basis
    vector of the source.  ``entries`` must not be mutated after
    construction: the rank and the solve pivots are memoized on the
    matrix, and elimination works on copies of its rows.
    """

    _pivots = None  # the tagged elimination of m^T, set by the first solve
    _rank = None  # set by the first rank, or by the first meet_dim

    def __init__(self, nrows, ncols, entries, field):
        self.nrows = nrows
        self.ncols = ncols
        self.field = field
        data = {}
        for i, j, v in entries:
            if not (0 <= i < nrows and 0 <= j < ncols):
                raise KernelError("entry (%d,%d) out of range" % (i, j))
            if (i, j) in data:
                raise KernelError("duplicate entry at (%d,%d)" % (i, j))
            v = field.coerce(v)
            if not field.is_zero(v):
                data[(i, j)] = v
        self.entries = data

    # -- construction helpers ------------------------------------------------

    @classmethod
    def _adopt(cls, nrows, ncols, entries, field):
        """A matrix that takes over a dict (row, col) -> value whose entries
        are already in range, reduced and nonzero, so no check is repeated.
        Callers: submatrices, products and transposes of existing matrices,
        and the assembled matrices of ``TruncatedComplex`` and of the
        cochain and collapse matrices in ``homology``, whose values come out
        of ``add_term``."""
        m = cls.__new__(cls)
        m.nrows = nrows
        m.ncols = ncols
        m.field = field
        m.entries = entries
        return m

    # -- basic operations ----------------------------------------------------

    def transpose(self):
        return SparseMatrix._adopt(
            self.ncols, self.nrows,
            {(j, i): v for (i, j), v in self.entries.items()}, self.field)

    def compose(self, other):
        """self . other (apply other first); shapes must chain."""
        if other.nrows != self.ncols:
            raise KernelError("shape mismatch in compose: %dx%d . %dx%d"
                              % (self.nrows, self.ncols, other.nrows, other.ncols))
        f = self.field
        by_col = {}
        for (k, j), v in other.entries.items():
            by_col.setdefault(k, []).append((j, v))
        acc = {}
        for (i, k), u in self.entries.items():
            for j, v in by_col.get(k, ()):
                add_term(f, acc, (i, j), u * v)
        return SparseMatrix._adopt(self.nrows, other.ncols, acc, f)

    def is_zero(self):
        return not self.entries

    def restrict(self, rows=None, cols=None):
        """Submatrix on the given (ordered) row/col index lists."""
        rows = range(self.nrows) if rows is None else rows
        cols = range(self.ncols) if cols is None else cols
        rindex = {r: i for i, r in enumerate(rows)}
        cindex = {c: j for j, c in enumerate(cols)}
        if len(rindex) < len(rows) or len(cindex) < len(cols):
            raise KernelError("restrict to a repeated row or column")
        ent = {(rindex[i], cindex[j]): v for (i, j), v in self.entries.items()
               if i in rindex and j in cindex}
        return SparseMatrix._adopt(len(rindex), len(cindex), ent, self.field)

    def __eq__(self, other):
        return (isinstance(other, SparseMatrix) and self.nrows == other.nrows
                and self.ncols == other.ncols and self.field == other.field
                and self.entries == other.entries)

    def __repr__(self):
        return "SparseMatrix(%dx%d over %r, %d nonzero)" % (
            self.nrows, self.ncols, self.field, len(self.entries))

    # -- rank ----------------------------------------------------------------

    def _integer_rows(self):
        """Every row, in order, as a dict col -> value (empty for a zero
        row); over Q denominators cleared and gcd-reduced, so the values
        are ints."""
        rows = [dict() for _ in range(self.nrows)]
        for (i, j), v in self.entries.items():
            rows[i][j] = v
        if self.field.characteristic:
            return rows
        out = []
        for row in rows:
            lcm = 1
            for v in row.values():
                if v.__class__ is not int:
                    d = v.denominator
                    lcm = lcm * d // gcd(lcm, d)
            ints = row if lcm == 1 else {j: int(v * lcm)
                                         for j, v in row.items()}
            g = 0
            for v in ints.values():
                g = gcd(g, v)
            if g > 1:
                ints = {j: v // g for j, v in ints.items()}
            out.append(ints)
        return out

    def rank(self):
        if self._rank is None:
            self._rank = sum(len(_eliminate(block, self.field))
                             for block in _components(self._integer_rows()))
        return self._rank

    def kernel_dim(self):
        return self.ncols - self.rank()

    def meet_dim(self, low_rows):
        """dim(im M ∩ span of the row basis vectors listed in low_rows): the
        windowed count rank(M) - rank(M on the other, "high", rows).

        One elimination takes the high rows first, so every low row is
        reduced against their pivots in the order taken, and the pivots
        then taken among the low rows number the count: the row-subset
        rank profile of Gaussian elimination (Dumas, Pernet & Sultan,
        ISSAC 2015).  All the pivots together give rank(M), which is
        memoized; once rank(M) is known, only the high rows are ranked."""
        low = set(low_rows)
        if not low.issubset(range(self.nrows)):
            raise KernelError("meet_dim: a row index out of range")
        if not low:
            return 0
        if len(low) == self.nrows:
            return self.rank()
        high = [i for i in range(self.nrows) if i not in low]
        if self._rank is not None:
            return self._rank - self.restrict(rows=high).rank()
        rows = self._integer_rows()
        ahead = [rows[i] for i in high]
        first = {id(r) for r in ahead}
        rank = meet = 0
        for block in _components(
                ahead + [r for i, r in enumerate(rows) if i in low]):
            # _components keeps the row order, so each block's high rows
            # lead it
            pivots = _eliminate(block, self.field,
                                first=sum(id(r) in first for r in block))
            rank += len(pivots)
            meet += sum(id(rest) not in first for _, _, rest in pivots)
        self._rank = rank
        return meet


def _components(rows):
    """Split the nonempty rows among rows (dicts col -> value) into the
    connected components of the row/column graph, where a row meets each
    column it has an entry in; each component keeps the rows' order.
    Elimination never carries one component's columns into another, so a
    matrix's rank is the sum of its components' ranks.  Graded matrices
    split into their degree blocks this way."""
    parent = {}

    def find(c):
        root = parent.setdefault(c, c)
        while parent[root] != root:
            root = parent[root]
        while c != root:
            parent[c], c = root, parent[c]
        return root

    rows = [r for r in rows if r]
    for row in rows:
        cols = iter(row)
        first = find(next(cols))
        for c in cols:
            root = find(c)
            if root != first:
                parent[root] = first
    blocks = {}
    for row in rows:
        blocks.setdefault(find(next(iter(row))), []).append(row)
    return list(blocks.values())


def _eliminate(rows, field, tags=(), first=0):
    """Eliminate a list of sparse rows; the one elimination core behind
    every rank, solve and inverse.  Returns the pivots in the order taken,
    each as (column, value, rest of the pivot row); the rank is their
    number.

    Each step pivots on the shortest active row and, within it, on the
    column with the fewest entries among the active rows: a cheap form of
    the Markowitz rule (Markowitz, 1957) that keeps fill-in low on sparse
    rank problems over finite fields (Dumas & Villard, CASC 2002).  Rank
    does not depend on the pivot order, so this only sets the cost.  A
    column in ``tags`` rides along with the row operations but is never
    pivoted on (its count is infinite, so it is never the sparsest), and
    a row left with only tags is set aside.  The rows ``rows[:first]`` are
    pivoted on before any other, so the pivots taken from them come first
    and number their rank.

    rows: list of nonempty dicts col -> value (ints over Q, residues over
    F_p), consumed: each elimination updates a row in place.  Over F_p it
    touches only the pivot row's columns.  Over Q rows stay integral: a row
    is first rescaled in full by the pivot value (unless that is 1), then
    gets the two-term cross-multiplication update over the pivot row's
    columns, then a gcd pass that reads the row until the gcd reaches 1.
    """
    modp = field.characteristic
    col_count = {}
    for r in rows:
        for c in r:
            col_count[c] = col_count.get(c, 0) + 1
    tags = frozenset(tags)
    for c in tags:
        col_count[c] = inf
    pivots = []
    active = [i for i, r in enumerate(rows) if not tags.issuperset(r)]
    while active:
        # active stays in row order: while a leading row is left, pivot
        # among the leading rows only
        pool = (active if active[0] >= first
                else active[:bisect_left(active, first)])
        ri = min(pool, key=lambda i: len(rows[i]))
        prow = rows[ri]
        pc = min(prow, key=col_count.__getitem__)
        pv = prow.pop(pc)
        active.remove(ri)
        for c in prow:
            col_count[c] -= 1
        pivots.append((pc, pv, prow))
        if modp:
            inv = pow(pv, -1, modp)
        spent = []
        for oi in active:
            orow = rows[oi]
            ov = orow.pop(pc, None)
            if ov is None:
                continue
            if modp:
                fac = ov * inv % modp
            elif pv != 1:
                for c in orow:
                    orow[c] *= pv
            for c, v in prow.items():
                w = orow.get(c)
                if w is None:
                    orow[c] = -fac * v % modp if modp else -ov * v
                    col_count[c] += 1
                    continue
                w = (w - fac * v) % modp if modp else w - ov * v
                if w:
                    orow[c] = w
                else:
                    del orow[c]
                    col_count[c] -= 1
            if not modp:
                g = 0
                for v in orow.values():
                    g = gcd(g, v)
                    if g == 1:
                        break
                if g > 1:
                    for c in orow:
                        orow[c] //= g
            if tags.issuperset(orow):
                spent.append(oi)
        for oi in spent:
            active.remove(oi)
    return pivots


def homology_dim(d_in, d_out):
    """ker(d_out) / im(d_in) at the middle spot of  . --d_in--> . --d_out--> .

    d_in maps into the middle space (rows of d_in = middle basis), d_out maps
    out of it (cols of d_out = middle basis).  Raises if d_out . d_in != 0.
    """
    if d_in.nrows != d_out.ncols:
        raise KernelError("middle dimensions disagree: %d vs %d"
                          % (d_in.nrows, d_out.ncols))
    if not d_out.compose(d_in).is_zero():
        raise CompositionNonzeroError("d_out . d_in != 0")
    return d_out.kernel_dim() - d_in.rank()


def solve_dense(m, rhs):
    """The exact solution x of  m . x = rhs  for a SparseMatrix m whose
    columns are independent.

    rhs is a dict row -> value; the result is a dict col -> value with zero
    entries omitted.  Returns None if the system is inconsistent, and
    raises NonInvertibleError if m's columns are dependent and KernelError
    if an rhs row is out of range.

    m is eliminated on its first solve only: the rows of m^T, column j
    tagged with a 1 at column m.nrows + j, so every pivot row's real part
    is m applied to its tag part.  Reducing rhs against the pivots in the
    order taken leaves rhs - m . y real and -y tagged; it is consistent
    exactly when no real entry is left, and then x = y.
    """
    f = m.field
    n = m.nrows
    if not set(rhs).issubset(range(n)):
        raise KernelError("solve_dense: an rhs row out of range")
    if m._pivots is None:
        entries = {(j, n + j): f.one for j in range(m.ncols)}
        entries.update(((j, i), v) for (i, j), v in m.entries.items())
        tagged = SparseMatrix._adopt(m.ncols, n + m.ncols, entries, f)
        pivots = _eliminate(tagged._integer_rows(), f,
                            range(n, n + m.ncols))
        if len(pivots) < m.ncols:
            raise NonInvertibleError(
                "columns are dependent: rank %d < %d"
                % (len(pivots), m.ncols))
        m._pivots = [(pc, f.inv(pv), rest) for pc, pv, rest in pivots]
    reduced = {}
    for i, v in rhs.items():
        add_term(f, reduced, i, f.coerce(v))
    for pc, inv, rest in m._pivots:
        v = reduced.pop(pc, None)
        if v is not None:
            fac = f.mul(v, inv)
            for c, w in rest.items():
                add_term(f, reduced, c, -fac * w)
    if any(c < n for c in reduced):
        return None
    return {c - n: f.neg(v) for c, v in reduced.items()}


def invert_dense(m):
    """Inverse of a small square SparseMatrix, as a list of columns
    (dicts row -> value).  Raises NonInvertibleError if singular."""
    if m.nrows != m.ncols:
        raise NonInvertibleError("not square")
    return [solve_dense(m, {i: m.field.one}) for i in range(m.nrows)]
