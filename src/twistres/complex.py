"""Free (bi)module chain complexes with symbolic differentials.

A ``FreeModuleTerm`` is A (x) span(labels) (x) A (bimodule side) or
A (x) span(labels) (left-module side); elements are sparse sums of
(left monomial, label, right monomial) keys, acted on key by key through
``FreeModuleTerm.act``.  The objects a resolution resolves are modules of
the same shape: ``AlgebraAsBimodule`` (the algebra over itself, keyed by
monomials) and ``GroundModule`` (the ground field, acted on through the
augmentation).  Each module kind has the one action ``act(l, key, r)``
on basis keys.

A ``ChainComplexSpec`` stores one term per homological degree,
differentials given on labels (applied by ``apply_label_images``), and an
optional augmentation treated as the (-1)-degree map into its ``target``
module: ε(lab) is a sparse dict over the target's keys, and a key
l⊗[lab]⊗r goes to l·ε(lab)·r through ``target.act``
(``augmentation_image``).

Everything quantitative happens after ``truncate``: keys of total
filtration degree <= N, enumerated in a fixed deterministic order,
yield exact sparse matrices.  ``exactness_report`` computes homology
dimensions inside the faithful window: degree <= N - s, where s is the
maximal filtration-degree drop any differential exhibits (computed from
the actual structure constants).  Inside the window, "cycle" and
"boundary" counts match the infinite complex, so zero means exact.
A graded truncation is ranked block by block (``TruncatedComplex.rank_on``):
``degree_blocks`` splits each map into its degree blocks, the truncation
keeps each block's rank, and every windowed or per-degree count is a sum
of those ranks; the Hochschild cochain slices use the same split.
On a filtered truncation a cycle count ranks d restricted to the
window's columns, and a boundary count dim(im d ∩ F_w) comes from one
elimination of d that takes the rows above the window first
(``SparseMatrix.meet_dim``).
"""

from __future__ import annotations

from bisect import bisect_left

from .kernel import (
    CheckReport, SparseMatrix, add_term, record_value, reduce_sums,
)
from .algebra import AlgebraElement, basis_up_to

BIMODULE = "bimodule"
LEFT_MODULE = "left-module"
GROUND_KEY = "k"  # the one basis key of the ground field
# the aug_kind values: what an augmented complex resolves
RESOLVES_ALGEBRA = "algebra"
RESOLVES_GROUND = "ground"


class ComplexError(Exception):
    pass


class DegreeRaisingError(ComplexError):
    """A differential strictly raised total filtration degree."""


class CutoffError(ComplexError):
    """A differential image needs a label outside the enumerated set."""


class FreeModuleTerm:
    """A free term: ordered labels with internal degrees, over an algebra."""

    def __init__(self, algebra, labels, side=BIMODULE, internal_degree=None):
        self.algebra = algebra
        self.labels = tuple(labels)
        if len(set(self.labels)) != len(self.labels):
            raise ComplexError("labels must be distinct")
        self.side = side
        deg = internal_degree or {}
        self.internal_degree = {lab: deg.get(lab, 0) for lab in self.labels}
        for lab, d in self.internal_degree.items():
            if d < 0:
                raise ComplexError("negative internal degree on %r" % (lab,))
        self._label_index = {lab: i for i, lab in enumerate(self.labels)}

    def zero(self):
        return FreeElement(self, {})

    def has_label(self, label):
        return label in self._label_index

    def generator(self, label):
        one = self.algebra.one_monomial()
        key = (one, label, one) if self.side == BIMODULE else (one, label)
        return FreeElement(self, {key: self.algebra.field.one})

    def key_degree(self, key):
        a = self.algebra
        if self.side == BIMODULE:
            l, lab, r = key
            return (a.monomial_degree(l) + self.internal_degree[lab]
                    + a.monomial_degree(r))
        l, lab = key
        return a.monomial_degree(l) + self.internal_degree[lab]

    def basis(self, n):
        """All keys of total degree <= n: labels in declared order, then
        (degree, left key, right key).  Each degree bound is taken as a
        prefix of one ``basis_up_to`` list (see ``graded_basis``)."""
        return self.graded_basis(n)[0]

    def graded_basis(self, n):
        """``basis(n)`` and the total degree of each key, in one pass.

        ``basis_up_to`` runs once, for the largest room any label has.  It
        lists monomials in ``monomial_key`` order, degree first, so every
        smaller bound is a prefix of it and list positions order keys."""
        rooms = [n - self.internal_degree[lab] for lab in self.labels]
        top = max(rooms, default=-1)
        keys, degrees = [], []
        if top < 0:
            return keys, degrees
        a = self.algebra
        monos = basis_up_to(a, top)
        degs = [a.monomial_degree(m) for m in monos]
        # monos[start[d]:start[d + 1]] are the monomials of degree d
        start = [bisect_left(degs, d) for d in range(top + 2)]
        for lab, room in zip(self.labels, rooms):
            if room < 0:
                continue
            inner = n - room
            if self.side != BIMODULE:
                for i in range(start[room + 1]):
                    keys.append((monos[i], lab))
                    degrees.append(inner + degs[i])
                continue
            for t in range(room + 1):
                for i in range(start[t + 1]):
                    l, dr = monos[i], t - degs[i]
                    for r in monos[start[dr]:start[dr + 1]]:
                        keys.append((l, lab, r))
                        degrees.append(inner + t)
        return keys, degrees

    def act(self, l, key, r):
        """l·key·r on one basis key, for monomials l, r of the algebra
        (None: no factor on that side), as a dict key -> scalar.  The keys
        (m, lab, m2) of l·kl and kr·r are distinct, so each raw product is
        only reduced (``reduce_sums``)."""
        a = self.algebra
        one = a.field.one
        if self.side == BIMODULE:
            kl, lab, kr = key
            rights = {kr: one} if r is None else a.mono_mul(kr, r)
        elif r is not None:
            raise ComplexError("right action on a one-sided term")
        else:
            kl, lab = key
        lefts = {kl: one} if l is None else a.mono_mul(l, kl)
        if self.side != BIMODULE:
            return {(m, lab): c for m, c in lefts.items()}
        return reduce_sums(a.field, {(m, lab, m2): c * c2
                                     for m, c in lefts.items()
                                     for m2, c2 in rights.items()})

    def format_key(self, key):
        a = self.algebra
        if self.side == BIMODULE:
            l, lab, r = key
            return "%s⊗[%s]⊗%s" % (a.format_monomial(l), lab, a.format_monomial(r))
        l, lab = key
        return "%s⊗[%s]" % (a.format_monomial(l), lab)


class AlgebraAsBimodule:
    """An algebra seen as a bimodule over itself: keys are its monomials."""

    def __init__(self, algebra):
        self.algebra = algebra
        self.side = BIMODULE

    def basis(self, n):
        return basis_up_to(self.algebra, n)

    def key_degree(self, key):
        return self.algebra.monomial_degree(key)

    def format_key(self, key):
        return self.algebra.format_monomial(key)

    def act(self, l, key, r):
        """l·key·r for monomials l, r (None: no factor on that side), as a
        new dict monomial -> scalar: the products (l·key)·r of the
        memoized ``mono_mul``, summed raw per monomial and reduced once."""
        alg = self.algebra
        mul = alg.mono_mul
        lefts = {key: alg.field.one} if l is None else mul(l, key)
        if r is None:
            return dict(lefts)
        acc = {}
        get = acc.get
        for m, c in lefts.items():
            for m2, c2 in mul(m, r).items():
                acc[m2] = get(m2, 0) + c * c2
        return reduce_sums(alg.field, acc)


class GroundModule:
    """The ground field as a module: the algebra acts through the
    augmentation (positive-degree monomials act by zero, degree-zero
    monomials — including group elements — act by one)."""

    def __init__(self, algebra):
        self.algebra = algebra
        self.side = LEFT_MODULE

    def basis(self, n):
        return [GROUND_KEY]

    def key_degree(self, key):
        return 0

    def format_key(self, key):
        return "[%s]" % (key,)

    def act(self, l, key, r):
        """epsilon(l)·key: one for no factor or a degree-zero l, else
        zero; a left module, so any r raises."""
        if r is not None:
            raise ComplexError("right action on a one-sided module")
        if l is not None and self.algebra.monomial_degree(l):
            return {}
        return {key: self.algebra.field.one}


def image_of(f, vec, image):
    """The sum of v * image(k) over a sparse vector k -> v.  A single key
    with coefficient one gives image(k) itself, to be read only."""
    if len(vec) == 1:
        (k, v), = vec.items()
        if v == f.one:
            return image(k)
    acc = {}
    get = acc.get
    for k, v in vec.items():
        for pair, w in image(k).items():
            acc[pair] = get(pair, 0) + v * w
    return reduce_sums(f, acc)


class FreeElement:
    """Sparse element of a free term: dict key -> scalar."""

    __slots__ = ("term", "terms")

    def __init__(self, term, terms):
        self.term = term
        self.terms = terms

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __add__(self, other):
        if self.term is not other.term:
            raise ComplexError("elements of different terms")
        f = self.term.algebra.field
        out = dict(self.terms)
        for k, c in other.terms.items():
            add_term(f, out, k, c)
        return FreeElement(self.term, out)

    def __neg__(self):
        f = self.term.algebra.field
        return FreeElement(self.term, {k: f.neg(c) for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, scalar):
        f = self.term.algebra.field
        s = f.coerce(scalar)
        if f.is_zero(s):
            return FreeElement(self.term, {})
        return FreeElement(self.term, {k: f.mul(s, c) for k, c in self.terms.items()})

    def act(self, l, r):
        """l·element·r for monomials l, r of the algebra (None: no factor
        on that side): ``term.act`` extended over the keys."""
        term = self.term
        return FreeElement(term, image_of(term.algebra.field, self.terms,
                                          lambda k: term.act(l, k, r)))

    def left_mul(self, a_elem):
        """a . element: multiplies the left coefficients."""
        return sum((self.act(m, None).scale(c)
                    for m, c in a_elem.terms.items()), self.term.zero())

    def right_mul(self, a_elem):
        """element . a: multiplies the right coefficients (bimodule side)."""
        if self.term.side != BIMODULE:
            raise ComplexError("right action on a one-sided term")
        return sum((self.act(None, m).scale(c)
                    for m, c in a_elem.terms.items()), self.term.zero())

    def __eq__(self, other):
        return (isinstance(other, FreeElement) and self.term is other.term
                and self.terms == other.terms)

    def __repr__(self):
        if not self.terms:
            return "0"
        fmt = self.term.format_key
        bits = []
        for k in sorted(self.terms, key=lambda k: (self.term.key_degree(k), repr(k))):
            bits.append("%s·%s" % (self.terms[k], fmt(k)))
        return " + ".join(bits)


class ChainComplexSpec:
    """Terms indexed 0..n_max; differentials[n] maps labels of term n to
    FreeElements of term n-1; augmentation maps degree-0 labels to sparse
    dicts over the keys of the resolved module ``target``: monomial ->
    scalar for the algebra over itself (aug_kind RESOLVES_ALGEBRA),
    {GROUND_KEY: scalar} for the ground field (RESOLVES_GROUND).

    complete_above=False marks truncations of longer complexes (bar,
    periodic), whose top spot ``trusted_top`` keeps out of reports.
    """

    def __init__(self, algebra, terms, differentials, augmentation=None,
                 aug_kind=None, complete_above=True, name=""):
        self.algebra = algebra
        self.terms = list(terms)
        self.differentials = list(differentials)
        self.augmentation = augmentation
        self.aug_kind = aug_kind  # RESOLVES_ALGEBRA | RESOLVES_GROUND | None
        self.complete_above = complete_above
        self.name = name
        self.target = None
        if augmentation is not None:
            if aug_kind not in _TARGETS:
                raise ComplexError("augmented complex needs aug_kind")
            self.target = _TARGETS[aug_kind](algebra)
            for lab, value in augmentation.items():
                if not isinstance(value, dict):
                    raise ComplexError(
                        "augmentation of %r is %r, not a dict over the keys "
                        "of the resolved module" % (lab, value))

    @property
    def n_max(self):
        return len(self.terms) - 1

    @property
    def trusted_top(self):
        """The last spot a report can trust: a complex cut from a longer
        one has no next differential at its top spot."""
        return self.n_max if self.complete_above else self.n_max - 1

    def apply_differential(self, n, elem):
        """d_n applied to an element of term n."""
        return FreeElement(self.terms[n - 1], apply_label_images(
            elem.term, elem.terms, self.differentials[n].__getitem__))

    def augmentation_image(self, key):
        """l·ε(lab)·r for one key l⊗[lab]⊗r (or l⊗[lab]) of term 0, read
        through ``target.act``, as a dict target key -> scalar."""
        l, lab, r = key if len(key) == 3 else key + (None,)
        return image_of(self.algebra.field, self.augmentation[lab],
                        lambda m: self.target.act(l, m, r))


# the module each augmentation kind lands in
_TARGETS = {RESOLVES_ALGEBRA: AlgebraAsBimodule, RESOLVES_GROUND: GroundModule}


def apply_label_images(term, vec, image):
    """Each key l⊗[lab]⊗r (or l⊗[lab]) of the sparse vector vec over term
    goes to l·image(lab)·r, image(lab) an element of the target term; the
    raw products are summed per target key and reduced once
    (``reduce_sums``), and the result is a new dict target key -> scalar.
    The truncation takes each column from here, so it reads the memoized
    ``mono_mul`` products itself rather than going through ``act``."""
    alg = term.algebra
    mul = alg.mono_mul
    acc = {}
    get = acc.get
    if term.side == BIMODULE:
        for (l, lab, r), c in vec.items():
            for (l2, lab2, r2), c2 in image(lab).terms.items():
                w = c * c2
                rights = mul(r2, r)
                for m, cm in mul(l, l2).items():
                    wm = w * cm
                    for m2, cm2 in rights.items():
                        k = (m, lab2, m2)
                        acc[k] = get(k, 0) + wm * cm2
    else:
        for (l, lab), c in vec.items():
            for k2, c2 in image(lab).terms.items():
                w = c * c2
                rest = k2[1:]
                for m, cm in mul(l, k2[0]).items():
                    k = (m,) + rest
                    acc[k] = get(k, 0) + w * cm
    return reduce_sums(alg.field, acc)


def compose_check(c):
    """Symbolic d . d = 0 on every label (and augmentation . d_1 = 0)."""
    f = c.algebra.field
    report = CheckReport("compose_check(%s)" % (c.name,), " labels")
    for n in range(2, c.n_max + 1):
        for label in c.terms[n].labels:
            img = c.differentials[n][label]
            dd = c.apply_differential(n - 1, img)
            report.record(dd.is_zero(), lambda: (n, label, repr(dd)))
    if c.augmentation is not None and c.n_max >= 1:
        ground = c.aug_kind == RESOLVES_GROUND
        for label in c.terms[1].labels:
            img = c.differentials[1][label]
            res = image_of(f, img.terms, c.augmentation_image)
            # a failure shows the ground scalar, or an algebra element
            report.record(not res, lambda: (1, label, "augmentation: %r" % (
                record_value(f, res[GROUND_KEY]) if ground
                else AlgebraElement(c.algebra, res),)))
    return report


class TruncatedComplex:
    """Finite matrices of a complex cut at total filtration degree <= N."""

    def __init__(self, spec, cutoff):
        self.spec = spec
        self.cutoff = cutoff
        self.field = f = spec.algebra.field
        self.bases = []
        self.key_degrees = []
        for term in spec.terms:
            b, degs = term.graded_basis(cutoff)
            self.bases.append(b)
            self.key_degrees.append(degs)
        self.matrices = [None]
        self.max_drop = 0
        for n in range(1, spec.n_max + 1):
            term, labels = spec.terms[n], spec.differentials[n].__getitem__
            self.matrices.append(self._assemble(
                n, (apply_label_images(term, {key: f.one}, labels)
                    for key in self.bases[n]),
                self.bases[n - 1], self.key_degrees[n - 1]))
        self.aug_matrix = None
        self.target_basis = None
        if spec.target is not None:
            self.target_basis = spec.target.basis(cutoff)
            self.target_degrees = [spec.target.key_degree(m)
                                   for m in self.target_basis]
            self.aug_matrix = self._assemble(
                0, map(spec.augmentation_image, self.bases[0]),
                self.target_basis, self.target_degrees)
        # no map raises degree, so a zero drop means every entry of every
        # map preserves degree
        self.graded = self.max_drop == 0
        self._ranks = {}  # graded rank_on memo: n -> {degree: block rank}

    def _assemble(self, n, columns, rows, row_degrees):
        """The matrix of d_n (n = 0: the augmentation) from ``columns``,
        the image of each key of term n in basis order as a dict over the
        keys rows (``apply_label_images``, ``augmentation_image``).  Every
        column is already reduced (nonzero, one value per key), so the
        assembled dict is adopted unchecked, and a term that cancelled
        above the cutoff is gone before the degree check sees it."""
        index = {k: i for i, k in enumerate(rows)}.get
        entries = {}
        drop = self.max_drop
        for j, (key, src_deg, column) in enumerate(zip(
                self.bases[n], self.key_degrees[n], columns)):
            for k, v in column.items():
                # a key missing from the rows lies above the cutoff, so
                # above src_deg
                i = index(k)
                d = -1 if i is None else src_deg - row_degrees[i]
                if d < 0:
                    raise DegreeRaisingError(
                        "%s raises degree on %r"
                        % ("d_%d" % n if n else "augmentation", key))
                if d > drop:
                    drop = d
                entries[(i, j)] = v
        self.max_drop = drop
        return SparseMatrix._adopt(len(rows), len(self.bases[n]), entries,
                                   self.field)

    # -- ranks ----------------------------------------------------------------

    def rank_on(self, n, row_ok, col_ok):
        """Rank of d_n (n = 0: the augmentation; 0 where there is no map)
        on the rows and columns whose degrees pass row_ok and col_ok.
        Graded truncations answer from per-degree block ranks, filtered
        ones rank the restriction."""
        if self._absent(n):
            return 0
        if self.graded:
            if n not in self._ranks:
                self._ranks[n] = {d: block.rank() for d, block
                                  in degree_blocks(*self._map(n)).items()}
            return sum(r for d, r in self._ranks[n].items()
                       if row_ok(d) and col_ok(d))
        m, row_degs, col_degs = self._map(n)
        return m.restrict(
            rows=[i for i, d in enumerate(row_degs) if row_ok(d)],
            cols=[j for j, d in enumerate(col_degs) if col_ok(d)]).rank()

    def _image_in_window(self, n, window):
        """dim( im(d_n) intersected with the degree<=window part of its
        target ): the sum of the blocks' ranks up to the window on a
        graded truncation, else ``SparseMatrix.meet_dim``."""
        if self._absent(n):
            return 0
        if self.graded:
            return self.rank_on(n, lambda e: e <= window, _every)
        m, row_degs, _ = self._map(n)
        return m.meet_dim([i for i, e in enumerate(row_degs) if e <= window])

    def _absent(self, n):
        """Whether there is no d_n (n = 0: no augmentation)."""
        return n > self.spec.n_max or (n == 0 and self.aug_matrix is None)

    def _map(self, n):
        """d_n with the degrees of its rows and of its columns."""
        if n == 0:
            return self.aug_matrix, self.target_degrees, self.key_degrees[0]
        return self.matrices[n], self.key_degrees[n - 1], self.key_degrees[n]

    # -- windowed homology ----------------------------------------------------

    @property
    def window(self):
        return self.cutoff - self.max_drop

    def boundary_dim_in_window(self, n, window=None):
        """dim( im(d_{n+1}) intersected with the degree<=window part )."""
        return self._image_in_window(
            n + 1, self.window if window is None else window)

    def cycle_dim_in_window(self, n):
        d = self.window
        free = sum(1 for dg in self.key_degrees[n] if dg <= d)
        return free - self.rank_on(n, _every, lambda e: e <= d)

    def windowed_homology(self, n):
        return self.cycle_dim_in_window(n) - self.boundary_dim_in_window(n)

    def augmentation_cokernel(self):
        """Windowed dim of target / im(augmentation)."""
        if self.aug_matrix is None:
            return None
        return (self.target_dim_in_window()
                - self._image_in_window(0, self.window))

    def target_dim_in_window(self):
        if self.target_basis is None:
            return None
        d = self.window
        return sum(1 for dg in self.target_degrees if dg <= d)

    # -- graded fast path -----------------------------------------------------

    def graded_homology(self, n, d):
        """Exact homology in internal degree d at spot n (graded complexes)."""
        at_d = d.__eq__
        return (self.key_degrees[n].count(d) - self.rank_on(n, _every, at_d)
                - self.rank_on(n + 1, at_d, at_d))

    # -- report ---------------------------------------------------------------

    def exactness(self):
        """Windowed homology dimensions of this truncated augmented complex,
        plus per-degree ones when it is graded."""
        c = self.spec
        rep = ExactnessReport(c.name, self.cutoff)
        rep.window = self.window
        rep.max_drop = self.max_drop
        rep.graded = self.graded
        top = rep.top_spot_reported = c.trusted_top
        for n in range(1, top + 1):
            rep.homology[n] = self.windowed_homology(n)
        if c.augmentation is not None:
            rep.h0_relative = self.windowed_homology(0)
            rep.aug_coker = self.augmentation_cokernel()
        if rep.graded:
            for n in range(1, top + 1):
                for d in range(self.cutoff + 1):
                    h = self.graded_homology(n, d)
                    if h:
                        rep.per_degree[(n, d)] = h
        return rep


def _every(degree):
    return True


def degree_blocks(m, row_degrees, col_degrees):
    """{degree d: the block of m on its rows and columns of degree d}, split
    in one pass over the entries of a degree-preserving m.  Only degrees
    that hold entries get a block, and each block memoizes its own rank."""
    row_at, rows_in = _positions(row_degrees)
    col_at, cols_in = _positions(col_degrees)
    blocks = {}
    for (i, j), v in m.entries.items():
        d = row_degrees[i]
        if col_degrees[j] != d:
            raise ComplexError("map is not degree-preserving at (%d, %d)"
                               % (i, j))
        blocks.setdefault(d, {})[(row_at[i], col_at[j])] = v
    return {d: SparseMatrix._adopt(rows_in[d], cols_in[d], ents, m.field)
            for d, ents in blocks.items()}


def _positions(degrees):
    """Each index's position among the indices of its degree, and the
    number of indices of each degree."""
    count, at = {}, []
    for d in degrees:
        at.append(count.get(d, 0))
        count[d] = at[-1] + 1
    return at, count


def truncate(c, n):
    """Cut the complex at total filtration degree <= n."""
    if n < 0:
        raise ComplexError("cutoff must be >= 0")
    return TruncatedComplex(c, n)


class ExactnessReport:
    def __init__(self, name, cutoff):
        self.name = name
        self.cutoff = cutoff
        self.window = None
        self.max_drop = None
        self.graded = None
        self.homology = {}       # spot -> windowed dim (spots >= 1)
        self.h0_relative = None  # ker(aug)/im(d_1), windowed
        self.aug_coker = None
        self.per_degree = {}     # (spot, internal degree) -> dim, graded only
        self.top_spot_reported = None

    @property
    def passed(self):
        vals = list(self.homology.values())
        if self.h0_relative is not None:
            vals.append(self.h0_relative)
        if self.aug_coker is not None:
            vals.append(self.aug_coker)
        vals.extend(self.per_degree.values())
        return all(v == 0 for v in vals)

    def __repr__(self):
        return ("exactness(%s, N=%d, window<=%d): %s %r"
                % (self.name, self.cutoff, self.window,
                   "pass" if self.passed else "FAIL", self.homology))


def exactness_report(c, n_cutoff):
    """Windowed homology dimensions of the truncated augmented complex."""
    return truncate(c, n_cutoff).exactness()
