"""Dimension extraction from constructed resolutions.

Two reductions of a resolution produce computable invariants:

* cochains valued in the algebra itself (or the ground field): for a
  two-sided free resolution, maps out of a free bimodule are determined
  by their values on generators, so the cochain space at stage n is
  spanned by pairs (generator label, target monomial), and the
  codifferential pushes values through the differential entries,
  multiplying by the coefficient pair on both sides;

* the counit collapse (``_reduced_matrices``): each free term keeps only
  its generators, and a differential entry survives with its coefficient
  when the counit is nonzero on both sides of it.  Its homology is Tor
  over the augmentation of a one-sided resolution, its transpose gives
  Ext, and on a two-sided one its transpose is the ground-valued
  codifferential.

Truncation policy.  A finitely-supported cochain's codifferential is
computed exactly (target rows extend far enough to hold every image), so
kernels of the truncated matrices consist of honest cocycles.
Coboundaries are counted from a slightly larger source window and
intersected with the reported one, which repairs the edge effect of
coboundaries whose potential lives just above the window.  Graded inputs
(``ChainComplexSpec.homogeneous``, the one rule the chain side's
truncations read too) additionally get exact per-degree dimensions on
slices that fit entirely inside the window: a graded codifferential
keeps the internal degree t, so each slice is read from the t-blocks
that ``complex.degree_blocks`` splits off, the split the chain side's
graded ranks use.  Merely filtered inputs get the windowed dimensions at
two cutoffs and a stability flag -- reported, never asserted.  A
resolution that fails ``compose_check`` gets no cohomology: it raises
HomologyError."""

from .algebra import basis_up_to
from .complex import (
    BIMODULE, RESOLVES_ALGEBRA, RESOLVES_GROUND, AlgebraAsBimodule,
    ChainComplexSpec, GroundModule, degree_blocks, require_complex,
)
from .kernel import SparseMatrix, homology_dim, reduce_sums

__all__ = [
    "HomologyError",
    "SELF_COEFF",
    "GROUND_COEFF",
    "CochainTruncation",
    "CohomologyReport",
    "hochschild_cohomology",
    "tor_over_augmented",
    "ext_over_augmented",
]

SELF_COEFF = "self"
GROUND_COEFF = "ground"


class HomologyError(Exception):
    """Dimension computation asked of an unsuitable resolution."""


def _resolve_source(source, two_sided):
    """Accept a resolution in any packaging: a bundle, a total complex, or
    a bare complex.  A total complex is re-presented over the twisted
    algebra, so the coefficient multiplication is the real one; one-sided,
    its re-bundled extension form is taken when it has one.  Two-sided
    sources must resolve the algebra, one-sided ones the ground field."""
    cplx = source
    if hasattr(source, "ore_form") and not two_sided:
        cplx = source.ore_form.rebundled.complex
    elif hasattr(source, "ore_form") or hasattr(source, "bicomplex"):
        from .twistprod import present_over_twisted_algebra
        cplx = present_over_twisted_algebra(source)
    elif hasattr(source, "complex"):
        cplx = source.complex
    if not isinstance(cplx, ChainComplexSpec):
        raise HomologyError("unsupported source %r" % (type(source).__name__,))
    if (cplx.terms[0].side == BIMODULE) != two_sided:
        raise HomologyError(
            "algebra-valued cochains need a two-sided resolution" if two_sided
            else "ground-field collapse needs a one-sided resolution")
    if cplx.aug_kind != (RESOLVES_ALGEBRA if two_sided else RESOLVES_GROUND):
        raise HomologyError(
            "the resolution must resolve the %s"
            % ("algebra itself" if two_sided else "ground field"))
    return cplx


def _trusted_top(cplx, n_top):
    """The last stage to report: ``n_top``, by default the trustworthy top.
    A truncated resolution (``complete_above`` false) cannot be trusted at
    its top stage, whose cohomology sees no next differential; asking for
    it, or beyond, raises HomologyError."""
    top = cplx.trusted_top
    if n_top is None:
        return top
    if n_top > top and not cplx.complete_above:
        raise HomologyError(
            "stage %d beyond the truncated resolution's trustworthy top %d"
            % (n_top, top))
    return n_top


# Coboundaries are counted from sources up to _SLACK degrees above the
# window, and filtered counts are rechecked _SLACK degrees higher.  2 is
# the largest degree drop of one commutation in the shipped algebras
# (y·x = xy - 1 in the Weyl algebra); the pinned dimension tables and
# stability flags are computed with it.
_SLACK = 2


class CochainTruncation:
    """Cochains on a free two-sided resolution, valued in the algebra
    (pairs label/target monomial) or the ground field (labels only),
    truncated by target degree.  Codifferential matrices extend their
    rows far enough that images of truncated cochains are exact; the
    ground-valued ones are the transposed counit collapse
    (``_reduced_matrices``), the same at every cutoff."""

    def __init__(self, cplx, coeff=SELF_COEFF):
        if coeff not in (SELF_COEFF, GROUND_COEFF):
            raise HomologyError("unknown coefficient choice %r" % (coeff,))
        self.cplx = cplx
        self.coeff = coeff
        self.alg = cplx.algebra
        self.field = cplx.algebra.field
        self.graded = cplx.homogeneous
        self.top = len(cplx.terms) - 1
        self._mats = {}
        self._bases = {}
        self._blocks = {}  # (n, cutoff) -> the t-blocks of that matrix
        # l·m·r images, shared by the matrices at every cutoff
        self._acts = {}
        if coeff == GROUND_COEFF:
            self._ground = [None] + [
                m.transpose() for m in _reduced_matrices(cplx)[1][1:]]

    def basis(self, n, cutoff):
        """Ordered cochain basis at stage n, (label, monomial) for algebra
        coefficients and (label,) for ground ones, with the internal
        degree t of each element (target degree minus label degree) on a
        graded input; only its per-degree slices read t."""
        key = (n, cutoff)
        if key in self._bases:
            return self._bases[key]
        labels = self.cplx.terms[n].internal_degree if n <= self.top else {}
        if self.coeff == GROUND_COEFF:
            cols = [(lab,) for lab in labels]
            degrees = [-base for base in labels.values()]
        else:
            monos = basis_up_to(self.alg, cutoff)
            cols = [(lab, m) for lab in labels for m in monos]
            mono_degrees = ([self.alg.monomial_degree(m) for m in monos]
                            if self.graded else [])
            degrees = [d - base for base in labels.values()
                       for d in mono_degrees]
        self._bases[key] = cols, degrees
        return cols, degrees

    def matrix(self, n, cutoff):
        """The codifferential out of stage n on targets of degree <=
        cutoff.  Returns (matrix, cols, rows); rows live at stage n+1
        with targets up to cutoff plus that stage's coefficient shift,
        so every image is represented exactly."""
        key = (n, cutoff)
        if key in self._mats:
            return self._mats[key]
        f = self.field
        cols = self.basis(n, cutoff)[0]
        rows = self.basis(n + 1,
                          cutoff + self.cplx.coefficient_shift(n + 1))[0]
        if n + 1 > self.top:
            mat = SparseMatrix(0, len(cols), [], f)
        elif self.coeff == GROUND_COEFF:
            mat = self._ground[n + 1]
        else:
            col_index = {c: i for i, c in enumerate(cols)}
            row_index = {r: i for i, r in enumerate(rows)}
            # raw sums per entry, reduced once: nonzero and reduced to adopt
            acc = {}
            get = acc.get
            act = AlgebraAsBimodule(self.alg).act
            acts = self._acts
            monos = basis_up_to(self.alg, cutoff)
            for mu, img in self.cplx.differentials[n + 1].items():
                for (l, lab, r), c in img.terms.items():
                    for m in monos:
                        ci = col_index[(lab, m)]
                        image = acts.get((l, m, r))
                        if image is None:
                            image = acts[(l, m, r)] = act(l, m, r)
                        for m2, c2 in image.items():
                            ij = (row_index[(mu, m2)], ci)
                            acc[ij] = get(ij, 0) + c * c2
            mat = SparseMatrix._adopt(len(rows), len(cols),
                                      reduce_sums(f, acc), f)
        self._mats[key] = (mat, cols, rows)
        return self._mats[key]

    # -- windowed dimensions ------------------------------------------

    def window_dim(self, n, cutoff):
        """dim of stage-n cohomology seen at the window: exact cocycles
        with targets <= cutoff, minus coboundaries inside the window
        coming from sources up to cutoff + _SLACK."""
        mat, cols, _rows = self.matrix(n, cutoff)
        kernel = mat.kernel_dim()
        if n == 0:
            return kernel
        prev, pcols, prows = self.matrix(n - 1, cutoff + _SLACK)
        inside = [i for i, row in enumerate(prows)
                  if self.coeff == GROUND_COEFF
                  or self.alg.monomial_degree(row[1]) <= cutoff]
        return kernel - prev.meet_dim(inside)

    def degree_slice_dim(self, n, t, cutoff):
        """Exact dimension of the degree-t slice at stage n (graded
        complexes only), from the t-blocks of the codifferentials out of
        stages n and n - 1; None when the slice does not fit the window."""
        if not self.graded:
            raise HomologyError("per-degree slices need a graded complex")
        stages = [m for m in (n - 1, n, n + 1) if 0 <= m <= self.top]
        maxlab = max(self.cplx.terms[m].internal_degree[lab]
                     for m in stages for lab in self.cplx.terms[m].labels)
        if t + maxlab > cutoff:
            return None
        kernel = self.basis(n, cutoff)[1].count(t) - self._t_rank(n, t, cutoff)
        if n == 0:
            return kernel
        return kernel - self._t_rank(n - 1, t, cutoff)

    def _t_rank(self, n, t, cutoff):
        """Rank of the degree-t block of ``matrix(n, cutoff)``: a graded
        codifferential keeps t, so it splits by ``degree_blocks``."""
        key = (n, cutoff)
        if key not in self._blocks:
            self._blocks[key] = degree_blocks(
                self.matrix(n, cutoff)[0],
                self.basis(n + 1,
                           cutoff + self.cplx.coefficient_shift(n + 1))[1],
                self.basis(n, cutoff)[1])
        block = self._blocks[key].get(t)
        return 0 if block is None else block.rank()


class CohomologyReport:
    """Per-stage dimensions with stability bookkeeping.

    ``dims[n]`` is the windowed dimension at ``cutoff``; ``stable[n]``
    says whether recomputing at ``recheck_cutoff`` gave the same number.
    Graded inputs also carry ``per_degree[(n, t)]`` -- exact dimensions
    of internal-degree slices that fit the window."""

    def __init__(self, name, coeff, cutoff, recheck_cutoff, graded):
        self.name = name
        self.coeff = coeff
        self.cutoff = cutoff
        self.recheck_cutoff = recheck_cutoff
        self.graded = graded
        self.dims = {}
        self.stable = {}
        self.per_degree = {} if graded else None

    @property
    def unstable(self):
        return sorted(n for n, ok in self.stable.items() if not ok)

    @property
    def all_stable(self):
        return not self.unstable

    def __repr__(self):
        mode = "graded" if self.graded else "filtered"
        flag = "stable" if self.all_stable else (
            "UNSTABLE at %r" % (self.unstable,))
        return "<CohomologyReport %s [%s] dims=%r %s>" % (
            self.name, mode, self.dims, flag)


def hochschild_cohomology(source, n_top=None, cutoff=8, coeff=SELF_COEFF):
    """Cohomology dimensions of a two-sided free resolution with values
    in the algebra itself (default) or the ground field.

    Graded inputs report exact per-internal-degree dimensions alongside
    the windowed counts; filtered inputs report windowed counts at
    ``cutoff`` and ``cutoff + _SLACK`` with per-stage stability flags
    (disagreement flags, never raises).  A resolution that fails
    ``compose_check`` raises HomologyError (``require_complex``)."""
    cplx = _resolve_source(source, True)
    require_complex(cplx, HomologyError)
    co = CochainTruncation(cplx, coeff=coeff)
    n_top = _trusted_top(cplx, n_top)
    recheck = cutoff + _SLACK
    rep = CohomologyReport(cplx.name, coeff, cutoff, recheck, co.graded)
    for n in range(n_top + 1):
        here = co.window_dim(n, cutoff)
        again = co.window_dim(n, recheck)
        rep.dims[n] = here
        rep.stable[n] = here == again
        if co.graded:
            for t in sorted(set(co.basis(n, cutoff)[1])):
                d = co.degree_slice_dim(n, t, cutoff)
                if d is not None:
                    rep.per_degree[(n, t)] = d
    return rep


# ---------------------------------------------------------------------------
# ground-field collapse of one-sided resolutions


def _reduced_matrices(cplx):
    """Collapse a free resolution along the counit: stage n keeps a basis
    of generator labels, and a differential entry l⊗[lab] (one-sided) or
    l⊗[lab]⊗r (two-sided) survives with its coefficient when the counit
    is nonzero on l and on r.  The ground field is commutative, so
    epsilon(r) is read as a left action."""
    f = cplx.algebra.field
    eps = GroundModule(cplx.algebra).act
    sizes = [len(term.labels) for term in cplx.terms]
    mats = [None]
    for n in range(1, len(cplx.terms)):
        src = {lab: i for i, lab in enumerate(cplx.terms[n].labels)}
        tgt = {lab: i for i, lab in enumerate(cplx.terms[n - 1].labels)}
        acc = {}
        get = acc.get
        for lab, img in cplx.differentials[n].items():
            for key, c in img.terms.items():
                l, lab2, r = key if len(key) == 3 else key + (None,)
                if eps(l, lab2, None) and eps(r, lab2, None):
                    ij = (tgt[lab2], src[lab])
                    acc[ij] = get(ij, 0) + c
        mats.append(SparseMatrix._adopt(sizes[n - 1], sizes[n],
                                        reduce_sums(f, acc), f))
    return sizes, mats


def _collapse_dims(cplx, n_top, transpose):
    f = cplx.algebra.field
    sizes, mats = _reduced_matrices(cplx)
    top = len(cplx.terms) - 1
    n_top = _trusted_top(cplx, n_top)
    dims = []
    for n in range(n_top + 1):
        if n > top:
            dims.append(0)
            continue
        d_here = mats[n] if n >= 1 else SparseMatrix(0, sizes[0], [], f)
        d_next = (mats[n + 1] if n + 1 <= top
                  else SparseMatrix(sizes[n], 0, [], f))
        if transpose:
            dims.append(homology_dim(d_here.transpose(), d_next.transpose()))
        else:
            dims.append(homology_dim(d_next, d_here))
    return dims


def tor_over_augmented(source, n_top=None):
    """Homology dimensions of the ground-field collapse of a one-sided
    resolution (stage n keeps its generators; entries survive through
    the counit of their coefficient)."""
    return _collapse_dims(_resolve_source(source, False), n_top,
                          transpose=False)


def ext_over_augmented(source, n_top=None):
    """Cohomology dimensions of the ground-field-valued cochains on a
    one-sided resolution: the transposed collapse.  Over a field these
    agree with the homology dimensions; that equality is a theorem
    about finite-rank complexes and is *checked* by tests, not wired
    in."""
    return _collapse_dims(_resolve_source(source, False), n_top,
                          transpose=True)
