"""Products of resolutions over twisted tensor product algebras.

Two free resolutions -- one per factor of a twisted tensor product --
combine into a grid whose (i, j) block is spanned by pairs of factor
generators.  The grid carries the first factor's differential
horizontally and the second factor's vertically, the vertical one signed
by (-1)^i, and the total complex (direct sum along anti-diagonals) is
again a free resolution.

Presentation choice.  The total complex is stored over the *plain*
tensor product of the two factor algebras, whose coefficient pairs
multiply componentwise.  In that presentation the total differential is
literally ``d (x) 1 + (-1)^i (x) d``: squaring to zero and windowed
exactness become statements about the underlying vector spaces, and no
twisting enters the stored matrices.  The twisted structure is a
separate layer: :meth:`TotalComplex.act` (``l·key·r`` on one basis key,
extended to elements by ``act_left`` and ``act_right``) moves factor
monomials across the generators through the lifts carried by the factor
resolutions, and :func:`present_over_twisted_algebra` re-expresses
the whole complex over the twisted product by solving for coordinates in
the twisted free-module presentation.  The lifts being chain maps is
exactly what makes the action commute with the differentials; the
sampling report :meth:`TotalComplex.action_commutes_report` checks that
on concrete elements.

One-variable extensions get special support.  ``ore_module_resolution``
totalizes a one-sided wedge resolution against the two-term resolution
of the ground field over a one-variable polynomial ring, and
:class:`OreFreeForm` exhibits each row of the result as a free module
over the skew extension (the new variable's commutators given by a
derivation).  Re-expressed that way the total complex is again a wedge
complex, so the construction iterates one variable at a time; for a
triangular bracket table the iteration lands on the standard finite
free resolution of the ground field over the enveloping algebra.
"""

from .algebra import (
    POLYNOMIAL,
    AlgebraElement,
    basis_up_to,
    iterated_ore_algebra,
    polynomial_algebra,
)
from .complex import (
    BIMODULE,
    LEFT_MODULE,
    GROUND_KEY,
    ChainComplexSpec,
    FreeElement,
    FreeModuleTerm,
    apply_label_images,
    image_of,
)
from .kernel import CheckReport, SparseMatrix, add_term, solve_dense
from .resolutions import (
    ONE_SIDED_KOSZUL,
    RESOLVES_ALGEBRA,
    RESOLVES_GROUND,
    ResolutionBundle,
    cyclic_periodic,
    lift_twist,
    one_sided_koszul_kx,
    poly_koszul,
    sigma_delta_chain_maps,
)
from .twist import FLIP, ORE, TwistMap, flip_twist, ore_twist, triangular_action_twist

import random

__all__ = [
    "ProductError",
    "MissingLiftError",
    "PresentationError",
    "TwistedBicomplex",
    "TotalComplex",
    "bimodule_twisted_product",
    "one_sided_twisted_product",
    "koszul_pair_product",
    "triangular_skew_product",
    "present_over_twisted_algebra",
    "transport_complex",
    "complexes_match",
    "kunneth_degree0_check",
    "ore_module_resolution",
    "iterated_ore_tower",
    "OreFreeForm",
]


class ProductError(Exception):
    """Problems assembling or re-presenting a product complex."""


class MissingLiftError(ProductError):
    """A factor resolution lacks the lifts the product construction needs."""


class PresentationError(ProductError):
    """A change of presentation has no solution in the allotted degrees."""


def _require_lift(bundle, t, side, role):
    if bundle.twist is not t or bundle.lift_side != side or not bundle.lifts:
        raise MissingLiftError(
            "the %s factor must carry verified %s lifts for the twist %r "
            "before it can enter a product" % (role, side, t.name))
    missing = [n for n in range(bundle.n_max + 1) if n not in bundle.lifts]
    if missing:
        raise MissingLiftError(
            "the %s factor is missing lifts in degrees %r" % (role, missing))


class GridReport(CheckReport):
    """Outcome of a per-label grid check (anticommutation, the twisted
    action, presentation roundtrips), printed in its own form."""

    def __repr__(self):
        verdict = "ok" if self.passed else "FAILED(%d)" % len(self.violations)
        return "<GridReport %s: %d checked, %s>" % (self.title, self.checked,
                                                    verdict)


class KunnethReport:
    """Degree-0 homology of a truncated total complex versus the resolved
    tensor product, cumulatively per internal degree inside the faithful
    window."""

    def __init__(self, name, n_cutoff, window):
        self.name = name
        self.n_cutoff = n_cutoff
        self.window = window
        self.rows = {}

    @property
    def passed(self):
        return all(got == want for got, want in self.rows.values())

    def __repr__(self):
        verdict = "ok" if self.passed else "FAILED"
        return "<KunnethReport %s cutoff=%d window=%d rows=%r %s>" % (
            self.name, self.n_cutoff, self.window, self.rows, verdict)


class TwistedBicomplex:
    """The grid of pairwise tensor products of two resolutions' terms.

    Block (i, j) is free on pairs of factor generator labels.  The grid
    carries the first factor's differential horizontally (acting through
    the first coefficient slot) and the second factor's vertically,
    signed by (-1)^i so that the two strictly anticommute.  The twisted
    product algebra acts on every block through the factor-moving lifts
    attached to the factor resolutions; the *plain* componentwise product
    algebra presents the blocks, keeping the stored differentials free of
    any twisting.
    """

    def __init__(self, pm, pn, t, vertical_sign=True):
        if pm.algebra is not t.a_spec:
            raise ProductError(
                "first factor must be a resolution over the twist's first "
                "algebra %r" % (t.a_spec.name,))
        if pn.algebra is not t.b_spec:
            raise ProductError(
                "second factor must be a resolution over the twist's second "
                "algebra %r" % (t.b_spec.name,))
        self.bimodule = pm.complex.terms[0].side == BIMODULE
        if (pn.complex.terms[0].side == BIMODULE) != self.bimodule:
            raise ProductError(
                "factor resolutions must both be two-sided or both one-sided")
        if self.bimodule:
            _require_lift(pm, t, "left", "first")
            _require_lift(pn, t, "right", "second")
        else:
            _require_lift(pm, t, "left", "first")
        self.pm = pm
        self.pn = pn
        self.twist = t
        self.field = t.field
        self.vertical_sign = vertical_sign
        self.plain = flip_twist(t.a_spec, t.b_spec).product(
            name="%s⊗%s" % (t.a_spec.name or t.a_spec, t.b_spec.name or t.b_spec))
        self.top, self.complete = self._degree_span()
        side = BIMODULE if self.bimodule else LEFT_MODULE
        self.terms = []
        for n in range(self.top + 1):
            labels = []
            degrees = {}
            for i in range(n + 1):
                j = n - i
                if i > pm.n_max or j > pn.n_max:
                    continue
                di = pm.complex.terms[i].internal_degree
                dj = pn.complex.terms[j].internal_degree
                for v in pm.complex.terms[i].labels:
                    for w in pn.complex.terms[j].labels:
                        lab = (i, j, v, w)
                        labels.append(lab)
                        degrees[lab] = di[v] + dj[w]
            self.terms.append(FreeModuleTerm(self.plain, labels, side, degrees))
        self._images = ({}, {})  # per slot: label -> partial image

    def _degree_span(self):
        top = self.pm.n_max + self.pn.n_max
        complete = (self.pm.complex.complete_above
                    and self.pn.complex.complete_above)
        if not self.pm.complex.complete_above:
            top = min(top, self.pm.n_max)
        if not self.pn.complex.complete_above:
            top = min(top, self.pn.n_max)
        return top, complete

    # -- the two partial differentials ----------------------------------

    def horizontal_image(self, label):
        """First factor's differential applied in the first slot."""
        return self._partial_image(label, 0)

    def vertical_image(self, label):
        """Second factor's differential in the second slot, signed (-1)^i."""
        return self._partial_image(label, 1)

    def _partial_image(self, label, slot):
        """The differential of factor ``slot`` (0: the first, 1: the second)
        on a grid label, each coefficient paired with the other factor's
        unit; memoized per slot."""
        memo = self._images[slot]
        if label in memo:
            return memo[label]
        i, j = label[:2]
        f = self.field
        step = label[slot]
        sgn = f.neg(f.one) if slot and self.vertical_sign and i % 2 else f.one
        out = {}
        if step:
            one = (self.twist.b_spec, self.twist.a_spec)[slot].one_monomial()
            res = (self.pm, self.pn)[slot]
            moved = list(label)
            moved[slot] -= 1
            for key, c in res.complex.differentials[step][
                    label[2 + slot]].terms.items():
                moved[2 + slot] = key[1]
                # (l, g) one-sided, (l, g, r) two-sided
                coeffs = [(m, one) if slot == 0 else (one, m)
                          for m in key[::2]]
                nk = (coeffs[0], tuple(moved)) + tuple(coeffs[1:])
                add_term(f, out, nk, sgn * c)
        elem = memo[label] = FreeElement(self.terms[i + j - 1], out)
        return elem

    def anticommute_report(self):
        """Check h(v(gen)) + v(h(gen)) = 0 on every interior block label
        (the content of the (-1)^i vertical sign)."""
        rep = GridReport("anticommute(%s)" % (self.plain.name,))
        for n in range(2, self.top + 1):
            for lab in self.terms[n].labels:
                i, j = lab[0], lab[1]
                if i < 1 or j < 1:
                    continue
                v, h = self.vertical_image(lab), self.horizontal_image(lab)
                hv = apply_label_images(v.term, v.terms, self.horizontal_image)
                vh = apply_label_images(h.term, h.terms, self.vertical_image)
                tgt = self.terms[n - 2]
                rep.record(not (FreeElement(tgt, hv) + FreeElement(tgt, vh)),
                           lambda: (n, lab))
        return rep

    # -- assembly -------------------------------------------------------

    def total(self, name=None):
        """The total complex, with the twisted action."""
        f = self.field
        diffs = [{}]
        for n in range(1, self.top + 1):
            dn = {}
            for lab in self.terms[n].labels:
                dn[lab] = self.horizontal_image(lab) + self.vertical_image(lab)
            diffs.append(dn)
        aug = {}
        for lab in self.terms[0].labels:
            _, _, v, w = lab
            # ε(v)⊗ε(w), keyed by a product monomial two-sided and by the
            # ground key one-sided
            out = aug[lab] = {}
            for am, ac in self.pm.complex.augmentation[v].items():
                for bm, bc in self.pn.complex.augmentation[w].items():
                    add_term(f, out, (am, bm) if self.bimodule else am,
                             ac * bc)
        kind = RESOLVES_ALGEBRA if self.bimodule else RESOLVES_GROUND
        if name is None:
            name = "total(%s ⊗ %s)" % (self.pm.complex.name,
                                       self.pn.complex.name)
        cplx = ChainComplexSpec(
            self.plain, self.terms, diffs, augmentation=aug, aug_kind=kind,
            complete_above=self.complete, name=name)
        return TotalComplex(self, cplx)


class TotalComplex:
    """A totalized product grid: the underlying chain complex (over the
    plain product presentation), whose labels (i, j, v, w) lead with their
    block, and the twisted algebra action routed through the factor
    lifts."""

    def __init__(self, bicomplex, cplx):
        self.bicomplex = bicomplex
        self.complex = cplx

    @property
    def product(self):
        """The twisted product algebra (acts through the lifts)."""
        return self.bicomplex.twist.product()

    @property
    def n_max(self):
        return len(self.complex.terms) - 1

    @property
    def bimodule(self):
        return self.bicomplex.bimodule

    # -- the twisted action ---------------------------------------------

    def act(self, l, key, r):
        """l·key·r on one basis key, for monomials l = (a, b) and r of the
        twisted product (None: no factor on that side), as a dict key ->
        scalar.

        On the left, b crosses the first-factor part through the degree-i
        left lift, the emerging second-factor monomials multiply the
        second coefficient from the left, and a multiplies the (possibly
        moved) first coefficient from the left.  On the right, a crosses
        the second-factor part through the degree-j right lift, lands on
        the first factor's right coefficient, and b multiplies the second
        factor's right coefficient."""
        bic = self.bicomplex
        if r is not None and not bic.bimodule:
            raise ProductError("one-sided totals carry only a left action")
        f = bic.field
        aspec = bic.twist.a_spec
        bspec = bic.twist.b_spec
        keys = {key: f.one}
        if l is not None:
            am, bm = l
            (al, bl), (i, j, v, w) = key[0], key[1]
            mkey = (al, v, key[2][0]) if bic.bimodule else (al, v)
            keys = {}
            for (mk2, b2), c2 in bic.pm.lifts[i].pair_rule(bm, mkey).items():
                for bl2, cb in bspec.mono_mul(b2, bl).items():
                    c3 = f.mul(c2, cb)
                    lab = (i, j, mk2[1], w)
                    for al3, ca in aspec.mono_mul(am, mk2[0]).items():
                        nk = ((al3, bl2), lab) + (
                            ((mk2[2], key[2][1]),) if bic.bimodule else ())
                        add_term(f, keys, nk, c3 * ca)
        if r is None:
            return keys
        am, bm = r
        out = {}
        for (lcoef, (i, j, v, w), (ar, br)), c in keys.items():
            bl = lcoef[1]
            moved = bic.pn.lifts[j].pair_rule((bl, w, br), am)
            for (a2, (bl2, w2, br2)), c2 in moved.items():
                c2 = f.mul(c, c2)
                for ar2, ca in aspec.mono_mul(ar, a2).items():
                    c3 = f.mul(c2, ca)
                    for br3, cb in bspec.mono_mul(br2, bm).items():
                        nk = ((lcoef[0], bl2), (i, j, v, w2), (ar2, br3))
                        add_term(f, out, nk, c3 * cb)
        return out

    def act_left(self, u, elem):
        """u·elem for a twisted-product element u: ``act`` extended over
        the monomials of u and the keys of elem."""
        return FreeElement(elem.term,
                           self._extend(u, elem.terms, self.act, left=True))

    def act_right(self, elem, u):
        """elem·u: ``act`` extended over the keys of elem and the
        monomials of u."""
        if not self.bimodule:
            raise ProductError("one-sided totals carry only a left action")
        return FreeElement(elem.term,
                           self._extend(u, elem.terms, self.act, left=False))

    def _extend(self, u, terms, act, left):
        """u·terms (left) or terms·u as a dict, for a basis-level action
        act(l, key, r) of the twisted product."""
        f = self.bicomplex.field
        out = {}
        for key, c in terms.items():
            for m, uc in u.terms.items():
                base = f.mul(uc, c)
                moved = act(m, key, None) if left else act(None, key, m)
                for k2, c2 in moved.items():
                    add_term(f, out, k2, base * c2)
        return out

    def action_commutes_report(self, degree_bound=3, samples=20, seed=0):
        """Sample (algebra element, chain element) pairs and check that the
        twisted action commutes with the differential and augmentation.
        Below stage 0 the twisted product acts on the resolved object --
        itself, or the ground field -- through that module's ``act``."""
        rep = GridReport("action(%s)" % (self.complex.name,))
        f = self.bicomplex.field
        cplx = self.complex
        rng = random.Random(seed)
        monos = basis_up_to(self.product, degree_bound)
        coeffs = [f.one, f.coerce(2), f.neg(f.one)]
        resolved = type(cplx.target)(self.product)

        def random_algebra_element():
            terms = {}
            for _ in range(rng.choice((1, 1, 2))):
                terms[rng.choice(monos)] = rng.choice(coeffs)
            return AlgebraElement(self.product, terms)

        def random_chain_element(term, keys):
            terms = {}
            for _ in range(rng.choice((1, 1, 2))):
                terms[rng.choice(keys)] = rng.choice(coeffs)
            return FreeElement(term, terms)

        for n in range(self.n_max + 1):
            term = cplx.terms[n]
            keys = term.basis(degree_bound)
            if not keys:
                continue
            # the map out of stage n and the action on its target
            if n:
                down = lambda e: cplx.apply_differential(n, e).terms
                act = self.act
            else:
                down = lambda e: image_of(f, e.terms, cplx.augmentation_image)
                act = resolved.act
            for trial in range(samples):
                u = random_algebra_element()
                e = random_chain_element(term, keys)
                below = down(e)
                lhs = down(self.act_left(u, e))
                rhs = self._extend(u, below, act, left=True)
                rep.record(lhs == rhs, lambda: (n, "left", trial))
                if self.bimodule:
                    lhs = down(self.act_right(e, u))
                    rhs = self._extend(u, below, act, left=False)
                    rep.record(lhs == rhs, lambda: (n, "right", trial))
        return rep

    def anticommute_report(self):
        return self.bicomplex.anticommute_report()


def bimodule_twisted_product(pm, pn, t, vertical_sign=True, name=None):
    """Total complex of two two-sided factor resolutions over a twist.

    Both factors must resolve their algebra as a bimodule and carry
    verified lifts for ``t`` on the appropriate sides (left for the first
    factor, right for the second); otherwise :class:`MissingLiftError`.
    The result resolves the twisted product as a bimodule over itself."""
    if pm.resolved != RESOLVES_ALGEBRA or pn.resolved != RESOLVES_ALGEBRA:
        raise ProductError(
            "two-sided products need factors resolving their algebra as a "
            "bimodule; got %r and %r" % (pm.resolved, pn.resolved))
    bic = TwistedBicomplex(pm, pn, t, vertical_sign=vertical_sign)
    if not bic.bimodule:
        raise ProductError("two-sided products need two-sided factor terms")
    return bic.total(name=name)


def one_sided_twisted_product(pm, pn):
    """Total complex of two one-sided factor resolutions of the ground
    field, over the twist carried by the first factor's lifts.

    Only the first factor needs lifts (left side); the second factor's
    differential never meets the twist.  The result resolves the ground
    field over the twisted product."""
    if pm.twist is None:
        raise MissingLiftError(
            "the first factor carries no twist lifts; attach them before "
            "taking a one-sided product")
    t = pm.twist
    if pm.resolved != RESOLVES_GROUND or pn.resolved != RESOLVES_GROUND:
        raise ProductError(
            "one-sided products need factors resolving the ground field; "
            "got %r and %r" % (pm.resolved, pn.resolved))
    bic = TwistedBicomplex(pm, pn, t)
    if bic.bimodule:
        raise ProductError("one-sided products need one-sided factor terms")
    return bic.total()


def koszul_pair_product(t, vertical_sign=True):
    """Two wedge resolutions totalized over a flip or derivation twist of
    polynomial algebras (the second factor must be one-variable so the
    closed-form left lift applies)."""
    pm = lift_twist(poly_koszul(t.a_spec), t, side="left")
    pn = lift_twist(poly_koszul(t.b_spec), t, side="right")
    return bimodule_twisted_product(pm, pn, t, vertical_sign=vertical_sign)


def triangular_skew_product(p, periodic_degree=4):
    """The worked product for a cyclic group of prime order acting on a
    plane in characteristic p by the unipotent substitution: the
    two-periodic resolution for the group algebra (left lifts through the
    bar embedding) against the wedge resolution for the plane (right
    lifts through the inverse group action)."""
    t = triangular_action_twist(p)
    pm = lift_twist(cyclic_periodic(p, periodic_degree, spec=t.a_spec),
                    t, side="left")
    pn = lift_twist(poly_koszul(t.b_spec), t, side="right")
    return bimodule_twisted_product(pm, pn, t)


# ---------------------------------------------------------------------------
# changes of presentation


def present_over_twisted_algebra(tc):
    """Re-express a total complex over the twisted product algebra.

    The twisted free-module presentation uses the same generator labels;
    its coordinates are found by expanding each twisted basis key
    (coefficient times generator times coefficient, multiplied through
    the lifts) in the plain presentation and solving the resulting square
    system degree by degree, up to the largest internal degree of a
    generator.  The returned complex has the original differentials
    rewritten in twisted coordinates, so its composition check genuinely
    exercises the twisted multiplication."""
    bic = tc.bicomplex
    C = tc.product
    f = bic.field
    degree_bound = max((term.internal_degree[lab]
                        for term in tc.complex.terms for lab in term.labels),
                       default=0)
    terms_c = [FreeModuleTerm(C, list(term.labels), term.side,
                              dict(term.internal_degree))
               for term in tc.complex.terms]
    solvers = {}

    def build_solver(n):
        term_c = terms_c[n]
        term_p = tc.complex.terms[n]
        cols = term_c.basis(degree_bound)
        rows = {key: r for r, key in enumerate(term_p.basis(degree_bound))}
        entries = []
        for cx, ckey in enumerate(cols):
            gen, = term_p.generator(ckey[1]).terms
            image = tc.act(ckey[0], gen, ckey[2] if bic.bimodule else None)
            for key, val in image.items():
                r = rows.get(key)
                if r is None:
                    raise PresentationError(
                        "twisted coordinates need keys beyond total degree "
                        "%d at stage %d" % (degree_bound, n))
                entries.append((r, cx, val))
        matrix = SparseMatrix(len(rows), len(cols), entries, f)
        return matrix, rows, cols

    def coords(n, elem):
        if not elem.terms:
            return {}
        if n not in solvers:
            solvers[n] = build_solver(n)
        matrix, rows, cols = solvers[n]
        rhs = {}
        for key, val in elem.terms.items():
            r = rows.get(key)
            if r is None:
                raise PresentationError(
                    "twisted coordinates need keys beyond total degree "
                    "%d at stage %d" % (degree_bound, n))
            rhs[r] = val
        sol = solve_dense(matrix, rhs)
        if sol is None:
            raise PresentationError(
                "no twisted coordinates for an element at stage %d "
                "(degree bound %d)" % (n, degree_bound))
        return {cols[cx]: val for cx, val in sol.items()}

    diffs = [{}]
    for n in range(1, len(terms_c)):
        dn = {}
        for lab in terms_c[n].labels:
            img = tc.complex.differentials[n][lab]
            dn[lab] = FreeElement(terms_c[n - 1], coords(n - 1, img))
        diffs.append(dn)
    name = "%s / twisted coordinates" % (tc.complex.name,)
    return ChainComplexSpec(
        C, terms_c, diffs, augmentation=dict(tc.complex.augmentation),
        aug_kind=tc.complex.aug_kind,
        complete_above=tc.complex.complete_above, name=name)


def transport_complex(cplx, target, mono_map, label_map):
    """Rewrite a complex over an isomorphic algebra: every monomial goes
    through ``mono_map``, every generator label through ``label_map``
    (a callable).  Internal degrees ride along unchanged."""
    f = target.field
    terms = []
    maps = []
    for term in cplx.terms:
        labels = []
        degrees = {}
        lm = {}
        for lab in term.labels:
            nl = label_map(lab)
            labels.append(nl)
            degrees[nl] = term.internal_degree[lab]
            lm[lab] = nl
        maps.append(lm)
        terms.append(FreeModuleTerm(target, labels, term.side, degrees))
    bimodule = cplx.terms[0].side == BIMODULE
    diffs = [{}]
    for n in range(1, len(cplx.terms)):
        dn = {}
        for lab, img in cplx.differentials[n].items():
            out = {}
            for key, c in img.terms.items():
                if bimodule:
                    nk = (mono_map(key[0]), maps[n - 1][key[1]],
                          mono_map(key[2]))
                else:
                    nk = (mono_map(key[0]), maps[n - 1][key[1]])
                add_term(f, out, nk, c)
            dn[maps[n][lab]] = FreeElement(terms[n - 1], out)
        diffs.append(dn)
    aug = None
    if cplx.augmentation is not None:
        # ground keys are not monomials, so only algebra keys are renamed
        rename = (mono_map if cplx.aug_kind == RESOLVES_ALGEBRA
                  else lambda key: key)
        aug = {}
        for lab, img in cplx.augmentation.items():
            out = aug[maps[0][lab]] = {}
            for key, c in img.items():
                add_term(f, out, rename(key), c)
    return ChainComplexSpec(
        target, terms, diffs, augmentation=aug, aug_kind=cplx.aug_kind,
        complete_above=cplx.complete_above,
        name="%s / transported" % (cplx.name,))


def complexes_match(c1, c2):
    """Symbolic equality of two complexes: same labels per stage (as
    sets), same internal degrees, identical differential tables and
    identical augmentations.  Coefficient monomials are compared raw, so
    the two algebras need matching monomial encodings but not object
    identity."""
    rep = CheckReport("complexes_match(%s == %s)" % (c1.name, c2.name),
                      " comparisons")
    rep.record(len(c1.terms) == len(c2.terms),
               lambda: ("stages", len(c1.terms), len(c2.terms)))
    if not rep.passed:
        return rep
    for n, (t1, t2) in enumerate(zip(c1.terms, c2.terms)):
        same = sorted(t1.labels) == sorted(t2.labels)
        rep.record(same, lambda: ("labels", n, t1.labels, t2.labels))
        if not same:
            continue
        for lab in t1.labels:
            g1, g2 = t1.internal_degree[lab], t2.internal_degree[lab]
            rep.record(g1 == g2, lambda: ("degree", n, lab, g1, g2))
    if not rep.passed:
        return rep
    for n in range(1, len(c1.terms)):
        d1, d2 = c1.differentials[n], c2.differentials[n]
        for lab in c1.terms[n].labels:
            i1 = d1[lab].terms
            i2 = d2[lab].terms
            rep.record(i1 == i2, lambda: ("differential", n, lab, i1, i2))
    a1, a2 = c1.augmentation, c2.augmentation
    same = (a1 is None) == (a2 is None) and c1.aug_kind == c2.aug_kind
    rep.record(same, lambda: ("augmentation-kind", c1.aug_kind, c2.aug_kind))
    if same and a1 is not None:
        for lab in c1.terms[0].labels:
            v1, v2 = a1[lab], a2[lab]
            rep.record(v1 == v2, lambda: ("augmentation", lab, v1, v2))
    return rep


def kunneth_degree0_check(tc, tr):
    """Check that the total complex has the right degree-0 homology.

    On ``tr``, a truncation of ``tc.complex``, compare, cumulatively for
    every internal degree d inside the faithful window, the dimension of
    stage 0 modulo boundaries against the resolved object: the product
    algebra's monomials of degree <= d for two-sided totals, the
    one-dimensional ground field for one-sided ones.  Cumulative counts
    keep the comparison meaningful for merely filtered differentials."""
    window = tr.window
    rep = KunnethReport(tc.complex.name, tr.cutoff, window)
    term0 = tc.complex.terms[0]
    degrees = sorted({term0.internal_degree[lab] for lab in term0.labels})
    base = degrees[0] if degrees else 0
    for d in range(base, window + 1):
        free = sum(1 for e in tr.key_degrees[0] if e <= d)
        bdim = tr.boundary_dim_in_window(0, window=d)
        rep.rows[d] = (free - bdim, len(tc.complex.target.basis(d)))
    return rep


# ---------------------------------------------------------------------------
# one-variable extensions


class OreFreeForm:
    """Change of presentation of a two-column total complex onto free
    modules over a skew one-variable extension.

    Column-0 generators keep their wedge label; column-1 generators pick
    up the new variable as a final wedge slot.  ``to_total`` realizes a
    free generator over the extension as the twisted action on the
    matching column generator; ``from_total`` inverts it by peeling
    powers of the new variable one at a time -- moving a power across the
    coefficient costs a derivation correction, which is the defining
    relation of the extension."""

    def __init__(self, tc, maps, skew):
        self.total = tc
        self.maps = maps
        self.skew = skew
        t = tc.bicomplex.twist
        self._x_index = len(t.a_spec.gens)
        self._f = skew.field
        self._to_block = {}
        self._memo = {}
        terms = []
        for n in range(tc.n_max + 1):
            rows = []
            for lab in tc.complex.terms[n].labels:
                i, j, v, w = lab
                wl = v if j == 0 else v + (self._x_index,)
                rows.append((wl, lab))
                self._to_block[wl] = lab
            rows.sort(key=lambda pair: pair[0])
            labels = [wl for wl, _ in rows]
            terms.append(FreeModuleTerm(skew, labels, LEFT_MODULE,
                                        {wl: n for wl in labels}))
        self.terms = terms
        diffs = [{}]
        for n in range(1, tc.n_max + 1):
            dn = {}
            for wl in terms[n].labels:
                gen = tc.complex.terms[n].generator(self._to_block[wl])
                img = tc.complex.apply_differential(n, gen)
                dn[wl] = self.from_total(n - 1, img)
            diffs.append(dn)
        cplx = ChainComplexSpec(
            skew, terms, diffs, augmentation={(): {GROUND_KEY: self._f.one}},
            aug_kind=RESOLVES_GROUND,
            complete_above=tc.complex.complete_above,
            name="%s(%s)" % (ONE_SIDED_KOSZUL, skew.name or skew))
        self.rebundled = ResolutionBundle(cplx, ONE_SIDED_KOSZUL)

    # -- the two directions ----------------------------------------------

    def to_total(self, n, elem):
        """Free element over the extension -> total-complex element."""
        tc = self.total
        f = self._f
        term = tc.complex.terms[n]
        out = {}
        for (u, wl), c in elem.terms.items():
            gen, = term.generator(self._to_block[wl]).terms
            for key, c2 in tc.act((u[:-1], (u[-1],)), gen, None).items():
                add_term(f, out, key, c * c2)
        return FreeElement(term, out)

    def from_total(self, n, elem):
        """Total-complex element -> free element over the extension."""
        f = self._f
        out = {}
        for key, c in elem.terms.items():
            for k2, c2 in self._from_key(n, key).items():
                add_term(f, out, k2, c * c2)
        return FreeElement(self.terms[n], out)

    def _from_key(self, n, key):
        memo = self._memo.get((n, key))
        if memo is not None:
            return memo
        f = self._f
        (r, xm), lab = key
        m = xm[0]
        i, j, v, w = lab
        if m == 0:
            wl = v if j == 0 else v + (self._x_index,)
            result = {(r + (0,), wl): f.one}
        else:
            lower = FreeElement(self.terms[n],
                                self._from_key(n, ((r, (m - 1,)), lab)))
            x_mono, = self.skew.gen(self.skew.gens[-1]).terms
            result = lower.act(x_mono, None).terms
            pm = self.total.bicomplex.pm
            src = FreeElement(pm.complex.terms[i], {(r, v): f.one})
            for (r2, v2), c2 in self.maps.delta(i, src).terms.items():
                ckey = ((r2, (m - 1,)), (i, j, v2, w))
                for k3, c3 in self._from_key(n, ckey).items():
                    add_term(f, result, k3, -c2 * c3)
        self._memo[(n, key)] = result
        return result

    def roundtrip_report(self, degree_bound=2):
        """Both composites are the identity on basis keys up to the given
        coefficient degree."""
        rep = GridReport("free-form roundtrip(%s)" % (self.skew.name,))
        f = self._f
        for n in range(len(self.terms)):
            for key in self.terms[n].basis(degree_bound):
                e = FreeElement(self.terms[n], {key: f.one})
                back = self.from_total(n, self.to_total(n, e))
                rep.record(back.terms == e.terms,
                           lambda: (n, "over-extension", key))
            for key in self.total.complex.terms[n].basis(degree_bound):
                e = FreeElement(self.total.complex.terms[n], {key: f.one})
                back = self.to_total(n, self.from_total(n, e))
                rep.record(back.terms == e.terms,
                           lambda: (n, "over-total", key))
        return rep


def _skew_extension_spec(t, x_name):
    """The one-variable extension algebra matching an ore-type twist: the
    first factor's generators plus the new variable, commutators given by
    the twist's derivation.  All-zero derivations yield a plain
    polynomial algebra so the construction can iterate."""
    a = t.a_spec
    if x_name in a.gens:
        raise ProductError(
            "extension variable %r collides with a generator of %r"
            % (x_name, a.name))
    gens = a.gens + (x_name,)
    table = {}
    xi = len(a.gens)
    for idx, img in sorted(getattr(t, "delta_images", {}).items()):
        entries = {mono + (0,): c for mono, c in img.terms.items()}
        if entries:
            table[(xi, idx)] = entries
    name = "k<%s>" % ",".join(gens)
    if not table:
        return polynomial_algebra(gens, field=a.field,
                                  name="k[%s]" % ",".join(gens))
    return iterated_ore_algebra(gens, table, field=a.field, name=name)


def ore_module_resolution(bundle, delta, x_name="x"):
    """Resolve the ground field over a skew one-variable extension of the
    base ring by totalizing against the two-term resolution over the new
    polynomial variable.

    ``bundle`` is a one-sided wedge resolution of the ground field over
    the base ring; ``delta`` is either a flip/derivation twist whose
    first factor is that ring, or a mapping from generator names to
    derivation images (elements or strings).  The derivation is promoted
    to the resolution's terms and checked to be a chain map there; a
    constant term makes the ground field a non-module and raises the
    augmentation error from that construction.

    Returns the total complex with an ``ore_form`` attribute: the change
    of presentation onto free modules over the extension, whose
    re-bundled complex is again a one-sided wedge resolution (so the
    construction can be iterated one variable at a time)."""
    alg = bundle.algebra
    if bundle.complex.terms[0].side != LEFT_MODULE:
        raise ProductError("the base resolution must be one-sided")
    if bundle.family != ONE_SIDED_KOSZUL:
        raise ProductError(
            "the change of presentation needs wedge labels; got family %r"
            % (bundle.family,))
    if isinstance(delta, TwistMap):
        t = delta
        if t.a_spec is not alg:
            raise ProductError(
                "the twist's first factor must be the resolution's algebra")
        if t.kind not in (ORE, FLIP):
            raise ProductError(
                "one-variable extensions need a flip or derivation twist; "
                "got %r" % (t.kind,))
        if len(t.b_spec.gens) != 1:
            raise ProductError("the adjoined factor must be one-variable")
        x_name = t.b_spec.gens[0]
    else:
        if x_name in alg.gens:
            raise ProductError(
                "extension variable %r collides with a generator of %r"
                % (x_name, alg.name))
        bx = polynomial_algebra((x_name,), field=alg.field,
                                name="k[%s]" % x_name)
        t = ore_twist(alg, bx, dict(delta or {}))
    images = {alg.gens[idx]: img
              for idx, img in sorted(getattr(t, "delta_images", {}).items())}
    maps = sigma_delta_chain_maps(bundle, images)
    if bundle.twist is t and bundle.lift_side == "left" and bundle.lifts:
        pm = bundle
    else:
        pm = lift_twist(bundle, t, side="left")
    pn = one_sided_koszul_kx(t.b_spec)
    tc = one_sided_twisted_product(pm, pn)
    tc.ore_form = OreFreeForm(tc, maps, _skew_extension_spec(t, x_name))
    return tc


def iterated_ore_tower(gen_names, brackets):
    """Iterate the one-variable construction over an ordered generator
    list.  ``brackets`` maps (later name, earlier name) pairs to the
    derivation image of the earlier generator (a string or element over
    the algebra built so far); omitted pairs commute.  Every proper
    prefix of the generator list must stay commutative -- brackets may
    only feed later generators -- or the iteration stops with an error.

    Returns (totals, bundle): one total complex per adjoined variable,
    and the final wedge resolution of the ground field over the full
    extension."""
    if not gen_names:
        raise ProductError("need at least one generator name")
    spec0 = polynomial_algebra(gen_names[:1], name="k[%s]" % gen_names[0])
    bundle = one_sided_koszul_kx(spec0)
    totals = []
    for pos in range(1, len(gen_names)):
        alg = bundle.algebra
        if alg.variant != POLYNOMIAL:
            raise ProductError(
                "iteration needs a commutative stage; brackets among %r "
                "are not all zero" % (alg.gens,))
        images = {}
        for g in alg.gens:
            val = brackets.get((gen_names[pos], g))
            if val is not None:
                images[g] = val
        tc = ore_module_resolution(bundle, images, x_name=gen_names[pos])
        totals.append(tc)
        bundle = tc.ore_form.rebundled
    return totals, bundle
