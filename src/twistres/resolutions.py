"""Free resolution builders with attached factor-moving lifts.

Families
--------
* ``bar`` / ``reduced bar`` of any algebra, as a complex of bimodules,
  truncated in homological degree and in the total degree of the middle
  factors;
* ``poly-koszul``: the exterior-generator resolution of a commutative
  polynomial algebra (bimodule, or one-sided resolving the ground field);
* ``ore-koszul``: the same shape over a filtered PBW algebra, with the
  extra lower-order terms in the differential coming from the commutator
  data;
* ``cyclic-periodic``: the two-periodic bimodule resolution of a cyclic
  group algebra, alternating between the difference element and the norm
  element.

Each builder returns a :class:`ResolutionBundle`: a ChainComplexSpec plus
bookkeeping (family tag, what is resolved, and - after ``lift_twist`` -
per-degree CompatMaps that move the other tensor factor across the
resolution).  Every lift is a rule on keys that reads the twist only
through tau (``TwistMap.monomial_rule``): the bar lifts iterate tau over
the tensor factors, one rule for both sides (left lifts walk left to
right, right lifts right to left); the left wedge lift is a closed form
in delta, the x^0 part of tau(x (x) a); the right wedge lift moves the
factor across each coefficient and wedge slot through tau, for every
twist kind it takes; and the periodic lift reads the group action off
tau, by the group degree each key carries.  ``check_lift_chain_map`` /
``check_lift_compat`` verify that attached lifts commute with the
differentials and satisfy the module compatibility equations;
``crosscheck_koszul_lift`` replays the closed-form wedge lift inside the
reduced bar complex (symmetrize, move the factor across, project back)
and compares.
"""

from itertools import combinations, permutations

from .kernel import CheckReport, add_term
from .algebra import (
    POLYNOMIAL, ITERATED_ORE, CYCLIC_GROUP,
    basis_up_to, cyclic_group_algebra,
)
from .complex import (
    BIMODULE, GROUND_KEY, LEFT_MODULE, RESOLVES_ALGEBRA, RESOLVES_GROUND,
    ChainComplexSpec, CutoffError, FreeElement, FreeModuleTerm,
)
from .twist import (
    FLIP, ORE, SKEW_GROUP,
    LEFT_BIMODULE, RIGHT_BIMODULE, ONE_SIDED,
    CompatMap, check_bimodule_compat, _derivation,
)

__all__ = [
    "BAR", "REDUCED_BAR", "POLY_KOSZUL", "ORE_KOSZUL", "ONE_SIDED_KOSZUL",
    "CYCLIC_PERIODIC", "RESOLVES_ALGEBRA", "RESOLVES_GROUND",
    "ResolutionError", "RestrictionError", "AugmentationError",
    "ResolutionBundle", "sort_wedge",
    "bar", "poly_koszul", "ore_koszul", "one_sided_koszul_kx",
    "cyclic_periodic",
    "lift_twist", "check_lift_chain_map", "check_lift_compat",
    "wedge_to_bar", "crosscheck_koszul_lift",
]


BAR = "bar"
REDUCED_BAR = "reduced-bar"
POLY_KOSZUL = "poly-koszul"
ORE_KOSZUL = "ore-koszul"
ONE_SIDED_KOSZUL = "one-sided-koszul"
CYCLIC_PERIODIC = "cyclic-periodic"


class ResolutionError(Exception):
    """Problems building a resolution or attaching a lift."""


class RestrictionError(ResolutionError):
    """A lifted image leaves the embedded subcomplex it must restrict to."""


class AugmentationError(ResolutionError):
    """A derivation does not descend along the augmentation."""


def sort_wedge(indices):
    """Sort a tuple of generator indices, tracking the permutation sign.

    Returns (sorted tuple, sign), or None when an index repeats (the
    alternating product collapses)."""
    idx = list(indices)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for i in range(1, len(idx)):
        if idx[i - 1] == idx[i]:
            return None
    return tuple(idx), sign


class ResolutionBundle:
    """A built resolution: complex + family tag + what it resolves.

    ``lifts`` (when attached) maps homological degree -> CompatMap moving
    the companion factor across that term; ``lift_side`` records whether the
    moved factor enters from the left or the right."""

    def __init__(self, complex, family, twist=None, lift_side=None,
                 lifts=None):
        self.complex = complex
        self.family = family
        self.twist = twist
        self.lift_side = lift_side
        self.lifts = lifts or {}

    @property
    def resolved(self):
        """RESOLVES_ALGEBRA or RESOLVES_GROUND, read off the complex."""
        return self.complex.aug_kind

    @property
    def algebra(self):
        return self.complex.algebra

    @property
    def n_max(self):
        return self.complex.n_max

    def with_lifts(self, twist, side, lifts):
        return ResolutionBundle(self.complex, self.family, twist, side,
                                lifts)

    def __repr__(self):
        tail = ", lifted-%s" % self.lift_side if self.lifts else ""
        return "ResolutionBundle(%s, %s, n_max=%d%s)" % (
            self.family, self.complex.name or self.algebra, self.n_max, tail)


# ---------------------------------------------------------------------------
# bar and reduced bar


def _bar_labels(spec, n, cutoff, reduced):
    if n == 0:
        return [()]
    unit = spec.one_monomial()
    pool = [m for m in basis_up_to(spec, cutoff)
            if not (reduced and m == unit)]
    out = []

    def rec(prefix, used):
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        for m in pool:
            d = spec.monomial_degree(m)
            if used + d <= cutoff:
                rec(prefix + [m], used + d)

    rec([], 0)
    return out


def bar(spec, n_max, middle_cutoff=None, reduced=False):
    """The (reduced) two-sided simplicial resolution of an algebra by free
    bimodules, truncated at homological degree ``n_max``.

    Labels in degree n are n-tuples of monomials (nonunit monomials in the
    reduced version) whose total degree is at most ``middle_cutoff``
    (default: ``n_max``).  The differential alternately absorbs the outer
    factors into the coefficients and merges adjacent factors; the reduced
    version drops merges that land on the unit."""
    if middle_cutoff is None:
        middle_cutoff = n_max
    f = spec.field
    unit = spec.one_monomial()
    terms = []
    for n in range(n_max + 1):
        labels = _bar_labels(spec, n, middle_cutoff, reduced)
        deg = {lab: sum(spec.monomial_degree(m) for m in lab)
               for lab in labels}
        terms.append(FreeModuleTerm(spec, labels, BIMODULE, deg))
    diffs = [{}]
    for n in range(1, n_max + 1):
        dn = {}
        tgt = terms[n - 1]
        for mids in terms[n].labels:
            img = {}
            add_term(f, img, (mids[0], mids[1:], unit), f.one)
            sign = f.one
            for i in range(1, n):
                sign = f.neg(sign)
                for m, c in spec.mono_mul(mids[i - 1], mids[i]).items():
                    if reduced and m == unit:
                        continue
                    newmids = mids[:i - 1] + (m,) + mids[i + 1:]
                    if not tgt.has_label(newmids):
                        raise CutoffError(
                            "middle-degree cutoff %d cannot hold %r"
                            % (middle_cutoff, newmids))
                    add_term(f, img, (unit, newmids, unit), sign * c)
            sign = f.neg(sign)
            add_term(f, img, (unit, mids[:-1], mids[-1]), sign)
            dn[mids] = FreeElement(tgt, img)
        diffs.append(dn)
    aug = {(): {unit: f.one}}
    name = "%s(%s)" % (REDUCED_BAR if reduced else BAR, spec.name or spec)
    cplx = ChainComplexSpec(spec, terms, diffs, augmentation=aug,
                            aug_kind=RESOLVES_ALGEBRA, complete_above=False,
                            name=name)
    return ResolutionBundle(cplx, REDUCED_BAR if reduced else BAR)


# ---------------------------------------------------------------------------
# wedge-type resolutions


def _wedge_terms(spec, side):
    t = len(spec.gens)
    terms = []
    for n in range(t + 1):
        labels = list(combinations(range(t), n))
        deg = {lab: n for lab in labels}
        terms.append(FreeModuleTerm(spec, labels, side, deg))
    return terms


def _gen_mono(spec, i):
    return tuple(1 if j == i else 0 for j in range(len(spec.gens)))


def _linear_part(spec, terms_dict):
    """[(generator index, coefficient)] for the degree-1 monomials."""
    out = []
    for mono, c in terms_dict.items():
        if sum(mono) == 1:
            out.append((mono.index(1), spec.field.coerce(c)))
    return out


def _wedge_differentials(spec, terms, side, delta=None):
    f = spec.field
    unit = spec.one_monomial()
    # dbars[j]: slot i -> the linear part of delta_j(x_i) = [x_j, x_i], i < j
    dbars = {}
    for (j, i), entry in (delta or {}).items():
        dbars.setdefault(j, {})[i] = _linear_part(spec, entry)
    diffs = [{}]
    for n in range(1, len(terms)):
        dn = {}
        tgt = terms[n - 1]
        for w in terms[n].labels:
            img = {}
            for pos in range(n):
                rest = w[:pos] + w[pos + 1:]
                sign = f.one if pos % 2 == 0 else f.neg(f.one)
                gmono = _gen_mono(spec, w[pos])
                if side == BIMODULE:
                    add_term(f, img, (gmono, rest, unit), sign)
                    add_term(f, img, (unit, rest, gmono), f.neg(sign))
                else:
                    add_term(f, img, (gmono, rest), sign)
            # the bracket term: for each later slot p_j, the slot
            # derivative of w without it under delta_w[p_j], which reaches
            # only the earlier slots (w is increasing)
            for pj in range(1, n):
                sign = f.neg(f.one) if pj % 2 == 0 else f.one
                for w2, c in _wedge_derivative(f, dbars.get(w[pj], {}),
                                               w[:pj] + w[pj + 1:]):
                    key = (unit, w2, unit) if side == BIMODULE else (unit, w2)
                    add_term(f, img, key, sign * c)
            dn[w] = FreeElement(tgt, img)
        diffs.append(dn)
    return diffs


def poly_koszul(spec, bimodule=True):
    """The exterior-generator resolution of a commutative polynomial
    algebra: degree n is free on the n-element subsets of the generators,
    and the differential removes one generator at a time with alternating
    signs, multiplying it onto the coefficient (on both sides in the
    bimodule version, with opposite signs)."""
    if spec.variant != POLYNOMIAL:
        raise ResolutionError(
            "exterior-generator resolutions of this plain shape need a "
            "commutative polynomial algebra; got %r" % (spec.variant,))
    return _wedge_bundle(spec, bimodule, POLY_KOSZUL)


def ore_koszul(spec, bimodule=True):
    """The wedge-shaped bimodule resolution of a filtered PBW algebra.

    Same terms as the polynomial case; the differential gains, for every
    ordered pair of slots, a term that replaces the earlier generator by
    the linear part of the two generators' commutator and omits the later
    slot (with the sign of the omitted position).  With all commutators
    central or zero this is exactly the polynomial differential.

    ``bimodule=False`` builds the one-sided version resolving the ground
    field; that requires every commutator to have zero constant term
    (otherwise the ground field is not a module at all, and the wedge
    differential would not square to zero)."""
    if spec.variant not in (POLYNOMIAL, ITERATED_ORE):
        raise ResolutionError(
            "PBW wedge resolutions need a polynomial or iterated-Ore "
            "algebra; got %r" % (spec.variant,))
    delta = getattr(spec, "delta", None) or {}
    unit = spec.one_monomial()
    if not bimodule:
        for pair, table in delta.items():
            c = table.get(unit)
            if c is not None and not spec.field.is_zero(spec.field.coerce(c)):
                raise ResolutionError(
                    "commutator of generators %r has a constant term; the "
                    "ground field carries no module structure" % (pair,))
    return _wedge_bundle(spec, bimodule, ORE_KOSZUL, delta)


def _wedge_bundle(spec, bimodule, family, delta=None):
    """The wedge resolution of spec, bimodule or one-sided (then resolving
    the ground field, under the one-sided family tag)."""
    side = BIMODULE if bimodule else LEFT_MODULE
    terms = _wedge_terms(spec, side)
    diffs = _wedge_differentials(spec, terms, side, delta=delta)
    if bimodule:
        key, kind = spec.one_monomial(), RESOLVES_ALGEBRA
    else:
        key, kind, family = GROUND_KEY, RESOLVES_GROUND, ONE_SIDED_KOSZUL
    name = "%s(%s)" % (family, spec.name or spec)
    cplx = ChainComplexSpec(spec, terms, diffs,
                            augmentation={(): {key: spec.field.one}},
                            aug_kind=kind, complete_above=True, name=name)
    return ResolutionBundle(cplx, family)


def one_sided_koszul_kx(spec):
    """The length-one resolution of the ground field over k[x]:
    k[x] <- k[x], multiplication by x."""
    if spec.variant != POLYNOMIAL or len(spec.gens) != 1:
        raise ResolutionError("this convenience wants a one-variable "
                              "polynomial algebra")
    return poly_koszul(spec, bimodule=False)


# ---------------------------------------------------------------------------
# the two-periodic resolution of a cyclic group algebra


def cyclic_periodic(p, n_max, spec=None):
    """The two-periodic free bimodule resolution of k[Z/p]: one generator
    per degree, with the differential alternating between the difference
    element (g x 1 - 1 x g, odd degrees) and the norm element
    (sum of g^(p-1-i) x g^i, even degrees)."""
    if spec is None:
        from .kernel import PrimeField
        spec = cyclic_group_algebra(p, PrimeField(p))
    if spec.variant != CYCLIC_GROUP or spec.order != p:
        raise ResolutionError("need a cyclic group algebra of order %d" % p)
    f = spec.field
    g = spec.gen(spec.gens[0])
    terms = [FreeModuleTerm(spec, ["e%d" % n], BIMODULE, {"e%d" % n: 0})
             for n in range(n_max + 1)]
    diffs = [{}]
    for n in range(1, n_max + 1):
        gen = terms[n - 1].generator("e%d" % (n - 1))
        if n % 2 == 1:
            img = gen.left_mul(g) - gen.right_mul(g)
        else:
            img = terms[n - 1].zero()
            left = spec.element({(p - 1) % p: f.one})
            right = spec.one()
            for _ in range(p):
                img = img + gen.left_mul(left).right_mul(right)
                left = left * spec.element({(p - 1) % p: f.one})
                right = right * g
        diffs.append({"e%d" % n: img})
    aug = {"e0": {spec.one_monomial(): f.one}}
    name = "%s(p=%d)" % (CYCLIC_PERIODIC, p)
    cplx = ChainComplexSpec(spec, terms, diffs, augmentation=aug,
                            aug_kind=RESOLVES_ALGEBRA, complete_above=False,
                            name=name)
    return ResolutionBundle(cplx, CYCLIC_PERIODIC)


# ---------------------------------------------------------------------------
# lifts: moving the companion factor across a resolution


def _bar_rule(t, term, reduced, side):
    """Move a B-monomial (left lift) or an A-monomial (right lift) across
    every tensor factor of a bar key, left to right or right to left.  A
    crossing tau(b (x) a) = a' (x) b' keeps a' on the left and b' on the
    right, so a left walk leaves a' behind and a right walk b'.  In the
    reduced bar, crossings that turn a middle factor into the unit are
    dropped (the quotient)."""
    f = t.field
    left = side == "left"
    unit = (t.a_spec if left else t.b_spec).one_monomial()
    cross = t.monomial_rule

    def rule(x, y, lookup):
        mover, (l, mids, r) = (x, y) if left else (y, x)
        factors = (l,) + tuple(mids) + (r,)
        state = {((), mover): f.one}
        for fac in (factors if left else reversed(factors)):
            new = {}
            for (built, cur), c in state.items():
                for (am, bm), cc in (cross(cur, fac) if left
                                      else cross(fac, cur)).items():
                    kept, moved = (am, bm) if left else (bm, am)
                    add_term(f, new, (built + (kept,), moved), c * cc)
            state = new
        out = {}
        for (built, fin), c in state.items():
            facs = built if left else built[::-1]
            mids2 = facs[1:-1]
            if reduced and unit in mids2:
                continue
            if not term.has_label(mids2):
                raise CutoffError(
                    "lift image needs the missing label %r" % (mids2,))
            key2 = (facs[0], mids2, facs[-1])
            add_term(f, out, (key2, fin) if left else (fin, key2), c)
        return out

    return rule


def _delta_data(t, alg):
    """The linear part of the derivation on each generator, read off tau
    (zero for a flip): slot -> [(slot', scalar)].

    Raises RestrictionError when a derivation image sticks out of
    constants-plus-linear (the lifted image would then leave the wedge
    subcomplex inside the bar complex)."""
    dbar = {}
    for idx in range(len(alg.gens)):
        img = _derivation(t, _gen_mono(alg, idx))
        if any(alg.monomial_degree(mono) > 1 for mono in img):
            raise RestrictionError(
                "derivation image %r of generator %d leaves "
                "constants-plus-linear; the wedge lift does not restrict"
                % (alg.element(img), idx))
        if img:
            dbar[idx] = _linear_part(alg, img)
    return dbar


def _wedge_derivative(f, dbar, w):
    """Each slot of the wedge w replaced in turn by the linear part of its
    derivative (dbar: slot -> [(slot', scalar)]), sorted back into a wedge
    with the permutation sign: a list of (wedge, scalar), slot by slot."""
    out = []
    for pos in range(len(w)):
        for k, c in dbar.get(w[pos], ()):
            sw = sort_wedge(w[:pos] + (k,) + w[pos + 1:])
            if sw is not None:
                out.append((sw[0], c if sw[1] > 0 else f.neg(c)))
    return out


def _koszul_left_rule(t, alg, bimodule):
    """Closed-form lift of an Ore-type twist over a wedge resolution:
    the moved generator passes through untouched, plus correction terms
    applying the derivation to each coefficient and (linearized) to each
    wedge slot; higher powers by splitting off one generator at a time,
    whose images the rule reads through its caller's ``lookup``."""
    f = t.field
    dbar = _delta_data(t, alg)
    one_b = (1,)
    zero_b = (0,)

    def rule(b_mono, key, lookup):
        m = b_mono[0]
        out = {}
        if m == 1:
            if bimodule:
                l, w, r = key
            else:
                l, w = key
            add_term(f, out, (key, one_b), f.one)
            for dm, dc in _derivation(t, l).items():
                k2 = (dm, w, r) if bimodule else (dm, w)
                add_term(f, out, (k2, zero_b), dc)
            if bimodule:
                for dm, dc in _derivation(t, r).items():
                    add_term(f, out, ((l, w, dm), zero_b), dc)
            for w2, c in _wedge_derivative(f, dbar, w):
                k2 = (l, w2, r) if bimodule else (l, w2)
                add_term(f, out, (k2, zero_b), c)
            return out
        for (k1, b1), c in lookup((m - 1,), key).items():
            for (k2, b2), c2 in lookup((1,), k1).items():
                add_term(f, out, (k2, (b1[0] + b2[0],)), c * c2)
        return out

    return rule


def _wedge_right_rule(t, alg):
    """Move an A-monomial a across a wedge key b0 (x) w (x) b1 over B, right
    to left, each step through tau: across b1, then across the wedge, then
    across b0.  A wedge slot x_i goes to the degree-one part of
    tau(x_i (x) a), which must leave a in place (else RestrictionError);
    its degree-zero part, an Ore twist's delta(a) (x) 1, leaves the wedge.
    A flip or an Ore twist leaves each slot as it is; a skew twist's
    g^-e acts on the slots through its linear action, with resorting
    signs.

    The wedge images are kept in ``wedges``, a memo (mover, wedge) ->
    image for the life of the lift."""
    f = t.field
    gen_monos = [_gen_mono(alg, i) for i in range(len(alg.gens))]
    wedges = {}

    def across_wedge(a, w):
        states = {(): f.one}
        for gi in w:
            new = {}
            for (am, bm), ci in t.monomial_rule(gen_monos[gi], a).items():
                if sum(bm) == 0:
                    continue
                if sum(bm) != 1 or am != a:
                    raise RestrictionError(
                        "tau(x_%d (x) %r) moves the mover or leaves the "
                        "linear slots; the wedge lift does not restrict"
                        % (gi, a))
                k = bm.index(1)
                for slots, c in states.items():
                    if k not in slots:
                        add_term(f, new, slots + (k,), c * ci)
            states = new
        out = {}
        for slots, c in states.items():
            w2, sgn = sort_wedge(slots)
            add_term(f, out, w2, c if sgn > 0 else f.neg(c))
        return out

    def rule(key, a_mono, lookup):
        b0, w, b1 = key
        out = {}
        for (a1, c1m), c1 in t.monomial_rule(b1, a_mono).items():
            wimg = wedges.get((a1, w))
            if wimg is None:
                wimg = wedges[(a1, w)] = across_wedge(a1, w)
            left = t.monomial_rule(b0, a1)
            for w2, cw in wimg.items():
                c = f.mul(c1, cw)
                for (a3, c0m), c3 in left.items():
                    add_term(f, out, (a3, (c0m, w2, c1m)), c * c3)
        return out

    return rule


def _periodic_left_rule(cplx, t):
    """Move a polynomial monomial across the two-periodic resolution of
    k[Z/p] by the twist's group action:
    tau_n(s (x) g^a e g^b) = g^a e g^b (x) g^-(a + eps(e) + b) . s,
    read off tau(s (x) g^(a + eps(e) + b)) = g^(a + eps(e) + b) (x) that.

    eps(e) in Z/p is the group degree of the generator e, read off the
    differential: degree-0 generators have degree 0, and each key
    g^a e' g^b of d(e) gives a + eps(e') + b.  A differential that is not
    homogeneous for this grading raises RestrictionError."""
    p = t.a_spec.order
    eps = dict.fromkeys(cplx.terms[0].labels, 0)
    for n in range(1, cplx.n_max + 1):
        for lab, img in cplx.differentials[n].items():
            degrees = {(a + eps[lab2] + b) % p for a, lab2, b in img.terms}
            if len(degrees) > 1:
                raise RestrictionError(
                    "d(%s) in degree %d is not homogeneous in the group "
                    "grading; the group action does not lift" % (lab, n))
            eps[lab] = next(iter(degrees), 0)

    def rule(s_mono, key, lookup):
        a, lab, b = key
        return {(key, m): c for (_, m), c in t.monomial_rule(
            s_mono, (a + eps[lab] + b) % p).items()}

    return rule


def lift_twist(bundle, t, side="left"):
    """Attach per-degree maps moving the companion tensor factor across the
    resolution, chosen by family:

    * bar / reduced bar: one rule for both sides, iterating the twisting
      map across all tensor factors (left lifts cross left to right, right
      lifts right to left);
    * wedge families, left: the closed-form rule (generator passes through,
      corrections by delta, read off tau, on coefficients and slots; Ore
      and flip twists);
    * wedge families, right: one rule moving the factor across b1, the
      wedge and b0 through tau, each slot to the degree-one part of its
      image (Ore, flip and skew twists);
    * cyclic-periodic, left: the inverse group action on the moved factor,
      read off tau by the group degree of the key (skew twists).

    Degree n gets the CompatMap ``<family>-<side>-<n>`` around its rule.
    Returns a new bundle carrying the lifts."""
    if side not in ("left", "right"):
        raise ResolutionError("side must be 'left' or 'right'")
    cplx = bundle.complex
    if side == "left" and bundle.algebra is not t.a_spec:
        raise ResolutionError("left lifts move the second factor across a "
                              "resolution over the twist's first factor")
    if side == "right" and bundle.algebra is not t.b_spec:
        raise ResolutionError("right lifts move the first factor across a "
                              "resolution over the twist's second factor")
    one_sided = cplx.terms[0].side != BIMODULE
    if one_sided and side != "left":
        raise ResolutionError("one-sided resolutions only take left lifts")
    kind = (ONE_SIDED if one_sided
            else (LEFT_BIMODULE if side == "left" else RIGHT_BIMODULE))
    fam = bundle.family
    if fam in (BAR, REDUCED_BAR):
        rules = [_bar_rule(t, term, fam == REDUCED_BAR, side)
                 for term in cplx.terms]
    elif fam in (POLY_KOSZUL, ORE_KOSZUL, ONE_SIDED_KOSZUL):
        if side == "left":
            if t.kind not in (ORE, FLIP):
                raise ResolutionError(
                    "closed-form wedge lifts need a derivation-type or "
                    "flip twist; got %r" % (t.kind,))
            if len(t.b_spec.gens) != 1:
                raise ResolutionError("the moved factor must be k[x]")
            rule = _koszul_left_rule(t, bundle.algebra, not one_sided)
        elif t.kind in (ORE, FLIP, SKEW_GROUP):
            rule = _wedge_right_rule(t, bundle.algebra)
        else:
            raise ResolutionError(
                "no right wedge lift for twist kind %r" % (t.kind,))
        rules = [rule] * len(cplx.terms)
    elif fam == CYCLIC_PERIODIC:
        if side != "left" or t.kind != SKEW_GROUP:
            raise ResolutionError(
                "the two-periodic resolution takes left lifts of skew "
                "twists only")
        rules = [_periodic_left_rule(cplx, t)] * len(cplx.terms)
    else:
        raise ResolutionError("no lift recipe for family %r" % (fam,))
    lifts = {n: CompatMap(kind, t, term, rule,
                          name="%s-%s-%d" % (fam, side, n))
             for n, (term, rule) in enumerate(zip(cplx.terms, rules))}
    return bundle.with_lifts(t, side, lifts)


# ---------------------------------------------------------------------------
# verifying attached lifts


def check_lift_chain_map(bundle, degree_bound):
    """Verify that the attached lifts commute with the differentials on
    every generator label, against all moved monomials of degree at most
    ``degree_bound``; the bottom square against the augmentation is
    included (for one-sided resolutions this is where a derivation that
    does not kill the augmentation shows up).  Both sides run the same
    squares, with pairs ordered as ``CompatMap`` orders them."""
    if not bundle.lifts:
        raise ResolutionError("no lifts attached")
    t = bundle.twist
    f = t.field
    cplx = bundle.complex
    side = bundle.lift_side
    report = CheckReport("lift-chain-map(%s, %s, deg<=%d)"
                         % (cplx.name, side, degree_bound), " squares")
    left = side == "left"
    movers = basis_up_to(t.b_spec if left else t.a_spec, degree_bound)

    def pair(key, mover):
        # a lift's output order, also tau's (a', b'); its input order is
        # the reverse, and pair(*out) reads an output as (key, mover)
        return (key, mover) if left else (mover, key)

    for n in range(1, bundle.n_max + 1):
        term = cplx.terms[n]
        for lab in term.labels:
            genkey = next(iter(term.generator(lab).terms))
            d_img = cplx.differentials[n][lab]
            for mono in movers:
                lhs = bundle.lifts[n - 1].apply(
                    {pair(k, mono)[::-1]: c for k, c in d_img.terms.items()})
                rhs = {}
                for out, c in bundle.lifts[n].pair_rule(
                        *pair(genkey, mono)[::-1]).items():
                    k2, m2 = pair(*out)
                    img = cplx.apply_differential(
                        n, FreeElement(term, {k2: f.one}))
                    for k3, c3 in img.terms.items():
                        add_term(f, rhs, pair(k3, m2), c * c3)
                report.record_equation(f, "square", "where",
                                       lambda: (n, lab, mono), lhs, rhs)
    term0 = cplx.terms[0]
    aug = cplx.augmentation_image
    for lab in term0.labels:
        genkey = next(iter(term0.generator(lab).terms))
        for mono in movers:
            pairs = bundle.lifts[0].pair_rule(*pair(genkey, mono)[::-1])
            lhs, rhs = {}, {}
            if cplx.aug_kind == RESOLVES_ALGEBRA:
                for out, c in pairs.items():
                    k2, m2 = pair(*out)
                    for em, ec in aug(k2).items():
                        add_term(f, lhs, pair(em, m2), c * ec)
                for em, ec in aug(genkey).items():
                    for out, c2 in t.monomial_rule(
                            *pair(em, mono)[::-1]).items():
                        add_term(f, rhs, out, ec * c2)
            else:
                # the ground field (left lifts only): one key, so only its
                # scalar is kept
                for (k2, b2), c in pairs.items():
                    for s in aug(k2).values():
                        add_term(f, lhs, b2, c * s)
                for s in aug(genkey).values():
                    add_term(f, rhs, mono, s)
            report.record_equation(f, "augmentation", "where",
                                   lambda: (0, lab, mono), lhs, rhs)
    return report


def check_lift_compat(bundle, degree_bound):
    """Run the module-compatibility equations on every attached lift;
    returns {degree: CheckReport}."""
    if not bundle.lifts:
        raise ResolutionError("no lifts attached")
    return {n: check_bimodule_compat(cm, degree_bound)
            for n, cm in sorted(bundle.lifts.items())}


# ---------------------------------------------------------------------------
# symmetrize - move across - project: replaying the wedge lift in the bar


def wedge_to_bar(bar_term, key):
    """Send a bimodule wedge key into the reduced bar term of the same
    degree: sum over all orderings of the slots with the permutation
    sign, each slot becoming a middle factor."""
    alg = bar_term.algebra
    f = alg.field
    l, w, r = key
    out = {}
    for perm in permutations(range(len(w))):
        tup = tuple(w[p] for p in perm)
        _, sgn = sort_wedge(tup)
        mids = tuple(_gen_mono(alg, i) for i in tup)
        if not bar_term.has_label(mids):
            raise CutoffError("bar truncation cannot hold %r" % (mids,))
        add_term(f, out, (l, mids, r), f.one if sgn > 0 else f.neg(f.one))
    return FreeElement(bar_term, out)


def crosscheck_koszul_lift(bundle, n_bound=2, degree_bound=2):
    """Replay the closed-form wedge lift inside the reduced bar complex.

    For each wedge generator: symmetrize it into the bar term, move the
    factor across with the iterated bar lift, project the result back onto
    wedges (strictly increasing middle slots), verify the projection
    reconstructs the bar-side answer exactly (else RestrictionError), and
    compare with the closed-form lift."""
    if not bundle.lifts or bundle.lift_side != "left":
        raise ResolutionError("needs a bundle with left lifts attached")
    t = bundle.twist
    alg = bundle.algebra
    f = t.field
    unit = alg.one_monomial()
    n_bound = min(n_bound, bundle.n_max)
    barb = bar(alg, n_bound, middle_cutoff=n_bound + degree_bound,
               reduced=True)
    report = CheckReport("wedge-vs-bar lift crosscheck(%s, n<=%d, deg<=%d)"
                         % (bundle.complex.name, n_bound, degree_bound))
    for n in range(n_bound + 1):
        kterm = bundle.complex.terms[n]
        bterm = barb.complex.terms[n]
        bar_cm = CompatMap(LEFT_BIMODULE, t, bterm,
                           _bar_rule(t, bterm, True, "left"),
                           name="crosscheck-bar-%d" % n)
        phi = {}

        def embed(key, phi=phi, bterm=bterm):
            hit = phi.get(key)
            if hit is None:
                hit = phi[key] = wedge_to_bar(bterm, key)
            return hit

        for w in kterm.labels:
            genkey = (unit, w, unit)
            for b_mono in basis_up_to(t.b_spec, degree_bound):
                closed = bundle.lifts[n].pair_rule(b_mono, genkey)
                sym = embed(genkey)
                bar_side = bar_cm.apply(
                    {(b_mono, k): c for k, c in sym.terms.items()})
                candidate = {}
                for ((l2, mids, r2), b2), c in bar_side.items():
                    idxs = []
                    for m in mids:
                        if sum(m) != 1:
                            idxs = None
                            break
                        idxs.append(m.index(1))
                    if idxs is None:
                        continue
                    tup = tuple(idxs)
                    if tup != tuple(sorted(tup)) or len(set(tup)) != len(tup):
                        continue
                    add_term(f, candidate, ((l2, tup, r2), b2), c)
                rebuilt = {}
                for (k2, b2), c in candidate.items():
                    for bk, bc in embed(k2).terms.items():
                        add_term(f, rebuilt, (bk, b2), c * bc)
                if rebuilt != bar_side:
                    raise RestrictionError(
                        "bar-side image of %r (moved %r) does not project "
                        "back onto wedges" % (w, b_mono))
                report.record_equation(f, "agree", "where",
                                       lambda: (n, w, b_mono), candidate,
                                       dict(closed))
    return report
