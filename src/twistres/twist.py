"""Twisting maps and their verification.

A ``TwistMap`` is a linear map  tau: B (x) A -> A (x) B  given by a rule
on monomial pairs, subject to the unit conditions
tau(1 (x) a) = a (x) 1 and tau(b (x) 1) = 1 (x) b and to the hexagon
identity

    tau . (m_B (x) m_A)
      = (m_A (x) m_B) . (1 (x) tau (x) 1) . (tau (x) tau) . (1 (x) tau (x) 1)

as maps B (x) B (x) A (x) A -> A (x) B.  Such a map makes the vector
space A (x) B an associative algebra with the crossed multiplication
(a (x) b)(a' (x) b') = a tau(b (x) a') b'.

Four kinds are provided:

* ``flip``        -- tau(b (x) a) = a (x) b (the plain tensor product);
* ``ore``         -- B = k[x] one variable, tau(x (x) r) = r (x) x +
                     delta(r) (x) 1 for a derivation delta of A, with
                     higher powers of x expanded by the hexagon recursion;
* ``skew-group``  -- A = k(Z/n), B commutative polynomial, the group
                     acting by linear substitutions:
                     tau(s (x) g^e) = g^e (x) (g^-e . s);
* ``custom``      -- an explicit table on monomial pairs, optionally
                     layered over a base twist (used for corrupted-rule
                     experiments and for tabulated inverses).

``CompatMap`` plays the same role one level up: it moves B- (or A-)
factors across a module, and ``check_bimodule_compat`` verifies the two
compatibility equations (multiplication side and module side) that make
the move consistent with the module structure.  Every module kind -- a
free term, ``AlgebraAsBimodule``, ``GroundModule``, all defined in
``complex.py`` and re-exported here -- has the one action
``act(l, key, r)`` on basis keys, which is all the checker reads.

Memos come in two lifetimes.  Shared memos live as long as the object
that owns them and serve every consumer: the lift memo
``CompatMap._cache`` (pair -> image), the twist memo ``TwistMap._cache``
(monomial pair -> tau image) and the algebra memos of ``AlgebraSpec``
(products, Ore steps, bases).  They are append-only dicts;
recomputation is idempotent, so concurrent readers are safe.  Check
memos live for one call: the pure-tensor ``products`` of
``check_hexagon``, and the ``acts`` and lift-image misses of
``check_bimodule_compat``.  The compat check reads the lift memo and
writes nothing to it; it still fills the twist and algebra memos.  One
lift rule keeps a memo of its factor images for the life of the lift (as
long as the bundle that carries it): the skew right lift keeps the wedge
action per (group exponent, wedge), at most group order x number of
wedges entries.  The periodic left lift is the skew twist's group
action itself and reads only the twist's memo of it.
"""

from __future__ import annotations

import random

from .kernel import (
    CheckReport, PrimeField, NonInvertibleError, SparseMatrix, add_term,
    invert_dense, reduce_sums,
)
from .algebra import (
    CYCLIC_GROUP, POLYNOMIAL, TWISTED_PRODUCT,
    AlgebraSpec, AlgebraElement, SpecMismatchError,
    basis_up_to, crossed_mono_mul, cyclic_group_algebra, leibniz_extension,
    parse_element, polynomial_algebra,
)
# the module kinds live beside the free terms; _image_of is the linear
# extension the compat checker reads
from .complex import AlgebraAsBimodule, GroundModule, image_of as _image_of

FLIP = "flip"
ORE = "ore"
SKEW_GROUP = "skew-group"
CUSTOM = "custom"

LEFT_BIMODULE = "left-of-bimodule"
RIGHT_BIMODULE = "right-of-bimodule"
ONE_SIDED = "one-sided"


class TwistError(Exception):
    pass


class MissingRuleError(TwistError):
    """A custom table was asked for a pair outside its tabulated range."""


class NonInvertibleTwistError(TwistError):
    """tau is not bijective on the requested truncation."""


# ---------------------------------------------------------------------------
# TwistMap


class TwistMap:
    """tau: B (x) A -> A (x) B on monomial pairs, memoized.

    ``monomial_rule(b_mono, a_mono)`` returns a dict
    (a_mono, b_mono) -> scalar describing tau(b (x) a) in A (x) B.
    Unit conditions are built in and cannot be overridden.  The rule is
    called as ``rule(b_mono, a_mono, lookup)``, where ``lookup`` is
    ``monomial_rule`` itself: a rule built by recursion (the Ore twist,
    x^m through x^(m-1) and x) reads other pairs through it, so the rule
    holds no reference to its twist.

    ``preserves_degree``, fixed at construction, says whether each image
    tau(b (x) a) has degree deg a + deg b: flips and linear group actions
    do, an Ore twist when every delta image is zero, custom tables never.
    """

    def __init__(self, a_spec, b_spec, kind, rule, name=""):
        if a_spec.field != b_spec.field:
            raise TwistError("twist factors must share a field")
        self.a_spec = a_spec
        self.b_spec = b_spec
        self.kind = kind
        self.name = name or kind
        self._rule = rule
        self.preserves_degree = kind in (FLIP, SKEW_GROUP)
        self._cache = {}
        self._product = None

    @property
    def field(self):
        return self.a_spec.field

    def monomial_rule(self, b_mono, a_mono):
        """tau on one monomial pair, memoized with zeros dropped and scalars
        reduced (so a tabulated image that lists a zero term reads the same
        as one that leaves it out)."""
        key = (b_mono, a_mono)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        f = self.field
        if b_mono == self.b_spec.one_monomial():
            out = {(a_mono, b_mono): f.one}
        elif a_mono == self.a_spec.one_monomial():
            out = {(a_mono, b_mono): f.one}
        else:
            # a rule returns a dict, so its keys are distinct already
            out = reduce_sums(f, self._rule(b_mono, a_mono,
                                            self.monomial_rule))
        self._cache[key] = out
        return out

    def product(self, name=None):
        """The twisted-product algebra A (x)_tau B (cached)."""
        if self._product is None:
            overlap = set(self.a_spec.gens) & set(self.b_spec.gens)
            if overlap:
                raise TwistError(
                    "generator names %r appear in both factors" % sorted(overlap))
            self._product = AlgebraSpec(
                TWISTED_PRODUCT, self.field,
                gens=tuple(self.a_spec.gens) + tuple(self.b_spec.gens),
                left=self.a_spec, right=self.b_spec, twist=self,
                name=name or "%s⊗_τ%s" % (self.a_spec, self.b_spec))
        return self._product

    def with_overrides(self, table):
        """A copy whose rule on the tabulated pairs is replaced verbatim."""
        return TwistMap(self.a_spec, self.b_spec, CUSTOM,
                        _table_rule(table, self.field, base=self),
                        name="%s+overrides" % self.name)

    def __repr__(self):
        return "TwistMap(%s: %r⊗%r→%r⊗%r)" % (
            self.name, self.b_spec, self.a_spec, self.a_spec, self.b_spec)


def _table_rule(table, field, base=None):
    def rule(b_mono, a_mono, lookup):
        hit = table.get((b_mono, a_mono))
        if hit is not None:
            return {pair: field.coerce(c) for pair, c in hit.items()}
        if base is not None:
            return base.monomial_rule(b_mono, a_mono)
        raise MissingRuleError(
            "no tabulated value for pair (%r, %r)" % (b_mono, a_mono))
    return rule


def flip_twist(a_spec, b_spec, name=None):
    """The identity-like twist tau(b (x) a) = a (x) b."""
    f = a_spec.field

    def rule(b_mono, a_mono, lookup):
        return {(a_mono, b_mono): f.one}

    return TwistMap(a_spec, b_spec, FLIP, rule, name=name or "flip")


def ore_twist(a_spec, b_spec, delta_gens, name=None):
    """tau(x (x) r) = r (x) x + delta(r) (x) 1 for a derivation delta of A.

    B must be a one-variable polynomial algebra k[x]; A a commutative
    polynomial algebra.  ``delta_gens`` maps each A generator name to its
    image (an A element or a parseable string); delta extends to all of A
    by the Leibniz rule.  tau on higher powers of x is computed by the
    hexagon recursion tau(x^m (x) r) = (split x^m = x . x^(m-1)).
    """
    if b_spec.variant != POLYNOMIAL or len(b_spec.gens) != 1:
        raise TwistError("the twisting side must be a one-variable polynomial algebra")
    if a_spec.variant != POLYNOMIAL:
        raise TwistError("derivation twists need a commutative polynomial base")
    f = a_spec.field
    images = {}
    for gname, val in delta_gens.items():
        idx = a_spec.gen_index(gname)
        if isinstance(val, str):
            val = parse_element(val, a_spec)
        elif isinstance(val, AlgebraElement):
            if val.spec is not a_spec:
                raise SpecMismatchError("delta image in the wrong algebra")
        else:
            val = a_spec.one().scale(val)
        images[idx] = val
    delta_of_monomial = leibniz_extension(a_spec, images)

    b_one = (0,)

    def rule(b_mono, a_mono, lookup):
        m = b_mono[0]
        if m == 1:
            out = {(a_mono, (1,)): f.one}
            for dm, dc in delta_of_monomial(a_mono).items():
                add_term(f, out, (dm, b_one), dc)
            return out
        out = {}
        for (am, bm), c in lookup((m - 1,), a_mono).items():
            for (am2, bm2), c2 in lookup((1,), am).items():
                key = (am2, (bm2[0] + bm[0],))
                add_term(f, out, key, c * c2)
        return out

    t = TwistMap(a_spec, b_spec, ORE, rule, name=name or "ore")
    t.delta_of_monomial = delta_of_monomial
    t.delta_images = images
    t.preserves_degree = not any(img.terms for img in images.values())
    return t


def skew_group_twist(group_spec, poly_spec, action, name=None):
    """tau(s (x) g^e) = g^e (x) (g^-e . s) for a cyclic group acting on
    a polynomial algebra by linear substitutions.

    ``action`` maps each polynomial generator name to the image of the
    group generator acting on it (element or string); images must be
    homogeneous linear, and the action must have order dividing the group
    order."""
    if group_spec.variant != CYCLIC_GROUP:
        raise TwistError("group factor must be a cyclic group algebra")
    if poly_spec.variant != POLYNOMIAL:
        raise TwistError("acted-on factor must be a polynomial algebra")
    f = poly_spec.field
    n = group_spec.order
    base_images = []
    for gname in poly_spec.gens:
        val = action[gname]
        if isinstance(val, str):
            val = parse_element(val, poly_spec)
        if any(poly_spec.monomial_degree(m) != 1 for m in val.terms):
            raise TwistError("action images must be homogeneous linear")
        base_images.append(val)

    def substitute(images, elem):
        out = poly_spec.zero()
        for mono, c in elem.terms.items():
            piece = poly_spec.one().scale(c)
            for i, e in enumerate(mono):
                for _ in range(e):
                    piece = piece * images[i]
            out = out + piece
        return out

    powers = [[poly_spec.gen(g) for g in poly_spec.gens]]
    for _ in range(1, n):
        powers.append([substitute(base_images, prev) for prev in powers[-1]])
    closed = [substitute(base_images, prev) for prev in powers[-1]]
    if any(closed[i] != powers[0][i] for i in range(len(closed))):
        raise TwistError("action order does not divide the group order")

    act_cache = {}

    def act(e, s_mono):
        """The action of g^e on a polynomial monomial, as a terms dict."""
        key = (e, s_mono)
        hit = act_cache.get(key)
        if hit is not None:
            return hit
        elem = poly_spec.one()
        for i, exp in enumerate(s_mono):
            for _ in range(exp):
                elem = elem * powers[e][i]
        act_cache[key] = elem.terms
        return elem.terms

    def keyed_rule(b_mono, a_mono, lookup):
        return {((a_mono, m)): c for m, c in act((n - a_mono) % n, b_mono).items()}

    t = TwistMap(group_spec, poly_spec, SKEW_GROUP, keyed_rule,
                 name=name or "skew-group")
    t.group_action = act
    t.group_order = n
    return t


def custom_twist(a_spec, b_spec, table, base=None, name=None):
    """A twist given by an explicit table on monomial pairs."""
    return TwistMap(a_spec, b_spec, CUSTOM,
                    _table_rule(table, a_spec.field, base=base),
                    name=name or "custom")


# ---------------------------------------------------------------------------
# the hexagon


def hexagon_sides(t, b, b2, a, a2, products=None):
    """Both sides of the hexagon identity on a monomial 4-tuple
    (b, b', a, a'), each as a dict (a_mono, b_mono) -> scalar.

    ``products`` memoizes the pure-tensor products (a_l (x) b_l)(a_r (x) b_r)
    the right side is summed from (``algebra.crossed_mono_mul``, the
    product rule of A (x)_tau B), keyed on the four monomials; a check
    passes one dict for all of its tuples (None: a fresh one)."""
    f = t.field
    if products is None:
        products = {}
    lhs = {}
    for bm, bc in t.b_spec.mono_mul(b, b2).items():
        for am, ac in t.a_spec.mono_mul(a, a2).items():
            w = f.mul(bc, ac)
            for pair, c in t.monomial_rule(bm, am).items():
                add_term(f, lhs, pair, w * c)
    rhs = {}
    for (a1, b1), c1 in t.monomial_rule(b2, a).items():
        for (a_l, b_l), c2 in t.monomial_rule(b, a1).items():
            for (a_r, b_r), c3 in t.monomial_rule(b1, a2).items():
                c123 = c1 * c2 * c3
                key = (a_l, b_l, a_r, b_r)
                prod = products.get(key)
                if prod is None:
                    prod = products[key] = crossed_mono_mul(
                        t, (a_l, b_l), (a_r, b_r))
                for pair, c in prod.items():
                    add_term(f, rhs, pair, c123 * c)
    return lhs, rhs


def _format_pairs(t, pairs):
    if not pairs:
        return "0"
    bits = []
    for (am, bm) in sorted(pairs, key=lambda p: (t.a_spec.monomial_key(p[0]),
                                                 t.b_spec.monomial_key(p[1]))):
        bits.append("%s·(%s⊗%s)" % (pairs[(am, bm)],
                                    t.a_spec.format_monomial(am),
                                    t.b_spec.format_monomial(bm)))
    return " + ".join(bits)


def check_hexagon(t, degree_bound, sample_count=0, seed=0):
    """Verify the hexagon identity on all monomial 4-tuples whose factors
    each have degree <= degree_bound, plus seeded random 4-tuples drawn
    from degree <= degree_bound + 1.  Violations are report entries; a
    tuple is formatted only when it is one.  The memo of pure-tensor
    products that ``hexagon_sides`` reads lasts for this one call."""
    if degree_bound < 1:
        raise TwistError("degree_bound must be >= 1")
    report = CheckReport("hexagon(%s, deg<=%d, %d samples)"
                         % (t.name, degree_bound, sample_count), " tuples")
    bs = basis_up_to(t.b_spec, degree_bound)
    as_ = basis_up_to(t.a_spec, degree_bound)
    products = {}

    def run(b, b2, a, a2):
        lhs, rhs = hexagon_sides(t, b, b2, a, a2, products)
        report.record(lhs == rhs, lambda: {
            "b": t.b_spec.format_monomial(b),
            "b_prime": t.b_spec.format_monomial(b2),
            "a": t.a_spec.format_monomial(a),
            "a_prime": t.a_spec.format_monomial(a2),
            "lhs": _format_pairs(t, lhs),
            "rhs": _format_pairs(t, rhs),
        })

    for b in bs:
        for b2 in bs:
            for a in as_:
                for a2 in as_:
                    run(b, b2, a, a2)
    if sample_count:
        rng = random.Random(seed)
        pool_b = basis_up_to(t.b_spec, degree_bound + 1)
        pool_a = basis_up_to(t.a_spec, degree_bound + 1)
        for _ in range(sample_count):
            run(rng.choice(pool_b), rng.choice(pool_b),
                rng.choice(pool_a), rng.choice(pool_a))
    return report


# ---------------------------------------------------------------------------
# truncated inversion


def _pair_bases(t, degree_bound):
    """Deterministic bases of the degree <= bound truncations of
    B (x) A (inputs) and A (x) B (outputs)."""
    a, b = t.a_spec, t.b_spec
    ins = [(bm, am)
           for bm in basis_up_to(b, degree_bound)
           for am in basis_up_to(a, degree_bound)
           if b.monomial_degree(bm) + a.monomial_degree(am) <= degree_bound]
    ins.sort(key=lambda p: (b.monomial_degree(p[0]) + a.monomial_degree(p[1]),
                            b.monomial_key(p[0]), a.monomial_key(p[1])))
    outs = [(am, bm) for (bm, am) in ins]
    outs.sort(key=lambda p: (a.monomial_degree(p[0]) + b.monomial_degree(p[1]),
                             a.monomial_key(p[0]), b.monomial_key(p[1])))
    return ins, outs


def _truncation_matrix(t, degree_bound):
    ins, outs = _pair_bases(t, degree_bound)
    index = {p: i for i, p in enumerate(outs)}
    entries = []
    for j, (bm, am) in enumerate(ins):
        for pair, c in t.monomial_rule(bm, am).items():
            if pair not in index:
                raise NonInvertibleTwistError(
                    "tau raises filtration degree on (%r, %r)" % (bm, am))
            entries.append((index[pair], j, c))
    m = SparseMatrix(len(outs), len(ins), entries, t.field)
    return ins, outs, m


def invert_twist(t, degree_bound):
    """tau^-1 as a tabulated TwistMap from A (x) B back to B (x) A.

    The table covers pairs of total degree <= degree_bound; asking the
    inverse for anything beyond raises MissingRuleError."""
    if t.kind == FLIP:
        return flip_twist(t.b_spec, t.a_spec, name="flip")
    ins, outs, m = _truncation_matrix(t, degree_bound)
    try:
        cols = invert_dense(m)
    except NonInvertibleError:
        raise NonInvertibleTwistError(
            "tau is not bijective on the degree <= %d truncation" % degree_bound)
    table = {}
    for r, (am, bm) in enumerate(outs):
        table[(am, bm)] = {(ins[j][0], ins[j][1]): c
                           for j, c in cols[r].items()}
    return custom_twist(t.b_spec, t.a_spec, table,
                        name="inverse(%s)" % t.name)


# ---------------------------------------------------------------------------
# CompatMap


class CompatMap:
    """A rule moving algebra factors across a module.

    * ``left-of-bimodule``: tau_mod: B (x) M -> M (x) B, M a bimodule
      over A; rule(b_mono, key, lookup) -> dict (key', b_mono') -> scalar.
    * ``right-of-bimodule``: tau_mod: N (x) A -> A (x) N, N a bimodule
      over B; rule(key, a_mono, lookup) -> dict (a_mono', key') -> scalar.
    * ``one-sided``: same shape as left, M only a left module over A.

    Each kind outputs a pair in the reverse order of its input, as tau
    takes (b, a) to (a', b'): (key, mover) on the left, (mover, key) on the
    right.

    ``lookup(x', y')`` is the caller's image of another pair, which a
    rule built by recursion (the Koszul-left lift, b^m through b^(m-1)
    and b) reads instead of this map's memo.  ``image(x, y, lookup)``
    computes the reduced image of one pair; ``pair_rule`` reads it
    through ``_cache``, the memo shared by every consumer that lives as
    long as the map (construction, total-complex assembly,
    ``check_lift_chain_map``, the crosscheck), and is its own lookup.
    ``scoped_rule(images)`` is the lookup of ``check_bimodule_compat``:
    it only reads that memo and keeps its misses, recursive ones
    included, in the caller's dict.
    """

    def __init__(self, kind, twist, module, rule, name=""):
        if kind not in (LEFT_BIMODULE, RIGHT_BIMODULE, ONE_SIDED):
            raise TwistError("unknown compat kind %r" % (kind,))
        self.kind = kind
        self.twist = twist
        self.module = module
        self.name = name or kind
        self._rule = rule
        self._cache = {}

    def image(self, x, y, lookup):
        """rule on one (monomial, key) or (key, monomial) pair, not
        memoized, reading other pairs through ``lookup``: zeros dropped
        and scalars reduced (so it equals the bilinear extension on that
        pair); unit conditions are built in."""
        f = self.twist.field
        if self.kind in (LEFT_BIMODULE, ONE_SIDED):
            unit = x == self.twist.b_spec.one_monomial()
        else:
            unit = y == self.twist.a_spec.one_monomial()
        if unit:
            return {(y, x): f.one}
        # a rule returns a dict, so its keys are distinct already
        return reduce_sums(f, self._rule(x, y, lookup))

    def pair_rule(self, x, y):
        """``image(x, y, ...)`` through the map's shared memo, reading
        the pairs a recursive rule needs through ``pair_rule`` as well."""
        hit = self._cache.get((x, y))
        if hit is None:
            hit = self._cache[(x, y)] = self.image(x, y, self.pair_rule)
        return hit

    def scoped_rule(self, images):
        """A lookup like ``pair_rule`` that never writes to the shared
        memo: a pair it misses is computed once and kept in ``images``,
        which therefore holds only such pairs and is read first.  A miss
        recurses through a new lookup on the same ``images``; a lookup
        that named itself would be a reference cycle, keeping ``images``
        alive after the caller is done until the cyclic collector runs."""
        shared = self._cache

        def lookup(x, y):
            key = (x, y)
            hit = images.get(key)
            if hit is None:
                hit = shared.get(key)
                if hit is None:
                    hit = images[key] = self.image(
                        x, y, self.scoped_rule(images))
            return hit

        return lookup

    def apply(self, vec_pairs):
        """Bilinear extension on a dict of input pairs -> scalar."""
        f = self.twist.field
        out = {}
        for (x, y), c in vec_pairs.items():
            for pair, v in self.pair_rule(x, y).items():
                add_term(f, out, pair, c * v)
        return out

    def __repr__(self):
        return "CompatMap(%s, %s)" % (self.kind, self.name)


def self_bimodule_compat(t):
    """A as a bimodule over itself, moved by tau itself."""
    mod = AlgebraAsBimodule(t.a_spec)

    def rule(b_mono, key, lookup):
        return {((m, bm)): c for (m, bm), c in t.monomial_rule(b_mono, key).items()}

    return CompatMap(LEFT_BIMODULE, t, mod, rule, name="%s-on-itself" % t.name)


def self_right_bimodule_compat(t):
    """B as a bimodule over itself, moved across A by tau itself."""
    mod = AlgebraAsBimodule(t.b_spec)
    return CompatMap(RIGHT_BIMODULE, t, mod,
                     lambda key, a_mono, lookup: t.monomial_rule(key, a_mono),
                     name="%s-on-itself-right" % t.name)


def transposition_compat(t, module):
    """The plain flip b (x) m -> m (x) b across a left module over A."""
    f = t.field

    def rule(x, y, lookup):
        return {(y, x): f.one}

    return CompatMap(ONE_SIDED, t, module, rule, name="transposition")


def check_bimodule_compat(c, degree_bound):
    """Verify the compatibility equations of a CompatMap on all basis
    tuples whose factors each have degree <= degree_bound.

    Left/one-sided multiplication side:
        tau_mod(b b' (x) m) = move b', then b, multiplying the B parts.
    Left bimodule side:
        tau_mod(b (x) a m a') = tau(b (x) a), move across m, tau(.. (x) a'),
        with the A parts acting on the module.
    One-sided module side uses only the left action; the right-of-bimodule
    equations are the mirror images.

    Each sum is computed once at the loop level it depends on.  Left and
    one-sided module side: tau(b (x) a) and the move across m, once per
    (b, a, m) outside the a' loop.  Right module side: a1 moved across n
    and then across b (acting on the left), once per (b, n) and a1; per
    (b', a) only tau(b' (x) a) and the right action remain (exact, as the
    right action is linear).  Rule images are read from the map's shared
    memo; a miss is computed by ``c.image`` (a recursive rule reading
    through the same lookup, ``c.scoped_rule``) and kept, with the actions
    l.key.r on single basis keys that are read again, in memos that last
    for this one call, so the check leaves the shared memo as it found it
    (the right module side reads each b.n.b' once and keeps none).  An lhs
    whose acted element is one key with coefficient one is a rule image
    itself, only read.  The input tuple of an equation is formatted only
    when violated."""
    t = c.twist
    f = t.field
    mod = c.module
    report = CheckReport("compat(%s, %s, deg<=%d)"
                         % (c.name, c.kind, degree_bound), " tuples")
    mkeys = mod.basis(degree_bound)
    rule = c.scoped_rule({})
    acts = {}

    def act(l, key, r):
        """mod.act(l, key, r), memoized for this call."""
        hit = acts.get((l, key, r))
        if hit is None:
            hit = acts[(l, key, r)] = mod.act(l, key, r)
        return hit

    if c.kind in (LEFT_BIMODULE, ONE_SIDED):
        bs = basis_up_to(t.b_spec, degree_bound)
        as_ = basis_up_to(t.a_spec, degree_bound)
        for m in mkeys:
            lhs = rule(t.b_spec.one_monomial(), m)
            report.record_equation(f, "unit", "inputs",
                                   lambda: (mod.format_key(m),), lhs,
                                   {(m, t.b_spec.one_monomial()): f.one})
        # multiplication side
        for b in bs:
            for b2 in bs:
                for m in mkeys:
                    lhs = _image_of(f, t.b_spec.mono_mul(b, b2),
                                    lambda bm: rule(bm, m))
                    rhs = {}
                    for (m1, b1), c1 in rule(b2, m).items():
                        for (m2, b2b), c2 in rule(b, m1).items():
                            w = f.mul(c1, c2)
                            for bm, bc in t.b_spec.mono_mul(b2b, b1).items():
                                add_term(f, rhs, (m2, bm), w * bc)
                    report.record_equation(
                        f, "product-side", "inputs",
                        lambda: (t.b_spec.format_monomial(b),
                                 t.b_spec.format_monomial(b2),
                                 mod.format_key(m)), lhs, rhs)
        # module side; one-sided modules have no a' (a2 None)
        rights = as_ if c.kind == LEFT_BIMODULE else [None]
        for b in bs:
            for a in as_:
                tau = t.monomial_rule(b, a)
                for m in mkeys:
                    moved = {}
                    for (a1, b1), c1 in tau.items():
                        for (m1, b2b), c2 in rule(b1, m).items():
                            add_term(f, moved, (a1, m1, b2b), c1 * c2)
                    for a2 in rights:
                        lhs = _image_of(f, act(a, m, a2),
                                        lambda k: rule(b, k))
                        rhs = {}
                        for (a1, m1, b2b), w in moved.items():
                            moves = ({(None, b2b): f.one} if a2 is None
                                     else t.monomial_rule(b2b, a2))
                            for (a3, b3), c3 in moves.items():
                                w3 = f.mul(w, c3)
                                for k, kc in act(a1, m1, a3).items():
                                    add_term(f, rhs, (k, b3), w3 * kc)
                        report.record_equation(
                            f, "module-side", "inputs",
                            lambda: (t.b_spec.format_monomial(b),
                                     t.a_spec.format_monomial(a),
                                     mod.format_key(m),
                                     "" if a2 is None
                                     else t.a_spec.format_monomial(a2)),
                            lhs, rhs)
        return report

    # right-of-bimodule: N over B, rule (key, a_mono) -> (a', key')
    as_ = basis_up_to(t.a_spec, degree_bound)
    bs = basis_up_to(t.b_spec, degree_bound)
    for m in mkeys:
        lhs = rule(m, t.a_spec.one_monomial())
        report.record_equation(f, "unit", "inputs",
                               lambda: (mod.format_key(m),), lhs,
                               {(t.a_spec.one_monomial(), m): f.one})
    # multiplication side
    for m in mkeys:
        for a in as_:
            for a2 in as_:
                lhs = _image_of(f, t.a_spec.mono_mul(a, a2),
                                lambda am: rule(m, am))
                rhs = {}
                for (a1, m1), c1 in rule(m, a).items():
                    for (a2b, m2), c2 in rule(m1, a2).items():
                        w = f.mul(c1, c2)
                        for am, ac in t.a_spec.mono_mul(a1, a2b).items():
                            add_term(f, rhs, (am, m2), w * ac)
                report.record_equation(
                    f, "product-side", "inputs",
                    lambda: (mod.format_key(m),
                             t.a_spec.format_monomial(a),
                             t.a_spec.format_monomial(a2)), lhs, rhs)
    # module side: tau_mod((b n b') (x) a); moved[a1] is (a3, key) -> scalar
    for b in bs:
        for m in mkeys:
            moved = {}
            for b2 in bs:
                acted = mod.act(b, m, b2)
                for a in as_:
                    lhs = _image_of(f, acted, lambda k: rule(k, a))
                    rhs = {}
                    for (a1, b1), c1 in t.monomial_rule(b2, a).items():
                        mv = moved.get(a1)
                        if mv is None:
                            mv = moved[a1] = {}
                            for (a2v, m2), c2 in rule(m, a1).items():
                                for (a3, b3), c3 in \
                                        t.monomial_rule(b, a2v).items():
                                    w = f.mul(c2, c3)
                                    for k, kc in act(b3, m2, None).items():
                                        add_term(f, mv, (a3, k), w * kc)
                        for (a3, k), v in mv.items():
                            w = f.mul(c1, v)
                            for k2, kc in act(None, k, b1).items():
                                add_term(f, rhs, (a3, k2), w * kc)
                    report.record_equation(
                        f, "module-side", "inputs",
                        lambda: (t.b_spec.format_monomial(b),
                                 mod.format_key(m),
                                 t.b_spec.format_monomial(b2),
                                 t.a_spec.format_monomial(a)), lhs, rhs)
    return report


# ---------------------------------------------------------------------------
# ready-made twists


def weyl_twist():
    """k[x] and k[y] crossed by y.x = x.y - 1."""
    ax = polynomial_algebra(("x",), name="k[x]")
    by = polynomial_algebra(("y",), name="k[y]")
    return ore_twist(ax, by, {"x": "-1"}, name="weyl")


def solvable_pair_twist():
    """k[y] and k[x] crossed by x.y = y.x + y (the 2-dim solvable pair)."""
    ay = polynomial_algebra(("y",), name="k[y]")
    bx = polynomial_algebra(("x",), name="k[x]")
    return ore_twist(ay, bx, {"y": "y"}, name="solvable-pair")


def triangular_action_twist(p):
    """Z/p acting on k[x, y] in characteristic p by g.x = x,
    g.y = x + y (the unipotent triangular action)."""
    f = PrimeField(p)
    kg = cyclic_group_algebra(p, field=f, name="kZ/%d" % p)
    s = polynomial_algebra(("x", "y"), field=f, name="k[x,y]")
    return skew_group_twist(kg, s, {"x": "x", "y": "x+y"},
                            name="triangular-p%d" % p)
