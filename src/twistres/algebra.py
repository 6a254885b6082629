"""Presented algebras with a PBW normal-form basis.

Four variants share one element type:

* ``polynomial``   -- k[x_1..x_t], monomials are exponent tuples;
* ``cyclic-group`` -- kZ/n on a generator g, monomials are powers mod n;
* ``iterated-ore`` -- k[x_1..x_t; delta_2..delta_t] with sigma = 1
  throughout: the rewriting rule is x_j x_i -> x_i x_j + delta_j(x_i) for
  i < j, where each delta_j(x_i) is a constant plus a linear combination
  of x_1..x_{j-1} (the filtered condition).  Construction also checks
  that every overlap x_k x_j x_i resolves, so the ordered monomials are a
  basis (PBW), and products are built one generator at a time, from the
  longest prefix of the right factor whose product is already memoized;
* ``twisted-product`` -- A (x)_tau B; monomials are (A-monomial,
  B-monomial) pairs kept in left-normal form, with every B*A crossing
  routed through the twisting map.

Monomials are plain tuples/ints so they can key dicts; elements are
sparse monomial -> scalar maps.  Multiplication caches are append-only,
so specs behave as immutable values.
"""

from __future__ import annotations

from fractions import Fraction

from .kernel import QQ, add_term, reduce_sums


class AlgebraError(Exception):
    pass


class UnknownGeneratorError(AlgebraError):
    pass


class SpecMismatchError(AlgebraError):
    pass


class ZeroElementError(AlgebraError):
    pass


class DeltaTableError(AlgebraError):
    """A delta table violates the filtered condition or breaks PBW."""


POLYNOMIAL = "polynomial"
CYCLIC_GROUP = "cyclic-group"
ITERATED_ORE = "iterated-ore"
TWISTED_PRODUCT = "twisted-product"


class AlgebraSpec:
    """A presented algebra with a chosen normal-form basis.

    Build through the factory functions ``polynomial_algebra``,
    ``cyclic_group_algebra``, ``iterated_ore_algebra`` or
    ``twisted_product_algebra`` (the latter lives in ``twist``).
    """

    def __init__(self, variant, field, gens=(), order=None, delta=None,
                 left=None, right=None, twist=None, name=None):
        self.variant = variant
        self.field = field
        self.gens = tuple(gens)
        self.order = order
        self.delta = delta or {}
        self.left = left
        self.right = right
        self.twist = twist
        self.name = name
        self._mul_cache = {}
        self._gen_cache = {}
        self._basis_cache = {}
        if variant == ITERATED_ORE:
            self._validate_delta()

    # -- construction-time validation ---------------------------------------

    def _validate_delta(self):
        t = len(self.gens)
        for (j, i), table in self.delta.items():
            if not (0 <= i < j < t):
                raise DeltaTableError(
                    "delta key (%d,%d) needs 0 <= i < j < %d" % (j, i, t))
            for mono, coeff in table.items():
                if len(mono) != t or any(e < 0 for e in mono):
                    raise DeltaTableError("bad monomial %r in delta table" % (mono,))
                deg = sum(mono)
                if deg == 0:
                    continue
                if deg != 1:
                    raise DeltaTableError(
                        "delta_%d(x_%d) must be constant + linear, got degree %d"
                        % (j, i, deg))
                m = mono.index(1)
                if m >= j:
                    raise DeltaTableError(
                        "delta_%d(x_%d) contains x_%d outside span of lower "
                        "generators" % (j, i, m))
        # Bergman's diamond lemma: the normal monomials are a basis (PBW)
        # exactly when every overlap x_k x_j x_i (i < j < k) resolves, that
        # is, when (x_k x_j) x_i and x_k (x_j x_i) have the same normal form
        gens = [AlgebraElement(self, {tuple(int(m == k) for m in range(t)):
                                      self.field.one}) for k in range(t)]
        for k in range(t):
            for j in range(k):
                for i in range(j):
                    left = (gens[k] * gens[j]) * gens[i]
                    right = gens[k] * (gens[j] * gens[i])
                    if left != right:
                        c, b, a = self.gens[k], self.gens[j], self.gens[i]
                        raise DeltaTableError(
                            "delta table breaks PBW: (%s*%s)*%s = %r but "
                            "%s*(%s*%s) = %r" % (c, b, a, left, c, b, a, right))

    # -- generators and units ------------------------------------------------

    def one_monomial(self):
        if self.variant in (POLYNOMIAL, ITERATED_ORE):
            return (0,) * len(self.gens)
        if self.variant == CYCLIC_GROUP:
            return 0
        return (self.left.one_monomial(), self.right.one_monomial())

    def zero(self):
        return AlgebraElement(self, {})

    def one(self):
        return AlgebraElement(self, {self.one_monomial(): self.field.one})

    def gen_index(self, name):
        try:
            return self.gens.index(name)
        except ValueError:
            raise UnknownGeneratorError("unknown generator %r of %r" % (name, self))

    def gen(self, name):
        if self.variant in (POLYNOMIAL, ITERATED_ORE):
            k = self.gen_index(name)
            mono = tuple(1 if m == k else 0 for m in range(len(self.gens)))
            return AlgebraElement(self, {mono: self.field.one})
        if self.variant == CYCLIC_GROUP:
            if name != self.gens[0]:
                raise UnknownGeneratorError("unknown generator %r" % (name,))
            return AlgebraElement(self, {1 % self.order: self.field.one})
        # twisted product: generators live in the factors
        if name in self.left.gens:
            a = self.left.gen(name)
            return self.from_pair(a, self.right.one())
        if name in self.right.gens:
            b = self.right.gen(name)
            return self.from_pair(self.left.one(), b)
        raise UnknownGeneratorError("unknown generator %r" % (name,))

    def element(self, terms):
        f = self.field
        clean = {}
        for mono, c in terms.items():
            c = f.coerce(c)
            if not f.is_zero(c):
                clean[mono] = c
        return AlgebraElement(self, clean)

    def from_pair(self, a_elem, b_elem):
        """A (x) B element from factor elements (no crossing happens)."""
        assert self.variant == TWISTED_PRODUCT
        f = self.field
        terms = {}
        for am, ac in a_elem.terms.items():
            for bm, bc in b_elem.terms.items():
                c = f.mul(ac, bc)
                if not f.is_zero(c):
                    terms[(am, bm)] = c
        return AlgebraElement(self, terms)

    # -- monomial structure ---------------------------------------------------

    def monomial_degree(self, mono):
        """Filtration degree: deg(x_i) = 1, deg(group gen) = 0."""
        if self.variant in (POLYNOMIAL, ITERATED_ORE):
            return sum(mono)
        if self.variant == CYCLIC_GROUP:
            return 0
        return (self.left.monomial_degree(mono[0])
                + self.right.monomial_degree(mono[1]))

    def monomial_key(self, mono):
        """Deterministic sort key: degree, then lexicographic on exponents
        (x_1-heavy monomials first, matching 1 < x < y < x^2 < xy < y^2)."""
        if self.variant in (POLYNOMIAL, ITERATED_ORE):
            return (sum(mono), tuple(-e for e in mono))
        if self.variant == CYCLIC_GROUP:
            return (0, mono)
        return (self.monomial_degree(mono),
                self.left.monomial_key(mono[0]),
                self.right.monomial_key(mono[1]))

    def format_monomial(self, mono):
        if self.variant in (POLYNOMIAL, ITERATED_ORE):
            parts = []
            for name, e in zip(self.gens, mono):
                if e == 1:
                    parts.append(name)
                elif e > 1:
                    parts.append("%s^%d" % (name, e))
            return "*".join(parts) if parts else "1"
        if self.variant == CYCLIC_GROUP:
            g = self.gens[0]
            return "1" if mono == 0 else (g if mono == 1 else "%s^%d" % (g, mono))
        return "%s⊗%s" % (self.left.format_monomial(mono[0]),
                          self.right.format_monomial(mono[1]))

    # -- monomial multiplication ----------------------------------------------

    def mono_mul(self, m1, m2):
        """Normal form of m1 * m2 as a dict monomial -> scalar, memoized
        (an iterated-Ore product memoizes each prefix it passes through,
        see ``_ore_mul``); the caller must not mutate it."""
        key = (m1, m2)
        hit = self._mul_cache.get(key)
        if hit is not None:
            return hit
        if self.variant == POLYNOMIAL:
            out = {tuple(a + b for a, b in zip(m1, m2)): self.field.one}
        elif self.variant == CYCLIC_GROUP:
            out = {(m1 + m2) % self.order: self.field.one}
        elif self.variant == ITERATED_ORE:
            out = self._ore_mul(m1, m2)
        else:
            out = crossed_mono_mul(self.twist, m1, m2)
        self._mul_cache[key] = out
        return out

    def _ore_mul(self, m1, m2):
        """m1 * m2 from the longest prefix of m2 whose product with m1 is
        memoized.

        Appending the last, highest letter x_j of a normal word keeps it
        normal, so m2 = p x_j for p = m2 less one x_j, and m1 m2 = (m1 p) x_j.
        The walk back strips last letters until (m1, p) is in the memo (or
        p is 1); the walk forward appends them one ``_times_gen`` step at a
        time and memoizes each product on the way."""
        f = self.field
        cache = self._mul_cache
        steps = []
        p = m2
        while True:
            j = _last_letter(p)
            if j < 0:
                out = {m1: f.one}
                break
            steps.append((p, j))
            p = p[:j] + (p[j] - 1,) + p[j + 1:]
            out = cache.get((m1, p))
            if out is not None:
                break
        times_gen = self._times_gen
        for p, j in reversed(steps):
            acc = {}
            get = acc.get
            for m, c in out.items():
                for mm, cm in times_gen(m, j).items():
                    acc[mm] = get(mm, 0) + c * cm
            out = cache[(m1, p)] = reduce_sums(f, acc)
        return out

    @staticmethod
    def _word(mono):
        w = []
        for i, e in enumerate(mono):
            w.extend([i] * e)
        return tuple(w)

    def _exp(self, word):
        e = [0] * len(self.gens)
        for i in word:
            e[i] += 1
        return tuple(e)

    def _times_gen(self, mono, j):
        """Normal form of the normal monomial ``mono`` times x_j, memoized.

        Ore recursion: for mono = u x_i whose last letter has i > j,
        mono x_j = (u x_j) x_i + u delta[(i, j)].  Every monomial of u x_j
        and of u x_m (m < i) has its letters <= i, so appending x_i keeps
        it normal.  Missing entries are filled from an explicit stack, each
        after the lower-degree entries it reads, so the depth follows the
        degree without touching the recursion limit."""
        memo = self._gen_cache
        top = (mono, j)
        hit = memo.get(top)
        if hit is not None:
            return hit
        f = self.field
        stack = [top]
        while stack:
            key = stack[-1]
            if key in memo:
                stack.pop()
                continue
            mono, j = key
            i = len(mono) - 1
            while i > j and not mono[i]:
                i -= 1
            if i == j:
                memo[key] = {mono[:j] + (mono[j] + 1,) + mono[j + 1:]: f.one}
                stack.pop()
                continue
            u = mono[:i] + (mono[i] - 1,) + mono[i + 1:]
            delta = self.delta.get((i, j), {})
            needs = [(u, j)] + [(u, dm.index(1)) for dm in delta if any(dm)]
            missing = [k for k in needs if k not in memo]
            if missing:
                stack.extend(missing)
                continue
            stack.pop()
            out = {n[:i] + (n[i] + 1,) + n[i + 1:]: c
                   for n, c in memo[(u, j)].items()}
            for dm, dc in delta.items():
                dc = f.coerce(dc)
                if any(dm):
                    for n, c in memo[(u, dm.index(1))].items():
                        add_term(f, out, n, dc * c)
                else:
                    add_term(f, out, u, dc)
            memo[key] = out
        return memo[top]

    def __repr__(self):
        if self.name:
            return self.name
        if self.variant == CYCLIC_GROUP:
            return "k[Z/%d]" % self.order
        if self.variant == TWISTED_PRODUCT:
            return "(%r⊗%r)" % (self.left, self.right)
        return "%s<%s>" % (self.variant, ",".join(self.gens))


def _last_letter(mono):
    """Index of the last generator of a normal monomial, -1 for 1."""
    j = len(mono) - 1
    while j >= 0 and not mono[j]:
        j -= 1
    return j


def crossed_mono_mul(t, m1, m2):
    """(a (x) b)(a' (x) b') = a tau(b (x) a') b' on monomial pairs
    m1 = (a, b), m2 = (a', b') of A (x)_tau B, tau the twist ``t``, as a
    dict (a_mono, b_mono) -> scalar.  Not memoized: the twisted product's
    ``mono_mul`` keeps it in the algebra's memo, ``twist.check_hexagon``
    in a memo that lasts for the one check."""
    (a1, b1), (a2, b2) = m1, m2
    f = t.field
    out = {}
    for (am, bm), c in t.monomial_rule(b1, a2).items():
        for aa, ac in t.a_spec.mono_mul(a1, am).items():
            for bb, bc in t.b_spec.mono_mul(bm, b2).items():
                add_term(f, out, (aa, bb), c * ac * bc)
    return out


class AlgebraElement:
    """Sparse linear combination of normal-form monomials."""

    __slots__ = ("spec", "terms")

    def __init__(self, spec, terms):
        self.spec = spec
        self.terms = terms

    def __bool__(self):
        return bool(self.terms)

    def _check(self, other):
        if self.spec is not other.spec:
            raise SpecMismatchError("elements of %r and %r" % (self.spec, other.spec))

    def __add__(self, other):
        self._check(other)
        f = self.spec.field
        out = dict(self.terms)
        for m, c in other.terms.items():
            add_term(f, out, m, c)
        return AlgebraElement(self.spec, out)

    def __neg__(self):
        f = self.spec.field
        return AlgebraElement(self.spec, {m: f.neg(c) for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, AlgebraElement):
            return self.scale(other)
        self._check(other)
        f = self.spec.field
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                c = f.mul(c1, c2)
                for m, cm in self.spec.mono_mul(m1, m2).items():
                    add_term(f, out, m, c * cm)
        return AlgebraElement(self.spec, out)

    def __rmul__(self, scalar):
        return self.scale(scalar)

    def __pow__(self, n):
        if not isinstance(n, int) or n < 0:
            raise AlgebraError("powers must be non-negative integers")
        out = self.spec.one()
        for _ in range(n):
            out = out * self
        return out

    def scale(self, scalar):
        f = self.spec.field
        s = f.coerce(scalar)
        if f.is_zero(s):
            return AlgebraElement(self.spec, {})
        return AlgebraElement(self.spec,
                              {m: f.mul(s, c) for m, c in self.terms.items()})

    def __eq__(self, other):
        if not isinstance(other, AlgebraElement):
            return NotImplemented
        return self.spec is other.spec and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        f = self.spec.field
        bits = []
        for m in sorted(self.terms, key=self.spec.monomial_key):
            c = self.terms[m]
            mono = self.spec.format_monomial(m)
            if mono == "1":
                frag = str(c)
            elif c == f.one:
                frag = mono
            elif f.characteristic == 0 and c == -f.one:
                frag = "-%s" % mono
            else:
                frag = "%s*%s" % (c, mono)
            bits.append(frag)
        s = " + ".join(bits)
        return s.replace("+ -", "- ")


# -- public operations ---------------------------------------------------------


def polynomial_algebra(gens, field=QQ, name=None):
    return AlgebraSpec(POLYNOMIAL, field, gens=tuple(gens), name=name)


def cyclic_group_algebra(order, field=QQ, name=None):
    if order < 1:
        raise AlgebraError("group order must be >= 1")
    return AlgebraSpec(CYCLIC_GROUP, field, gens=("g",), order=order, name=name)


def iterated_ore_algebra(gens, delta, field=QQ, name=None):
    """delta: dict (j, i) -> {exponent tuple: coefficient}, 0-based indices,
    i < j, entries constant-plus-linear in x_1..x_{j-1}."""
    return AlgebraSpec(ITERATED_ORE, field, gens=tuple(gens), delta=dict(delta),
                       name=name)


def delta_table_from_strings(gens, table, field=QQ):
    """Convenience: {outer gen name: {inner gen name: element string}} ->
    the exponent-tuple delta table."""
    probe = polynomial_algebra(gens, field)
    out = {}
    for outer, row in table.items():
        j = probe.gen_index(outer)
        for inner, text in row.items():
            i = probe.gen_index(inner)
            elem = parse_element(str(text), probe)
            out[(j, i)] = dict(elem.terms)
    return out


def basis_up_to(spec, n):
    """All monomials of filtration degree <= n, deterministically ordered
    (degree, then lexicographic on exponents).  Cyclic group algebras
    return the full basis regardless of n.  Each spec enumerates a bound
    once; every call returns a fresh copy that the caller may mutate."""
    if n < 0:
        raise AlgebraError("negative degree bound")
    hit = spec._basis_cache.get(n)
    if hit is None:
        hit = spec._basis_cache[n] = _enumerate_basis(spec, n)
    return list(hit)


def _enumerate_basis(spec, n):
    if spec.variant == CYCLIC_GROUP:
        return list(range(spec.order))
    if spec.variant in (POLYNOMIAL, ITERATED_ORE):
        t = len(spec.gens)
        if t == 0:
            return [()]
        monos = []

        def rec(prefix, remaining):
            if len(prefix) == t - 1:
                monos.append(tuple(prefix) + (remaining,))
                return
            for e in range(remaining, -1, -1):
                rec(prefix + [e], remaining - e)

        out = []
        for d in range(n + 1):
            monos.clear()
            rec([], d)
            # within a degree: lexicographically larger exponent tuples first
            out.extend(sorted(monos, key=lambda m: tuple(-e for e in m)))
        return out
    # twisted product
    la = basis_up_to(spec.left, n)
    lb = basis_up_to(spec.right, n)
    pairs = [(a, b) for a in la for b in lb
             if spec.left.monomial_degree(a) + spec.right.monomial_degree(b) <= n]
    pairs.sort(key=spec.monomial_key)
    return pairs


def leibniz_extension(spec, images):
    """The derivation of ``spec`` with generator images ``images`` (index
    -> AlgebraElement) on monomials, by the product rule
    d(g_1..g_k) = sum_p g_1..g_(p-1) d(g_p) g_(p+1)..g_k, normal-ordered
    through mono_mul: a memoized function monomial -> sparse dict
    monomial -> scalar, whose results the caller must not mutate."""
    f = spec.field
    cache = {}

    def derive(mono):
        hit = cache.get(mono)
        if hit is not None:
            return hit
        word = spec._word(mono)
        out = {}
        for pos, g in enumerate(word):
            img = images.get(g)
            if img is None:
                continue
            left = spec._exp(word[:pos])
            right = spec._exp(word[pos + 1:])
            for m, c in img.terms.items():
                for lm, lc in spec.mono_mul(left, m).items():
                    w = f.mul(c, lc)
                    for rm, rc in spec.mono_mul(lm, right).items():
                        add_term(f, out, rm, w * rc)
        cache[mono] = out
        return out

    return derive


def filtration_degree(elem):
    """Max filtration degree over the support; errors on the zero element."""
    if not elem.terms:
        raise ZeroElementError("the zero element has no filtration degree")
    return max(elem.spec.monomial_degree(m) for m in elem.terms)


# -- standard examples ------------------------------------------------------------

def weyl_algebra(n=1):
    """The n-th Weyl algebra: x_i y_i - y_i x_i = 1, all other pairs commute.

    Presented as an iterated Ore extension on x_1..x_n, y_1..y_n with
    delta_{y_i}(x_i) = -1 (so y_i x_i rewrites to x_i y_i - 1).
    """
    if n == 1:
        gens = ("x", "y")
    else:
        gens = tuple("x%d" % (i + 1) for i in range(n)) + \
            tuple("y%d" % (i + 1) for i in range(n))
    zero_mono = (0,) * (2 * n)
    delta = {(n + i, i): {zero_mono: -1} for i in range(n)}
    return AlgebraSpec(ITERATED_ORE, QQ, gens=gens, delta=delta,
                       name="Weyl" if n == 1 else "Weyl_%d" % n)


def solvable_2dim_algebra():
    """U(g) for the 2-dim solvable Lie algebra [x, y] = y:
    x y rewrites to y x + y."""
    return AlgebraSpec(ITERATED_ORE, QQ, gens=("y", "x"),
                       delta={(1, 0): {(1, 0): 1}}, name="U(solv2)")


def heisenberg_algebra():
    """U(h) for the 3-dim Heisenberg Lie algebra [x, y] = z, z central:
    x y rewrites to y x + z."""
    return AlgebraSpec(ITERATED_ORE, QQ, gens=("z", "y", "x"),
                       delta={(2, 1): {(1, 0, 0): 1}}, name="U(heis3)")


# -- linear-combination strings --------------------------------------------------

def parse_element(text, spec):
    """Parse '2*x^2*y - 1', 'x⊗y − 1⊗1', '-g^2' ... over spec's generators.

    '⊗' and '*' both mean multiplication (twisted-product normal forms put
    the A factor left of the B factor anyway); '−' is accepted for '-'.
    Coefficients are integers or a/b rationals.
    """
    s = text.replace("−", "-").replace("⊗", "*").replace("·", "*")
    tokens = _tokenize(s)
    if not tokens:
        raise AlgebraError("empty element string %r" % (text,))
    pos = 0
    total = spec.zero()
    sign = 1
    first = True
    while pos < len(tokens):
        tok = tokens[pos]
        if tok in "+-":
            sign = 1 if tok == "+" else -1
            pos += 1
            first = False
            continue
        if not first and tokens[pos - 1] not in "+-":
            raise AlgebraError("missing operator before %r in %r" % (tok, text))
        term, pos = _parse_term(tokens, pos, spec, text)
        total = total + term.scale(sign)
        sign = 1
        first = False
    return total


def _tokenize(s):
    out = []
    i = 0
    while i < len(s):
        ch = s[i]
        if ch.isspace():
            i += 1
        elif ch in "+-*^/":
            out.append(ch)
            i += 1
        elif ch.isdigit():
            j = i
            while j < len(s) and s[j].isdigit():
                j += 1
            out.append(s[i:j])
            i = j
        elif ch.isalpha() or ch == "_":
            j = i
            while j < len(s) and (s[j].isalnum() or s[j] == "_"):
                j += 1
            out.append(s[i:j])
            i = j
        else:
            raise AlgebraError("unexpected character %r" % ch)
    return out


def _parse_term(tokens, pos, spec, text):
    coeff = Fraction(1)
    out = None
    expect_factor = True
    while pos < len(tokens) and tokens[pos] not in "+-":
        tok = tokens[pos]
        if tok == "*":
            pos += 1
            expect_factor = True
            continue
        if not expect_factor:
            break
        if tok.isdigit():
            num = int(tok)
            pos += 1
            if pos + 1 < len(tokens) and tokens[pos] == "/" and tokens[pos + 1].isdigit():
                if not int(tokens[pos + 1]):
                    raise AlgebraError("zero denominator in %r" % (text,))
                coeff *= Fraction(num, int(tokens[pos + 1]))
                pos += 2
            else:
                coeff *= num
        else:
            gen = spec.gen(tok)  # raises UnknownGeneratorError
            power = 1
            pos += 1
            if pos + 1 < len(tokens) and tokens[pos] == "^" and tokens[pos + 1].isdigit():
                power = int(tokens[pos + 1])
                pos += 2
            fac = spec.one()
            for _ in range(power):
                fac = fac * gen
            out = fac if out is None else out * fac
        expect_factor = False
    if out is None:
        out = spec.one()
    try:
        return out.scale(coeff), pos
    except ZeroDivisionError:
        raise AlgebraError("coefficient %s of %r is not in the field"
                           % (coeff, text)) from None
