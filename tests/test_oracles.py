"""Random-input oracles: an independent route to a verdict the package
reaches, run on inputs nobody picked.

Hexagon and associativity.  A unital tau makes A (x)_tau B associative
exactly when it satisfies the hexagon identity (Cap, Schichl & Vanzura,
Comm. Algebra 23, 1995).  So on a perturbed shipped twist,
``check_hexagon(t, d)`` must pass exactly when brute force finds every
triple of monomials a (x) b (deg a, deg b <= d) associative under the
product of ``t.product()``, the one path for tau on elements.  The
perturbations change tau on pairs inside that same degree <= d box.

Chevalley-Eilenberg.  For a Lie-type iterated-Ore table (every delta
linear, no constant term) A is U(g), and Tor and Ext over A from k to k
are the homology of the exterior complex of g (Chevalley & Eilenberg,
Trans. AMS 63, 1948).  So ``tor_over_augmented`` and
``ext_over_augmented`` of ``ore_koszul(A, bimodule=False)`` must equal
that homology, built straight from the table and ranked by sympy; and
``iterated_ore_algebra`` must accept a table exactly when the Jacobi
identity holds.

Resolution independence.  HH^*(A) does not depend on the resolution, so
``hochschild_cohomology`` through the wedge resolution must agree with
that through the reduced bar resolution wherever both give a number.
And the twisted product of the wedge resolutions of A and k[x] over an
Ore twist x r = r x + delta(r) is a resolution of A[x; delta] built
from the same free modules, so in twisted coordinates it must be, term
for term, the wedge resolution ``ore_koszul`` builds on that algebra's
presentation.
"""

from itertools import combinations

from hypothesis import event, given, settings, strategies as st
from sympy import GF, QQ as QQ_SYMPY
from sympy.polys.matrices import DomainMatrix

from twistres.algebra import (
    AlgebraElement, DeltaTableError, basis_up_to, iterated_ore_algebra,
    polynomial_algebra,
)
from twistres.complex import compose_check
from twistres.homology import (
    ext_over_augmented, hochschild_cohomology, tor_over_augmented,
)
from twistres.kernel import QQ, PrimeField
from twistres.resolutions import bar, ore_koszul
from twistres.twist import (
    check_hexagon, ore_twist, solvable_pair_twist, triangular_action_twist,
    weyl_twist,
)
from twistres.twistprod import (
    complexes_match, koszul_pair_product, present_over_twisted_algebra,
    transport_complex,
)


def _weyl_twist_f3():
    f = PrimeField(3)
    return ore_twist(polynomial_algebra(("x",), f, name="k[x]"),
                     polynomial_algebra(("y",), f, name="k[y]"), {"x": "-1"},
                     name="weyl")


SHIPPED = {
    "weyl": weyl_twist,
    "weyl-F3": _weyl_twist_f3,
    "solvable-pair": solvable_pair_twist,
    "triangular-2": lambda: triangular_action_twist(2),
    "triangular-3": lambda: triangular_action_twist(3),
}


def associative(t, d):
    """Brute force: (uv)w == u(vw) in A (x)_tau B for every triple of
    monomials a (x) b with deg a, deg b <= d."""
    p = t.product()
    one = t.field.one
    monos = [AlgebraElement(p, {(am, bm): one})
             for am in basis_up_to(t.a_spec, d)
             for bm in basis_up_to(t.b_spec, d)]
    for u in monos:
        for v in monos:
            uv = u * v
            for w in monos:
                if uv * w != u * (v * w):
                    return False
    return True


@st.composite
def perturbed_twists(draw):
    """(t, d): a shipped twist with one to three of its non-unit pairs of
    degree <= d each moved by c (a' (x) b'), deg a', deg b' <= d + 1 and
    c in {-1, 0, 1, 2} (c = 0 and repeats leave tau as it was)."""
    t = SHIPPED[draw(st.sampled_from(sorted(SHIPPED)))]()
    d = draw(st.integers(1, 2))
    f = t.field
    bs = [m for m in basis_up_to(t.b_spec, d) if m != t.b_spec.one_monomial()]
    as_ = [m for m in basis_up_to(t.a_spec, d) if m != t.a_spec.one_monomial()]
    targets = [(am, bm) for am in basis_up_to(t.a_spec, d + 1)
               for bm in basis_up_to(t.b_spec, d + 1)]
    table = {}
    for _ in range(draw(st.integers(1, 3))):
        pair = (draw(st.sampled_from(bs)), draw(st.sampled_from(as_)))
        image = dict(table.get(pair) or t.monomial_rule(*pair))
        target = draw(st.sampled_from(targets))
        c = f.coerce(draw(st.sampled_from([-1, 0, 1, 2])))
        image[target] = f.coerce(image.get(target, f.zero) + c)
        table[pair] = image
    return t.with_overrides(table), d


@settings(max_examples=120, derandomize=True, deadline=None)
@given(perturbed_twists())
def test_hexagon_passes_exactly_when_the_product_is_associative(case):
    t, d = case
    hexagon, assoc = check_hexagon(t, d).passed, associative(t, d)
    event("hexagon %s, associativity %s" % ("passes" if hexagon else "fails",
                                            "holds" if assoc else "fails"))
    assert hexagon == assoc


def test_hexagon_reads_pairs_beyond_the_triples_box():
    # check_hexagon(t, d) reads tau(bb' (x) aa') with bb', aa' of degree up
    # to 2d, the triples of degree <= d only up to (2d, d) and (d, 2d):
    # a change to tau(y^2 (x) x^2) alone is seen by the degree-1 hexagon
    # and by the degree-2 triples, not by the degree-1 triples
    t = weyl_twist()
    image = dict(t.monomial_rule((2,), (2,)))
    image[((0,), (0,))] += 1
    bad = t.with_overrides({((2,), (2,)): image})
    assert not check_hexagon(bad, 1).passed
    assert associative(bad, 1)
    assert not associative(bad, 2)
    assert check_hexagon(t, 2).passed and associative(t, 2)


# -- Chevalley-Eilenberg ------------------------------------------------------


def lie_bracket(t, table, i, j):
    """[x_i, x_j] as a dict generator index -> coefficient, read straight
    off an iterated-Ore table (x_j x_i = x_i x_j + delta_j(x_i) for i < j,
    so [x_j, x_i] = delta_j(x_i))."""
    if i == j:
        return {}
    lo, hi = min(i, j), max(i, j)
    sign = 1 if i > j else -1
    return {mono.index(1): sign * c
            for mono, c in table.get((hi, lo), {}).items()}


def jacobi_holds(t, table, p):
    """[a, [b, c]] + [b, [c, a]] + [c, [a, b]] = 0 on every generator
    triple, over Q (p = 0) or F_p."""
    def bracket(u, v):
        out = {}
        for i, a in u.items():
            for j, b in v.items():
                for k, c in lie_bracket(t, table, i, j).items():
                    out[k] = out.get(k, 0) + a * b * c
        return out
    for a, b, c in combinations(range(t), 3):
        total = {}
        for u, v, w in ((a, b, c), (b, c, a), (c, a, b)):
            for k, x in bracket({u: 1}, bracket({v: 1}, {w: 1})).items():
                total[k] = total.get(k, 0) + x
        if any(x % p if p else x for x in total.values()):
            return False
    return True


def chevalley_eilenberg_homology(t, table, p):
    """dim H_n(g; k), n = 0..t, of the Lie algebra on x_1..x_t with the
    table's brackets: the complex Lambda^n g with
    d(x_i1 ^ .. ^ x_in) = sum_{a<b} (-1)^(a+b) [x_ia, x_ib] ^ (the rest),
    ranked by sympy over Q or GF(p)."""
    domain = GF(p) if p else QQ_SYMPY
    wedges = [list(combinations(range(t), n)) for n in range(t + 1)]
    ranks = [0] * (t + 2)
    for n in range(2, t + 1):
        index = {w: r for r, w in enumerate(wedges[n - 1])}
        rows = [[0] * len(wedges[n]) for _ in wedges[n - 1]]
        for col, w in enumerate(wedges[n]):
            for a, b in combinations(range(n), 2):
                rest = w[:a] + w[a + 1:b] + w[b + 1:]
                for k, c in lie_bracket(t, table, w[a], w[b]).items():
                    if k in rest:
                        continue
                    # k ^ rest, sorted: past the slots of rest below k
                    moves = sum(1 for r in rest if r < k)
                    target = tuple(sorted(rest + (k,)))
                    rows[index[target]][col] += (-1) ** (a + b + moves) * c
        ranks[n] = DomainMatrix(
            [[domain(v) for v in row] for row in rows],
            (len(rows), len(wedges[n])), domain).rank()
    return [len(wedges[n]) - ranks[n] - ranks[n + 1] for n in range(t + 1)]


@st.composite
def lie_type_tables(draw):
    """(t, p, table): generators x_0..x_(t-1), t = 2..4, over Q (p = 0)
    or F_3, each delta_j(x_i) (i < j) a linear combination of
    x_0..x_(j-1) with no constant term (so that the ground field is a
    module), its coefficients drawn with a per-table share of zeros.
    Tables that break PBW stay in: they are the ones the Jacobi identity
    rejects."""
    t = draw(st.integers(2, 4))
    p = draw(st.sampled_from([0, 3]))
    coefficients = [0] * draw(st.integers(1, 6)) + [1, -1, 2]
    table = {}
    for j in range(1, t):
        for i in range(j):
            entry = {tuple(int(m == k) for m in range(t)): c
                     for k in range(j)
                     for c in [draw(st.sampled_from(coefficients))] if c}
            if entry:
                table[(j, i)] = entry
    return t, p, table


@settings(max_examples=400, derandomize=True, deadline=None)
@given(lie_type_tables())
def test_tor_and_ext_over_enveloping_algebras_are_lie_algebra_homology(case):
    t, p, table = case
    field = PrimeField(p) if p else QQ
    try:
        algebra = iterated_ore_algebra("abcd"[:t], table, field)
    except DeltaTableError:
        algebra = None
    event("%s, %d generators, %s" % (
        "F_3" if p else "Q", t, "PBW rejected" if algebra is None
        else "abelian" if not table else "Lie algebra"))
    assert (algebra is not None) == jacobi_holds(t, table, p)
    if algebra is None:
        return
    bundle = ore_koszul(algebra, bimodule=False)
    # Tor and Ext are the homology of k (x) P only when P is a complex
    assert compose_check(bundle.complex).passed
    want = chevalley_eilenberg_homology(t, table, p)
    assert tor_over_augmented(bundle) == want
    assert ext_over_augmented(bundle) == want


# -- resolution independence --------------------------------------------------


@st.composite
def two_generator_tables(draw):
    """(p, table): x, y over Q (p = 0) or F_3 with y x = x y + c0 + c1 x,
    which covers k[x, y] (c0 = c1 = 0), the Weyl algebra (c1 = 0) and
    the 2-dim solvable enveloping algebra (c1 != 0).  Over F_3 only
    k[x, y] compares, through its graded slices: the others are finite
    over their centre there, their HH is infinite-dimensional, and no
    stage is stable in both resolutions."""
    p = draw(st.sampled_from([0, 3]))
    entry = {mono: c for mono in ((0, 0), (1, 0))
             for c in [draw(st.sampled_from([0, 1, -1, 2]))] if c}
    return p, {(1, 0): entry} if entry else {}


@settings(max_examples=12, derandomize=True, deadline=None)
@given(two_generator_tables())
def test_hochschild_cohomology_does_not_depend_on_the_resolution(case):
    # windowed counts compare where both resolutions call them stable, and
    # graded slices wherever both report one: the truncated bar resolution
    # sees internal degrees up to 3 only, so its high windows fall short
    p, table = case
    algebra = iterated_ore_algebra(("x", "y"), table,
                                   PrimeField(p) if p else QQ)
    wedge = hochschild_cohomology(ore_koszul(algebra))
    simplicial = hochschild_cohomology(
        bar(algebra, 3, middle_cutoff=3, reduced=True))
    stable = [n for n in wedge.dims
              if wedge.stable[n] and simplicial.stable.get(n)]
    event("%s, %d of %d stages stable in both%s" % (
        "F_3" if p else "Q", len(stable), len(wedge.dims),
        ", graded slices compared" if wedge.graded else ""))
    assert [wedge.dims[n] for n in stable] == [
        simplicial.dims[n] for n in stable]
    assert wedge.graded == simplicial.graded
    if wedge.graded:
        shared = set(wedge.per_degree) & set(simplicial.per_degree)
        assert shared
        assert all(wedge.per_degree[k] == simplicial.per_degree[k]
                   for k in shared)


@st.composite
def ore_twist_images(draw):
    """(p, images): A = k[y] or k[y, z] over Q (p = 0) or F_3, and for
    each generator i of A its image delta(x_i) as {exponent tuple:
    coefficient}: a constant plus a linear combination of A's generators,
    the coefficients drawn with a per-case share of zeros."""
    p = draw(st.sampled_from([0, 3]))
    n = draw(st.integers(1, 2))
    coefficients = [0] * draw(st.integers(1, 6)) + [1, -1, 2]
    monos = [(0,) * n] + [tuple(int(m == k) for m in range(n))
                          for k in range(n)]
    images = [{mono: c for mono in monos
               for c in [draw(st.sampled_from(coefficients))] if c}
              for _ in range(n)]
    return p, images


@settings(max_examples=100, derandomize=True, deadline=None)
@given(ore_twist_images())
def test_koszul_pair_product_is_the_wedge_resolution_of_the_ore_extension(
        case):
    # the product's labels (i, j, v, w) pair an A-wedge v with a k[x]-wedge
    # w; merged, x follows A's generators, as in demos/weyl_plane.py
    p, images = case
    field = PrimeField(p) if p else QQ
    n = len(images)
    gens = ("y", "z")[:n]
    a = polynomial_algebra(gens, field, name="A")
    t = ore_twist(a, polynomial_algebra(("x",), field, name="k[x]"),
                  {g: a.element(image) for g, image in zip(gens, images)})
    merged = iterated_ore_algebra(
        gens + ("x",), {(n, i): {mono + (0,): c for mono, c in image.items()}
                        for i, image in enumerate(images) if image}, field)
    direct = ore_koszul(merged).complex
    product = koszul_pair_product(t)

    def merged_form(cplx):
        return transport_complex(
            cplx, merged, lambda pair: pair[0] + pair[1],
            lambda lab: lab[2] + tuple(g + n for g in lab[3]))

    linear = any(sum(mono) for image in images for mono in image)
    event("%s, %d generator(s) in A, delta %s" % (
        "F_3" if p else "Q", n, "with a linear term" if linear
        else "constant" if any(images) else "zero"))
    assert complexes_match(merged_form(present_over_twisted_algebra(product)),
                           direct).passed
    # the plain presentation carries no delta-correction on its
    # coefficients, so it matches only when delta has no linear term
    assert complexes_match(merged_form(product.complex),
                           direct).passed is not linear
