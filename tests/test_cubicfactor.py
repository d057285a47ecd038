"""Cubic factorization over the rationals."""

from fractions import Fraction
import functools
import itertools
import operator
import random

import pytest

from nullcone.cubicfactor import (
    FactorKind,
    Factorization,
    _coordinate_sections,
    _vanishes_at,
    expand_cubic,
    factor_cubic,
    factor_over_Q,
    factor_quadratic_form,
)
from nullcone import cubicfactor, exactmath
from nullcone.exactmath import (
    Poly,
    canonical_vector,
    exact_divide,
    frac,
    height,
    integral_divide,
    primitive_part,
    primitive_vector,
    spiral_key,
)
from nullcone.cli import fixture_names, load_fixture, parse_input
from nullcone.nsring import IntersectionForm
from nullcone.quadpoints import QuadraticForm

from helpers import (
    SECTION_DECOY_CUBIC,
    det,
    form_of_cubic,
    is_exact,
    key_shape_forms,
    nonzero_vector,
    plant_reducible_form,
    random_form,
    random_gram,
    random_linear_poly,
    random_quadric_poly,
)


def lin(coords):
    return Poly.linear([frac(c) for c in coords])


# ---------------------------------------------------------------------------
# expand_cubic


def test_expand_cubic_matches_cube_random():
    rng = random.Random(41)
    for _ in range(25):
        n = rng.randint(2, 5)
        form = random_form(rng, n, 5)
        poly = expand_cubic(form)
        assert poly.is_homogeneous(3)
        for _ in range(5):
            x = nonzero_vector(rng, n, 4)
            assert poly.evaluate(x) == form.cube(x)


def test_expand_cubic_multiplicity_rule():
    # entry (0,0,1) contributes 3 x0^2 x1; entry (0,1,2) contributes 6 x0x1x2
    form = IntersectionForm(3, {(0, 0, 1): 1, (0, 1, 2): 1})
    poly = expand_cubic(form)
    assert poly.coeff((2, 1, 0)) == 3
    assert poly.coeff((1, 1, 1)) == 6


def test_expand_cubic_vs_ordered_sum():
    # the sum over ordered index triples of d_sorted(abc) x_a x_b x_c
    rng = random.Random(44)
    for form in key_shape_forms(rng, 4) + [random_form(rng, 4, 5)]:
        terms: dict = {}
        for key in itertools.product(range(4), repeat=3):
            v = form.entries.get(tuple(sorted(key)), 0)
            e = [0] * 4
            for i in key:
                e[i] += 1
            terms[tuple(e)] = terms.get(tuple(e), 0) + v
        assert expand_cubic(form) == Poly(4, terms)


# ---------------------------------------------------------------------------
# factor_over_Q: each kind, with exact reconstruction


def test_factor_linear_times_quadric():
    n = 3
    f = lin([1, 1, 0]) * (
        Poly.variable(n, 0) ** 2 + Poly.variable(n, 1) ** 2 + Poly.variable(n, 2) ** 2
    )
    r = factor_over_Q(f)
    assert r.kind is FactorKind.LINEAR_TIMES_QUADRIC
    assert r.linears == ((1, 1, 0),)
    assert r.quadric is not None
    assert r.reconstruct(n) == f


def test_factor_three_distinct_linear_no_cube_coefficient():
    # 6 x0 x1 x2 has no x_i^3 monomial: exercises the shear fallback
    n = 3
    f = Poly.constant(n, frac(6))
    for i in range(n):
        f = f * Poly.variable(n, i)
    r = factor_over_Q(f)
    assert r.kind is FactorKind.THREE_LINEAR
    assert r.scalar == 6
    assert sorted(r.linears) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
    assert r.reconstruct(n) == f


def test_factor_square_times_linear_orders_repeated_first():
    f = (lin([1, 1, 0]) ** 2) * lin([1, 0, -1])
    r = factor_over_Q(f)
    assert r.kind is FactorKind.LINEAR_SQUARE_TIMES_LINEAR
    assert r.linears[0] == r.linears[1] == (1, 1, 0)
    assert r.linears[2] == (1, 0, -1)
    assert r.reconstruct(3) == f


def test_factor_cube():
    f = lin([2, -1, 0]) ** 3
    r = factor_over_Q(f)
    assert r.kind is FactorKind.LINEAR_CUBE
    assert r.linears == ((2, -1, 0),) * 3
    assert r.reconstruct(3) == f


def test_factor_irreducible_diagonal():
    for diag in ([1, 1, 1], [1, 1, -2, 3], [1, 2, -3]):
        f = expand_cubic(IntersectionForm.diagonal(diag))
        r = factor_over_Q(f)
        assert r.kind is FactorKind.IRREDUCIBLE
        assert r.linears == () and r.quadric is None
        with pytest.raises(ValueError):
            r.reconstruct(len(diag))


def test_factor_scalar_handling():
    f = Poly.constant(2, frac(-4)) * (lin([1, 0]) ** 3)
    r = factor_over_Q(f)
    assert r.kind is FactorKind.LINEAR_CUBE
    assert r.scalar == -4
    assert r.reconstruct(2) == f


def test_factor_embedded_binary_cubic():
    # x0^3 + x1^3 inside three variables splits as L * Q
    f = Poly.variable(3, 0) ** 3 + Poly.variable(3, 1) ** 3
    r = factor_over_Q(f)
    assert r.kind is FactorKind.LINEAR_TIMES_QUADRIC
    assert r.linears == ((1, 1, 0),)
    assert r.reconstruct(3) == f


def test_factor_rejects_bad_input():
    with pytest.raises(ValueError):
        factor_over_Q(Poly.zero(3))
    with pytest.raises(ValueError):
        factor_over_Q(Poly.linear([1, 2, 3]))


def test_factor_seed_invariant_result():
    x0, x1, x2 = (Poly.variable(3, i) for i in range(3))
    cases = [
        (lin([1, 0, -1, 2]) * lin([0, 1, 1, 0]) * lin([1, 1, 0, -1]), FactorKind.THREE_LINEAR),
        # no pure cube: the search shears before it picks a pivot
        (6 * x0 * x1 * x2, FactorKind.THREE_LINEAR),
        # a linear form times an irreducible quadric, again with no pure cube
        (x0 * (x1 * x1 + x1 * x2 + 2 * x2 * x2), FactorKind.LINEAR_TIMES_QUADRIC),
        # (1, 1, 1) passes the section filter but not the division
        (SECTION_DECOY_CUBIC, FactorKind.LINEAR_TIMES_QUADRIC),
        # two variables: the cubic vanishes at the shift (1, 1), so the shear
        # must go on to (1, -1)
        (Poly(2, {(2, 1): 1, (1, 2): -1}), FactorKind.THREE_LINEAR),
    ]
    for f, kind in cases:
        results = [factor_over_Q(f, seed=s) for s in range(6)]
        for r in results:
            assert r.kind is kind
            assert r.reconstruct(f.nvars) == f
            assert r == results[0]
    assert factor_over_Q(6 * x0 * x1 * x2).linears == ((0, 0, 1), (0, 1, 0), (1, 0, 0))
    decoy = factor_over_Q(SECTION_DECOY_CUBIC)
    assert decoy.linears == ((7, -9, 7),) and decoy.scalar == -1
    binary = factor_over_Q(cases[-1][0])
    assert binary.linears == ((0, 1), (1, 0), (1, -1)) and binary.scalar == 1


def _differential_corpus(rng) -> list[IntersectionForm]:
    """Forms for every path of factor_cubic: dense and sparse random forms at
    ranks 1-8; forms with no d_iii (the shear path); L^2 L' and L^3 cubics,
    whose anchor roots are multiple; planted 6 L Q and three-linear forms;
    an irreducible form whose candidate survives its refutation point; and
    the bundled fixtures."""
    forms = []
    for n in range(1, 9):
        for _ in range(3):
            forms.append(random_form(rng, n, 3))
            sparse = {
                tuple(sorted(rng.randrange(n) for _ in range(3))): rng.choice((-1, 1)) * rng.randint(1, 4)
                for _ in range(n + 1)
            }
            forms.append(IntersectionForm(n, sparse))
            no_pure = {k: v for k, v in random_form(rng, n, 3).entries.items() if len(set(k)) > 1}
            if no_pure:
                forms.append(IntersectionForm(n, no_pure))
        l1, l2, l3 = (random_linear_poly(rng, n, 2) for _ in range(3))
        forms.append(form_of_cubic(l1 * l1 * l2))
        forms.append(form_of_cubic(l1 * l1 * l1))
        forms.append(form_of_cubic(l1 * l2 * l3))
        if n >= 2:
            forms.append(plant_reducible_form(rng, n)[0])
    # irreducible, and the candidate x0 at the simple root e1 survives its
    # refutation point e2 (no x2^3 term) but does not divide
    forms.append(IntersectionForm(3, {(0, 0, 0): -1, (0, 1, 1): 1, (0, 1, 2): -2, (1, 2, 2): 1}))
    forms.extend(parse_input(load_fixture(name)).form for name in fixture_names())
    return forms


def test_factor_cubic_matches_factor_over_Q_of_the_expansion():
    # deciding on the table first changes no answer: the same kind, scalar,
    # linears and quadric as the search on the expanded cubic, at every seed
    rng = random.Random(2024)
    for form in _differential_corpus(rng):
        for seed in range(3):
            got = factor_cubic(form, seed)
            want = factor_over_Q(expand_cubic(form), seed)
            assert (got.kind, got.scalar, got.linears, got.quadric) == (
                want.kind, want.scalar, want.linears, want.quadric
            ), (form.entries, seed)
    zero = IntersectionForm(3, {})
    with pytest.raises(ValueError) as got:
        factor_cubic(zero)
    with pytest.raises(ValueError) as want:
        factor_over_Q(expand_cubic(zero))
    assert str(got.value) == str(want.value)


def test_candidates_are_refuted_before_a_division_on_both_sources(monkeypatch):
    # the table and the expanded cubic take one search: a tangent hyperplane
    # is divided only when the cubic vanishes at its refutation point, and
    # the table cubic is expanded only for a division
    divisions, expansions = [], []
    real_divided, real_expand = cubicfactor._divided, cubicfactor.expand_cubic

    def divided(f, cand):
        divisions.append(cand)
        return real_divided(f, cand)

    def expand(form):
        expansions.append(form)
        return real_expand(form)

    monkeypatch.setattr(cubicfactor, "_divided", divided)
    monkeypatch.setattr(cubicfactor, "expand_cubic", expand)

    def counts(form):
        """Divisions made by factor_cubic and by factor_over_Q of the
        expansion, and expansions made by factor_cubic."""
        divisions.clear()
        expansions.clear()
        got = factor_cubic(form)
        table, expanded = len(divisions), len(expansions)
        poly = real_expand(form)
        divisions.clear()
        assert factor_over_Q(poly) == got
        return table, len(divisions), expanded

    # the anchor root -1 is simple and its candidate x0 + x1 is refuted at e2
    b4 = parse_input(load_fixture("b4_diagonal_irreducible")).form
    assert factor_cubic(b4).kind is FactorKind.IRREDUCIBLE
    assert counts(b4) == (0, 0, 0)
    # x0 at the simple root e1 survives its point e2 but does not divide
    survivor = IntersectionForm(3, {(0, 0, 0): -1, (0, 1, 1): 1, (0, 1, 2): -2, (1, 2, 2): 1})
    assert factor_cubic(survivor).kind is FactorKind.IRREDUCIBLE
    assert counts(survivor) == (1, 1, 1)
    # x0^3 + 3 x0 x1^2 + 2 x1^3 has no rational root on either anchor line
    binary = IntersectionForm(2, {(0, 0, 0): 1, (0, 1, 1): 1, (1, 1, 1): 2})
    for seed in (0, 1):
        expansions.clear()
        assert factor_cubic(binary, seed).kind is FactorKind.IRREDUCIBLE
        assert expansions == []


def _x0_linear(rng, n: int, point=None) -> tuple[int, ...]:
    """A random integer linear form with a nonzero x0 coefficient, vanishing
    at the point num e_0 + den e_1 when point = (num, den) is given."""
    while True:
        v = list(nonzero_vector(rng, n, 3))
        if point is not None:
            c = rng.choice((-2, -1, 1, 2))
            v[0], v[1] = c * point[1], -c * point[0]
        if v[0]:
            return tuple(v)


def test_factor_random_products_roundtrip(monkeypatch):
    rng = random.Random(43)
    for _ in range(30):
        n = rng.randint(3, 5)
        if rng.random() < 0.5:
            f = random_linear_poly(rng, n, 4) * random_quadric_poly(rng, n, 4)
        else:
            f = (
                random_linear_poly(rng, n, 3)
                * random_linear_poly(rng, n, 3)
                * random_linear_poly(rng, n, 3)
            )
        r = factor_over_Q(f)
        assert r.kind is not FactorKind.IRREDUCIBLE
        assert r.reconstruct(n) == f
    # multiple roots on the anchor line x0, x1 (x0^3 is the pivot at seed 0):
    # a factor through a singular point of f, found by the coordinate-line
    # search and never by the tangent hyperplane there
    sections = []
    real_sections = cubicfactor._coordinate_sections

    def spy(*args):
        sections.append(args)
        return real_sections(*args)

    monkeypatch.setattr(cubicfactor, "_coordinate_sections", spy)

    def ordered(*vs):
        return tuple(sorted(vs, key=lambda v: (height(v), spiral_key(v))))

    rounds = 0
    while rounds < 8:
        n = rng.randint(3, 5)
        l, m = (canonical_vector(_x0_linear(rng, n)) for _ in range(2))
        if l == m:
            continue
        L, M = Poly.linear(l), Poly.linear(m)
        # a quadric through L's anchor point P: L M vanishes there, and so
        # does x2, which is 0 on the anchor line
        quadric = L * M + Poly.variable(n, 2) * random_linear_poly(rng, n, 3)
        point = (rng.randint(-3, 3), rng.randint(1, 3))
        concurrent = [canonical_vector(_x0_linear(rng, n, point)) for _ in range(3)]
        if len(set(concurrent)) < 3:
            continue
        cases = [
            (L * L * M, FactorKind.LINEAR_SQUARE_TIMES_LINEAR, (l, l, m)),
            (3 * L * L * L, FactorKind.LINEAR_CUBE, (l, l, l)),
            (L * quadric, FactorKind.LINEAR_TIMES_QUADRIC, (l,)),
            (
                functools.reduce(operator.mul, map(Poly.linear, concurrent)),
                FactorKind.THREE_LINEAR,
                ordered(*concurrent),
            ),
        ]
        for f, kind, linears in cases:
            before = len(sections)
            r = factor_over_Q(f)
            assert (r.kind, r.linears) == (kind, linears)
            assert r.reconstruct(n) == f
            assert len(sections) > before, "no section search at a multiple anchor root"
        rounds += 1


def _random_form_poly(rng, n: int, d: int) -> Poly:
    """A nonzero form of degree d with coefficients k / den, den in 1, 2, 3."""
    while True:
        terms = {}
        for key in itertools.combinations_with_replacement(range(n), d):
            if rng.random() < 0.5:
                e = [0] * n
                for i in key:
                    e[i] += 1
                terms[tuple(e)] = Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3)))
        f = Poly(n, terms)
        if not f.is_zero:
            return f


def test_coordinate_sections_vs_evaluate():
    # the line and plane coefficients read in one pass agree with f itself
    rng = random.Random(45)
    for _ in range(40):
        n, d = rng.randint(2, 5), rng.choice((2, 3))
        f = _random_form_poly(rng, n, d)
        p, a = rng.sample(range(n), 2)
        lines, planes = _coordinate_sections(f, p, a, d)
        assert list(lines) == list(planes) == [i for i in range(n) if i not in (p, a)]
        for i, coeffs in lines.items():
            for k in range(d + 1):
                e = [0] * n
                e[p], e[i] = d - k, k
                assert coeffs[k] == f.coeff(tuple(e))
        for i, coeffs in planes.items():
            for s in (0, 1, -2, Fraction(2, 3), Fraction(-5, 4)):
                point = [0] * n
                point[p], point[a], point[i] = s, 1, 1
                value = f.evaluate(point)
                assert sum(c * frac(s) ** m for m, c in enumerate(coeffs)) == value
                assert _vanishes_at(coeffs, frac(s)) == (value == 0)


def test_vanishes_at_fractional_roots():
    # (3/5)(s - 2/3)(s + 1/2) s, ascending coefficients
    coeffs = [0, Fraction(-1, 5), Fraction(-1, 10), Fraction(3, 5)]
    for s in (0, Fraction(2, 3), Fraction(-1, 2)):
        assert _vanishes_at(coeffs, frac(s))
    for s in (1, -1, Fraction(3, 2), Fraction(1, 2)):
        assert not _vanishes_at(coeffs, frac(s))


def test_factor_fractional_cofactor_and_roots():
    # linear factors with fractional coefficients put fractional roots on the
    # coordinate lines and planes; the cofactors have Fraction coefficients
    rng = random.Random(46)
    fracs = [Fraction(k, q) for k in range(-4, 5) for q in (1, 2, 3, 5) if k]
    for trial in range(30):
        n = rng.randint(2, 5)
        l = [Fraction(1)] + [rng.choice(fracs + [0]) for _ in range(n - 1)]
        rng.shuffle(l)
        if trial % 2:
            other = _random_form_poly(rng, n, 2)
        else:
            other = lin([rng.choice(fracs) for _ in range(n)]) * lin(
                [rng.choice(fracs) for _ in range(n)]
            )
        f = lin(l) * other * Fraction(rng.randint(1, 7), rng.choice((2, 3)))
        results = [factor_over_Q(f, seed) for seed in range(3)]
        for r in results:
            assert r.kind is not FactorKind.IRREDUCIBLE
            assert r.reconstruct(n) == f
            assert canonical_vector(l) in r.linears
            assert r == results[0]


# ---------------------------------------------------------------------------
# quadratic splitting


def test_factor_quadratic_form_split():
    q = QuadraticForm.from_diagonal([1, -1, 0])
    l1, l2, scalar = factor_quadratic_form(q)
    a = Poly.linear([frac(c) for c in l1])
    b = Poly.linear([frac(c) for c in l2])
    assert Poly.constant(3, scalar) * a * b == q.to_poly()
    # no pure square: the search shears first, in two and in four variables
    x0x1 = QuadraticForm.from_poly(Poly.variable(2, 0) * Poly.variable(2, 1))
    assert factor_quadratic_form(x0x1) == ((0, 1), (1, 0), 1)
    q = QuadraticForm.from_poly(lin([1, 2, 0, 0]) * lin([0, 0, 1, -3]))
    assert factor_quadratic_form(q) == ((1, 2, 0, 0), (0, 0, 1, -3), 1)
    # s l1 l2 gives the (height, spiral)-sorted canonical pair and s
    rng = random.Random(47)
    for _ in range(40):
        n = rng.randint(1, 5)
        pair = [canonical_vector(nonzero_vector(rng, n, 3)) for _ in range(2)]
        if rng.random() < 0.25:
            pair[1] = pair[0]
        s = frac(Fraction(rng.choice((-3, -1, 1, 2, 5)), rng.randint(1, 3)))
        q = QuadraticForm.from_poly(Poly.constant(n, s) * lin(pair[0]) * lin(pair[1]))
        l1, l2, scalar = factor_quadratic_form(q)
        assert [l1, l2] == sorted(pair, key=lambda v: (height(v), spiral_key(v)))
        assert scalar == s and is_exact(scalar)


def test_factor_quadratic_form_rank1():
    q = QuadraticForm.from_diagonal([4, 0])
    l1, l2, scalar = factor_quadratic_form(q)
    assert l1 == l2 == (1, 0) and scalar == 4


def test_factor_quadratic_form_irreducible():
    assert factor_quadratic_form(QuadraticForm.from_diagonal([1, 1, 0])) is None
    assert factor_quadratic_form(QuadraticForm.from_diagonal([1, 1, -2])) is None
    x = [Poly.variable(4, i) for i in range(4)]
    assert factor_quadratic_form(QuadraticForm.from_poly(x[0] * x[1] + x[2] * x[3])) is None
    # a product of two linear forms has rank at most 2
    rng = random.Random(53)
    for _ in range(40):
        n = rng.randint(3, 5)
        gram = random_gram(rng, n, 4, den=rng.choice((1, 2)))
        if det(gram) != 0:
            assert factor_quadratic_form(QuadraticForm(tuple(map(tuple, gram)))) is None
    with pytest.raises(ValueError):
        factor_quadratic_form(QuadraticForm.from_diagonal([0, 0]))


# ---------------------------------------------------------------------------
# scaled cubes of a linear form


def test_is_perfect_cube_linear():
    # s l^3 gives kind linear_cube with the canonical l three times and the
    # scalar s, a Fraction only when s is fractional
    f = lin([1, -2, 3]) ** 3
    r = factor_over_Q(f)
    assert r.kind is FactorKind.LINEAR_CUBE
    (l, _, _), scalar = r.linears, r.scalar
    assert Poly.constant(3, scalar) * Poly.linear([frac(c) for c in l]) ** 3 == f
    rng = random.Random(59)
    for _ in range(30):
        n = rng.randint(1, 5)
        l = canonical_vector(nonzero_vector(rng, n, 3))
        s = frac(Fraction(rng.choice((-4, -1, 1, 3)), rng.randint(1, 3)))
        r = factor_over_Q(Poly.constant(n, s) * lin(l) ** 3)
        assert r.kind is FactorKind.LINEAR_CUBE and r.linears == (l,) * 3
        assert r.scalar == s and type(r.scalar) is type(s)


def test_is_perfect_cube_linear_of_integer_cube_is_exact():
    # (2 x0 + x1)^3: the coordinate 1/2 and the scalar come from divisions
    r = factor_over_Q(lin([2, 1]) ** 3)
    assert r.kind is FactorKind.LINEAR_CUBE
    assert r.linears == ((2, 1),) * 3 and r.scalar == 1 and is_exact(r.scalar)
    r = factor_over_Q(Poly.constant(2, 5) * lin([2, 1]) ** 3)
    assert r.kind is FactorKind.LINEAR_CUBE
    assert r.linears == ((2, 1),) * 3 and r.scalar == 5 and type(r.scalar) is int


def test_factorization_is_frozen():
    r = factor_over_Q(lin([1, 0]) ** 3)
    assert isinstance(r, Factorization)
    with pytest.raises(AttributeError):
        r.kind = FactorKind.IRREDUCIBLE


# ---------------------------------------------------------------------------
# the integer path: contents taken once, division by Gauss's lemma


def _fraction_divide(f: Poly, g: Poly) -> Poly | None:
    """Lex division of f by g in Fraction arithmetic, one quotient term at a
    time: the reference the integer division must agree with."""
    le_g = max(g.terms)
    q = {}
    r = dict(f.terms)
    while r:
        le_r = max(r)
        lc_r = r.pop(le_r)
        e = tuple(a - b for a, b in zip(le_r, le_g))
        if any(k < 0 for k in e):
            return None
        c = frac(Fraction(lc_r, g.terms[le_g]))
        q[e] = c
        for eg, cg in g.terms.items():
            if eg != le_g:
                m = tuple(a + b for a, b in zip(e, eg))
                v = r.get(m, 0) - c * cg
                if v:
                    r[m] = v
                else:
                    del r[m]
    return Poly(f.nvars, q)


def _primitive_candidate(rng, n: int, lead: int) -> tuple[int, ...]:
    """A primitive integer covector whose first coordinate is lead != 0."""
    while True:
        v = primitive_vector([lead] + [rng.randint(-4, 4) for _ in range(n - 1)])
        if v[0] == lead:
            return v


def _unit_pivot_linear(rng, n: int) -> tuple[int, ...]:
    return (rng.choice((1, -1)),) + tuple(rng.randint(-3, 3) for _ in range(n - 1))


class _NoFractionMeta(type):
    def __instancecheck__(cls, obj):
        return isinstance(obj, Fraction)


class _NoFraction(metaclass=_NoFractionMeta):
    """Stands in for Fraction: isinstance checks still see real Fractions,
    but building one raises."""

    def __new__(cls, *args):
        raise AssertionError(f"Fraction{args} built on the integer path")


def test_integer_path_builds_no_fraction(monkeypatch):
    # integral cubics, primitive candidates and linear factors with unit
    # pivots: the division and the whole factorization stay in ints
    rng = random.Random(71)
    divisions = []
    for trial in range(40):
        n = rng.randint(2, 6)
        f = Poly.constant(n, rng.choice((1, 2, 6))) * random_quadric_poly(rng, n, 5)
        l = _primitive_candidate(rng, n, (1, -1, 2, -3, 5)[trial % 5])
        other = _primitive_candidate(rng, n, (1, -1, 3, -4)[trial % 4])
        for cand in (l, other):
            divisions.append((f * lin(l), cand, _fraction_divide(f * lin(l), lin(cand))))
    assert sum(q is None for _, _, q in divisions) >= 30
    cubics = []
    for trial in range(24):
        n = rng.randint(3, 6)
        l1, l2, l3 = (_unit_pivot_linear(rng, n) for _ in range(3))
        q = random_quadric_poly(rng, n, 5)
        q = Poly(n, {**q.terms, (2,) + (0,) * (n - 1): rng.choice((1, -1))})
        kind, f = [
            (FactorKind.LINEAR_TIMES_QUADRIC, lin(l1) * q),
            (FactorKind.THREE_LINEAR, lin(l1) * lin(l2) * lin(l3)),
            (FactorKind.LINEAR_SQUARE_TIMES_LINEAR, lin(l1) * lin(l1) * lin(l2)),
            (FactorKind.LINEAR_CUBE, lin(l1) ** 3),
        ][trial % 4]
        cubics.append((kind, Poly.constant(n, rng.choice((1, -2, 3))) * f))

    monkeypatch.setattr(exactmath, "Fraction", _NoFraction)
    monkeypatch.setattr(cubicfactor, "Fraction", _NoFraction, raising=False)
    with pytest.raises(AssertionError):
        exactmath.Fraction(1, 2)
    for f, cand, want in divisions:
        assert exact_divide(f, lin(cand)) == want
        content, prim = primitive_part(f)
        got = integral_divide(prim, lin(cand))
        assert (got is None) == (want is None)
        assert got is None or got * content == want
    for kind, f in cubics:
        r = factor_over_Q(f)
        assert r.kind is kind
        assert r.reconstruct(f.nvars) == f and type(r.scalar) is int


def test_exact_divide_matches_fraction_division():
    # integral and rational cubics, some with a Fraction content, against
    # primitive candidates that divide them and random ones that mostly do not
    rng = random.Random(72)
    fracs = [Fraction(k, q) for k in range(-5, 6) for q in (1, 2, 3) if k]
    divided = undivided = 0
    for trial in range(80):
        n = rng.randint(2, 6)
        l = _primitive_candidate(rng, n, rng.choice((1, -1, 2, -3)))
        if trial % 2:
            q = _random_form_poly(rng, n, 2)
        else:
            q = random_quadric_poly(rng, n, 6)
        f = Poly.constant(n, rng.choice(fracs)) * lin(l) * q
        cands = [l, _primitive_candidate(rng, n, rng.choice((1, -1, 2, 5)))]
        cands.append(canonical_vector(nonzero_vector(rng, n, 3)))
        for cand in cands:
            want = _fraction_divide(f, lin(cand))
            got = exact_divide(f, lin(cand))
            if want is None:
                assert got is None
                undivided += 1
                continue
            assert got == want
            assert [type(c) for c in got.terms.values()] == [type(frac(c)) for c in want.terms.values()]
            assert is_exact(*got.terms.values())
            divided += 1
    assert divided >= 80 and undivided >= 100
