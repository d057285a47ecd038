"""Exact arithmetic foundations: polynomials, roots, lattice enumeration."""

from fractions import Fraction
import functools
import itertools
import math
import operator
import random
import time

import pytest

from nullcone import exactmath
from nullcone.exactmath import (
    Poly,
    _reach,
    canonical_vector,
    cleared,
    echelon,
    enum_key,
    exact_divide,
    frac,
    height,
    is_perfect_square,
    iter_integer_vectors,
    key_exponent,
    key_support,
    iter_kernel_primitives,
    iter_primitive_vectors,
    kernel_basis,
    mat_vec,
    primitive_vector,
    rational_roots,
    spiral_key,
    unit_keys,
    vec,
    vec_dot,
)

from helpers import SECTION_DECOY_CUBIC, is_exact, random_linear_poly, random_quadric_poly


# ---------------------------------------------------------------------------
# frac / vectors


def test_frac_accepts_ints_strings_fractions():
    assert frac(3) == Fraction(3)
    assert frac("7/2") == Fraction(7, 2)
    assert frac("-4") == Fraction(-4)
    assert frac(Fraction(1, 3)) == Fraction(1, 3)


def test_frac_rejects_floats():
    with pytest.raises(TypeError):
        frac(0.5)
    with pytest.raises(TypeError):
        Poly.linear([0.5, 1])


def test_frac_is_int_unless_fractional():
    assert type(frac(Fraction(4, 2))) is int and frac(Fraction(4, 2)) == 2
    assert type(frac("6/3")) is int and frac("6/3") == 2
    # a bool is an int subclass: it must not come back as True/False
    assert type(frac(True)) is int and str(frac(True)) == "1"
    assert type(frac(False)) is int and str(frac(False)) == "0"
    assert type(frac(7)) is int
    assert type(frac("7/2")) is Fraction and type(frac(Fraction(1, 3))) is Fraction
    assert [type(c) for c in Poly.linear([Fraction(2), 4]).terms.values()] == [int, int]


def test_vec_passes_int_tuples_through_and_converts_the_rest():
    v = (3, -1, 0)
    assert vec(v) is v
    assert vec([3, -1, 0]) == v and type(vec([3, -1, 0])) is tuple
    # a bool is an int subclass, yet still goes through frac
    assert [str(x) for x in vec((True, 2))] == ["1", "2"]
    got = vec((True, 2, Fraction(4, 2), "1/2"))
    assert got == (1, 2, 2, Fraction(1, 2)) and [type(x) for x in got] == [int, int, int, Fraction]
    assert str(got[0]) == "1"
    assert cleared(v) == (v, 1) and cleared(v)[0] is v
    assert cleared((Fraction(1, 2), 1)) == ((1, 2), 2)


def test_vec_dot():
    assert vec_dot((1, 2, 3), (4, -5, 6)) == 12


def test_vec_dot_and_mat_vec_reject_a_length_mismatch():
    # both sum over map(mul, ...), which stops at the shorter argument; the
    # length checks keep a mismatch from truncating silently
    with pytest.raises(ValueError, match="dimension mismatch: 3 vs 2"):
        vec_dot((1, 2, 3), (4, 5))
    with pytest.raises(ValueError, match="dimension mismatch: 2 vs 3"):
        vec_dot((1, 2), (4, 5, 6))
    assert mat_vec([[1, 2], [3, 4]], (1, -1)) == (-1, -1)
    with pytest.raises(ValueError, match="dimension mismatch: 2 vs 3"):
        mat_vec([[1, 2], [3, 4]], (1, 0, 0))
    with pytest.raises(ValueError, match="dimension mismatch: 3 vs 2"):
        mat_vec([[1, 2], [3, 4, 5]], (1, 0))


# ---------------------------------------------------------------------------
# Poly


def test_poly_constructors_and_eval():
    n = 3
    x0 = Poly.variable(n, 0)
    x1 = Poly.variable(n, 1)
    p = (x0 + x1) * (x0 - x1)
    assert p.evaluate((3, 2, 99)) == 5
    assert p.degree() == 2
    assert p.is_homogeneous(2)
    assert not p.is_homogeneous(3)


def test_poly_linear_and_coeff():
    l = Poly.linear([2, -1, 0])
    assert l.coeff((1, 0, 0)) == 2
    assert l.coeff((0, 1, 0)) == -1
    assert l.coeff((0, 0, 1)) == 0


# the bound on a monomial's total degree, so on each exponent
LIMIT = 2**15


def _random_exponent(rng, n: int, cap: int) -> tuple[int, ...]:
    """An exponent tuple of total degree at most cap: up to six units spread
    over the variables, and one time in three all but a few units of what is
    left of cap on one of them."""
    e = [0] * n
    for _ in range(rng.randint(0, min(cap, 6))):
        e[rng.randrange(n)] += 1
    if rng.random() < 1 / 3:
        room = cap - sum(e)
        e[rng.randrange(n)] += room - rng.randint(0, min(3, room))
    return tuple(e)


def _random_poly(rng, n: int, cap: int, size: int) -> dict:
    """A random tuple-keyed polynomial, not homogeneous in general, with
    nonzero int and Fraction coefficients and total degree at most cap."""
    out = {}
    for _ in range(size):
        c = rng.choice((1, -1)) * Fraction(rng.randint(1, 9), rng.choice((1, 1, 2, 3)))
        out[_random_exponent(rng, n, cap)] = c
    return out


# tuple-keyed reference arithmetic: the exponent format the packed keys replace


def _ref_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + c
    return {e: c for e, c in out.items() if c}


def _ref_mul(a: dict, b: dict) -> dict:
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def _ref_divide(f: dict, g: dict) -> dict | None:
    """Lex division of f by g on exponent tuples in Fractions: the quotient
    when g divides f, else None.  Degree and order in each variable add
    under multiplication, so if g | f every quotient exponent e has
    lo_i <= e_i <= hi_i, lo_i the least x_i exponent of f less g's and hi_i
    the greatest less g's; a quotient term outside that box proves g does
    not divide f, and the division stops after at most the box's size steps."""
    lo = [min(col) - min(colg) for col, colg in zip(zip(*f), zip(*g))]
    hi = [max(col) - max(colg) for col, colg in zip(zip(*f), zip(*g))]
    le_g = max(g)
    q, r = {}, dict(f)
    while r:
        le_r = max(r)
        e = tuple(x - y for x, y in zip(le_r, le_g))
        if any(not a <= x <= b for a, x, b in zip(lo, e, hi)):
            return None
        c = Fraction(r.pop(le_r)) / g[le_g]
        q[e] = c
        for eg, cg in g.items():
            if eg != le_g:
                m = tuple(x + y for x, y in zip(e, eg))
                r[m] = r.get(m, 0) - c * cg
                if not r[m]:
                    del r[m]
    return q


def test_poly_arith_ring_axioms_random():
    rng = random.Random(11)
    for _ in range(25):
        n = rng.randint(2, 4)
        a = random_linear_poly(rng, n, 4)
        b = random_quadric_poly(rng, n, 4)
        c = random_linear_poly(rng, n, 4)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a
        assert (a - a).is_zero
        assert (a * b) * c == a * (b * c)
    # non-homogeneous polynomials at ranks 1-12, with exponents near the
    # limit, against the tuple-keyed reference; each factor's degree is at
    # most a third of the limit, so every product below stays under it
    cap = (LIMIT - 1) // 3
    for trial in range(60):
        n = trial % 12 + 1
        ta, tb, tc = (_random_poly(rng, n, cap, rng.randint(1, 5)) for _ in range(3))
        a, b, c = Poly(n, ta), Poly(n, tb), Poly(n, tc)
        assert dict((a + b).terms) == _ref_add(ta, tb)
        assert dict((a * b).terms) == _ref_mul(ta, tb)
        assert dict((-a).terms) == {e: -x for e, x in ta.items()}
        assert dict((a * b * c).terms) == _ref_mul(_ref_mul(ta, tb), tc)
        assert a * (b + c) == a * b + a * c
        assert a * b == b * a and hash(a * b) == hash(b * a)
        assert (a * b) * c == a * (b * c)
        assert (a - a).is_zero


def test_poly_pow():
    l = Poly.linear([1, 1])
    sq = l**2
    assert sq.coeff((2, 0)) == 1
    assert sq.coeff((1, 1)) == 2
    assert sq.coeff((0, 2)) == 1
    assert l**0 == Poly.constant(2, 1)


def test_poly_substitute():
    # x0^2 under x0 -> x0 + x1 becomes x0^2 + 2 x0 x1 + x1^2
    p = Poly.variable(2, 0) ** 2
    q = p.substitute([Poly.linear([1, 1]), Poly.variable(2, 1)])
    assert q == Poly.linear([1, 1]) ** 2


def test_exact_divide_roundtrip_random():
    rng = random.Random(5)
    for _ in range(40):
        n = rng.randint(2, 4)
        f = random_linear_poly(rng, n, 5)
        g = random_quadric_poly(rng, n, 5)
        q = exact_divide(f * g, f)
        assert q is not None and q == g
    # non-homogeneous quotients and divisors at ranks 1-12: f g divides by
    # g; f g plus a term, or f by g, mostly does not, and exactly when the
    # tuple-keyed lex division says so.  f and g are small polynomials times
    # a monomial holding nearly half the limit, so the exponents come near
    # it while the reference's box stays small
    failed = 0
    for trial in range(60):
        n = trial % 12 + 1
        tall = []
        for _ in range(2):
            e = [0] * n
            e[rng.randrange(n)] = LIMIT // 2 - rng.randint(10, 20)
            tall.append({tuple(e): 1})
        tf = _ref_mul(_random_poly(rng, n, 6, 4), tall[0])
        tg = _ref_mul(_random_poly(rng, n, 6, 3), tall[1])
        f, g = Poly(n, tf), Poly(n, tg)
        assert exact_divide(f * g, g) == f
        term = _ref_mul(_random_poly(rng, n, 6, 1), _ref_mul(tall[0], tall[1]))
        for num in (_ref_add(_ref_mul(tf, tg), term), tf):
            want = _ref_divide(num, tg)
            got = exact_divide(Poly(n, num), g)
            assert (got is None) == (want is None)
            assert got is None or dict(got.terms) == {e: frac(c) for e, c in want.items()}
            failed += got is None
    assert failed >= 60


def test_packed_keys_follow_the_exponent_tuples():
    rng = random.Random(12)
    for trial in range(60):
        n = trial % 12 + 1
        expos = list({_random_exponent(rng, n, LIMIT - 1) for _ in range(8)})
        keys = [next(iter(Poly(n, {e: 1}).packed)) for e in expos]
        # key order is lex order on the tuples
        assert [expos[i] for i in sorted(range(len(keys)), key=keys.__getitem__)] == sorted(expos)
        units = unit_keys(n)
        for e, k in zip(expos, keys):
            assert k == sum(x * u for x, u in zip(e, units))
            assert [key_exponent(k, n, i) for i in range(n)] == list(e)
            assert key_support(k, n) == [(i, x) for i, x in enumerate(e) if x]
        p = Poly(n, {e: rng.choice((1, -2, Fraction(1, 3))) for e in expos})
        assert p.degree() == max(map(sum, expos))
        assert p.is_homogeneous() == (len(set(map(sum, expos))) == 1)
        assert p.is_homogeneous(sum(expos[0])) == (set(map(sum, expos)) == {sum(expos[0])})
        assert dict(p.terms) == {e: p.coeff(e) for e in expos}
    assert Poly.zero(3).degree() == -1 and Poly.zero(3).is_homogeneous(2)
    x0, x1 = Poly.variable(2, 0), Poly.variable(2, 1)
    top = Poly(2, {(LIMIT - 1, 0): 1})
    assert top == Poly(2, {(LIMIT // 2, 0): 1}) * Poly(2, {(LIMIT // 2 - 1, 0): 1})
    assert top.degree() == LIMIT - 1
    assert top.coeff((-1, 0)) == 0 and top.coeff((LIMIT, 0)) == 0
    with pytest.raises(TypeError):
        top.terms[(0, 0)] = 1
    for bad in [(-1, 0), (0, LIMIT), (LIMIT - 1, 1)]:
        with pytest.raises(ValueError):
            Poly(2, {bad: 1})
    with pytest.raises(ValueError):
        top * x1
    with pytest.raises(ValueError):
        x0 ** LIMIT
    with pytest.raises(ValueError):
        Poly(2, {(0, LIMIT // 2): 1}) ** 2
    with pytest.raises(ValueError):
        (x0 + x1) ** 2 * Poly(2, {(LIMIT - 2, 0): 1})


def test_exact_divide_detects_nondivisor():
    x0 = Poly.variable(2, 0)
    x1 = Poly.variable(2, 1)
    assert exact_divide(x0 * x0 + x1 * x1, x0 + x1) is None
    assert exact_divide(x0 * x1, x0 + x1) is None
    # x0 + x1 + x2 passes the linear-factor search's section filter on this
    # cubic, yet does not divide it
    assert exact_divide(SECTION_DECOY_CUBIC, Poly.linear([1, 1, 1])) is None


def test_exact_divide_integer_input_gives_exact_quotient():
    x0 = Poly.variable(1, 0)
    q = exact_divide(x0 * x0, 2 * x0)
    assert q == Poly.linear([Fraction(1, 2)]) and is_exact(*q.terms.values())


def test_exact_divide_builds_only_the_quotient(monkeypatch):
    # the remainder is updated in place: the only Polys built, by either
    # constructor, are integral_divide's quotient and its scaled copy
    rng = random.Random(6)
    f = random_linear_poly(rng, 5, 5)
    g = random_quadric_poly(rng, 5, 5)
    product = f * g
    built = []
    init, of = Poly.__init__, Poly._of.__func__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    def counting_of(cls, *args, **kwargs):
        built.append(1)
        return of(cls, *args, **kwargs)

    monkeypatch.setattr(Poly, "__init__", counting_init)
    monkeypatch.setattr(Poly, "_of", classmethod(counting_of))
    assert exact_divide(product, f) == g
    assert len(built) == 2


# ---------------------------------------------------------------------------
# roots and squares


def _mul_desc(p, q):
    """Multiply two polynomials given as descending coefficient lists."""
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def test_rational_roots_known():
    # (t - 1)(t + 2)(2t - 3): roots 1, -2, 3/2
    coeffs = _mul_desc(
        _mul_desc([Fraction(1), Fraction(-1)], [Fraction(1), Fraction(2)]),
        [Fraction(2), Fraction(-3)],
    )
    roots = rational_roots(coeffs)
    assert sorted(roots) == [Fraction(-2), Fraction(1), Fraction(3, 2)]


def test_rational_roots_multiplicity():
    # (t - 2)^2 (t + 1): root 2 listed twice
    coeffs = [1, -3, 0, 4]
    roots = rational_roots([Fraction(c) for c in coeffs])
    assert sorted(roots) == [Fraction(-1), Fraction(2), Fraction(2)]


def test_rational_roots_of_integer_coefficients_are_exact():
    # the quadratic formula and the linear case divide integers
    roots = rational_roots([4, 0, -1])
    assert roots == [Fraction(-1, 2), Fraction(1, 2)] and is_exact(*roots)
    roots = rational_roots([2, -1])
    assert roots == [Fraction(1, 2)] and is_exact(*roots)
    # integral roots are ints, from the quadratic formula and the cubic search
    assert [type(r) for r in rational_roots([1, 0, -1])] == [int, int]
    roots = rational_roots([2, -1, -2, 1])
    assert roots == [-1, Fraction(1, 2), 1]
    assert [type(r) for r in roots] == [int, Fraction, int]


def test_rational_roots_irrational_cubic():
    # t^3 - 2 has no rational roots
    assert rational_roots([Fraction(1), Fraction(0), Fraction(0), Fraction(-2)]) == []


def test_rational_roots_random_planted():
    rng = random.Random(23)
    for _ in range(30):
        planted = [
            Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3)))
            for _ in range(rng.randint(1, 3))
        ]
        coeffs = [Fraction(1)]
        for r in planted:
            coeffs = _mul_desc(coeffs, [Fraction(1), -r])
        roots = rational_roots(coeffs)
        assert sorted(roots) == sorted(planted)


def test_rational_roots_large_constant_term_is_fast():
    # (t - a)(t^2 + 1) with a 14-digit prime a: the candidate numerators come
    # from factoring a, not from trial division up to sqrt(a)
    a = 99999999999973
    start = time.perf_counter()
    roots = rational_roots([1, -a, 1, -a])
    elapsed = time.perf_counter() - start
    assert roots == [Fraction(a)]
    assert elapsed < 0.5, f"rational_roots took {elapsed:.2f} s"


def test_rational_roots_factor_each_end_coefficient_once(monkeypatch):
    # the candidates p/q need the divisors of both end coefficients; the
    # leading one is factored once, not again for every divisor p
    calls = []
    original = exactmath.factorint

    def counted(n):
        calls.append(n)
        return original(n)

    monkeypatch.setattr(exactmath, "factorint", counted)
    lead, const = 1000003 * 1000033, 1000037 * 1000039
    assert rational_roots([lead, 0, 7, const]) == []
    assert sorted(calls) == sorted([lead, const])


def test_rational_roots_cubic_wrapper():
    # t^3 - t through the general root finder: a zero constant term makes 0 a root
    roots = rational_roots([frac(1), frac(0), frac(-1), frac(0)])
    assert sorted(roots) == [Fraction(-1), Fraction(0), Fraction(1)]


def test_is_perfect_square():
    assert is_perfect_square(frac(49)) == 7
    assert is_perfect_square(frac(0)) == 0
    assert is_perfect_square(Fraction(9, 4)) == Fraction(3, 2)
    assert is_perfect_square(frac(24)) is None
    assert is_perfect_square(frac(-4)) is None
    assert is_perfect_square(Fraction(2, 3)) is None


# ---------------------------------------------------------------------------
# linear algebra


def test_rref_and_kernel():
    rows = [[frac(1), frac(2), frac(-3)]]
    basis = kernel_basis(rows)
    assert basis == [(2, -1, 0), (3, 0, 1)]
    for v in basis:
        assert vec_dot(v, (1, 2, -3)) == 0


def test_echelon_pivots():
    m, pivots = echelon([[frac(0), frac(2)], [frac(1), frac(1)]])
    assert pivots == [0, 1]
    assert m == [(1, 0), (0, 1)]


def _types(rows):
    return [[type(x) for x in row] for row in rows]


def test_echelon_of_integer_matrices_is_integral():
    # each row is the rational RREF row scaled to a primitive integer vector
    # with a positive pivot, the only nonzero entry of its column
    m, pivots = echelon([[2, 1]])
    assert m == [(2, 1)] and pivots == [0]
    m, pivots = echelon([[2, 4, 1], [1, 3, 1]])
    assert m == [(2, 0, -1), (0, 2, 1)] and pivots == [0, 1]
    assert echelon([[-2, -4, -1], [1, 3, 1]]) == (m, pivots)
    assert _types(m) == [[int, int, int], [int, int, int]]


def test_echelon_drops_zero_rows():
    # rank 2 of 4 rows, two of them multiples of the others: only the two
    # pivot rows come back, integral, though the input has Fractions
    rows = [
        [0, 0, Fraction(1, 3), 1],
        [1, Fraction(1, 2), 2, 0],
        [2, 1, 4, 0],
        [3, Fraction(3, 2), Fraction(19, 3), 1],
    ]
    m, pivots = echelon(rows)
    assert pivots == [0, 2]
    assert m == [(2, 1, 0, -12), (0, 0, 1, 3)]
    assert _types(m) == [[int] * 4] * 2
    assert kernel_basis(rows) == [(1, -2, 0, 0), (6, 0, -3, 1)]


def test_kernel_basis_full_rank_is_empty():
    rows = [[frac(1), frac(0)], [frac(0), frac(1)]]
    assert kernel_basis(rows) == []


# ---------------------------------------------------------------------------
# normalization


def test_primitive_vector_preserves_sign():
    assert primitive_vector((-6, 9, 0)) == (-2, 3, 0)
    assert primitive_vector((Fraction(1, 2), Fraction(-3, 2))) == (1, -3)


def test_canonical_vector_positive_leading():
    assert canonical_vector((-6, 9, 0)) == (2, -3, 0)
    assert canonical_vector((0, -5, 10)) == (0, 1, -2)
    assert canonical_vector((4, 2)) == (2, 1)


def test_zero_vector_passes_through():
    # zero is preserved so callers can test emptiness after normalizing
    assert primitive_vector((0, 0)) == (0, 0)
    assert canonical_vector((0, 0, 0)) == (0, 0, 0)


# ---------------------------------------------------------------------------
# enumeration order


def test_spiral_key_orders_by_abs_then_sign():
    seq = sorted([1, -1, 2, -2, 0], key=lambda c: spiral_key((c,)))
    assert seq == [0, 1, -1, 2, -2]


def test_enum_key_is_the_key_of_the_canonical_vector():
    # on primitive vectors of either sign, enum_key is the enumerators'
    # (height, spiral-lex) key of the canonical vector, so sorting by it
    # reproduces the enumeration order
    vecs = list(iter_primitive_vectors(3, max_height=3))
    signed = [tuple(-x for x in v) if i % 2 else v for i, v in enumerate(vecs)]
    for v in signed:
        c = canonical_vector(v)
        assert enum_key(v) == (height(c), spiral_key(c))
    assert [canonical_vector(v) for v in sorted(signed[::-1], key=enum_key)] == vecs


def test_iter_integer_vectors_shells():
    vecs = list(iter_integer_vectors(2, max_height=2))
    # no zero vector, no duplicates, heights weakly increasing
    assert (0, 0) not in vecs
    assert len(set(vecs)) == len(vecs)
    hs = [height(v) for v in vecs]
    assert hs == sorted(hs)
    # shell 1 comes first and is complete (8 vectors)
    assert set(vecs[:8]) == {
        (0, 1), (0, -1), (1, 0), (1, 1), (1, -1), (-1, 0), (-1, 1), (-1, -1)
    }


def test_iter_integer_vectors_spiral_order_within_shell():
    vecs = list(iter_integer_vectors(2, max_height=1))
    assert vecs == sorted(vecs, key=spiral_key)
    assert vecs[0] == (0, 1)


def test_iter_primitive_vectors():
    vecs = list(iter_primitive_vectors(2, max_height=2))
    # canonical: leading nonzero positive; primitive: gcd 1
    assert (2, 2) not in vecs and (-1, 0) not in vecs and (0, 2) not in vecs
    assert (1, 0) in vecs and (2, 1) in vecs and (1, -2) in vecs
    assert len(set(vecs)) == len(vecs)


def test_iter_kernel_primitives_order_and_membership():
    rows = [[frac(1), frac(2), frac(-3)]]
    got = list(itertools.islice(iter_kernel_primitives(rows), 6))
    for v in got:
        assert vec_dot(v, (1, 2, -3)) == 0
        assert v == canonical_vector(v)
    # the first shell must contain the height-1 kernel vector (1, 1, 1)
    assert got[0] == (1, 1, 1)
    hs = [height(v) for v in got]
    assert hs == sorted(hs)


@functools.cache
def _box(n, max_height):
    """The nonzero integer vectors of height <= max_height, by (height, spiral-lex).

    The key is (height, spiral_key) written in plain ints: the coordinate x
    ranks as 2|x| + (x < 0), so 0 < 1 < -1 < 2 < -2 < ..."""
    box = itertools.product(range(-max_height, max_height + 1), repeat=n)
    return tuple(sorted(
        (v for v in box if any(v)),
        key=lambda v: (max(map(abs, v)), [2 * abs(x) + (x < 0) for x in v]),
    ))


def _primitive_box(n, max_height):
    return [v for v in _box(n, max_height) if next(x for x in v if x) > 0 and math.gcd(*v) == 1]


def test_iter_integer_and_primitive_vectors_vs_bruteforce():
    for n in range(1, 7):
        h = 4 if n <= 4 else 3
        assert list(iter_integer_vectors(n, max_height=h)) == list(_box(n, h))
        assert list(iter_primitive_vectors(n, max_height=h)) == _primitive_box(n, h)


def test_iter_kernel_primitives_exhaustive_vs_bruteforce():
    rng = random.Random(20111)
    for n in range(2, 7):
        h = 4 if n <= 4 else 3
        box = _primitive_box(n, h)
        for _ in range(8):
            rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rng.randint(1, 3))]
            brute = [v for v in box if all(sum(a * x for a, x in zip(row, v)) == 0 for row in rows)]
            assert list(iter_kernel_primitives(rows, max_height=h)) == brute, rows


def test_one_dimensional_lattices_end_after_their_vector():
    assert list(iter_kernel_primitives([[1, -1]])) == [(1, 1)]
    assert list(iter_kernel_primitives([[0, 0, 3], [2, -4, 0]])) == [(2, 1, 0)]
    assert list(iter_primitive_vectors(1)) == [(1,)]


def test_line_kernels_with_tall_vectors_are_read_off_the_echelon():
    # each kernel is a line whose vector has height above 7000; a walk
    # through every height below it took more than 5 s per kernel
    start = time.perf_counter()
    first = list(iter_kernel_primitives([[-132, -195, 21], [-154, -39, 150]]))
    second = list(iter_kernel_primitives([[-134, -36, -167], [-44, -114, -130]]))
    elapsed = time.perf_counter() - start
    assert first == [(9477, -5522, 8294)]
    assert second == [(7179, 5036, -6846)]
    assert elapsed < 0.1, f"two line kernels took {elapsed:.3f}s"
    assert list(iter_kernel_primitives([[-132, -195, 21], [-154, -39, 150]], max_height=9000)) == []


def test_kernel_enumeration_is_lazy_at_high_rank():
    rng = random.Random(20)
    row = [rng.randint(-20, 20) for _ in range(20)]
    start = time.perf_counter()
    got = list(itertools.islice(iter_kernel_primitives([row]), 500))
    elapsed = time.perf_counter() - start
    assert len(got) == 500 and all(vec_dot(row, v) == 0 for v in got)
    assert elapsed < 2.0, f"first 500 directions took {elapsed:.3f}s"


def test_enumerators_start_at_rank_2000():
    # the walk fixes one coordinate per stack frame, not per recursion level
    n = 2000
    last = (0,) * (n - 1) + (1,)
    assert next(iter_integer_vectors(n)) == last
    assert next(iter_primitive_vectors(n)) == last
    row = [1, -1] + [0] * (n - 2)
    got = list(itertools.islice(iter_kernel_primitives([row]), 3))
    assert got[0] == last and len(got) == 3
    assert all(vec_dot(row, v) == 0 and len(v) == n for v in got)


def test_kernel_of_a_zero_row_is_the_primitive_walk():
    # the tangent walk at a singular point (T(p, p, -) = 0) is the kernel
    # walk of a zero row, so it must meet directions in the order of
    # iter_primitive_vectors
    for n in range(1, 6):
        zero = list(itertools.islice(iter_kernel_primitives([(0,) * n]), 300))
        assert zero == list(itertools.islice(iter_primitive_vectors(n), 300)), n


def test_iter_kernel_primitives_trivial_kernel():
    rows = [[frac(1), frac(0)], [frac(0), frac(1)]]
    assert list(iter_kernel_primitives(rows)) == []


def _planted_rows(rng, n, k):
    """k rows with entries drawn from +-200 whose kernel holds two planted
    vectors of height 1: e_j + (others) and e_j2 + (others), j != j2.  Each
    row is shifted on j and j2 to vanish on them."""
    j1, j2 = rng.sample(range(n), 2)
    plants = []
    for j, other in ((j1, j2), (j2, j1)):
        w = [rng.randint(-1, 1) for _ in range(n)]
        w[j], w[other] = 1, 0
        plants.append((j, w))
    rows = []
    for _ in range(k):
        row = [rng.randint(-200, 200) for _ in range(n)]
        for j, w in plants:
            row[j] -= vec_dot(row, w)
        rows.append(row)
    return rows


def test_pruned_walk_matches_bruteforce_on_large_entries():
    # two and three rows of this size have echelon entries in the 10^4 to
    # 10^8 range, so both the reachability bitsets and the interval bound cut
    rng = random.Random(1311)
    for n in range(3, 6):
        h = 4 if n <= 4 else 3
        box = _primitive_box(n, h)
        for _ in range(8):
            rows = _planted_rows(rng, n, rng.randint(1, min(3, n - 2)))
            brute = [v for v in box if not any(sum(map(operator.mul, row, v)) for row in rows)]
            assert len(brute) >= 2
            assert list(iter_kernel_primitives(rows, max_height=h)) == brute, rows


def test_row_past_the_bitset_limit_keeps_the_order():
    # entries near 10^12: the row's bitsets would pass the limit, so only
    # the interval bound cuts; the short kernel vectors still come in order
    rng = random.Random(12)
    a, b, c = (rng.randint(10**11, 10**12) for _ in range(3))
    row = [a, b, -a, -b, c]
    assert _reach(row, 1)[0][1] is None
    box = _primitive_box(5, 3)
    brute = [v for v in box if vec_dot(row, v) == 0]
    start = time.perf_counter()
    got = list(iter_kernel_primitives([row], max_height=3))
    elapsed = time.perf_counter() - start
    assert got == brute and len(got) >= 10
    assert elapsed < 0.5, f"height-3 walk took {elapsed:.3f}s"


def test_first_kernel_vectors_of_wide_rows_are_fast():
    # one row in 5 columns with entries in +-1000 has its first 20 kernel
    # vectors at height 7 or 8; the interval bound alone explored most of
    # each height's prefixes first (about 0.2-0.4 s for these five rows)
    rng = random.Random(7)
    rows = [[rng.randint(-1000, 1000) for _ in range(5)] for _ in range(5)]
    start = time.perf_counter()
    firsts = [list(itertools.islice(iter_kernel_primitives([row]), 20)) for row in rows]
    elapsed = time.perf_counter() - start
    for row, got in zip(rows, firsts):
        assert len(got) == 20 and all(vec_dot(row, v) == 0 for v in got)
        assert [height(v) for v in got] == sorted(height(v) for v in got)
    assert elapsed < 0.1, f"first 20 vectors of five rows took {elapsed:.3f}s"
