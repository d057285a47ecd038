"""Quadratic forms: local-global decisions and rational point machinery."""

from fractions import Fraction
import itertools
import math
import random
import time

import pytest

from nullcone.exactmath import (
    Poly,
    canonical_vector,
    factorint,
    frac,
    iter_integer_vectors,
    iter_primitive_vectors,
    mat_identity,
    mat_vec,
    primitive_vector,
    spiral_key,
    vec,
    vec_dot,
)
from nullcone.quadpoints import (
    _diagonal_zero,
    _hyperbolic_pair,
    _local_obstruction,
    InsufficientPoints,
    ResidualPoint,
    IsotropyKind,
    QuadraticForm,
    diagonalize,
    hilbert_symbol,
    is_isotropic,
    isotropic_vector,
    radical,
    sample_points,
    second_intersection,
    squarefree_part,
    squarefree_split,
)

from nullcone import quadpoints
from nullcone.certify import certify

from helpers import (
    annihilator_c2,
    det,
    is_exact,
    low_rank_gram,
    plant_reducible_form,
    random_gram,
    rational_diagonalize,
    seeded_quadric_forms,
    seeded_rank5_forms,
    unimodular_matrix,
)


# ---------------------------------------------------------------------------
# integer factorization helpers


def test_factorint_small_and_composite():
    assert factorint(1) == {}
    assert factorint(2) == {2: 1}
    assert factorint(360) == {2: 3, 3: 2, 5: 1}
    assert factorint(97) == {97: 1}
    # a product of two larger primes exercises the rho path
    assert factorint(10007 * 10009) == {10007: 1, 10009: 1}


def test_factorint_random_roundtrip():
    rng = random.Random(17)
    for _ in range(50):
        n = rng.randint(2, 10**7)
        fac = factorint(n)
        prod = 1
        for p, e in fac.items():
            prod *= p**e
        assert prod == n


def test_squarefree_split():
    assert squarefree_split(360) == (10, 6)
    assert squarefree_split(1) == (1, 1)
    assert squarefree_split(49) == (1, 7)
    assert squarefree_part(-50) == -2
    assert squarefree_part(7) == 7


# ---------------------------------------------------------------------------
# Hilbert symbol


def test_hilbert_symbol_known_values():
    assert hilbert_symbol(-1, -1, "real") == -1
    assert hilbert_symbol(-1, -1, 2) == -1
    assert hilbert_symbol(2, 3, 2) == -1
    assert hilbert_symbol(5, 5, 5) == 1
    assert hilbert_symbol(3, 5, 5) == -1  # 3 is not a square mod 5
    assert hilbert_symbol(1, 7, 7) == 1


def test_hilbert_symbol_rejects_bad_input():
    with pytest.raises(ValueError):
        hilbert_symbol(0, 3, 2)
    with pytest.raises(ValueError):
        hilbert_symbol(2, 3, 9)  # not a prime place


def test_hilbert_symbol_symmetric_and_bimultiplicative():
    rng = random.Random(29)
    places = ["real", 2, 3, 5, 7, 11]
    for _ in range(40):
        a = rng.choice([x for x in range(-30, 31) if x])
        b = rng.choice([x for x in range(-30, 31) if x])
        c = rng.choice([x for x in range(-30, 31) if x])
        for p in places:
            assert hilbert_symbol(a, b, p) == hilbert_symbol(b, a, p)
            assert hilbert_symbol(a * c * c, b, p) == hilbert_symbol(a, b, p)
            assert (
                hilbert_symbol(a * b, c, p)
                == hilbert_symbol(a, c, p) * hilbert_symbol(b, c, p)
            )


def test_hilbert_symbol_squares_are_trivial():
    for p in ("real", 2, 3, 13):
        assert hilbert_symbol(4, -7, p) == 1 or p != "real"
        assert hilbert_symbol(9, 5, p) == 1
        assert hilbert_symbol(1, -11, p) == 1


# ---------------------------------------------------------------------------
# diagonalization


def test_diagonalize_congruence_random():
    # integral Grams and Grams with denominators 2, 3 and 6: P is integral,
    # P^T S P is the returned diagonal, and each column of P is a positive
    # multiple of the column of the rational reference elimination
    rng = random.Random(31)
    for den in (1, 2, 3, 6):
        for _ in range(30):
            n = rng.randint(2, 5)
            q = QuadraticForm(tuple(tuple(row) for row in random_gram(rng, n, 6, den)))
            if q.is_zero:
                continue
            p, diag = diagonalize(q)
            assert all(type(x) is int for row in p for x in row)
            if den == 1:
                assert all(type(x) is int for x in diag)
            cols = [tuple(p[i][k] for i in range(n)) for k in range(n)]
            for k, col in enumerate(cols):
                assert q.evaluate(col) == diag[k]
            for a in range(n):
                for b in range(a + 1, n):
                    assert q.bilinear(cols[a], cols[b]) == 0
            ref_p, ref_diag = rational_diagonalize(q)
            for k, col in enumerate(cols):
                ref = [ref_p[i][k] for i in range(n)]
                lead = next(i for i, x in enumerate(ref) if x != 0)
                scale = Fraction(col[lead], ref[lead])
                assert scale > 0 and list(col) == [scale * x for x in ref]
                assert diag[k] == scale * scale * ref_diag[k]


def test_diagonalize_zero_diagonal_path():
    # hyperbolic plane: all diagonal entries zero
    q = QuadraticForm(((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))))
    p, diag = diagonalize(q)
    assert sorted(x > 0 for x in diag) == [False, True]


def test_diagonalize_and_from_poly_of_integer_input_are_exact():
    # fraction-free: an integral Gram gives an integral P and diagonal
    p, diag = diagonalize(QuadraticForm(((2, 1), (1, 2))))
    assert diag == [2, 6] and p == [[1, -1], [0, 2]]
    assert [type(x) for x in diag] == [int, int]
    assert [[type(x) for x in row] for row in p] == [[int, int], [int, int]]
    # x0 x1 has the half-integer off-diagonal Gram entry 1/2
    q = QuadraticForm.from_poly(Poly.variable(2, 0) * Poly.variable(2, 1))
    assert q.gram == ((0, Fraction(1, 2)), (Fraction(1, 2), 0))
    assert is_exact(*q.gram[0], *q.gram[1])
    p, diag = diagonalize(q)
    assert diag == [1, -1] and p == [[1, -1], [1, 1]]
    assert [type(x) for x in diag] == [int, int]
    assert [[type(x) for x in row] for row in p] == [[int, int], [int, int]]
    assert diagonalize(QuadraticForm.from_diagonal([Fraction(1, 2), 3]))[1] == [Fraction(1, 2), 3]
    assert [type(x) for x in QuadraticForm.from_diagonal([Fraction(4, 2), 1]).gram[0]] == [int, int]
    with pytest.raises(TypeError):
        QuadraticForm.from_diagonal([0.5, 1])


def test_radical():
    q = QuadraticForm.from_diagonal([1, 1, 0])
    assert radical(q) == [(0, 0, 1)]
    assert radical(QuadraticForm.from_diagonal([1, -1])) == []


# ---------------------------------------------------------------------------
# isotropy verdicts


def test_isotropy_known_ternaries():
    # x^2 + y^2 - 2 z^2 has the obvious zero (1, 1, 1)
    v = is_isotropic(QuadraticForm.from_diagonal([1, 1, -2]))
    assert v.kind is IsotropyKind.ISOTROPIC
    # x^2 + y^2 - 3 z^2 fails at 3 (and 2)
    v = is_isotropic(QuadraticForm.from_diagonal([1, 1, -3]))
    assert v.kind is IsotropyKind.ANISOTROPIC
    assert v.obstruction in (2, 3)
    # definite
    v = is_isotropic(QuadraticForm.from_diagonal([2, 3, 5]))
    assert v.kind is IsotropyKind.ANISOTROPIC
    assert v.obstruction == "real"
    # 13 x^2 + 37 y^2 - 61 z^2: obstruction at an odd prime
    v = is_isotropic(QuadraticForm.from_diagonal([13, 37, -61]))
    assert v.kind is IsotropyKind.ANISOTROPIC
    assert v.obstruction == 13


def test_isotropy_rank4_indefinite_but_anisotropic():
    # x^2 + y^2 + z^2 - 7 w^2 is indefinite yet has no rational zero:
    # 7 is not a sum of three rational squares (obstruction at 2)
    v = is_isotropic(QuadraticForm.from_diagonal([1, 1, 1, -7]))
    assert v.kind is IsotropyKind.ANISOTROPIC
    assert v.obstruction == 2


def test_isotropy_rank5_indefinite_always_isotropic():
    q = QuadraticForm.from_diagonal([1, 1, 1, 1, -7])
    assert is_isotropic(q).kind is IsotropyKind.ISOTROPIC
    v = isotropic_vector(q)
    assert v.kind is IsotropyKind.ISOTROPIC
    assert q.evaluate(v.witness) == 0


def test_isotropy_degenerate_reports_radical():
    v = is_isotropic(QuadraticForm.from_diagonal([1, 1, 0]))
    assert v.kind is IsotropyKind.DEGENERATE
    assert v.radical_basis == ((0, 0, 1),)


def test_isotropy_degenerate_exactly_when_singular():
    # DEGENERATE is read off a zero diagonal entry; it must agree with
    # det S = 0, and carry the same radical basis as the rational kernel
    forms = seeded_quadric_forms(random.Random(513), 150)
    degenerate = 0
    for q in forms:
        verdict = is_isotropic(q)
        singular = det(q.gram) == 0
        assert (verdict.kind is IsotropyKind.DEGENERATE) == singular
        if singular:
            assert verdict.radical_basis == tuple(radical(q))
            degenerate += 1
    assert degenerate >= 30


def test_radical_runs_only_on_degenerate_forms(monkeypatch):
    def forbidden(q):
        raise AssertionError("radical reached on a nondegenerate form")

    monkeypatch.setattr(quadpoints, "radical", forbidden)
    for q in seeded_quadric_forms(random.Random(513), 150):
        if det(q.gram) != 0:
            is_isotropic(q)
            isotropic_vector(q)
    # the reducible pin inputs: the quadric factor of each cubic is decided
    # and given a witness without the kernel computation
    rng = random.Random(511)
    for n in range(5, 9):
        for _ in range(3):
            form, d = plant_reducible_form(rng, n)
            c2 = annihilator_c2(rng, d, form.square_class(d).coords)
            assert certify(form, c2, d).rule == "thm_main_reducible"


def test_isotropy_zero_form_raises():
    with pytest.raises(ValueError):
        is_isotropic(QuadraticForm.from_diagonal([0, 0]))


def test_isotropic_vector_verified_random():
    rng = random.Random(37)
    found = 0
    while found < 25:
        n = rng.randint(3, 5)
        diag = [rng.choice([x for x in range(-12, 13) if x]) for _ in range(n)]
        if all(d > 0 for d in diag) or all(d < 0 for d in diag):
            continue
        q = QuadraticForm.from_diagonal(diag)
        verdict = is_isotropic(q)
        if verdict.kind is not IsotropyKind.ISOTROPIC:
            continue
        w = isotropic_vector(q).witness
        assert w is not None and any(w)
        assert q.evaluate(w) == 0
        found += 1


def test_isotropic_vector_on_anisotropic_returns_verdict():
    q = QuadraticForm.from_diagonal([1, 1, -3])
    v = isotropic_vector(q)
    assert v.kind is IsotropyKind.ANISOTROPIC and v.witness is None


def test_diagonal_zero_on_squarefree_diagonals():
    # the exact construction alone, with no search in front of it: ranks 4-6
    # (rank 6 goes through a rank-5 subform, ranks 4 and 5 through the split)
    rng = random.Random(61)
    squarefree = [k for k in range(1, 1001) if squarefree_part(k) == k]
    found = 0
    while found < 30:
        s = [rng.choice(squarefree) * rng.choice((1, -1)) for _ in range(rng.randint(4, 6))]
        if _local_obstruction(s) is not None:
            continue
        w = _diagonal_zero(s)
        assert any(w)
        assert sum(c * x * x for c, x in zip(s, w)) == 0
        found += 1


def _criterion_03_forms():
    # the 100 nondegenerate indefinite rank-5 Gram matrices of acceptance
    # criterion 03, drawn by the same generator
    rng = random.Random(103)
    forms = []
    while len(forms) < 100:
        gram = [[0] * 5 for _ in range(5)]
        for i in range(5):
            for j in range(i, 5):
                gram[i][j] = gram[j][i] = rng.randint(-30, 30)
        q = QuadraticForm(tuple(tuple(row) for row in gram))
        _, diag = diagonalize(q)
        if any(d == 0 for d in diag):
            continue
        if all(d > 0 for d in diag) or all(d < 0 for d in diag):
            continue
        forms.append(q)
    return forms


def test_criterion_03_witnesses_are_small():
    # the search on the Gram matrix finds small zeros of the input itself,
    # which the diagonal basis would inflate
    for q in _criterion_03_forms():
        w = isotropic_vector(q).witness
        assert q.evaluate(w) == 0
        assert max(abs(x) for x in w).bit_length() <= 8, w


def test_isotropic_vector_without_the_search_uses_the_split(monkeypatch):
    # when the Gram-matrix search gives out, the exact construction on the
    # squarefree diagonal lifts back to a zero of the original dense form
    monkeypatch.setattr("nullcone.quadpoints._dense_zero_search", lambda gram, budget: None)
    rng = random.Random(62)
    found = 0
    while found < 20:
        n = rng.randint(4, 6)
        gram = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                gram[i][j] = gram[j][i] = rng.randint(-3, 3)
        q = QuadraticForm(tuple(tuple(row) for row in gram))
        if is_isotropic(q).kind is not IsotropyKind.ISOTROPIC:
            continue
        w = isotropic_vector(q).witness
        assert any(w) and q.evaluate(w) == 0
        found += 1


def test_rank5_isotropy_factors_nothing(monkeypatch):
    # from rank 5 on the diagonal's signs decide (Meyer's theorem), and the
    # hyperbolic pair and the Gram-matrix search find their zeros without a
    # prime: neither the decision nor such a witness may call factorint
    forms = seeded_rank5_forms(random.Random(514), 60)
    reducible = []
    rng = random.Random(515)
    for n in (5, 6, 7, 5):
        form, d = plant_reducible_form(rng, n)
        reducible.append((form, annihilator_c2(rng, d, form.square_class(d).coords), d))

    def forbidden(n):
        raise AssertionError(f"factorint({n}) on the rank >= 5 path")

    monkeypatch.setattr(quadpoints, "factorint", forbidden)
    kinds, pairs = [], 0
    for q in forms:
        verdict = is_isotropic(q)
        kinds.append(verdict.kind)
        if verdict.kind is IsotropyKind.ANISOTROPIC:
            assert verdict.obstruction == "real"
            continue
        pairs += _hyperbolic_pair(diagonalize(q)[1]) is not None
        w = isotropic_vector(q).witness
        assert any(w) and q.evaluate(w) == 0
    assert kinds.count(IsotropyKind.ANISOTROPIC) >= 10
    assert kinds.count(IsotropyKind.ISOTROPIC) >= 40 and pairs >= 10
    for form, c2, d in reducible:
        assert certify(form, c2, d).rule == "thm_main_reducible"


def test_dense_rank7_isotropy_is_fast():
    # dense rank-7 Grams with entries up to 1000 have diagonal entries of
    # about 120 bits; deciding them by their signs factors none of them
    forms = []
    for seed in range(8):
        rng = random.Random(seed)
        gram = [[0] * 7 for _ in range(7)]
        for i in range(7):
            for j in range(i, 7):
                gram[i][j] = gram[j][i] = rng.randint(-1000, 1000)
        forms.append(QuadraticForm(tuple(tuple(row) for row in gram)))
    start = time.perf_counter()
    for q in forms:
        assert is_isotropic(q).kind is IsotropyKind.ISOTROPIC
        w = isotropic_vector(q).witness
        assert any(w) and q.evaluate(w) == 0
    assert time.perf_counter() - start < 0.5


def test_hyperbolic_pair_matches_the_squarefree_pair():
    # diagonals s_k a_k^2 / c_k: the perfect-square product test finds the
    # first pair with s_i = -s_j, and its witness is, up to a positive
    # factor, the lift P (m_i e_i + m_j e_j) through the squarefree scaling
    rng = random.Random(63)
    checked = 0
    for _ in range(150):
        n = rng.randint(2, 8)
        diag = [
            frac(Fraction(rng.choice((1, -1)) * rng.choice((1, 2, 3, 6)) * rng.randint(1, 12) ** 2,
                          rng.randint(1, 4)))
            for _ in range(n)
        ]
        splits = [squarefree_split(d.numerator * d.denominator) for d in diag]
        s = [sp[0] for sp in splits]
        first = next(
            ((i, j) for i, j in itertools.combinations(range(n), 2) if s[i] == -s[j]), None
        )
        y = _hyperbolic_pair(diag)
        if first is None:
            assert y is None and _hyperbolic_pair(s) is None
            continue
        support = tuple(k for k in range(n) if y[k])
        assert support == first
        assert tuple(k for k in range(n) if _hyperbolic_pair(s)[k]) == first
        assert sum(d * v * v for d, v in zip(diag, y)) == 0
        t_lcm = math.lcm(*(t for _, t in splits))
        mults = [d.denominator * (t_lcm // t) for d, (_, t) in zip(diag, splits)]
        old = [mults[k] if k in first else 0 for k in range(n)]
        p, _ = unimodular_matrix(rng, n)
        assert canonical_vector(mat_vec(p, y)) == canonical_vector(mat_vec(p, old))
        checked += 1
    assert checked >= 50


def test_nondiagonal_isotropic():
    # 2 x y: zero at (1, 0)
    q = QuadraticForm(((Fraction(0), Fraction(1)), (Fraction(1), Fraction(0))))
    v = isotropic_vector(q)
    assert v.kind is IsotropyKind.ISOTROPIC
    assert v.witness is not None and q.evaluate(v.witness) == 0


# ---------------------------------------------------------------------------
# secant construction


def test_second_intersection_basic():
    q = QuadraticForm.from_diagonal([1, -1, 0])
    r = second_intersection(q, (1, 1, 0), (1, 0, 0))
    assert r.point == (-1, 1, 0) and r.tangent is False
    assert q.evaluate(r.point) == 0


def test_second_intersection_tangent_flag():
    q = QuadraticForm.from_diagonal([1, 1, -2])
    r = second_intersection(q, (1, 1, 1), (2, 0, 1))
    assert r.tangent is True
    assert r.point == (1, 1, 1)


def test_second_intersection_line_contained():
    q = QuadraticForm.from_diagonal([1, -1, 0])
    assert second_intersection(q, (1, 1, 0), (0, 0, 1)) is None


def test_second_intersection_errors():
    q = QuadraticForm.from_diagonal([1, -1, 0])
    with pytest.raises(ValueError):
        second_intersection(q, (1, 1, 0), (2, 2, 0))  # parallel direction
    with pytest.raises(ValueError):
        second_intersection(q, (1, 0, 0), (0, 1, 0))  # base off the quadric
    with pytest.raises(ValueError):
        second_intersection(q, (0, 0, 0), (1, 0, 0))
    # the secant reads the direction on its support, so its length is checked
    for w in ((1, 0), (1, 0, 0, 0)):
        with pytest.raises(ValueError, match=f"dimension mismatch: 3 vs {len(w)}"):
            second_intersection(q, (1, 1, 0), w)


def test_sample_points_properties():
    q = QuadraticForm.from_diagonal([1, 1, -2])
    avoid = [(1, 0, 0), (0, 1, 1)]
    pts = sample_points(q, (1, 1, 1), 6, avoid=avoid)
    assert len(pts) == 6
    assert len(set(pts)) == 6  # distinct canonical classes
    for p in pts:
        assert q.evaluate(p) == 0
        for a in avoid:
            assert vec_dot(a, p) != 0


def test_sample_points_insufficient():
    # rank-2 isotropic form has only two rational null rays; asking for five
    # distinct classes must fail with a precise count
    q = QuadraticForm.from_diagonal([1, -1])
    with pytest.raises(InsufficientPoints):
        sample_points(q, (1, 1), 5, max_directions=50)


# ---------------------------------------------------------------------------
# the integral Gram against the rational one


def _seeded_grams(rng, count: int):
    """Forms in 2-6 variables with Gram denominators 1, 2, 3 and 6, in turn."""
    return [
        QuadraticForm(tuple(map(tuple, random_gram(rng, rng.randint(2, 6), 6, (1, 2, 3, 6)[k % 4]))))
        for k in range(count)
    ]


def _seeded_vector(rng, n: int, fractional: bool) -> tuple:
    while True:
        v = tuple(frac(Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3, 4)) if fractional else 1))
                  for _ in range(n))
        if any(v):
            return v


def test_evaluate_and_bilinear_match_the_rational_gram():
    rng = random.Random(521)
    fractional = 0
    for q in _seeded_grams(rng, 120):
        assert q.igram == tuple(tuple(frac(q.den * e) for e in row) for row in q.gram)
        for k in range(4):
            x = _seeded_vector(rng, q.nvars, k % 2 == 1)
            y = _seeded_vector(rng, q.nvars, k >= 2)
            for got, want in (
                (q.evaluate(x), vec_dot(x, mat_vec(q.gram, x))),
                (q.bilinear(x, y), vec_dot(x, mat_vec(q.gram, y))),
            ):
                assert got == want and is_exact(got)
                assert type(got) is type(frac(want))
                fractional += type(got) is Fraction
    assert fractional >= 200


def _rational_residual(q: QuadraticForm, v, w):
    """The secant formula Q(w) v - 2 B(v, w) w on the rational Gram."""
    qw = vec_dot(w, mat_vec(q.gram, w))
    bvw = vec_dot(mat_vec(q.gram, v), w)
    if qw == 0 and bvw == 0:
        return None
    if bvw == 0:
        return ResidualPoint(primitive_vector(v), True)
    return ResidualPoint(primitive_vector([qw * a - 2 * bvw * b for a, b in zip(v, w)]), False)


def test_second_intersection_matches_the_rational_formula():
    rng = random.Random(522)
    kinds = {True: 0, False: 0, None: 0}
    for q in _seeded_grams(rng, 80):
        verdict = isotropic_vector(q)
        if verdict.witness is None:
            continue
        for k in range(6):
            scale = Fraction(rng.choice((1, 2, 3, 5)), rng.choice((1, 2, 3)))
            v = vec(scale * c for c in verdict.witness)
            w = _seeded_vector(rng, q.nvars, k % 2 == 1)
            if canonical_vector(w) == canonical_vector(v):
                continue
            got = second_intersection(q, v, w)
            assert got == _rational_residual(q, v, w)
            kinds[None if got is None else got.tangent] += 1
    assert kinds[False] >= 100 and kinds[True] + kinds[None] >= 1, kinds


# ---------------------------------------------------------------------------
# the integer kernels against plain reference copies


def _reference_diagonalize(q: QuadraticForm):
    """`diagonalize` as two-sided congruence steps on A and on P by rows."""
    n = q.nvars
    den, a = q.den, [list(row) for row in q.igram]
    p = mat_identity(n)

    def combine(dst, alpha, src, beta):
        for row in a:
            row[dst] = alpha * row[dst] + beta * row[src]
        a[dst] = [alpha * x + beta * y for x, y in zip(a[dst], a[src])]
        for row in p:
            row[dst] = alpha * row[dst] + beta * row[src]
        g = math.gcd(*(row[dst] for row in p))
        if g > 1:
            for row in p:
                row[dst] //= g
            for row in a:
                row[dst] //= g
            a[dst] = [x // g for x in a[dst]]

    def swap(i, j):
        for row in a:
            row[i], row[j] = row[j], row[i]
        a[i], a[j] = a[j], a[i]
        for row in p:
            row[i], row[j] = row[j], row[i]

    for k in range(n):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][i] != 0), None)
            if piv is not None:
                swap(k, piv)
            else:
                pair = next(
                    ((i, j) for i in range(k, n) for j in range(i + 1, n) if a[i][j] != 0),
                    None,
                )
                if pair is None:
                    continue
                i, j = pair
                combine(i, 1, j, 1)
                if i != k:
                    swap(k, i)
        akk = a[k][k]
        if akk == 0:
            continue
        sgn = 1 if akk > 0 else -1
        for i in range(k + 1, n):
            if a[k][i] != 0:
                combine(i, abs(akk), k, -sgn * a[k][i])
    return p, [frac(Fraction(a[i][i], den)) for i in range(n)]


def _reference_sample_points(q: QuadraticForm, v, count: int, avoid=(), max_directions: int = 5000):
    """`sample_points` with the secant formula on whole vectors."""
    a, vv = q.igram, primitive_vector(v)

    def pair(x, y):
        return sum(x[i] * a[i][j] * y[j] for i in range(len(x)) for j in range(len(y)))

    if pair(vv, vv) != 0:
        raise ValueError("base point does not lie on the quadric")
    if not any(pair(vv, e) for e in mat_identity(len(vv))):
        raise ValueError("base point lies in the radical; all secants degenerate")
    avoid_forms = [primitive_vector(l) for l in avoid]
    v_key = canonical_vector(vv)
    out, seen = [], set()
    for w in itertools.islice(iter_primitive_vectors(q.nvars), max_directions):
        if w == v_key:
            continue
        qw, bvw = pair(w, w), pair(vv, w)
        if bvw == 0:
            continue
        pt = primitive_vector([qw * x - 2 * bvw * y for x, y in zip(vv, w)])
        key = canonical_vector(pt)
        if key in seen:
            continue
        seen.add(key)
        if any(vec_dot(l, pt) == 0 for l in avoid_forms):
            continue
        out.append(pt)
        if len(out) == count:
            return out
    raise InsufficientPoints(
        f"found {len(out)} of {count} requested points within {max_directions} directions"
    )


def _outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except (ValueError, InsufficientPoints) as exc:
        return type(exc), str(exc)


def _brute_force_prefix(n: int, canonical: bool) -> list[tuple[int, ...]]:
    """Every vector of height 1, then those of height 2 whose first three
    coordinates are 0, which come first in that shell: sorted by (height,
    spiral-lex), primitive with a positive leading entry when canonical."""
    shell1 = [v for v in itertools.product((-1, 0, 1), repeat=n) if any(v)]
    shell2 = [(0, 0, 0) + v for v in itertools.product(range(-2, 3), repeat=n - 3) if 2 in map(abs, v)]
    out = []
    for shell in (shell1, shell2):
        if canonical:
            shell = [v for v in shell if math.gcd(*v) == 1 and next(x for x in v if x) > 0]
        out.extend(sorted(shell, key=spiral_key))
    return out


def test_integer_kernels_match_reference_copies():
    # diagonalize and sample_points give exactly the (P, diagonal) and point
    # lists of plain reference copies, on integral, fractional, degenerate and
    # zero-diagonal Grams at ranks 1-8, with avoid lists, and from_poly reads
    # each Gram back off its polynomial; the rows-free walk they run on
    # matches a brute-force sort at ranks 7 and 8
    rng = random.Random(1919)
    zero_pivot = degenerate = sampled = 0
    for n in range(1, 9):
        for kind in range(4):
            if kind == 3 and n > 1:
                gram = low_rank_gram(rng, n, rng.randint(1, n - 1), 3)
                degenerate += 1
            else:
                gram = random_gram(rng, n, 6, (1, 2, 6)[kind % 3])
            if kind == 1:
                # a zero diagonal sends the elimination through swaps and the
                # off-diagonal pair step
                for i in rng.sample(range(n), rng.randint(1, n)):
                    gram[i][i] = 0
                zero_pivot += 1
            q = QuadraticForm(tuple(map(tuple, gram)))
            if q.is_zero:
                continue
            assert diagonalize(q) == _reference_diagonalize(q)
            assert QuadraticForm.from_poly(q.to_poly()) == q
            verdict = isotropic_vector(q)
            bases = list(verdict.radical_basis)
            if verdict.witness is not None:
                bases.append(verdict.witness)
            for v in bases:
                avoid = [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(0, 2))]
                count = rng.randint(1, 6)
                got = _outcome(sample_points, q, v, count, avoid=avoid, max_directions=300)
                assert got == _outcome(_reference_sample_points, q, v, count, avoid, 300)
                sampled += isinstance(got, list)
    assert zero_pivot == 8 and degenerate == 7 and sampled >= 10
    for n in (7, 8):
        for canonical, walk in ((False, iter_integer_vectors), (True, iter_primitive_vectors)):
            want = _brute_force_prefix(n, canonical)
            assert list(itertools.islice(walk(n), len(want))) == want
