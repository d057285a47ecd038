"""Exact arithmetic foundations: polynomials, roots, lattice enumeration."""

from fractions import Fraction
import functools
import itertools
import math
import random
import time

import pytest

from nullcone.exactmath import (
    Poly,
    canonical_vector,
    exact_divide,
    frac,
    height,
    is_perfect_square,
    iter_integer_vectors,
    iter_kernel_primitives,
    iter_primitive_vectors,
    kernel_basis,
    mat_identity,
    mat_inv,
    mat_mul,
    mat_vec,
    poly_eval,
    primitive_vector,
    rational_roots,
    rational_roots_cubic,
    rref,
    spiral_key,
    vec_dot,
)

from helpers import random_linear_poly, random_quadric_poly


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


def test_vec_dot():
    assert vec_dot((1, 2, 3), (4, -5, 6)) == 12


# ---------------------------------------------------------------------------
# Poly


def test_poly_constructors_and_eval():
    n = 3
    x0 = Poly.variable(n, 0)
    x1 = Poly.variable(n, 1)
    p = (x0 + x1) * (x0 - x1)
    assert poly_eval(p, (3, 2, 99)) == 5
    assert p.degree() == 2
    assert p.is_homogeneous(2)
    assert not p.is_homogeneous(3)


def test_poly_linear_and_coeff():
    l = Poly.linear([2, -1, 0])
    assert l.coeff((1, 0, 0)) == 2
    assert l.coeff((0, 1, 0)) == -1
    assert l.coeff((0, 0, 1)) == 0


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


def test_exact_divide_detects_nondivisor():
    x0 = Poly.variable(2, 0)
    x1 = Poly.variable(2, 1)
    assert exact_divide(x0 * x0 + x1 * x1, x0 + x1) is None
    assert exact_divide(x0 * x1, x0 + x1) is None


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


def test_rational_roots_cubic_wrapper():
    roots = rational_roots_cubic(frac(1), frac(0), frac(-1), frac(0))
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


def test_rref_pivots():
    m, pivots = rref([[frac(0), frac(2)], [frac(1), frac(1)]])
    assert pivots == [0, 1]
    assert m[0][0] == 1 and m[1][1] == 1 and m[0][1] == 0 and m[1][0] == 0


def test_kernel_basis_full_rank_is_empty():
    rows = [[frac(1), frac(0)], [frac(0), frac(1)]]
    assert kernel_basis(rows) == []


def test_mat_inverse_random():
    rng = random.Random(3)
    for _ in range(20):
        n = rng.randint(2, 4)
        while True:
            m = tuple(
                tuple(frac(rng.randint(-4, 4)) for _ in range(n)) for _ in range(n)
            )
            try:
                inv = mat_inv(m)
                break
            except ValueError:
                continue
        assert mat_mul(m, inv) == mat_identity(n)
        v = tuple(frac(rng.randint(-5, 5)) for _ in range(n))
        assert mat_vec(inv, mat_vec(m, v)) == v


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
    """The nonzero integer vectors of height <= max_height, by (height, spiral-lex)."""
    box = itertools.product(range(-max_height, max_height + 1), repeat=n)
    return tuple(sorted((v for v in box if any(v)), key=lambda v: (height(v), spiral_key(v))))


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


def test_kernel_enumeration_is_lazy_at_high_rank():
    rng = random.Random(20)
    row = [rng.randint(-20, 20) for _ in range(20)]
    start = time.perf_counter()
    got = list(itertools.islice(iter_kernel_primitives([row]), 500))
    elapsed = time.perf_counter() - start
    assert len(got) == 500 and all(vec_dot(row, v) == 0 for v in got)
    assert elapsed < 2.0, f"first 500 directions took {elapsed:.3f}s"


def test_iter_kernel_primitives_trivial_kernel():
    rows = [[frac(1), frac(0)], [frac(0), frac(1)]]
    assert list(iter_kernel_primitives(rows)) == []
