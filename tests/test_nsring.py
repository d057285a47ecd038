"""Intersection lattice: trilinear form, divisors, numerical dimension."""

from fractions import Fraction
import itertools
import random

import pytest

from nullcone.exactmath import canonical_vector, kernel_basis
from nullcone.nsring import (
    Divisor,
    IntersectionForm,
    LinearClass,
    Point,
    nef_threshold,
    positivity_flags,
    validate_input,
)

from helpers import is_exact, key_shape_forms, nonzero_vector, plant_null_form, random_form


# ---------------------------------------------------------------------------
# Divisor / LinearClass


def test_divisor_arithmetic():
    d = Divisor((1, 2))
    e = Divisor((0, 1))
    assert tuple((d + e).coords) == (1, 3)
    assert tuple((d - e).coords) == (1, 1)
    assert tuple((3 * d).coords) == (3, 6)
    assert list(d) == [1, 2]
    assert not d.is_zero and Divisor((0, 0)).is_zero


def test_divisor_normalizations():
    assert tuple(Divisor((-2, -4)).primitive().coords) == (-1, -2)
    assert tuple(Divisor((-2, -4)).canonical().coords) == (1, 2)
    half = Divisor((Fraction(1, 2), Fraction(3, 2)))
    assert tuple(half.primitive().coords) == (1, 3)


def test_integral_coordinates_are_held_as_ints():
    assert [type(c) for c in Divisor((Fraction(2), 4)).coords] == [int, int]
    assert [type(c) for c in Divisor(("6/3", True)).coords] == [int, int]
    assert [type(c) for c in LinearClass((Fraction(3, 3), -1)).coords] == [int, int]
    assert type(Divisor((Fraction(1, 2), 1)).coords[0]) is Fraction


def test_constructors_reject_floats():
    with pytest.raises(TypeError):
        Divisor((0.5, 1))
    with pytest.raises(TypeError):
        LinearClass((1, 2.0))
    with pytest.raises(TypeError):
        IntersectionForm.diagonal([1, 1]).cube((1.0, 0))
    with pytest.raises(ValueError):
        IntersectionForm(1, {(0, 0, 0): 1.0})


def test_linear_class_pair():
    lc = LinearClass((1, -1))
    assert lc.pair(Divisor((1, 2))) == -1
    assert lc.pair((1, 2)) == -1


# ---------------------------------------------------------------------------
# IntersectionForm construction


def test_entries_symmetrized_and_zero_skipped():
    f = IntersectionForm(2, {(0, 1, 0): 1, (0, 0, 1): 1, (1, 1, 1): 0})
    assert f.entries == {(0, 0, 1): 1}


def test_constructor_rejects_non_integer():
    with pytest.raises(ValueError):
        IntersectionForm(2, {(0, 0, 0): "x"})
    with pytest.raises(ValueError):
        IntersectionForm(2, {(0, 0, 0): Fraction(1, 2)})


def test_constructor_rejects_out_of_range():
    with pytest.raises(ValueError):
        IntersectionForm(2, {(0, 0, 5): 1})


def test_constructor_rejects_conflicts():
    with pytest.raises(ValueError):
        IntersectionForm(2, {(0, 1, 0): 1, (0, 0, 1): 2})


def test_diagonal_constructor():
    f = IntersectionForm.diagonal([1, -2])
    assert f.entries == {(0, 0, 0): 1, (1, 1, 1): -2}
    assert f.rank == 2


# ---------------------------------------------------------------------------
# trilinear evaluation


def _brute_triple(form, a, b, c):
    """T(a, b, c) as a sum over every ordered index triple, each reading the
    entry stored under its sorted key."""
    return sum(
        (
            form.entries.get(tuple(sorted(key)), 0) * Fraction(a[key[0]]) * b[key[1]] * c[key[2]]
            for key in itertools.product(range(form.rank), repeat=3)
        ),
        Fraction(0),
    )


def _rational_vector(rng, n):
    """Nonzero vector with numerators in [-4, 4] over mixed denominators."""
    while True:
        v = tuple(Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3, 4, 6, 9))) for _ in range(n))
        if any(v):
            return v


def test_triple_symmetry_random():
    rng = random.Random(7)
    for trial in range(40):
        n = rng.randint(2, 4)
        form = random_form(rng, n, 5)
        if trial < 20:
            a, b, c = (nonzero_vector(rng, n, 4) for _ in range(3))
        else:
            a, b, c = (_rational_vector(rng, n) for _ in range(3))
        v = form.triple(a, b, c)
        assert v == _brute_triple(form, a, b, c)
        assert v == form.triple(b, a, c) == form.triple(c, b, a)
        assert v == form.triple(a, c, b)
        assert v == form.triple(Divisor(a), b, c)


def test_triple_multilinearity_random():
    rng = random.Random(8)
    for _ in range(20):
        n = rng.randint(2, 4)
        form = random_form(rng, n, 5)
        a = nonzero_vector(rng, n, 4)
        b = nonzero_vector(rng, n, 4)
        c = nonzero_vector(rng, n, 4)
        ab = tuple(x + 2 * y for x, y in zip(a, b))
        assert form.triple(ab, c, c) == form.triple(a, c, c) + 2 * form.triple(
            b, c, c
        )


def test_cube_matches_polarization():
    # cube(x) must agree with triple(x, x, x) including multiplicity rules
    form = IntersectionForm(3, {(0, 0, 0): 2, (0, 0, 1): 1, (0, 1, 2): 1, (1, 2, 2): -1})
    x = (1, 2, -1)
    # by hand: 2*x0^3 + 3*x0^2 x1 + 6*x0 x1 x2 + 3*x1 x2^2 * (-1)
    expect = 2 * 1 + 3 * 2 + 6 * 1 * 2 * (-1) + (-1) * 3 * 2 * 1
    assert form.cube(x) == expect
    assert form.triple(x, x, x) == expect


def test_cube_accepts_divisor_and_fractions():
    form = IntersectionForm.diagonal([1, 1])
    assert form.cube(Divisor((1, 1))) == 2
    assert form.cube((Fraction(1, 2), 0)) == Fraction(1, 8)


def _unit(n, k):
    return tuple(Fraction(int(i == k)) for i in range(n))


def _brute_nu(form, d):
    """nu(d) from T(d, d, d), T(d, d, e_k) and T(d, e_j, e_k) by brute force."""
    e = [_unit(form.rank, k) for k in range(form.rank)]
    if _brute_triple(form, d, d, d):
        return 3
    if any(_brute_triple(form, d, d, ek) for ek in e):
        return 2
    if any(_brute_triple(form, d, ej, ek) for ej in e for ek in e):
        return 1
    return 0


def _ladder_case(rng, nu):
    """A random form and a rational point d with nu(d) <= nu, generically equal:
    d lives on the first m coordinates, and every entry with more than nu of
    its indices below m is dropped."""
    n = rng.randint(2, 5)
    m = n if nu == 3 else rng.randint(1, n - 1)
    entries = {
        key: v for key, v in random_form(rng, n, 5).entries.items()
        if sum(i < m for i in key) <= nu
    }
    return IntersectionForm(n, entries), _rational_vector(rng, m) + (Fraction(0),) * (n - m)


def test_square_class():
    form = IntersectionForm.diagonal([1, 2, -3])
    sq = form.square_class((1, 1, 1))
    assert tuple(sq.coords) == (1, 2, -3)
    assert sq.pair((1, 1, 1)) == 0  # D lies on its own polar plane: cube is 0
    rng = random.Random(9)
    for trial in range(40):
        form, d = _ladder_case(rng, trial % 4)
        expect = tuple(_brute_triple(form, d, d, _unit(form.rank, k)) for k in range(form.rank))
        assert form.square_class(d).coords == expect
        assert form.square_class(Divisor(d)).coords == expect


def test_numerical_dimension_ladder():
    # nu = 3: off the null cone
    f = IntersectionForm.diagonal([1, 1])
    assert f.numerical_dimension((1, 1)) == 3
    # nu = 2: cube zero, square class nonzero
    g = IntersectionForm(2, {(0, 1, 1): 1})
    assert g.numerical_dimension((0, 1)) == 2
    # nu = 1: square class zero, some pairing nonzero
    assert g.numerical_dimension((1, 0)) == 1
    # nu = 0: numerically trivial
    h = IntersectionForm(2, {(0, 0, 0): 1})
    assert h.numerical_dimension((0, 1)) == 0
    rng = random.Random(10)
    seen = set()
    for trial in range(60):
        form, d = _ladder_case(rng, trial % 4)
        nu = form.numerical_dimension(d)
        assert nu == _brute_nu(form, d)
        seen.add(nu)
    assert seen == {0, 1, 2, 3}


def test_point_answers_match_full_passes():
    # a Point's cube, nu and T(p, p, y), read off its one tangent pass, equal
    # the full-pass cube, numerical_dimension and triple: at planted null
    # points of ranks 2-10 and their Fraction multiples, off-cubic integer and
    # rational points, and ladder points of every nu
    rng = random.Random(20)
    cases = []
    for n in range(2, 11):
        for _ in range(2):
            form, d = plant_null_form(rng, n, 4)
            half = tuple(Fraction(c, 2) for c in d)
            cases += [(form, p) for p in (d, half, nonzero_vector(rng, n, 3), _rational_vector(rng, n))]
    cases += [_ladder_case(rng, trial % 4) for trial in range(40)]
    seen = set()
    for form, p in cases:
        point = Point(form, p)
        assert point.divisor == Divisor(p)
        assert point.cube() == form.cube(p)
        assert point.nu() == form.numerical_dimension(p)
        assert is_exact(point.cube())
        for y in (nonzero_vector(rng, form.rank, 3), _rational_vector(rng, form.rank), p):
            assert point.triple(y) == form.triple(p, p, y)
            assert is_exact(point.triple(y))
        assert point.key == canonical_vector(p)
        assert point.zeros == sum(c == 0 for c in p)
        seen.add(point.nu())
    assert seen == {0, 1, 2, 3}
    with pytest.raises(ValueError, match="^D must be nonzero$"):
        Point(cases[0][0], (0, 0), "D")


def test_monomials_are_the_ordered_sum_coefficients():
    # w of (i, j, k, w) counts every ordered index triple sorting to ijk
    rng = random.Random(11)
    for form in key_shape_forms(rng, 4) + [random_form(rng, 4, 5)]:
        expect: dict = {}
        for key in itertools.product(range(4), repeat=3):
            s = tuple(sorted(key))
            if s in form.entries:
                expect[s] = expect.get(s, 0) + form.entries[s]
        assert {(i, j, k): w for i, j, k, w in form.monomials} == expect


def test_kernels_vs_ordered_sums_on_every_key_shape():
    # triple, cube, the square class and nu on forms holding keys iii, iik,
    # ijj and ijk, at fractional points whose support varies, so that every
    # nu occurs and each key shape meets both zero and nonzero coordinates
    rng = random.Random(12)
    n = 3
    seen = set()
    for form in key_shape_forms(rng, n):
        for _ in range(3):
            support = rng.sample(range(n), rng.randint(1, n))
            d = tuple(
                Fraction(rng.randint(1, 4) * rng.choice((-1, 1)), rng.choice((1, 2, 3)))
                if i in support else 0
                for i in range(n)
            )
            b, c = _rational_vector(rng, n), _rational_vector(rng, n)
            assert form.triple(d, b, c) == _brute_triple(form, d, b, c)
            assert form.triple(d, d, c) == _brute_triple(form, d, d, c)
            assert form.cube(d) == _brute_triple(form, d, d, d)
            expect = tuple(_brute_triple(form, d, d, _unit(n, k)) for k in range(n))
            assert form.square_class(d).coords == expect
            nu = form.numerical_dimension(d)
            assert nu == _brute_nu(form, d)
            seen.add(nu)
    assert seen == {0, 1, 2, 3}


def test_incidence_and_support_pass_on_every_key_shape():
    # incidence[c] lists each entry whose key holds c once, and the pass over
    # the entries touching supp(x) gives cube(x) and T(p, x, x) exactly, at
    # integer points x with one to all coordinates nonzero
    rng = random.Random(14)
    n = 4
    for form in key_shape_forms(rng, n) + [random_form(rng, n, 5)]:
        assert form.incidence == [
            [pos for pos, (i, j, k, _) in enumerate(form.monomials) if c in (i, j, k)]
            for c in range(n)
        ]
        for _ in range(3):
            support = rng.sample(range(n), rng.randint(1, n))
            x = tuple(rng.randint(1, 4) * rng.choice((-1, 1)) if i in support else 0 for i in range(n))
            p = tuple(rng.randint(-4, 4) for _ in range(n))
            assert form._cube_and_polar(p, x) == (
                _brute_triple(form, x, x, x), _brute_triple(form, p, x, x)
            )


def test_numerical_dimension_on_cones_over_a_line():
    # l^3 has d_ijk = l_i l_j l_k, and 3 l^2 m gives
    # T(a, b, c) = l(a) l(b) m(c) + l(a) m(b) l(c) + m(a) l(b) l(c); at d with
    # l(d) = 0, T(d, d, .) = 0 and T(d, x, y) = m(d) l(x) l(y), so nu(d) is 0
    # and 1 or 0 as m(d) is nonzero or zero; every pair value cancels
    rng = random.Random(13)
    n = 4
    for _ in range(10):
        l, m = nonzero_vector(rng, n, 3), nonzero_vector(rng, n, 3)
        cube = IntersectionForm(n, {
            (i, j, k): l[i] * l[j] * l[k]
            for i, j, k in itertools.combinations_with_replacement(range(n), 3)
        })
        cone = IntersectionForm(n, {
            (i, j, k): l[i] * l[j] * m[k] + l[i] * m[j] * l[k] + m[i] * l[j] * l[k]
            for i, j, k in itertools.combinations_with_replacement(range(n), 3)
        })
        for basis in kernel_basis([list(l)]):
            scale = Fraction(rng.choice((-1, 1)), rng.choice((1, 2, 3)))
            d = tuple(scale * x for x in basis)
            assert cube.numerical_dimension(d) == 0
            m_d = sum(a * b for a, b in zip(m, d))
            assert cone.numerical_dimension(d) == (1 if m_d else 0)


def test_rank_mismatch_raises():
    form = IntersectionForm.diagonal([1, 1])
    with pytest.raises(ValueError):
        form.cube((1, 1, 1))


# ---------------------------------------------------------------------------
# thresholds and positivity


def test_nef_threshold_exact():
    # cubic 3 x0 x1^2: D = e0 has nu = 1; H = (1, 1)
    form = IntersectionForm(2, {(0, 1, 1): 1})
    d, h = Divisor((1, 0)), Divisor((1, 1))
    t0 = nef_threshold(form, h, d)
    assert t0 == 1
    boundary = tuple(x - t0 * y for x, y in zip(h.coords, d.coords))
    assert form.cube(boundary) == 0
    # a non-integral threshold: t0 = h^3 / (3 d.h^2) = 2 / 3
    form = IntersectionForm(2, {(0, 1, 1): 1, (1, 1, 1): 2})
    t0 = nef_threshold(form, Divisor((0, 1)), Divisor((1, 0)))
    assert t0 == Fraction(2, 3) and is_exact(t0)


def test_nef_threshold_requires_nu1():
    form = IntersectionForm.diagonal([1, 1])
    with pytest.raises(ValueError):
        nef_threshold(form, (1, 0), (1, 1))


def test_positivity_flags():
    form = IntersectionForm.diagonal([1, 1, -2])
    n = Divisor((1, 1, 1))  # cube = 0
    h = Divisor((1, 0, 0))
    flags = positivity_flags(form, n, h)
    assert flags == (False, True, True)
    assert form.triple(n, n, h) == 1


def test_positivity_flags_trivial():
    form = IntersectionForm.diagonal([1])
    e0 = Divisor((1,))
    assert positivity_flags(form, e0, e0) == (True, True, True)


# ---------------------------------------------------------------------------
# validation warnings


def test_validate_c2_zero_warning():
    form = IntersectionForm.diagonal([1, 1])
    warns = validate_input(form, LinearClass((0, 0)))
    assert len(warns) == 1 and "Calabi-Yau" in warns[0]


def test_validate_ample_miyaoka():
    form = IntersectionForm.diagonal([1, 1])
    c2 = LinearClass((1, -1))
    h = Divisor((1, 1), "H")
    warns = validate_input(form, c2, ample=[h])
    assert len(warns) == 1 and "Miyaoka strictness" in warns[0] and "H" in warns[0]
    ok = validate_input(form, c2, ample=[Divisor((2, 1), "H")])
    assert ok == []


def test_validate_nef_negative_pairing():
    form = IntersectionForm.diagonal([1, 1])
    c2 = LinearClass((1, -1))
    warns = validate_input(form, c2, nef=[Divisor((0, 1), "D")])
    assert len(warns) == 1 and "nef" in warns[0] and "D" in warns[0]


def test_validate_rank_mismatch_raises():
    form = IntersectionForm.diagonal([1, 1])
    with pytest.raises(ValueError):
        validate_input(form, LinearClass((1, 1, 1)))
