"""Shared exact-arithmetic constructions for the test suite.

Everything here is deterministic given the caller's seeded Random instance;
no floating point is used anywhere.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from nullcone.exactmath import Poly, frac, kernel_basis, mat_identity
from nullcone.nsring import Divisor, IntersectionForm, LinearClass
from nullcone.quadpoints import QuadraticForm, diagonalize


# (7x0 - 9x1 + 7x2) times a quadric: the candidate (1, 1, 1) passes the
# three-variable section filter of the linear-factor search, yet
# x0 + x1 + x2 does not divide it, so the search must go on to (7, -9, 7)
SECTION_DECOY_CUBIC = Poly(3, {
    e: Fraction(c)
    for e, c in {
        (3, 0, 0): -28, (2, 1, 0): 64, (2, 0, 1): -91, (1, 2, 0): 20, (1, 1, 1): 95,
        (1, 0, 2): -63, (0, 3, 0): -72, (0, 2, 1): 74, (0, 1, 2): -14,
    }.items()
})


def is_exact(*values) -> bool:
    """Whether every value is an int or a Fraction.  Equality cannot tell a
    float that slipped in (0.5 == Fraction(1, 2)); the type can."""
    return all(type(v) in (int, Fraction) for v in values)


def nonzero_vector(rng, n: int, hmax: int) -> tuple[int, ...]:
    """Random integer vector with entries in [-hmax, hmax], not all zero."""
    while True:
        v = tuple(rng.randint(-hmax, hmax) for _ in range(n))
        if any(v):
            return v


def random_linear_poly(rng, n: int, hmax: int) -> Poly:
    return Poly.linear([frac(c) for c in nonzero_vector(rng, n, hmax)])


def random_quadric_poly(rng, n: int, hmax: int) -> Poly:
    """Random nonzero homogeneous quadratic with integer coefficients."""
    while True:
        terms = {}
        for i in range(n):
            for j in range(i, n):
                c = rng.randint(-hmax, hmax)
                if c:
                    e = [0] * n
                    e[i] += 1
                    e[j] += 1
                    terms[tuple(e)] = Fraction(c)
        if terms:
            return Poly(n, terms)


def random_gram(rng, n: int, hmax: int, den: int = 1) -> list[list]:
    """Random symmetric n x n Gram matrix with entries k / den, |k| <= hmax."""
    gram = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            gram[i][j] = gram[j][i] = frac(Fraction(rng.randint(-hmax, hmax), den))
    return gram


def low_rank_gram(rng, n: int, r: int, hmax: int) -> list[list[int]]:
    """L^T diag(d) L for a random r x n integer L of rank r and nonzero d: a
    Gram matrix of rank exactly r."""
    while True:
        lin = [[rng.randint(-hmax, hmax) for _ in range(n)] for _ in range(r)]
        if len(kernel_basis(lin)) == n - r:
            break
    d = [rng.choice((-1, 1)) * rng.randint(1, hmax) for _ in range(r)]
    return [
        [sum(lin[t][i] * d[t] * lin[t][j] for t in range(r)) for j in range(n)]
        for i in range(n)
    ]


def seeded_quadric_forms(rng, count: int) -> list[QuadraticForm]:
    """Nonzero forms in 2-6 variables, cycling through integral Grams, Grams
    with denominators 2 and 3, half-integral Grams read off integer quadratic
    polynomials, and degenerate Grams of rank 1-3."""
    forms = []
    while len(forms) < count:
        n = rng.randint(2, 6)
        kind = len(forms) % 5
        if kind == 0:
            gram = random_gram(rng, n, 6)
        elif kind in (1, 2):
            gram = random_gram(rng, n, 6, den=kind + 1)
        elif kind == 3:
            forms.append(QuadraticForm.from_poly(random_quadric_poly(rng, n, 6)))
            continue
        else:
            gram = low_rank_gram(rng, n, rng.randint(1, min(3, n - 1)), 3)
        q = QuadraticForm(tuple(tuple(row) for row in gram))
        if not q.is_zero:
            forms.append(q)
    return forms


def seeded_rank5_forms(rng, count: int) -> list[QuadraticForm]:
    """Nondegenerate forms in 5-8 variables, cycling through integral Grams,
    Grams with denominators 2 and 3, definite Grams U^T D U (the entries of
    D of one sign), and Grams U^T D U with a hyperbolic pair s a^2 / c,
    -s b^2 / c' planted in D among random entries; U is unimodular and the
    entries of D have denominators 1-3."""

    def entry(sign):
        return sign * Fraction(rng.randint(1, 9), rng.randint(1, 3))

    forms = []
    while len(forms) < count:
        n = rng.randint(5, 8)
        kind = len(forms) % 5
        if kind < 3:
            gram = random_gram(rng, n, 6, den=kind + 1)
        else:
            sign = rng.choice((1, -1))
            d = [entry(sign if kind == 3 else rng.choice((1, -1))) for _ in range(n)]
            if kind == 4:
                i, j = rng.sample(range(n), 2)
                s = rng.choice((1, -1)) * rng.choice((1, 2, 3, 5, 6, 7))
                d[i] = Fraction(s * rng.randint(1, 6) ** 2, rng.randint(1, 3))
                d[j] = Fraction(-s * rng.randint(1, 6) ** 2, rng.randint(1, 3))
            u, _ = unimodular_matrix(rng, n)
            gram = [
                [sum(u[k][i] * d[k] * u[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)
            ]
        q = QuadraticForm(tuple(tuple(row) for row in gram))
        if 0 not in diagonalize(q)[1]:
            forms.append(q)
    return forms


def rational_diagonalize(q: QuadraticForm):
    """Reference congruence diagonalization in rational arithmetic: P with
    P^T S P diagonal, eliminating each pivot row by col_i += c col_k."""
    n = q.nvars
    s = [list(row) for row in q.gram]
    p = mat_identity(n)

    def add_col(dst: int, src: int, c):
        for r in range(n):
            s[r][dst] = frac(s[r][dst] + c * s[r][src])
        for r in range(n):
            s[dst][r] = frac(s[dst][r] + c * s[src][r])
        for r in range(n):
            p[r][dst] = frac(p[r][dst] + c * p[r][src])

    def swap(i: int, j: int):
        for r in range(n):
            s[r][i], s[r][j] = s[r][j], s[r][i]
        s[i], s[j] = s[j], s[i]
        for r in range(n):
            p[r][i], p[r][j] = p[r][j], p[r][i]

    for k in range(n):
        if s[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if s[i][i] != 0), None)
            if piv is not None:
                swap(k, piv)
            else:
                pair = next(
                    ((i, j) for i in range(k, n) for j in range(i + 1, n) if s[i][j] != 0),
                    None,
                )
                if pair is None:
                    continue
                i, j = pair
                add_col(i, j, 1)
                if i != k:
                    swap(k, i)
        if s[k][k] == 0:
            continue
        for i in range(k + 1, n):
            if s[k][i] != 0:
                add_col(i, k, frac(Fraction(-s[k][i], s[k][k])))
    return p, [s[i][i] for i in range(n)]


def sorted_triples(n: int):
    return list(itertools.combinations_with_replacement(range(n), 3))


def random_form(rng, n: int, hmax: int) -> IntersectionForm:
    """Random trilinear form; at least one entry is nonzero."""
    while True:
        entries = {}
        for key in sorted_triples(n):
            v = rng.randint(-hmax, hmax)
            if v:
                entries[key] = v
        if entries:
            return IntersectionForm(n, entries)


def plant_null_form(rng, n: int, hmax: int):
    """A random form together with an integer point D with cube(D) = 0 exactly
    and T(D, D, .) not identically zero (so D is a smooth null point)."""
    while True:
        d = [rng.randint(-2, 2) for _ in range(n)]
        d[0] = 1
        entries = {}
        for key in sorted_triples(n):
            if key == (0, 0, 0):
                continue
            v = rng.randint(-hmax, hmax)
            if v:
                entries[key] = v
        partial = IntersectionForm(n, entries)
        # cube(D) is linear in the missing diagonal entry with unit coefficient
        # because d_0 = 1, so one integer choice lands D on the cubic exactly.
        entries[(0, 0, 0)] = -int(partial.cube(d))
        if entries[(0, 0, 0)] == 0:
            del entries[(0, 0, 0)]
        if not entries:
            continue
        form = IntersectionForm(n, entries)
        assert form.cube(d) == 0
        if form.numerical_dimension(d) >= 2:
            return form, tuple(d)


def plant_sparse_form(rng, n: int, hmax: int = 4):
    """A sparse planted null form: 4n nonzero entries at random sorted keys
    plus the (0, 0, 0) entry, and an integer point D = (1, ...) with
    cube(D) = 0 and T(D, D, .) not identically zero.  As in plant_null_form,
    d_0 = 1 makes cube(D) linear in d_000 with unit coefficient."""
    while True:
        d = [rng.randint(-2, 2) for _ in range(n)]
        d[0] = 1
        entries = {}
        while len(entries) < 4 * n:
            key = tuple(sorted(rng.randrange(n) for _ in range(3)))
            if key != (0, 0, 0):
                entries[key] = rng.choice((-1, 1)) * rng.randint(1, hmax)
        value = -int(IntersectionForm(n, entries).cube(d))
        if value:
            entries[(0, 0, 0)] = value
        form = IntersectionForm(n, entries)
        assert form.cube(d) == 0
        if form.numerical_dimension(d) >= 2:
            return form, tuple(d)


def key_shape_forms(rng, n: int, hmax: int = 5) -> list[IntersectionForm]:
    """One form per sorted key of rank n holding that entry alone (shapes
    iii, iik, ijj and ijk at every position), then a few forms with one
    random entry of each shape."""
    forms = [
        IntersectionForm(n, {key: rng.choice((-1, 1)) * rng.randint(1, hmax)})
        for key in sorted_triples(n)
    ]
    for _ in range(4):
        i, j, k = sorted(rng.sample(range(n), 3))
        keys = ((i, i, i), (i, i, k), (i, k, k), (i, j, k))
        forms.append(IntersectionForm(
            n, {key: rng.choice((-1, 1)) * rng.randint(1, hmax) for key in keys}
        ))
    return forms


def plant_reducible_form(rng, n: int, qmax: int = 30, lmax: int = 3):
    """The form of the cubic 6 L Q, with L a linear form with a unit pivot and
    Q a dense nondegenerate indefinite integer Gram matrix, together with an
    integer point D on L = 0 with Q(D) != 0 (so T(D, D, .) = 2 Q(D) L != 0)."""
    while True:
        lin = [rng.randint(-lmax, lmax) for _ in range(n)]
        pivot = rng.randrange(n)
        lin[pivot] = 1
        gram = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                gram[i][j] = gram[j][i] = rng.randint(-qmax, qmax)
        q = QuadraticForm(tuple(tuple(row) for row in gram))
        _, diag = diagonalize(q)
        if any(x == 0 for x in diag) or all(x > 0 for x in diag) or all(x < 0 for x in diag):
            continue
        d = [rng.randint(-2, 2) for _ in range(n)]
        d[pivot] = 0
        d[pivot] = -sum(a * b for a, b in zip(lin, d))
        if not any(d) or q.evaluate(d) == 0:
            continue
        # T(e_i, e_j, e_k) of 6 L Q is the symmetrization 2 (L_i Q_jk + L_j Q_ik + L_k Q_ij)
        entries = {}
        for i, j, k in sorted_triples(n):
            v = 2 * (lin[i] * gram[j][k] + lin[j] * gram[i][k] + lin[k] * gram[i][j])
            if v:
                entries[(i, j, k)] = v
        return IntersectionForm(n, entries), tuple(d)


def annihilator_c2(rng, d, sq) -> LinearClass:
    """A random c2 with c2 . d = 0 that is not proportional to sq = T(d, d, -):
    a sum of random multiples of the rank-2 annihilators d_j e_i - d_i e_j, so
    a planted null point is certified by the cubic and the tangent chase."""
    n = len(d)
    while True:
        c2 = [0] * n
        for i, j in itertools.combinations(range(n), 2):
            r = rng.randint(-1, 1)
            c2[i] += r * d[j]
            c2[j] -= r * d[i]
        if any(sq[i] * c2[j] != sq[j] * c2[i] for i, j in itertools.combinations(range(n), 2)):
            return LinearClass(tuple(c2))


def unimodular_matrix(rng, n: int, steps: int = 3):
    """(u, u^-1) for a product u of integer shear operations: determinant
    exactly 1, and the inverse undoes the same shears in reverse order."""
    u = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    u_inv = [row[:] for row in u]
    shears = []
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-2, -1, 1, 2))
        shears.append((i, j, c))
        for k in range(n):
            u[i][k] += c * u[j][k]
    for i, j, c in reversed(shears):
        for k in range(n):
            u_inv[i][k] -= c * u_inv[j][k]
    return tuple(tuple(row) for row in u), tuple(tuple(row) for row in u_inv)


def change_basis(form: IntersectionForm, u) -> IntersectionForm:
    """The same trilinear form written in the basis whose vectors are the
    columns of u."""
    n = form.rank
    cols = [tuple(u[i][a] for i in range(n)) for a in range(n)]
    entries = {}
    for a, b, c in sorted_triples(n):
        v = form.triple(cols[a], cols[b], cols[c])
        assert v.denominator == 1
        if v:
            entries[(a, b, c)] = int(v)
    return IntersectionForm(n, entries)


def transform_point(u_inv, point):
    """Coordinates of `point` in the new basis (columns of u)."""
    n = len(point)
    return tuple(
        sum(u_inv[a][i] * frac(point[i]) for i in range(n)) for a in range(n)
    )


def plant_nu1_fixture(rng, n: int, hmax: int):
    """(form, D, H): nu(D) = 1 exactly and T(D, H, H) != 0, in a scrambled
    integer basis."""
    while True:
        entries = {}
        for key in sorted_triples(n):
            if key[0] == 0 and key[1] == 0:
                continue  # keep T(e0, e0, .) identically zero
            v = rng.randint(-hmax, hmax)
            if v:
                entries[key] = v
        entries[(0, 1, 1)] = entries.get((0, 1, 1)) or 1
        base = IntersectionForm(n, entries)
        if base.numerical_dimension((1,) + (0,) * (n - 1)) != 1:
            continue
        u, u_inv = unimodular_matrix(rng, n)
        form = change_basis(form=base, u=u)
        d = transform_point(u_inv, (1,) + (0,) * (n - 1))
        assert all(x.denominator == 1 for x in d)
        d = tuple(int(x) for x in d)
        for _ in range(50):
            h = nonzero_vector(rng, n, 3)
            if form.triple(d, h, h) != 0:
                return form, d, h


def det3(m) -> Fraction:
    """Exact determinant of a 3x3 matrix of rationals."""
    (a, b, c), (d, e, f), (g, h, i) = m
    return a * (e * i - f * h) - b * (d * i - f * g) + c * (d * h - e * g)


def det(m) -> Fraction:
    """Exact determinant of a square matrix of rationals, by elimination."""
    a = [[Fraction(x) for x in row] for row in m]
    n, out = len(a), Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            out = -out
        out *= a[k][k]
        for i in range(k + 1, n):
            c = a[i][k] / a[k][k]
            a[i] = [x - c * y for x, y in zip(a[i], a[k])]
    return out


def hessian_det(form: IntersectionForm, point) -> Fraction:
    """det [T(e_i, e_j, P)]_{ij} for a ternary cubic: up to the constant 216
    this is the Hessian determinant of the cubic evaluated at P."""
    assert form.rank == 3
    basis = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    return det3(
        [[form.triple(basis[i], basis[j], point) for j in range(3)] for i in range(3)]
    )


def on_line(p, q, r) -> bool:
    """Whether r lies on the line spanned by p and q (all rank-2 minors of the
    3 x n coordinate matrix containing r vanish against p, q)."""
    rows = [[frac(x) for x in p], [frac(x) for x in q], [frac(x) for x in r]]
    n = len(rows[0])
    for cols in itertools.combinations(range(n), 3):
        m = [[rows[t][c] for c in cols] for t in range(3)]
        if det3(m) != 0:
            return False
    return True


def divisor_coords(x) -> tuple:
    if isinstance(x, Divisor):
        return tuple(x.coords)
    return tuple(frac(c) for c in x)


def form_of_cubic(f: Poly) -> IntersectionForm:
    """The form whose cubic T(x, x, x) is 6 f, for a cubic f with integer
    coefficients: the coefficient of x_i x_j x_k is d_ijk times the number of
    distinct orderings of ijk (1, 3 or 6), so d_ijk is 6, 2 or 1 times it."""
    entries = {}
    for e, c in f.terms.items():
        assert frac(c).denominator == 1
        key = tuple(i for i, k in enumerate(e) for _ in range(k))
        entries[key] = int(c) * {1: 6, 2: 2, 3: 1}[len(set(key))]
    return IntersectionForm(f.nvars, entries)


def seeded_ternary_cubics(rng, count: int) -> list[IntersectionForm]:
    """Rank-3 forms for the singular-point search, `count` of each kind in
    turn: random forms; forms singular at (0, 0, 1) (no x2^3, x0 x2^2 or
    x1 x2^2 term) written in a basis moved by unimodular_matrix; the forms of
    6 l q, 6 l1 l2 l3, 6 l^2 m and 6 l^3; then the Hesse pencil
    6 (x0^3 + x1^3 + x2^3 + m x0 x1 x2) for m = -6..6 (singular at m = -3)."""
    forms = []
    for _ in range(count):
        forms.append(random_form(rng, 3, 3))
        while True:
            entries = {
                key: rng.randint(-3, 3)
                for key in sorted_triples(3)
                if key not in ((2, 2, 2), (0, 2, 2), (1, 2, 2))
            }
            if any(entries.values()):
                break
        u, _ = unimodular_matrix(rng, 3)
        forms.append(change_basis(IntersectionForm(3, entries), u))
        lin = [random_linear_poly(rng, 3, 3) for _ in range(3)]
        forms.append(form_of_cubic(lin[0] * random_quadric_poly(rng, 3, 3)))
        forms.append(form_of_cubic(lin[0] * lin[1] * lin[2]))
        forms.append(form_of_cubic(lin[0] * lin[0] * lin[1]))
        forms.append(form_of_cubic(lin[0] * lin[0] * lin[0]))
    x0, x1, x2 = (Poly.variable(3, i) for i in range(3))
    for m in range(-6, 7):
        forms.append(form_of_cubic(x0 * x0 * x0 + x1 * x1 * x1 + x2 * x2 * x2 + m * x0 * x1 * x2))
    return forms
