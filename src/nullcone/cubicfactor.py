"""Factorization of homogeneous cubics over the rationals.

One linear-factor search, for forms of any degree, answers every factoring
question: it splits a linear factor off the cubic, splits the quadric
cofactor and splits a quadratic form.  It reads the form through a
coefficient source: a packed `Poly`, the intersection table of the cubic
T(x, x, x), or the Gram matrix of a quadric.  The steps are the same on all
three: the rational roots of the form on one coordinate line, the tangent
hyperplane at each simple root, one point off the zero set of each such
candidate, and at a multiple root the roots on every coordinate line through
the pivot.  No root, or every candidate refuted by its point, proves that no
linear factor exists.  A form with no pure power to pivot on is first
sheared by its source.

A surviving candidate l is divided by its source.  Candidates are
primitive, so by Gauss's lemma (S. Lang, Algebra, IV 2) a cofactor is
integral.  A `Poly` divides its primitive part in ints (`integral_divide`).
The table and the Gram divide by polarization (Yu. I. Manin, Cubic Forms,
ch. II): T(x, x, x) = l(x) x^T G x exactly when 3 d_ijk = l_i G_jk + l_j G_ik
+ l_k G_ij on every key, and x^T A x = l(x) m(x) exactly when 2 A_ij = l_i m_j
+ l_j m_i.  G (or m) is read off the keys through one index p with l_p != 0,
an inexact step refuting l, and the identity is then checked on every other
key that either side reaches.  That check proves f = l q, and the cofactor
comes out as its Gram: `factor_cubic` never expands the cubic or divides a
polynomial.

A quadric cofactor is handed on as its Hessian b (x^T b x = 2 q, an integer
matrix).  If b has rank 3 or more, q is irreducible; a smaller rank is split
by the same search on b.  `factor_over_Q` re-expands every factorization and
compares it against its input f.
"""
from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from enum import Enum

from .exactmath import (
    Poly,
    Rat,
    canonical_vector,
    enum_key,
    integral_divide,
    iter_integer_vectors,
    key_exponent,
    key_support,
    mat_vec,
    primitive_part,
    ratio,
    rational_roots,
    unit_keys,
    vec_dot,
)
from .nsring import IntersectionForm, Point
from .quadpoints import QuadraticForm, _quad


class FactorKind(str, Enum):
    IRREDUCIBLE = "irreducible_over_Q"
    LINEAR_TIMES_QUADRIC = "linear_times_quadric"
    THREE_LINEAR = "three_linear"
    LINEAR_SQUARE_TIMES_LINEAR = "linear_square_times_linear"
    LINEAR_CUBE = "linear_cube"


@dataclass(frozen=True)
class Factorization:
    """Exact factorization: scalar * product(linears) * quadric = input.

    Linear factors are canonical primitive integer covectors; for the
    irreducible kind there are no pieces and the scalar is 1.
    """

    kind: FactorKind
    scalar: Rat
    linears: tuple[tuple[int, ...], ...]
    quadric: QuadraticForm | None

    def reconstruct(self, nvars: int) -> Poly:
        if self.kind is FactorKind.IRREDUCIBLE:
            raise ValueError("an irreducible cubic has no factored expansion")
        # the scalar goes into the first linear factor, a few terms, rather
        # than onto the whole product
        first, *rest = self.linears
        factors = [Poly.linear([self.scalar * c for c in first])]
        factors.extend(Poly.linear(l) for l in rest)
        if self.quadric is not None:
            factors.append(self.quadric.to_poly())
        return functools.reduce(operator.mul, factors)


_IRREDUCIBLE = Factorization(FactorKind.IRREDUCIBLE, 1, (), None)


def expand_cubic(form: IntersectionForm) -> Poly:
    """The cubic polynomial T(x, x, x) of the trilinear form, expanded."""
    u = unit_keys(form.rank)
    # each monomial once, with a nonzero int coefficient
    return Poly._of(form.rank, {u[i] + u[j] + u[k]: w for i, j, k, w in form.monomials})


def _vanishes_at(coeffs: list[Rat], s: Rat) -> bool:
    """Whether sum_m coeffs[m] s^m = 0 for s = num / den, tested with the
    denominator cleared: sum_m coeffs[m] num^m den^(d-m) = 0, an integer sum
    when the coefficients are integers."""
    num, den = s.numerator, s.denominator
    d = len(coeffs) - 1
    return sum(c * num**m * den ** (d - m) for m, c in enumerate(coeffs) if c) == 0


def _pivot(l: tuple[int, ...]) -> int:
    """The first index p with l_p != 0, where a division reads its cofactor."""
    return next(i for i, x in enumerate(l) if x)


def _symmetric(entries: dict[tuple[int, int], int], n: int) -> list[list[int]]:
    """The symmetric n x n matrix with these entries at (j, k), j <= k, and
    zeros elsewhere."""
    m = [[0] * n for _ in range(n)]
    for (j, k), v in entries.items():
        m[j][k] = m[k][j] = v
    return m


class _PolyCoefficients:
    """Coefficient lookups into a packed form f of degree d."""

    def __init__(self, f: Poly, d: int):
        self.f, self.packed, self.u, self.n, self.d = f, f.packed, unit_keys(f.nvars), f.nvars, d
        self._primitive: tuple[Rat, Poly] | None = None

    def pivots(self) -> list[int]:
        """The i with a pure power x_i^d in f, ascending."""
        # the pure power x_i^d has the key d u_i
        return [i for i, ui in enumerate(self.u) if self.d * ui in self.packed]

    def occupied(self) -> list[int]:
        """The i with x_i in some monomial of f, ascending."""
        # a variable occurs in f exactly when its field is nonzero in the OR
        # of all keys
        joint = functools.reduce(operator.or_, self.packed)
        return [i for i in range(self.n) if key_exponent(joint, self.n, i)]

    def value(self, point) -> Rat:
        return self.f.evaluate(point)

    def sheared(self, p: int, c) -> "_PolyCoefficients":
        """f(S x) for the shear x_i -> x_i + c_i x_p (c_p = 1): each of f's
        keys is decoded into its variables and substituted."""
        n = self.n
        x_p = Poly.variable(n, p)
        images = [x_p if i == p else Poly.variable(n, i) + ci * x_p for i, ci in enumerate(c)]
        return _PolyCoefficients(self.f.substitute(images), self.d)

    def line(self, p: int, a: int) -> list:
        """The coefficients of x_p^(d-k) x_a^k for k = 0..d: f on the line
        through e_p and e_a, d + 1 lookups."""
        u, d = self.u, self.d
        return [self.packed.get((d - k) * u[p] + k * u[a], 0) for k in range(d + 1)]

    def row(self, p: int, a: int, k: int) -> list:
        """The coefficient of num^k den^(d-1-k) in d_i f(num e_p + den e_a),
        for every i: that of x_p^k x_a^(d-1-k) x_i in f, times the exponent
        of x_i there."""
        u, d = self.u, self.d
        base = k * u[p] + (d - 1 - k) * u[a]
        get = self.packed.get
        row = [get(base + ui, 0) for ui in u]
        # d/dx_p and d/dx_a also bring down the exponent they lower
        row[p] *= k + 1
        row[a] *= d - k
        return row

    def plane(self, p: int, a: int, i: int) -> list:
        """The coefficient of s^m in f(s e_p + e_a + e_i), for m = 0..d: the
        sum of those of x_p^m x_a^k x_i^(d-m-k) over k."""
        u, d, get = self.u, self.d, self.packed.get
        return [
            sum(get(m * u[p] + k * u[a] + (d - m - k) * u[i], 0) for k in range(d - m + 1))
            for m in range(d + 1)
        ]

    def divide(self, l: tuple[int, ...]):
        """(c, l, b) with f = c l q for a cubic f and a primitive integral
        quadric q with Hessian b, as the table gives them, or None when l
        does not divide f: one `integral_divide` of the primitive part F of
        f, f = c F, taken on the first call."""
        if self._primitive is None:
            self._primitive = primitive_part(self.f)
        content, prim = self._primitive
        q = integral_divide(prim, Poly.linear(l))
        if q is None:
            return None
        n = self.n
        hessian = [[0] * n for _ in range(n)]
        for key, c in q.packed.items():
            # x_i^2 (e = 2) or x_i x_j
            (i, e), *rest = key_support(key, n)
            j = rest[0][0] if rest else i
            hessian[i][j] = hessian[j][i] = e * c
        return content, l, hessian


class _TableCoefficients:
    """The same lookups into the cubic T(x, x, x), off the intersection
    table with no expansion: the coefficient of x_i x_j x_k is d_ijk times
    the number of distinct orderings of ijk (1, 3 or 6), and
    d_i T(x, x, x) = 3 T(x, x, e_i)."""

    d = 3

    def __init__(self, form: IntersectionForm):
        self.form, self.entries, self.n = form, form.entries, form.rank

    def pivots(self) -> list[int]:
        return [i for i in range(self.n) if (i, i, i) in self.entries]

    def occupied(self) -> list[int]:
        return sorted(set(itertools.chain.from_iterable(self.entries)))

    def value(self, point) -> Rat:
        return self.form.cube(point)

    def sheared(self, p: int, c) -> "_TableCoefficients":
        """The table of T(S x, S y, S z) for the shear S e_p = c (c_p = 1),
        S e_i = e_i otherwise: a key through p once, twice or three times
        takes T(c, e_j, e_k), T(c, c, e_k) or T(c, c, c), from one polar and
        one tangent pass at c, and every other key is unchanged."""
        form = self.form
        point = Point(form, c)
        entries = {key: v for key, v in self.entries.items() if p not in key}
        for (j, k), v in form._polar(point.x).items():
            if p != j and p != k:
                entries[tuple(sorted((p, j, k)))] = v
        for k, v in enumerate(point.s):
            entries[(p, p, k) if p < k else (k, p, p)] = v
        entries[(p, p, p)] = point.cube()
        return _TableCoefficients(IntersectionForm(self.n, entries))

    def line(self, p: int, a: int) -> list:
        get = self.entries.get
        return [
            get((p, p, p), 0),
            3 * get((p, p, a) if p < a else (a, p, p), 0),
            3 * get((p, a, a) if p < a else (a, a, p), 0),
            get((a, a, a), 0),
        ]

    def row(self, p: int, a: int, k: int) -> list:
        """As `_PolyCoefficients.row`: d_i f(P) = 3 T(P, P, e_i) takes
        num^k den^(2-k) d_xyi binomial(2, k) times, {x, y} = {p^k, a^(2-k)}."""
        get = self.entries.get
        x, y = sorted((p,) * k + (a,) * (2 - k))
        m = 6 if k == 1 else 3
        return [m * get((i, x, y) if i < x else (x, i, y) if i < y else (x, y, i), 0) for i in range(self.n)]

    def plane(self, p: int, a: int, i: int) -> list:
        """As `_PolyCoefficients.plane`, for distinct p, a and i: the terms
        of T(v, v, v) at v = s e_p + e_a + e_i, by the power of s."""
        get = self.entries.get

        def d(*key):
            return get(tuple(sorted(key)), 0)

        return [
            d(a, a, a) + d(i, i, i) + 3 * (d(a, a, i) + d(a, i, i)),
            3 * (d(p, a, a) + d(p, i, i)) + 6 * d(p, a, i),
            3 * (d(p, p, a) + d(p, p, i)),
            d(p, p, p),
        ]

    def divide(self, l: tuple[int, ...]):
        """(c, l, b) with T(x, x, x) = c l(x) q(x) for a primitive integral
        quadric q with Hessian b, or None when l does not divide the cubic.

        T = l q polarizes to 6 d_ijk = l_i b_jk + l_j b_ik + l_k b_ij.  At p
        with l_p != 0 the keys through p give b: b_pp from d_ppp, b_pk from
        d_ppk and b_jk from d_pjk, which can be nonzero only where d_pjk,
        l_j b_pk or l_k b_pj is.  Each step is an exact division when l | T
        (q is integral), so an inexact one refutes l.  The keys through p
        then hold by construction, and the identity is checked on every key
        where either side can be nonzero: the table's keys first, then the
        keys {i, j, k} with l_i b_jk != 0.  b is held by its nonzero entries b_jk,
        j <= k, until the check has passed."""
        n, entries, form = self.n, self.entries, self.form
        get = entries.get
        p = _pivot(l)
        lp = l[p]
        bpp, r = divmod(2 * get((p, p, p), 0), lp)
        if r:
            return None
        # row p of b (at k = p the formula gives b_pp back)
        bp = []
        for k in range(n):
            v, r = divmod(6 * get((p, p, k) if p < k else (k, p, p), 0) - l[k] * bpp, 2 * lp)
            if r:
                return None
            bp.append(v)
        b = {(p, k) if p < k else (k, p): v for k, v in enumerate(bp) if v}
        support = [i for i in range(n) if l[i]]
        pairs = {(j, k) if j <= k else (k, j) for j in support for k in range(n) if bp[k]}
        for pos in form.incidence[p]:
            i, j, k, _ = form.monomials[pos]
            pairs.add((j, k) if i == p else (i, k) if j == p else (i, j))
        for j, k in pairs:
            if j != p and k != p:
                key = (p, j, k) if p < j else (j, p, k) if p < k else (j, k, p)
                v, r = divmod(6 * get(key, 0) - l[j] * bp[k] - l[k] * bp[j], lp)
                if r:
                    return None
                if v:
                    b[j, k] = v
        bget = b.get
        for (i, j, k), v in entries.items():
            if 6 * v != l[i] * bget((j, k), 0) + l[j] * bget((i, k), 0) + l[k] * bget((i, j), 0):
                return None
        # a key off the table, where l b reaches, must read 0 there
        for i in support:
            for j, k in b:
                key = (i, j, k) if i <= j else (j, i, k) if i <= k else (j, k, i)
                if key not in entries:
                    x, y, z = key
                    if l[x] * bget((y, z), 0) + l[y] * bget((x, z), 0) + l[z] * bget((x, y), 0):
                        return None
        m = _symmetric(b, n)
        # the content of T, which is that of q: Gauss's lemma again
        c = math.gcd(*(v // 2 if j == k else v for (j, k), v in b.items()))
        return c, l, [[x // c for x in row] for row in m] if c > 1 else m


class _GramCoefficients:
    """The same lookups into the quadric x^T g x, for an integer symmetric g,
    off g with no expansion: the coefficient of x_i x_j is g_ij, times 2
    when i != j, and d_i (x^T g x) = 2 (g x)_i."""

    d = 2

    def __init__(self, g):
        self.g, self.n = g, len(g)

    def pivots(self) -> list[int]:
        return [i for i, row in enumerate(self.g) if row[i]]

    def occupied(self) -> list[int]:
        return [i for i, row in enumerate(self.g) if any(row)]

    def value(self, point) -> Rat:
        return _quad(self.g, point)

    def sheared(self, p: int, c) -> "_GramCoefficients":
        """The Gram S^T g S of x^T g x under the shear S e_p = c (c_p = 1),
        S e_i = e_i otherwise: row and column p become g c, and the corner
        c^T g c."""
        gc = mat_vec(self.g, c)
        sheared = [list(row) for row in self.g]
        for k, v in enumerate(gc):
            sheared[p][k] = sheared[k][p] = v
        sheared[p][p] = vec_dot(gc, c)
        return _GramCoefficients(sheared)

    def line(self, p: int, a: int) -> list:
        g = self.g
        return [g[p][p], 2 * g[p][a], g[a][a]]

    def row(self, p: int, a: int, k: int) -> list:
        return [2 * x for x in self.g[p if k else a]]

    def plane(self, p: int, a: int, i: int) -> list:
        g = self.g
        return [g[a][a] + 2 * g[a][i] + g[i][i], 2 * (g[p][a] + g[p][i]), g[p][p]]

    def divide(self, l: tuple[int, ...]):
        """(c, l, m) with x^T g x = c l m for a primitive integral linear m, or
        None when l does not divide: m_j = (2 g_pj - l_j m_p) / l_p at p with
        l_p != 0 (an inexact step refutes l), then 2 g_ij = l_i m_j + l_j m_i
        checked on every pair."""
        g, n = self.g, self.n
        p = _pivot(l)
        lp = l[p]
        mp, r = divmod(g[p][p], lp)
        if r:
            return None
        m = []
        for j in range(n):
            v, r = divmod(2 * g[p][j] - l[j] * mp, lp)
            if r:
                return None
            m.append(v)
        for i in range(n):
            li, mi, gi = l[i], m[i], g[i]
            for j in range(i, n):
                if 2 * gi[j] != li * m[j] + l[j] * mi:
                    return None
        c = math.gcd(*m)
        return c, l, tuple(x // c for x in m)


def _tangent_hyperplane(coeffs, p: int, a: int, t: Rat) -> tuple[int, ...]:
    """The canonical gradient at P = num e_p + den e_a, t = num / den, of the
    form of degree d that `coeffs` reads, in ints for integral coefficients.

    Only x_p and x_a are nonzero at P, so d_i f(P) comes from the monomials
    x_p^k x_a^(d-1-k) x_i alone: d lookups per coordinate and no pass over f.
    """
    num, den = t.numerator, t.denominator
    d = coeffs.d
    grad = [0] * coeffs.n
    for k in range(d):
        w = num**k * den ** (d - 1 - k)
        for i, c in enumerate(coeffs.row(p, a, k)):
            if c:
                grad[i] += c * w
    return canonical_vector(grad)


def _refuted(coeffs, p: int, l: tuple[int, ...]) -> bool:
    """Whether f misses a point Q of {l = 0}, f(Q) != 0, which proves that
    l does not divide the form f of degree d that `coeffs` reads: l | f
    forces f to vanish on {l = 0}.  Q = -l_j e_p + l_p e_j for the first
    index j outside {p, a} (so f has n > 2 variables), and f(Q) takes d + 1
    lookups; l_p != 0, so Q != 0."""
    j = 2 if p < 2 else 1
    x, y = -l[j], l[p]
    # f(Q) = sum_m c_m x^(d-m) y^m, by Horner in x
    value, y_pow = 0, 1
    for c in coeffs.line(p, j):
        value = value * x + c * y_pow
        y_pow *= y
    return value != 0


def _coordinate_sections(coeffs, p: int, a: int):
    """The form f that `coeffs` reads on the coordinate lines and planes
    through x_p, a != p, by lookups: (lines, planes), both keyed by the
    indices i not in {p, a} in ascending order, lines[i] as `line(p, i)` and
    planes[i] as `plane(p, a, i)` give them."""
    others = [i for i in range(coeffs.n) if i != p and i != a]
    return {i: coeffs.line(p, i) for i in others}, {i: coeffs.plane(p, a, i) for i in others}


def _section_search(
    coeffs, p: int, a: int, t1: Rat, root_sets: list[tuple[int, list[Rat]]], planes: dict[int, list]
):
    """(c, l, q) as `divide` gives it for a factor l = x_p - t1 x_a - sum t_i
    x_i of the form f that `coeffs` reads, each t_i a root on the coordinate
    line of x_p and x_i; or None.

    Only the roots consistent with the anchor on the common three-variable
    section (x_p = t1 + t, x_a = x_i = 1) are combined: a divisor's
    coordinates always survive, and the combination count collapses from
    exponential to (usually) one.
    """
    filtered: list[list[Rat]] = []
    for i, roots in root_sets:
        compatible = [t for t in roots if _vanishes_at(planes[i], t1 + t)]
        if not compatible:
            return None
        filtered.append(compatible)
    for combo in itertools.product(*filtered):
        coords = [0] * coeffs.n
        coords[p] = 1
        coords[a] = -t1
        for (i, _), t in zip(root_sets, combo):
            coords[i] = -t
        found = coeffs.divide(canonical_vector(coords))
        if found is not None:
            return found
    return None


def _linear_factor_with_pivot(coeffs, p: int):
    """(c, l, q) with f = c l q, l a linear factor with a nonzero x_p
    coefficient and l, q primitive integral forms, q as `divide` gives it;
    or None.

    f is the form of degree d that `coeffs` reads, with a nonzero x_p^d
    coefficient.  Every linear factor l of f has l_p != 0, so it meets the
    anchor line through e_p and e_a (a the first index other than p) at one
    point P = num e_p + den e_a, t = num / den a root of h(s) = f(s e_p +
    e_a).  If f = l r:
    - at a simple root t, d_p f(P) = den^(d-1) h'(t) != 0, so P is a smooth
      point, r(P) != 0 and grad f(P) = r(P) grad l: the tangent hyperplane at
      P is the only candidate.  From three variables on it is divided only
      when f vanishes at its refutation point (`_refuted`).
    - r(P) = 0 makes t a multiple root of h, and only there does the search
      read candidates off the rational roots on every coordinate line of x_p
      and x_i (a factor x_p + b x_i + ... restricts to x_p + b x_i there, so
      -b is a root of sum_k c_k t^(d-k), c_k the coefficient of x_p^(d-k)
      x_i^k; `_section_search`).
    Every step is a lookup into `coeffs` but the divisions.
    """
    n = coeffs.n
    if n == 1:
        return coeffs.divide((1,))
    a = 1 if p == 0 else 0
    # an irreducible form seldom has a root on the anchor line, and d + 1
    # coefficient lookups decide it
    roots = rational_roots(coeffs.line(p, a))
    root_sets = planes = None
    for t in sorted(set(roots)):
        if roots.count(t) == 1:
            l = _tangent_hyperplane(coeffs, p, a, t)
            found = None if n > 2 and _refuted(coeffs, p, l) else coeffs.divide(l)
        else:
            if root_sets is None:
                # built once, at the first multiple root; a line with no
                # root rules out every linear factor
                lines, planes = _coordinate_sections(coeffs, p, a)
                root_sets = []
                for i, line in lines.items():
                    line_roots = sorted(set(rational_roots(line)))
                    if not line_roots:
                        return None
                    root_sets.append((i, line_roots))
            found = _section_search(coeffs, p, a, t, root_sets, planes)
        if found is not None:
            return found
    return None


def _find_linear_factor(coeffs, seed: int):
    """(c, l, q) with f = c l q for a canonical linear factor l of the nonzero
    form f of degree d that `coeffs` reads, l and q primitive integral forms,
    q as `divide` gives it; or None.  Every factoring question comes here,
    whatever the source.

    None is a proof: a simple anchor root carries no factor but its tangent
    hyperplane (smooth point, grad f = r grad l), which is refuted only at a
    point where f does not vanish, and a multiple one is searched on every
    coordinate line, so each linear factor is tried at the root where it
    meets the anchor line.  The pivot is the `seed`-th i with a pure power
    x_i^d in f.  Without one, the source shears f (`sheared`), the sheared
    form is searched, and f is divided by the factor mapped back."""
    pivots = coeffs.pivots()
    if pivots:
        return _linear_factor_with_pivot(coeffs, pivots[seed % len(pivots)])
    # no pure power: shear x_i -> x_i + c_i x_p for a point c with c_p = 1
    # and f(c) != 0, which is the x_p^d coefficient of the sheared form, in
    # the source's own terms
    occupied = coeffs.occupied()
    p = occupied[seed % len(occupied)]
    for cvec in iter_integer_vectors(coeffs.n - 1):
        point = cvec[:p] + (1,) + cvec[p:]
        if coeffs.value(point) != 0:
            break
    found = _linear_factor_with_pivot(coeffs.sheared(p, point), p)
    if found is None:
        return None
    w = list(found[1])
    w[p] -= sum(w[i] * c for i, c in enumerate(point) if i != p)
    found = coeffs.divide(canonical_vector(w))
    if found is None:
        raise AssertionError("shear-mapped factor failed verification")
    return found


def _rank_exceeds_two(rows) -> bool:
    """Whether the integer matrix has rank 3 or more: fraction-free
    elimination, one row at a time against the pivot rows kept so far, that
    stops at the third pivot (on a Gram of full rank, the third row)."""
    kept: list[tuple[int, list[int]]] = []
    for r in rows:
        # each kept row is zero in the columns of the pivots kept before it
        for c, top in kept:
            if r[c]:
                r = [top[c] * x - r[c] * y for x, y in zip(r, top)]
        if any(r):
            if len(kept) == 2:
                return True
            kept.append((_pivot(r), r))
    return False


def _split_quadric(g) -> tuple[tuple[int, ...], tuple[int, ...], int] | None:
    """(l1, l2, c) with x^T g x = c l1 l2 for a nonzero integer symmetric g,
    the l_i canonical and (height, spiral)-sorted, or None when the quadric
    is irreducible over Q: at once when g has rank 3 or more, since the Gram
    of l1 l2 has rank at most 2."""
    if _rank_exceeds_two(g):
        return None
    found = _find_linear_factor(_GramCoefficients(g), 0)
    if found is None:
        return None
    c, l1, m = found
    l2 = canonical_vector(m)
    pair = sorted((l1, l2), key=enum_key)
    return pair[0], pair[1], c if l2 == m else -c


def factor_quadratic_form(q: QuadraticForm):
    """Split q into two linear forms: (l1, l2, scalar) with
    q = scalar * l1 * l2, or None when q is irreducible over the rationals."""
    if q.is_zero:
        raise ValueError("the zero form does not factor meaningfully")
    # x^T igram x = den q
    split = _split_quadric(q.igram)
    return None if split is None else (split[0], split[1], ratio(split[2], q.den))


def _factorization(found) -> Factorization:
    """The factorization of a cubic f given what `_find_linear_factor` found
    on it: (c, l, b) with f = c l q, q primitive with Hessian b, or None for
    an irreducible f.  q's sign is normalized, q split and the kind read
    off."""
    if found is None:
        return _IRREDUCIBLE
    scalar, lin, b = found
    # q is primitive (Gauss's lemma): only its sign is left to normalize.  Its
    # lex-leading coefficient (x_0 first) is that of the first x_i x_j, i <= j,
    # in row-major order with a nonzero b_ij
    if next(x for row in b for x in row if x) < 0:
        scalar, b = -scalar, [[-x for x in row] for row in b]
    split = _split_quadric(b)
    if split is None:
        return Factorization(FactorKind.LINEAR_TIMES_QUADRIC, scalar, (lin,), QuadraticForm.from_hessian(b))
    # x^T b x = 2 q, whose content is 2: q = (c / 2) l2 l3 with c = +-2, so
    # f = scalar * (c / 2) * lin * l2 * l3, in whichever order
    l2, l3, c = split
    scalar = scalar * (c // 2)
    triple = [lin, l2, l3]
    distinct = sorted(set(triple), key=enum_key)
    if len(distinct) == 1:
        kind, ordered = FactorKind.LINEAR_CUBE, (distinct[0],) * 3
    elif len(distinct) == 2:
        sq, other = sorted(distinct, key=triple.count, reverse=True)
        kind, ordered = FactorKind.LINEAR_SQUARE_TIMES_LINEAR, (sq, sq, other)
    else:
        kind, ordered = FactorKind.THREE_LINEAR, tuple(distinct)
    return Factorization(kind, scalar, ordered, None)


def factor_over_Q(f: Poly, seed: int = 0) -> Factorization:
    """Full factorization of a homogeneous cubic over the rationals.

    The seed only rotates which pivot variable is preferred; the factor set
    is seed-independent and the output ordering is canonical.  Every
    factorization is re-expanded and compared against f.
    """
    if f.is_zero:
        raise ValueError("cannot factor the zero cubic")
    if not f.is_homogeneous(3):
        raise ValueError("input must be a homogeneous cubic")
    out = _factorization(_find_linear_factor(_PolyCoefficients(f, 3), seed))
    if out.kind is not FactorKind.IRREDUCIBLE and out.reconstruct(f.nvars) != f:
        raise AssertionError("factorization failed re-expansion check")
    return out


def factor_cubic(form: IntersectionForm, seed: int = 0) -> Factorization:
    """`factor_over_Q(expand_cubic(form), seed)`, by the same search on the
    intersection table: every lookup, the shear of a cubic with no pure power
    and the division of a surviving candidate read the table, and the
    division's entrywise check stands in for the re-expansion.  The cubic is
    never expanded.
    """
    if not form.entries:
        raise ValueError("cannot factor the zero cubic")
    return _factorization(_find_linear_factor(_TableCoefficients(form), seed))
