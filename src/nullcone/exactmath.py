"""Exact rational arithmetic: sparse polynomials, linear algebra, lattice enumeration.

Everything in this package is computed over the rationals with no rounding;
``fractions.Fraction`` is the scalar type (always reduced, positive denominator).
The lattice enumerators share one lazy depth-first walk in (height, spiral-lex)
order, whose cost grows with the vectors consumed rather than with the rank.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

Rat = Fraction
Vec = tuple[Fraction, ...]
Mat = list[list[Fraction]]
Exponent = tuple[int, ...]


def frac(x) -> Fraction:
    """Coerce an int/str/Fraction to Fraction (exact)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (int, str)):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}: {x!r}")


def vec(values: Iterable) -> Vec:
    return tuple(frac(v) for v in values)


def vec_dot(a: Sequence, b: Sequence) -> Fraction:
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    return sum((frac(x) * frac(y) for x, y in zip(a, b)), Fraction(0))


# ---------------------------------------------------------------------------
# sparse polynomials


class Poly:
    """Sparse multivariate polynomial: {exponent tuple: nonzero Fraction}."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict[Exponent, Fraction] | None = None):
        self.nvars = nvars
        clean: dict[Exponent, Fraction] = {}
        if terms:
            for expo, coeff in terms.items():
                c = frac(coeff)
                if len(expo) != nvars:
                    raise ValueError(f"exponent {expo} has wrong arity for {nvars} variables")
                if c != 0:
                    clean[tuple(expo)] = c
        self.terms = clean

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls(nvars, {})

    @classmethod
    def constant(cls, nvars: int, c) -> "Poly":
        return cls(nvars, {(0,) * nvars: frac(c)})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "Poly":
        e = [0] * nvars
        e[i] = 1
        return cls(nvars, {tuple(e): Fraction(1)})

    @classmethod
    def linear(cls, coords: Sequence) -> "Poly":
        n = len(coords)
        terms = {}
        for i, c in enumerate(coords):
            e = [0] * n
            e[i] = 1
            terms[tuple(e)] = frac(c)
        return cls(n, terms)

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self, d: int | None = None) -> bool:
        degs = {sum(e) for e in self.terms}
        if not degs:
            return True
        if len(degs) > 1:
            return False
        return d is None or degs == {d}

    def coeff(self, expo: Exponent) -> Fraction:
        return self.terms.get(tuple(expo), Fraction(0))

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __neg__(self) -> "Poly":
        return Poly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __add__(self, other: "Poly") -> "Poly":
        if self.nvars != other.nvars:
            raise ValueError("variable-count mismatch")
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, Fraction(0)) + c
        return Poly(self.nvars, out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Poly):
            if self.nvars != other.nvars:
                raise ValueError("variable-count mismatch")
            out: dict[Exponent, Fraction] = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    e = tuple(a + b for a, b in zip(e1, e2))
                    out[e] = out.get(e, Fraction(0)) + c1 * c2
            return Poly(self.nvars, out)
        return Poly(self.nvars, {e: c * frac(other) for e, c in self.terms.items()})

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative power")
        out = Poly.constant(self.nvars, 1)
        for _ in range(k):
            out = out * self
        return out

    def evaluate(self, point: Sequence) -> Fraction:
        if len(point) != self.nvars:
            raise ValueError(f"point has {len(point)} coordinates, expected {self.nvars}")
        pt = [frac(x) for x in point]
        total = Fraction(0)
        for e, c in self.terms.items():
            v = c
            for x, k in zip(pt, e):
                if k:
                    v *= x ** k
            total += v
        return total

    def substitute(self, images: Sequence["Poly"]) -> "Poly":
        """Substitute x_i -> images[i] (all images share a variable count)."""
        if len(images) != self.nvars:
            raise ValueError("need one image per variable")
        m = images[0].nvars
        out = Poly.zero(m)
        for e, c in self.terms.items():
            term = Poly.constant(m, c)
            for img, k in zip(images, e):
                for _ in range(k):
                    term = term * img
            out = out + term
        return out

    def __repr__(self) -> str:
        if not self.terms:
            return "Poly(0)"
        bits = []
        for e, c in sorted(self.terms.items(), reverse=True):
            mono = "*".join(
                f"x{i}" if k == 1 else f"x{i}^{k}" for i, k in enumerate(e) if k
            )
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return "Poly(" + " + ".join(bits) + ")"


def poly_eval(p: Poly, x: Sequence) -> Fraction:
    """Exact evaluation of p at the rational point x."""
    return p.evaluate(x)


def _leading(p: Poly) -> tuple[Exponent, Fraction]:
    e = max(p.terms)
    return e, p.terms[e]


def exact_divide(f: Poly, g: Poly) -> Poly | None:
    """Exact quotient f/g, or None when g does not divide f.

    Plain lex division: whenever g | f the leading term of every partial
    remainder is divisible by the leading term of g, so a single failed
    reduction step proves non-divisibility.
    """
    if g.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if f.nvars != g.nvars:
        raise ValueError("variable-count mismatch")
    le_g, lc_g = _leading(g)
    q = Poly.zero(f.nvars)
    r = f
    while not r.is_zero:
        le_r, lc_r = _leading(r)
        e = tuple(a - b for a, b in zip(le_r, le_g))
        if any(k < 0 for k in e):
            return None
        t = Poly(f.nvars, {e: lc_r / lc_g})
        q = q + t
        r = r - t * g
    return q


# ---------------------------------------------------------------------------
# univariate rational roots


def _strip(coeffs: list[Fraction]) -> list[Fraction]:
    i = 0
    while i < len(coeffs) and coeffs[i] == 0:
        i += 1
    return coeffs[i:]


def _divisors(n: int) -> list[int]:
    n = abs(n)
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            if d != n // d:
                out.append(n // d)
        d += 1
    return sorted(out)


def _deflate(coeffs: list[Fraction], r: Fraction) -> list[Fraction]:
    """Synthetic division by (t - r); the remainder must be zero."""
    out = [coeffs[0]]
    for c in coeffs[1:]:
        out.append(c + r * out[-1])
    if out[-1] != 0:
        raise ArithmeticError("deflation by a non-root")
    return out[:-1]


def _one_rational_root(coeffs: list[Fraction]) -> Fraction | None:
    """One rational root of the poly with the given descending coefficients."""
    deg = len(coeffs) - 1
    if deg == 1:
        return -coeffs[1] / coeffs[0]
    if deg == 2:
        a, b, c = coeffs
        s = is_perfect_square(b * b - 4 * a * c)
        if s is None:
            return None
        return (-b + s) / (2 * a)
    if coeffs[-1] == 0:
        return Fraction(0)
    den = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * den) for c in coeffs]
    content = math.gcd(*ints)
    ints = [c // content for c in ints]
    for p in _divisors(ints[-1]):
        for q in _divisors(ints[0]):
            cand = Fraction(p, q)
            for root in (cand, -cand):
                val = Fraction(0)
                for c in ints:
                    val = val * root + c
                if val == 0:
                    return root
    return None


def rational_roots(coeffs: Sequence) -> list[Fraction]:
    """All rational roots (with multiplicity, ascending) of a univariate poly.

    ``coeffs`` are descending; degenerate leading zeros are allowed but the
    polynomial must not be identically zero.
    """
    cs = _strip([frac(c) for c in coeffs])
    if not cs:
        raise ValueError("the zero polynomial has every point as a root")
    roots: list[Fraction] = []
    while len(cs) > 1:
        if len(cs) == 3:
            a, b, c = cs
            s = is_perfect_square(b * b - 4 * a * c)
            if s is None:
                break
            roots.extend([(-b + s) / (2 * a), (-b - s) / (2 * a)])
            break
        r = _one_rational_root(cs)
        if r is None:
            break
        roots.append(r)
        cs = _deflate(cs, r)
    return sorted(roots)


def rational_roots_cubic(a, b, c, d) -> list[Fraction]:
    """Rational roots (with multiplicity) of a*t^3 + b*t^2 + c*t + d.

    Degenerate leading coefficients are fine; (0,0,0,0) is rejected.
    Irrational roots are simply not reported.
    """
    return rational_roots([a, b, c, d])


def is_perfect_square(q) -> Fraction | None:
    """The nonnegative square root of q when q is a rational square, else None."""
    q = frac(q)
    if q < 0:
        return None
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


# ---------------------------------------------------------------------------
# exact linear algebra over the rationals


def mat_identity(n: int) -> Mat:
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def mat_mul(a: Mat, b: Mat) -> Mat:
    if not a or not b or len(a[0]) != len(b):
        raise ValueError("matrix shape mismatch")
    return [
        [sum((a[i][k] * b[k][j] for k in range(len(b))), Fraction(0)) for j in range(len(b[0]))]
        for i in range(len(a))
    ]


def mat_vec(a: Mat, v: Sequence) -> Vec:
    return tuple(vec_dot(row, v) for row in a)


def mat_inv(a: Mat) -> Mat:
    """Inverse by Gauss-Jordan; raises on a singular matrix."""
    n = len(a)
    aug = [[frac(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(a)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise ValueError("matrix is singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [x * inv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def rref(rows: Sequence[Sequence]) -> tuple[Mat, list[int]]:
    """Reduced row echelon form and the pivot column indices."""
    m = [[frac(x) for x in row] for row in rows]
    if not m:
        return [], []
    ncols = len(m[0])
    if any(len(row) != ncols for row in m):
        raise ValueError("ragged matrix")
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][col] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][col]
        m[r] = [x * inv for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][col] != 0:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
        if r == len(m):
            break
    return m, pivots


def primitive_vector(v: Sequence) -> tuple[int, ...]:
    """Primitive integer representative of a rational vector, sign preserved.

    Clears denominators and divides out the (positive) content; the direction
    of the input is kept, so formula outputs stay recognizable.
    """
    w = [frac(x) for x in v]
    if all(x == 0 for x in w):
        return tuple(0 for _ in w)
    den = math.lcm(*(x.denominator for x in w))
    ints = [int(x * den) for x in w]
    g = math.gcd(*ints)
    return tuple(x // g for x in ints)


def canonical_vector(v: Sequence) -> tuple[int, ...]:
    """Primitive representative with positive leading nonzero entry.

    The canonical form used for deduplication keys, kernel bases and
    enumeration output, where no algebraic sign is at stake.
    """
    w = primitive_vector(v)
    for x in w:
        if x:
            return w if x > 0 else tuple(-y for y in w)
    return w


def kernel_basis(rows: Sequence[Sequence]) -> list[tuple[int, ...]]:
    """Basis of the rational kernel as canonical primitive integer vectors.

    One vector per free column of the RREF, in column order.
    """
    m, pivots = rref(rows)
    if not rows:
        raise ValueError("empty matrix")
    ncols = len(rows[0])
    basis = []
    for j in range(ncols):
        if j in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[j] = Fraction(1)
        for r, pc in enumerate(pivots):
            v[pc] = -m[r][j]
        basis.append(canonical_vector(v))
    return basis


# ---------------------------------------------------------------------------
# deterministic enumeration of integer vectors


def height(v: Sequence[int]) -> int:
    return max(abs(int(x)) for x in v)


def spiral_key(v: Sequence[int]):
    """Sort key ordering coordinates 0 < 1 < -1 < 2 < -2 < ..."""
    return tuple((abs(int(x)), 0 if x >= 0 else 1) for x in v)


def _walk(n: int, rows: list[list[int]], canonical: bool, max_height: int | None) -> Iterator[tuple[int, ...]]:
    """Vectors x != 0 in Z^n with rows.x = 0, lazily, by (height, spiral-lex).

    For each height h, coordinates are fixed in index order trying 0, 1, -1,
    ..., h, -h.  ``rows`` are integer and in echelon form from the right:
    each row's last nonzero column is zero in the other rows, so it is solved
    exactly once the walk reaches it.  A branch ends when that value is not
    an integer of height <= h, or when a row's partial sum exceeds h times
    the absolute sum of its remaining coefficients.  With ``canonical`` only
    primitive vectors with a positive leading entry come out; with a single
    free column that is one vector, and the walk ends after it.
    """
    pivot_row: list[int | None] = [None] * n
    for r, row in enumerate(rows):
        pivot_row[max(j for j, a in enumerate(row) if a)] = r
    free = pivot_row.count(None)
    if free == 0:
        return
    room = [[sum(abs(a) for a in row[c + 1:]) for row in rows] for c in range(n)]
    x = [0] * n

    def extend(c: int, sums: list[int], top: int) -> Iterator[tuple[int, ...]]:
        if c == n:
            if top == h and (not canonical or math.gcd(*x) == 1):
                yield tuple(x)
            return
        r = pivot_row[c]
        if r is None:
            values = spiral
        else:
            q, rem = divmod(-sums[r], rows[r][c])
            if rem or abs(q) > h:
                return
            values = [q]
        if canonical and not top:
            values = [v for v in values if v >= 0]
        if c == n - 1 and top < h:
            values = [v for v in values if abs(v) == h]
        for v in values:
            nxt = [s + row[c] * v for s, row in zip(sums, rows)]
            if any(abs(s) > h * b for s, b in zip(nxt, room[c])):
                continue
            x[c] = v
            yield from extend(c + 1, nxt, max(top, abs(v)))

    h = 1
    while max_height is None or h <= max_height:
        spiral = [0] + [s * k for k in range(1, h + 1) for s in (1, -1)]
        for v in extend(0, [0] * len(rows), 0):
            yield v
            if canonical and free == 1:
                return
        h += 1


def iter_integer_vectors(n: int, max_height: int | None = None) -> Iterator[tuple[int, ...]]:
    """Nonzero integer vectors ordered by (height, spiral-lex), lazily."""
    return _walk(n, [], False, max_height)


def iter_primitive_vectors(n: int, max_height: int | None = None) -> Iterator[tuple[int, ...]]:
    """Canonical primitive vectors (one per projective point), same order; n = 1 gives only (1,)."""
    return _walk(n, [], True, max_height)


def iter_kernel_primitives(rows: Sequence[Sequence], max_height: int | None = None) -> Iterator[tuple[int, ...]]:
    """Canonical primitive integer vectors of ker(rows), by (height, spiral-lex).

    Lazy: the cost grows with the vectors consumed, not with the rank.  A
    kernel that is a line yields its one vector and ends.
    """
    m, pivots = rref([row[::-1] for row in rows])
    echelon = [list(primitive_vector(row[::-1])) for row in m[: len(pivots)]]
    return _walk(len(rows[0]), echelon, True, max_height)
