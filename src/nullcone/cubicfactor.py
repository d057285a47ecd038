"""Factorization of homogeneous cubics over the rationals.

One linear-factor search, for forms of any degree, answers every factoring
question: it splits a linear factor off the cubic, splits the quadric
cofactor and splits a quadratic form.  It reads the form through a
coefficient source, a packed `Poly` or, for the cubic T(x, x, x), the
intersection table itself, and runs the same steps on both: the rational
roots of the form on one coordinate line, the tangent hyperplane at each
simple root, and one point off the zero set of each such candidate.  No
root, or every candidate refuted by its point, proves that no linear factor
exists; so `factor_cubic` decides most irreducible cubics from the table,
and the table source expands the cubic only when a candidate has to be
divided.

The content is taken once, f = c F, when the search first needs f itself
(no root depends on it), and the divisions run on the primitive integral F
in ints.  Candidates are primitive, so by Gauss's lemma (S. Lang, Algebra,
IV 2) a cofactor is integral and primitive.  Every factorization is
re-expanded and compared against the input f before it is handed back.
"""
from __future__ import annotations

import functools
import itertools
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
    primitive_part,
    rational_roots,
    unit_keys,
)
from .nsring import IntersectionForm
from .quadpoints import QuadraticForm


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


def _divided(f: Poly, cand: tuple[int, ...]) -> tuple[tuple[int, ...], Poly] | None:
    """(cand, f / cand) when the primitive cand divides the integral f."""
    cof = integral_divide(f, Poly.linear(cand))
    return None if cof is None else (cand, cof)


def _coordinate_sections(f: Poly, p: int, a: int, d: int):
    """f on the coordinate lines and planes through x_p, from one pass over f.

    f is a form of degree d, and a != p.  Returns (lines, planes), both keyed
    by the indices i not in {p, a} in ascending order.  lines[i][k] is the
    coefficient of x_p^(d-k) x_i^k.  planes[i][m] is the coefficient of s^m
    in f at x_p = s, x_a = x_i = 1 and every other coordinate 0: the terms on
    {p, a}, which every plane shares, plus the terms on {p, a, i} with x_i.
    """
    n = f.nvars
    u = unit_keys(n)
    lines = {i: [0] * (d + 1) for i in range(n) if i != p and i != a}
    planes = {i: [0] * (d + 1) for i in lines}
    shared = [0] * (d + 1)
    # the key of x_i^k, for every i outside {p, a} and 0 < k <= d
    powers = {k * u[i]: (i, k) for i in lines for k in range(1, d + 1)}
    for key, c in f.packed.items():
        ep, ea = key_exponent(key, n, p), key_exponent(key, n, a)
        rest = key - ep * u[p] - ea * u[a]
        if not rest:
            if not ea:
                # the pure power x_p^d lies on every line
                for coeffs in lines.values():
                    coeffs[0] += c
            shared[ep] += c
        elif rest in powers:
            # the rest of the degree sits on one variable i outside {p, a}
            i, k = powers[rest]
            planes[i][ep] += c
            if not ea:
                lines[i][k] += c
    for coeffs in planes.values():
        for m, c in enumerate(shared):
            coeffs[m] += c
    return lines, planes


def _vanishes_at(coeffs: list[Rat], s: Rat) -> bool:
    """Whether sum_m coeffs[m] s^m = 0 for s = num / den, tested with the
    denominator cleared: sum_m coeffs[m] num^m den^(d-m) = 0, an integer sum
    when the coefficients are integers."""
    num, den = s.numerator, s.denominator
    d = len(coeffs) - 1
    return sum(c * num**m * den ** (d - m) for m, c in enumerate(coeffs) if c) == 0


class _PolyCoefficients:
    """Coefficient lookups into a packed form f of degree d."""

    def __init__(self, f: Poly, d: int):
        self.f, self.packed, self.u, self.n, self.d = f, f.packed, unit_keys(f.nvars), f.nvars, d

    def pivots(self) -> list[int]:
        """The i with a pure power x_i^d in f, ascending."""
        # the pure power x_i^d has the key d u_i
        return [i for i, ui in enumerate(self.u) if self.d * ui in self.packed]

    def poly(self) -> Poly:
        return self.f

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


class _TableCoefficients:
    """The same lookups into the cubic T(x, x, x), off the intersection
    table with no expansion: the coefficient of x_i x_j x_k is d_ijk times
    the number of distinct orderings of ijk (1, 3 or 6), and
    d_i T(x, x, x) = 3 T(x, x, e_i)."""

    d = 3

    def __init__(self, form: IntersectionForm):
        self.form, self.entries, self.n = form, form.entries, form.rank
        self._poly: Poly | None = None

    def pivots(self) -> list[int]:
        return [i for i in range(self.n) if (i, i, i) in self.entries]

    def poly(self) -> Poly:
        """T(x, x, x), expanded on the first call: the search asks for it
        only to divide, so an irreducible cubic is seldom expanded."""
        if self._poly is None:
            self._poly = expand_cubic(self.form)
        return self._poly

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


def _section_search(
    f: Poly, p: int, a: int, t1: Rat, root_sets: list[tuple[int, list[Rat]]], planes: dict[int, list[int]]
) -> tuple[tuple[int, ...], Poly] | None:
    """(l, f / l) for a factor l = x_p - t1 x_a - sum t_i x_i of the primitive
    integral f, each t_i a root on the coordinate line of x_p and x_i; or None.

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
        coords = [0] * f.nvars
        coords[p] = 1
        coords[a] = -t1
        for (i, _), t in zip(root_sets, combo):
            coords[i] = -t
        found = _divided(f, canonical_vector(coords))
        if found is not None:
            return found
    return None


def _linear_factor_with_pivot(coeffs, p: int) -> tuple[Rat, tuple[int, ...], Poly] | None:
    """(c, l, q) with f = c l q, l a linear factor with a nonzero x_p
    coefficient and l, q primitive integral forms; or None.

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
    f itself is asked of `coeffs` only for a division or a section search,
    and its content c is taken then: no root depends on it.
    """
    n, d = coeffs.n, coeffs.d
    if n == 1:
        content, f = primitive_part(coeffs.poly())
        return (content, *_divided(f, (1,)))
    a = 1 if p == 0 else 0
    # an irreducible form seldom has a root on the anchor line, and d + 1
    # coefficient lookups decide it before any pass over f
    roots = rational_roots(coeffs.line(p, a))
    f = root_sets = planes = None
    for t in sorted(set(roots)):
        simple = roots.count(t) == 1
        if simple:
            l = _tangent_hyperplane(coeffs, p, a, t)
            if n > 2 and _refuted(coeffs, p, l):
                continue
        if f is None:
            content, f = primitive_part(coeffs.poly())
        if simple:
            found = _divided(f, l)
        else:
            if root_sets is None:
                # built once, at the first multiple root; a line with no
                # root rules out every linear factor
                lines, planes = _coordinate_sections(f, p, a, d)
                root_sets = []
                for i, line in lines.items():
                    line_roots = sorted(set(rational_roots(line)))
                    if not line_roots:
                        return None
                    root_sets.append((i, line_roots))
            found = _section_search(f, p, a, t, root_sets, planes)
        if found is not None:
            return (content, *found)
    return None


def _find_linear_factor(coeffs, seed: int) -> tuple[Rat, tuple[int, ...], Poly] | None:
    """(c, l, q) with f = c l q for a canonical linear factor l of the nonzero
    form f of degree d that `coeffs` reads, l and q primitive integral forms;
    or None.  Every factoring question comes here, whatever the source.

    None is a proof: a simple anchor root carries no factor but its tangent
    hyperplane (smooth point, grad f = r grad l), which is refuted only at a
    point where f does not vanish, and a multiple one is searched on every
    coordinate line, so each linear factor is tried at the root where it
    meets the anchor line.  The pivot is the `seed`-th i with a pure power
    x_i^d in f.  Without one, the shear below asks for f, evaluates it and
    substitutes into it, which decodes each of f's keys into its variables
    once per call, and searches the sheared form."""
    pivots = coeffs.pivots()
    if pivots:
        return _linear_factor_with_pivot(coeffs, pivots[seed % len(pivots)])
    n, d = coeffs.n, coeffs.d
    # no pure power: shear x_i -> x_i + c_i x_p for a point c with c_p = 1
    # and f(c) != 0, which is the x_p^d coefficient of the sheared form; the
    # shear is unimodular, so the primitive f shears to a primitive form
    content, f = primitive_part(coeffs.poly())
    # a variable occurs in f exactly when its field is nonzero in the OR of
    # all keys
    joint = functools.reduce(operator.or_, f.packed)
    occupied = [i for i in range(n) if key_exponent(joint, n, i)]
    p = occupied[seed % len(occupied)]
    for cvec in iter_integer_vectors(n - 1):
        point = cvec[:p] + (1,) + cvec[p:]
        if f.evaluate(point) != 0:
            break
    x_p = Poly.variable(n, p)
    images = [x_p if i == p else Poly.variable(n, i) + c * x_p for i, c in enumerate(point)]
    found = _linear_factor_with_pivot(_PolyCoefficients(f.substitute(images), d), p)
    if found is None:
        return None
    w = list(found[1])
    w[p] -= sum(w[i] * c for i, c in enumerate(point) if i != p)
    found = _divided(f, canonical_vector(w))
    if found is None:
        raise AssertionError("shear-mapped factor failed verification")
    return (content, *found)


def _split_quadric(q: Poly) -> tuple[tuple[int, ...], tuple[int, ...], int] | None:
    """(l1, l2, sign) with q = sign * l1 * l2 for a primitive integral
    quadratic form q (l1 l2 is primitive too), the l_i canonical and
    (height, spiral)-sorted, or None when q is irreducible over Q."""
    found = _find_linear_factor(_PolyCoefficients(q, 2), 0)
    if found is None:
        return None
    _, l1, cof = found
    coords = [0] * q.nvars
    for key, c in cof.packed.items():
        [(i, _)] = key_support(key, q.nvars)
        coords[i] = c
    pair = sorted((l1, canonical_vector(coords)), key=enum_key)
    prod = Poly.linear(pair[0]) * Poly.linear(pair[1])
    lead = max(prod.packed)
    sign = q.packed.get(lead, 0) // prod.packed[lead]
    if sign * prod != q:
        raise AssertionError("quadric split failed verification")
    return pair[0], pair[1], sign


def factor_quadratic_form(q: QuadraticForm):
    """Split q into two linear forms: (l1, l2, scalar) with
    q = scalar * l1 * l2, or None when q is irreducible over the rationals."""
    if q.is_zero:
        raise ValueError("the zero form does not factor meaningfully")
    content, prim = primitive_part(q.to_poly())
    split = _split_quadric(prim)
    return None if split is None else (split[0], split[1], content * split[2])


def _factorization(coeffs, found: tuple[Rat, tuple[int, ...], Poly] | None) -> Factorization:
    """The factorization of the cubic f that `coeffs` reads, given what
    `_find_linear_factor` found on it: (c, l, q) with f = c l q, or None for
    an irreducible f.  q is split, the kind read off and the product
    re-expanded against f."""
    if found is None:
        return _IRREDUCIBLE
    f = coeffs.poly()
    scalar, lin, prim = found
    # prim is primitive (Gauss's lemma): only its sign is left to normalize
    if prim.packed[max(prim.packed)] < 0:
        scalar, prim = -scalar, -prim
    split = _split_quadric(prim)
    if split is None:
        out = Factorization(
            FactorKind.LINEAR_TIMES_QUADRIC, scalar, (lin,), QuadraticForm.from_poly(prim)
        )
    else:
        # f = scalar * lin * prim = scalar * sign * lin * l2 * l3, in
        # whichever order
        l2, l3, sign = split
        scalar = scalar * sign
        triple = [lin, l2, l3]
        distinct = sorted(set(triple), key=enum_key)
        if len(distinct) == 1:
            kind, ordered = FactorKind.LINEAR_CUBE, (distinct[0],) * 3
        elif len(distinct) == 2:
            sq, other = sorted(distinct, key=triple.count, reverse=True)
            kind, ordered = FactorKind.LINEAR_SQUARE_TIMES_LINEAR, (sq, sq, other)
        else:
            kind, ordered = FactorKind.THREE_LINEAR, tuple(distinct)
        out = Factorization(kind, scalar, ordered, None)
    if out.reconstruct(f.nvars) != f:
        raise AssertionError("factorization failed re-expansion check")
    return out


def factor_over_Q(f: Poly, seed: int = 0) -> Factorization:
    """Full factorization of a homogeneous cubic over the rationals.

    The seed only rotates which pivot variable is preferred; the factor set
    is seed-independent and the output ordering is canonical.
    """
    if f.is_zero:
        raise ValueError("cannot factor the zero cubic")
    if not f.is_homogeneous(3):
        raise ValueError("input must be a homogeneous cubic")
    coeffs = _PolyCoefficients(f, 3)
    return _factorization(coeffs, _find_linear_factor(coeffs, seed))


def factor_cubic(form: IntersectionForm, seed: int = 0) -> Factorization:
    """`factor_over_Q(expand_cubic(form), seed)`, by the same search on the
    intersection table: the cubic is expanded only when a candidate factor
    survives its refutation point (or the shear or a section search needs
    it), so most irreducible cubics are decided from a few table lookups.
    """
    if not form.entries:
        raise ValueError("cannot factor the zero cubic")
    coeffs = _TableCoefficients(form)
    return _factorization(coeffs, _find_linear_factor(coeffs, seed))
