"""Factorization of homogeneous cubics over the rationals.

The cubic attached to intersection data is expanded exactly and split into
linear and quadratic pieces when possible.  One linear-factor search, for
forms of any degree, answers every factoring question: it splits a linear
factor off the cubic, splits the quadric cofactor and splits a quadratic
form.

The content is taken once, f = c F, as soon as a coordinate line has a
root (no root depends on it), and everything after runs on the primitive
integral F in ints.  Candidates are primitive, so by Gauss's lemma (S. Lang,
Algebra, IV 2) a cofactor is integral and primitive.  Every factorization is
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


def _tangent_hyperplane(f: Poly, p: int, a: int, d: int, t: Rat) -> tuple[int, ...]:
    """The canonical gradient of the form f of degree d at P = num e_p + den e_a,
    t = num / den, in ints for an integral f.

    Only x_p and x_a are nonzero at P, so d_i f(P) comes from the monomials
    x_p^k x_a^(d-1-k) x_i alone: d lookups per coordinate and no pass over f.
    """
    n = f.nvars
    u = unit_keys(n)
    num, den = t.numerator, t.denominator
    grad = [0] * n
    for k in range(d):
        base = k * u[p] + (d - 1 - k) * u[a]
        w = num**k * den ** (d - 1 - k)
        for i in range(n):
            c = f.packed.get(base + u[i])
            if c:
                # d/dx_p and d/dx_a also bring down the exponent they lower
                grad[i] += c * w * (k + 1 if i == p else d - k if i == a else 1)
    return canonical_vector(grad)


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


def _linear_factor_with_pivot(f: Poly, p: int, d: int) -> tuple[Rat, tuple[int, ...], Poly] | None:
    """(c, l, q) with f = c l q, l a linear factor with a nonzero x_p
    coefficient and l, q primitive integral forms; or None.

    f is a form of degree d with a nonzero x_p^d coefficient, so every linear
    factor l has l_p != 0 and meets the anchor line x_p, x_a (a != p) at one
    point P = num e_p + den e_a, t1 = num / den a root of the anchor
    polynomial h(s) = f(s e_p + e_a).  If f = l r:
    - at a simple root t1, d_p f(P) = den^(d-1) h'(t1) != 0, so P is a smooth
      point, r(P) != 0 and grad f(P) = r(P) grad l: the tangent hyperplane at
      P is the only candidate;
    - r(P) = 0 makes t1 a multiple root of h, and only there does the search
      read candidate coefficients off the rational roots on every coordinate
      line of x_p and x_i (a factor x_p + b x_i + ... restricts to x_p + b
      x_i there, so -b is a root of sum_k c_k t^(d-k), c_k the coefficient of
      x_p^(d-k) x_i^k).
    No root depends on the content c of f, so c is taken only once the anchor
    line has a root.
    """
    n = f.nvars
    if n == 1:
        content, f = primitive_part(f)
        return (content, *_divided(f, (1,)))
    # anchor on the first variable a other than p: an irreducible form
    # seldom has a root on that line, and d + 1 coefficient lookups decide it
    # before any pass over f
    a = 1 if p == 0 else 0
    u = unit_keys(n)
    anchor_line = [f.packed.get((d - k) * u[p] + k * u[a], 0) for k in range(d + 1)]
    anchor_roots = rational_roots(anchor_line)
    if not anchor_roots:
        return None
    content, f = primitive_part(f)
    root_sets = planes = None
    for t1 in sorted(set(anchor_roots)):
        if anchor_roots.count(t1) == 1:
            found = _divided(f, _tangent_hyperplane(f, p, a, d, t1))
        else:
            if root_sets is None:
                # built once, at the first multiple root; a line with no
                # root rules out every linear factor
                lines, planes = _coordinate_sections(f, p, a, d)
                root_sets = []
                for i, coeffs in lines.items():
                    roots = sorted(set(rational_roots(coeffs)))
                    if not roots:
                        return None
                    root_sets.append((i, roots))
            found = _section_search(f, p, a, t1, root_sets, planes)
        if found is not None:
            return (content, *found)
    return None


def _find_linear_factor(f: Poly, d: int, seed: int) -> tuple[Rat, tuple[int, ...], Poly] | None:
    """(c, l, q) with f = c l q for a canonical linear factor l of the nonzero
    form f of degree d, l and q primitive integral forms; or None.

    None is a proof: a simple anchor root carries no factor but its tangent
    hyperplane (smooth point, grad f = r grad l), and a multiple one is
    searched on every coordinate line, so each linear factor is tried at the
    root where it meets the anchor line.  With a pure power x_p^d in f the
    search runs on f's packed keys alone.  Without one, the shear below
    evaluates f and substitutes into it, which decodes each of f's keys into
    its variables once per call."""
    n = f.nvars
    u = unit_keys(n)
    # the pure power x_i^d has the key d u_i
    pivots = [i for i in range(n) if d * u[i] in f.packed]
    if pivots:
        return _linear_factor_with_pivot(f, pivots[seed % len(pivots)], d)
    # no pure power: shear x_i -> x_i + c_i x_p for a point c with c_p = 1
    # and f(c) != 0, which is the x_p^d coefficient of the sheared form; the
    # shear is unimodular, so the primitive f shears to a primitive form
    content, f = primitive_part(f)
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
    found = _linear_factor_with_pivot(f.substitute(images), p, d)
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
    found = _find_linear_factor(q, 2, 0)
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


def factor_over_Q(f: Poly, seed: int = 0) -> Factorization:
    """Full factorization of a homogeneous cubic over the rationals.

    The seed only rotates which pivot variable is preferred; the factor set
    is seed-independent and the output ordering is canonical.
    """
    if f.is_zero:
        raise ValueError("cannot factor the zero cubic")
    if not f.is_homogeneous(3):
        raise ValueError("input must be a homogeneous cubic")
    found = _find_linear_factor(f, 3, seed)
    if found is None:
        return Factorization(FactorKind.IRREDUCIBLE, 1, (), None)
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
