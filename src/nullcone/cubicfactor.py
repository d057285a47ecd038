"""Factorization of homogeneous cubics over the rationals.

The cubic attached to intersection data is expanded exactly and split into
linear and quadratic pieces when possible; every returned factorization is
re-expanded and compared against the input before it is handed back.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from .exactmath import (
    Poly,
    Rat,
    canonical_vector,
    exact_divide,
    frac,
    height,
    iter_integer_vectors,
    mat_inv,
    primitive_vector,
    rational_roots,
    is_perfect_square,
    spiral_key,
)
from .nsring import IntersectionForm
from .quadpoints import QuadraticForm, diagonalize


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
        poly = Poly.constant(nvars, self.scalar)
        for l in self.linears:
            poly = poly * Poly.linear(l)
        if self.quadric is not None:
            poly = poly * self.quadric.to_poly()
        return poly


def expand_cubic(form: IntersectionForm) -> Poly:
    """The cubic polynomial T(x, x, x) of the trilinear form, expanded."""
    n = form.rank
    terms: dict[tuple[int, ...], int] = {}
    for key, v in form.symmetric.items():
        e = [0] * n
        for i in key:
            e[i] += 1
        expo = tuple(e)
        terms[expo] = terms.get(expo, 0) + v
    return Poly(n, terms)


def _exp_cube(n: int, i: int) -> tuple[int, ...]:
    e = [0] * n
    e[i] = 3
    return tuple(e)


def _exp_sq(n: int, i: int, j: int) -> tuple[int, ...]:
    e = [0] * n
    e[i] += 2
    e[j] += 1
    return tuple(e)


def _divided(f: Poly, cand: tuple[int, ...]) -> tuple[tuple[int, ...], Poly] | None:
    """(cand, f / cand) when the linear form cand divides f, else None."""
    cof = exact_divide(f, Poly.linear(cand))
    return None if cof is None else (cand, cof)


def _linear_factor_with_pivot(f: Poly, p: int) -> tuple[tuple[int, ...], Poly] | None:
    """A linear factor with a nonzero x_p coefficient and its cofactor, or None."""
    n = f.nvars
    a0 = f.coeff(_exp_cube(n, p))
    root_sets: list[tuple[int, list[Rat]]] = []
    for i in range(n):
        if i == p:
            continue
        roots = sorted(set(rational_roots([
            a0,
            f.coeff(_exp_sq(n, p, i)),
            f.coeff(_exp_sq(n, i, p)),
            f.coeff(_exp_cube(n, i)),
        ])))
        if not roots:
            return None
        root_sets.append((i, roots))
    if not root_sets:
        coords = [0] * n
        coords[p] = 1
        return _divided(f, tuple(coords))
    # anchor on the first non-pivot variable and keep, for every other
    # variable, only the roots consistent with the anchor on the common
    # three-variable section; a divisor's coordinates always survive, and the
    # combination count collapses from exponential to (usually) one per anchor
    i1, anchor_roots = root_sets[0]
    for t1 in anchor_roots:
        filtered: list[tuple[int, list[Rat]]] = []
        feasible = True
        for i, roots in root_sets[1:]:
            compatible = []
            for t in roots:
                point = [0] * n
                point[p] = t1 + t
                point[i1] = 1
                point[i] = 1
                # f is a cubic form, so clearing the denominator of t1 + t
                # keeps the zero test and evaluates in integers
                if f.evaluate(primitive_vector(point)) == 0:
                    compatible.append(t)
            if not compatible:
                feasible = False
                break
            filtered.append((i, compatible))
        if not feasible:
            continue
        for combo in itertools.product(*(roots for _, roots in filtered)):
            coords = [0] * n
            coords[p] = 1
            coords[i1] = -t1
            for (i, _), t in zip(filtered, combo):
                coords[i] = -t
            found = _divided(f, canonical_vector(coords))
            if found is not None:
                return found
    return None


def _find_linear_factor(f: Poly, seed: int) -> tuple[tuple[int, ...], Poly] | None:
    """A canonical linear factor of f and its cofactor, or None."""
    n = f.nvars
    pivots = [i for i in range(n) if f.coeff(_exp_cube(n, i)) != 0]
    if pivots:
        return _linear_factor_with_pivot(f, pivots[seed % len(pivots)])
    # no pure cube: shear x_i -> x_i + c_i x_p at a point where f is nonzero,
    # which makes x_p^3 the one pure cube of the sheared cubic
    occupied = [i for i in range(n) if any(e[i] for e in f.terms)]
    if not occupied:
        raise ValueError("cannot factor the zero cubic")
    p = occupied[seed % len(occupied)]
    others = [i for i in range(n) if i != p]
    shift = None
    for cvec in iter_integer_vectors(len(others)):
        point = [0] * n
        point[p] = 1
        for idx, i in enumerate(others):
            point[i] = cvec[idx]
        if f.evaluate(point) != 0:
            shift = cvec
            break
    images = []
    for i in range(n):
        img = Poly.variable(n, i)
        if i != p:
            c = shift[others.index(i)]
            if c:
                img = img + c * Poly.variable(n, p)
        images.append(img)
    found = _linear_factor_with_pivot(f.substitute(images), p)
    if found is None:
        return None
    w = list(found[0])
    w[p] -= sum(w[i] * shift[others.index(i)] for i in others)
    found = _divided(f, canonical_vector(w))
    if found is None:
        raise AssertionError("shear-mapped factor failed verification")
    return found


def _primitive_poly(p: Poly) -> tuple[Rat, Poly]:
    """Write p = scalar * q with q having coprime integer coefficients and a
    positive lex-leading coefficient."""
    lead = max(p.terms)
    den = math.lcm(*(c.denominator for c in p.terms.values()))
    nums = [int(c * den) for c in p.terms.values()]
    g = math.gcd(*nums)
    scale = Fraction(g, den)
    if p.terms[lead] < 0:
        scale = -scale
    return frac(scale), Poly(p.nvars, {e: Fraction(c, scale) for e, c in p.terms.items()})


def factor_quadratic_form(q: QuadraticForm):
    """Split q into two linear forms: (l1, l2, scalar) with
    q = scalar * l1 * l2, or None when q is irreducible over the rationals."""
    if q.is_zero:
        raise ValueError("the zero form does not factor meaningfully")
    p, diag = diagonalize(q)
    nz = [i for i, d in enumerate(diag) if d != 0]
    if len(nz) > 2:
        return None
    pinv = mat_inv(p)
    q_poly = q.to_poly()
    if len(nz) == 1:
        l = canonical_vector(pinv[nz[0]])
        pair = (l, l)
    else:
        r, s = nz
        root = is_perfect_square(Fraction(-diag[s], diag[r]))
        if root is None:
            return None
        row_r, row_s = pinv[r], pinv[s]
        l1 = canonical_vector([a - root * b for a, b in zip(row_r, row_s)])
        l2 = canonical_vector([a + root * b for a, b in zip(row_r, row_s)])
        pair = tuple(sorted((l1, l2), key=lambda v: (height(v), spiral_key(v))))
    prod = Poly.linear(pair[0]) * Poly.linear(pair[1])
    lead = max(prod.terms)
    scalar = frac(Fraction(q_poly.coeff(lead), prod.coeff(lead)))
    if scalar * prod != q_poly:
        raise AssertionError("quadric split failed verification")
    return pair[0], pair[1], scalar


def is_perfect_cube_linear(f: Poly):
    """(l, scalar) with f = scalar * l^3 for a canonical primitive l, or None."""
    if f.is_zero or not f.is_homogeneous(3):
        return None
    n = f.nvars
    i0 = next((i for i in range(n) if f.coeff(_exp_cube(n, i)) != 0), None)
    if i0 is None:
        return None
    c3 = f.coeff(_exp_cube(n, i0))
    coords = [0] * n
    coords[i0] = 1
    for j in range(n):
        if j != i0:
            coords[j] = Fraction(f.coeff(_exp_sq(n, i0, j)), 3 * c3)
    l = canonical_vector(coords)
    cube = Poly.linear(l) ** 3
    scalar = frac(Fraction(c3, cube.coeff(_exp_cube(n, i0))))
    if scalar * cube != f:
        return None
    return l, scalar


def factor_over_Q(f: Poly, seed: int = 0) -> Factorization:
    """Full factorization of a homogeneous cubic over the rationals.

    The seed only rotates which pivot variable is preferred; the factor set
    is seed-independent and the output ordering is canonical.
    """
    if f.is_zero:
        raise ValueError("cannot factor the zero cubic")
    if not f.is_homogeneous(3):
        raise ValueError("input must be a homogeneous cubic")
    found = _find_linear_factor(f, seed)
    if found is None:
        return Factorization(FactorKind.IRREDUCIBLE, 1, (), None)
    lin, cof = found
    split = factor_quadratic_form(QuadraticForm.from_poly(cof))
    if split is None:
        scalar, prim = _primitive_poly(cof)
        out = Factorization(
            FactorKind.LINEAR_TIMES_QUADRIC, scalar, (lin,), QuadraticForm.from_poly(prim)
        )
    else:
        # f = lin * cof = scalar * lin * l2 * l3, in whichever order
        l2, l3, scalar = split
        triple = [lin, l2, l3]
        distinct = sorted(set(triple), key=lambda v: (height(v), spiral_key(v)))
        if len(distinct) == 1:
            kind, ordered = FactorKind.LINEAR_CUBE, (distinct[0],) * 3
        elif len(distinct) == 2:
            counts = {d: triple.count(d) for d in distinct}
            sq = next(d for d in distinct if counts[d] == 2)
            other = next(d for d in distinct if counts[d] == 1)
            kind, ordered = FactorKind.LINEAR_SQUARE_TIMES_LINEAR, (sq, sq, other)
        else:
            kind, ordered = FactorKind.THREE_LINEAR, tuple(distinct)
        out = Factorization(kind, scalar, ordered, None)
    if out.reconstruct(f.nvars) != f:
        raise AssertionError("factorization failed re-expansion check")
    return out
