"""Producing new null classes from old ones along rational lines.

A point on the cubic null cone, a tangent direction, and exact third-root
extraction give a new rational point; iterating this walk while watching the
c2 pairing either finds a class with nonzero pairing or reports precisely
which degeneracy stopped progress.
"""
from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from operator import mul

from .cubicfactor import factor_quadratic_form
from .exactmath import (
    Poly,
    Rat,
    canonical_vector,
    enum_key,
    iter_kernel_primitives,
    kernel_basis,
    primitive_vector,
    rational_roots,
)
from .nsring import Divisor, IntersectionForm, LinearClass, Point, _as_divisor
from .quadpoints import IsotropyKind, QuadraticForm, is_isotropic


def _on_cubic(form: IntersectionForm, d, what: str) -> Point:
    """d as a `Point` (reused when it is one), checked to be on the cubic."""
    point = d if isinstance(d, Point) else Point(form, d, what)
    cube = point.cube()
    if cube:
        raise ValueError(f"{what} is not on the cubic: cube = {cube}")
    return point


def third_point_on_line(form: IntersectionForm, p1, p2) -> Divisor | None:
    """Third intersection of the cubic with the line through two null points.

    Returns None when the whole line lies on the cubic.  The output keeps the
    sign produced by the root formula (primitive, not sign-normalized).  Each
    point is checked by `_on_cubic`, and T(a, a, b) and T(b, b, a) are read
    from the two points' tangent passes.
    """
    a, b = _on_cubic(form, p1, "first point"), _on_cubic(form, p2, "second point")
    if a.key == b.key:
        raise ValueError("points are projectively equal; no line is determined")
    c1 = 3 * a.triple(b.divisor)
    c2 = 3 * b.triple(a.divisor)
    if c1 == 0 and c2 == 0:
        return None
    pt = tuple(c2 * x - c1 * y for x, y in zip(a.divisor.coords, b.divisor.coords))
    out = Divisor(primitive_vector(pt))
    if form.cube(out) != 0:
        raise AssertionError("third point failed the null-cone check")
    return out


def residual_on_tangent(form: IntersectionForm, d, x) -> Divisor | None:
    """Residual intersection along a tangent direction at a null point.

    The line through d in direction x (with T(d,d,x) = 0) meets the cubic
    doubly at d; the remaining root is cube(x) * d - 3 T(d,x,x) * x.  Returns
    None when the whole line lies on the cubic.

    d may be a class or an `nsring.Point`, whose tangent pass is reused;
    either way it is checked to be on the cubic.  Tangency is s . x, and
    cube(x) and T(d, x, x) come from one pass over the entries that touch
    the support of x, so a direction with few nonzero coordinates costs
    O(those entries), plus one full null-cone check of a residual that is
    not None.  The residual is computed in integers, scaled
    by the positive factor den * xden^3, which moves neither its primitive
    vector nor its sign."""
    xx = _as_divisor(x)
    if xx.is_zero or (not isinstance(d, Point) and _as_divisor(d).is_zero):
        raise ValueError("point and direction must be nonzero")
    found = _residual(form, _on_cubic(form, d, "base point"), xx)
    return None if found is None else found[0]


def _residual(form: IntersectionForm, point: Point, x: Divisor) -> tuple[Divisor, Rat] | None:
    """`residual_on_tangent` at a `Point` on the cubic and a nonzero direction
    x, with the residual's cube as its null-cone check computed it:
    (residual, cube), or None."""
    xi, _ = form._scaled(x)
    if sum(map(mul, point.s, xi)):
        raise ValueError(f"direction is not tangent: T(d,d,x) = {point.triple(x)}")
    # a parallel direction has the point's zero coordinates
    if xi.count(0) == point.zeros and point.key == canonical_vector(xi):
        raise ValueError("direction is parallel to the base point")
    a, b = form._cube_and_polar(point.x, xi)
    if a == 0 and b == 0:
        return None
    out = Divisor(primitive_vector([a * u - 3 * b * v for u, v in zip(point.x, xi)]))
    cube = form.cube(out)
    if cube != 0:
        raise AssertionError("residual point failed the null-cone check")
    return out, cube


def _tangent_residuals(form: IntersectionForm, point: Point, budget: int):
    """The first `budget` tangent directions at a `Point` on the cubic and
    what each one gives: (direction, None) when the line lies on the cubic,
    else (direction, (residual, cube, residual_key)) as `_residual` computed
    them.  The directions are the primitive vectors of the lattice s . x = 0
    in (height, spiral) order, the point's own class left out; at a singular
    point (s = 0) that is every primitive vector.  Each direction costs the
    entries that touch its support (see `residual_on_tangent`)."""
    directions = (x for x in iter_kernel_primitives([point.s]) if x != point.key)
    for x in itertools.islice(directions, budget):
        direction = Divisor(x)
        found = _residual(form, point, direction)
        if found is None:
            yield direction, None
        else:
            residual, cube = found
            yield direction, (residual, cube, canonical_vector(residual.coords))


class Degeneracy(str, Enum):
    LINE_CONTAINED = "line_contained"
    TANGENT_SECTION_IS_CONE = "tangent_section_is_cone"
    POINT_SINGULAR = "point_singular"


@dataclass(frozen=True)
class ChaseEdge:
    source: Divisor
    direction: Divisor
    target: Divisor


@dataclass
class ChaseTrace:
    visited: list[Divisor] = field(default_factory=list)
    edges: list[ChaseEdge] = field(default_factory=list)
    degeneracies: list[tuple[Degeneracy, Divisor]] = field(default_factory=list)
    witness: Divisor | None = None
    # cube(witness), as the witness's own null-cone check computed it
    witness_cube: Rat | None = None


def _tangent_section_is_cone(form: IntersectionForm, p: Point) -> bool:
    """Whether T(p, x, y) = 0 for all x, y in H = {s = 0}, s = T(p, p, -) != 0:
    exactly when no tangent direction x at p is productive, since the residual
    cube(x) p - 3 T(p, x, x) x leaves p iff T(p, x, x) != 0.

    M = T(p, -, -) vanishes on the basis s_j e_a - s_a e_j of H (s_j != 0)
    iff every C_ab = s_j^2 M_ab - s_j (s_a M_bj + s_b M_aj) + s_a s_b M_jj is
    0.  Off the stored entries of M, C_ab != 0 needs both a and b in the
    support of s or of column j of M, so the stored entries are checked first.
    """
    s, m = p.s, form._polar(p.x)
    j = next(a for a, sa in enumerate(s) if sa)
    col = [m.get((min(a, j), max(a, j)), 0) for a in range(form.rank)]

    def defect(a: int, b: int) -> int:
        mixed = s[j] * m.get((a, b), 0) - s[a] * col[b] - s[b] * col[a]
        return s[j] * mixed + s[a] * s[b] * col[j]

    support = [a for a in range(form.rank) if s[a] or col[a]]
    pairs = itertools.chain(m, itertools.combinations_with_replacement(support, 2))
    return not any(defect(a, b) for a, b in pairs)


def chase(
    form: IntersectionForm,
    c2: LinearClass,
    d,
    depth: int = 3,
    budget: int = 500,
) -> ChaseTrace:
    """Breadth-first walk on rational null points along tangent residuals.

    Stops at the first visited class with nonzero c2 pairing (the witness).
    At each point the directions and their residuals come from
    `_tangent_residuals`, at most `budget` per point; `depth` bounds the
    number of expansion levels.  Each expanded point's tangent pass is made
    once, as an `nsring.Point`; the start d may already be one, whose pass
    is then reused, and is checked to be on the cubic.  The witness's cube is
    the one its null-cone check computed (`ChaseTrace.witness_cube`).
    """
    start = _on_cubic(form, d, "start point")
    if depth < 1 or budget < 1:
        raise ValueError("depth and budget must be positive")
    trace = ChaseTrace()
    trace.visited.append(start.divisor)
    seen = {start.key}
    queue: deque[tuple[Divisor, int]] = deque([(start.divisor, 0)])
    if c2.pair(start.divisor) != 0:
        trace.witness = start.divisor
        trace.witness_cube = start.cube()
        return trace
    while queue:
        p, level = queue.popleft()
        if level >= depth:
            continue
        point = start if level == 0 else Point(form, p)
        if not any(point.s):
            trace.degeneracies.append((Degeneracy.POINT_SINGULAR, point.divisor))
            continue
        productive = collapsed = False
        for direction, found in _tangent_residuals(form, point, budget):
            if found is None:
                trace.degeneracies.append((Degeneracy.LINE_CONTAINED, point.divisor))
                continue
            residual, cube, res_key = found
            if res_key == point.key:
                collapsed = True
                continue
            productive = True
            trace.edges.append(ChaseEdge(point.divisor, direction, residual))
            if res_key not in seen:
                seen.add(res_key)
                trace.visited.append(residual)
                queue.append((residual, level + 1))
                if c2.pair(residual) != 0:
                    trace.witness, trace.witness_cube = residual, cube
                    return trace
        if collapsed and not productive and _tangent_section_is_cone(form, point):
            trace.degeneracies.append((Degeneracy.TANGENT_SECTION_IS_CONE, point.divisor))
    return trace


def is_singular_at(form: IntersectionForm, p) -> bool:
    """Whether the nonzero null point p is singular on the cubic: its tangent
    pass s = T(p, p, -), the gradient divided by 3, vanishes."""
    return not any(_on_cubic(form, p, "point").s)


def inflection_test(form: IntersectionForm, e) -> tuple[bool, Divisor]:
    """Whether the smooth null point e is a flex of the plane cubic (rank 3).

    Returns (is_flex, g) where g spans the tangent line at e together with e;
    e is a flex exactly when T(e, g, g) = 0, independent of the choice of g.
    """
    if form.rank != 3:
        raise ValueError("the tangent-line test is specific to rank 3")
    val, g = _flex_value(form, _on_cubic(form, e, "point"))
    return val == 0, g


def _flex_value(form: IntersectionForm, point: Point) -> tuple[Rat, Divisor]:
    """(T(e, g, g), g) for a `Point` e on a rank-3 cubic, g as in
    `inflection_test`: the first `kernel_basis` vector of e's s that is not
    e's key.  The basis vectors are distinct canonical vectors spanning the
    tangent line ker s, a plane through e, so at most one is e's key and the
    other spans ker s with e.  A caller that already knows cube(e) = 0 reads
    the flex value here with no null-cone check."""
    if not any(point.s):
        raise ValueError("point is singular; the flex test needs a smooth point")
    kb = kernel_basis([point.s])
    g = kb[0] if kb[0] != point.key else kb[1]
    return form.triple(point.divisor, g, g), Divisor(g)


# ---------------------------------------------------------------------------
# singular points of ternary cubics: a complete decision procedure


def _gradient_quadrics(form: IntersectionForm) -> list[QuadraticForm]:
    n, t = form.rank, form.entries
    out = []
    for i in range(n):
        q = QuadraticForm(tuple(
            tuple(t.get(tuple(sorted((a, b, i))), 0) for b in range(n)) for a in range(n)
        ))
        if not q.is_zero:
            out.append(q)
    return out


def _line_candidates(l: tuple[int, ...], quadrics: list[QuadraticForm]):
    """Points of the line {l = 0} where all quadrics can vanish: the roots on
    the line of the first quadric that does not vanish on it, or None when
    every quadric vanishes on the whole line."""
    v1, v2 = kernel_basis([list(l)])
    for q in quadrics:
        a, b, c = q.evaluate(v1), q.bilinear(v1, v2), q.evaluate(v2)
        if a or b or c:
            break
    else:
        return None
    candidates = [
        primitive_vector([r * u + v for u, v in zip(v1, v2)]) for r in rational_roots([a, 2 * b, c])
    ]
    if a == 0:
        candidates.append(tuple(v1))
    return candidates


def _sylvester_resultant(q1: QuadraticForm, q2: QuadraticForm) -> Poly:
    """Resultant in the last variable of two ternary quadrics, as a binary form.

    Each quadric is a2 z^2 + a1 z + a0, the a_k binary forms; vanishing
    leading a_k are dropped, and the (2, 2), (2, 1) and (1, 1) closed forms
    cover the rest (the (1, 2) resultant is the (2, 1) one, sign (-1)^2).
    """

    def coeff_polys(q: QuadraticForm) -> list[Poly]:
        g = q.gram
        c2 = Poly(2, {(0, 0): g[2][2]})
        c1 = Poly(2, {(1, 0): 2 * g[0][2], (0, 1): 2 * g[1][2]})
        c0 = Poly(2, {(2, 0): g[0][0], (1, 1): 2 * g[0][1], (0, 2): g[1][1]})
        return list(itertools.dropwhile(lambda c: c.is_zero, (c2, c1, c0)))

    a, b = sorted((coeff_polys(q1), coeff_polys(q2)), key=len, reverse=True)
    if len(b) < 2:
        raise AssertionError("rank-3 quadric must involve the eliminated variable")
    if len(a) == 2:
        return a[0] * b[1] - a[1] * b[0]
    a2, a1, a0 = a
    if len(b) == 2:
        b1, b0 = b
        return a2 * b0 * b0 - a1 * b0 * b1 + a0 * b1 * b1
    b2, b1, b0 = b
    u = a2 * b0 - a0 * b2
    return u * u - (a2 * b1 - a1 * b2) * (a1 * b0 - a0 * b1)


def _conic_pair_candidates(qa: QuadraticForm, qb: QuadraticForm) -> list[tuple[int, ...]]:
    res = _sylvester_resultant(qa, qb)
    if res.is_zero:
        raise AssertionError("two distinct irreducible conics share a component")
    max_x = max(e[0] for e in res.terms)
    coeffs = [
        sum(c for e, c in res.terms.items() if e[0] == k)
        for k in range(max_x, -1, -1)
    ]
    rays = []
    if any(c != 0 for c in coeffs):
        for r in sorted(set(rational_roots(coeffs))):
            rays.append((r, 1))
    if res.evaluate((1, 0)) == 0:
        rays.append((1, 0))
    candidates: list[tuple[int, ...]] = [(0, 0, 1)]
    for x0, y0 in rays:
        for q in (qa, qb):
            spec = [
                q.gram[2][2],
                2 * (q.gram[0][2] * x0 + q.gram[1][2] * y0),
                q.evaluate((x0, y0, 0)),
            ]
            if all(c == 0 for c in spec):
                continue
            for z in rational_roots(spec):
                candidates.append(primitive_vector((x0, y0, z)))
            break
    return candidates


def ternary_singular_point(form: IntersectionForm) -> Divisor | None:
    """The least rational singular point of a ternary cubic by `enum_key`, or
    None when it has none.

    The singular locus S is the common rational zero set of the gradient
    quadrics, read in order up to the first one that decides: a split quadric
    gives lines whose candidates cover S, an anisotropic one leaves S empty,
    and a degenerate one has a single rational zero r, so S is {r} or empty.
    When every quadric is an isotropic conic, two distinct ones meet in at
    most four points, which cover S."""
    if form.rank != 3:
        raise ValueError("singular-point search is specific to rank 3")
    quadrics = _gradient_quadrics(form)
    if not quadrics:
        raise ValueError("the cubic is identically zero")

    def verified(points) -> Divisor | None:
        keys = map(canonical_vector, points)
        good = {key for key in keys if all(q.evaluate(key) == 0 for q in quadrics)}
        return Divisor(min(good, key=enum_key)) if good else None

    conics = {}
    for q in quadrics:
        split = factor_quadratic_form(q)
        if split is not None:
            candidates: list[tuple[int, ...]] = []
            for l in dict.fromkeys(split[:2]):
                found = _line_candidates(l, quadrics)
                if found is None:
                    # the cubic is singular along l, so it is l^2 m or l^3 and
                    # S is exactly l: its first point is the least
                    return verified([next(iter_kernel_primitives([list(l)]))])
                candidates += found
            return verified(candidates)
        verdict = is_isotropic(q)
        if verdict.kind is IsotropyKind.ANISOTROPIC:
            return None
        if verdict.kind is IsotropyKind.DEGENERATE:
            # rank 2 and irreducible (a rank-1 quadric is c l^2 and splits):
            # the only rational zero is the radical point
            return verified(verdict.radical_basis)
        conics.setdefault(canonical_vector([x for row in q.gram for x in row]), q)
    # two conics are distinct: were every gradient quadric c_i Q, Euler's
    # identity would give F = L Q, and 3 c_i Q = c_i Q + L d_i Q forces L = 0
    qa, qb, *_ = conics.values()
    return verified(_conic_pair_candidates(qa, qb))
