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

from .cubicfactor import Factorization, FactorKind, factor_cubic
from .exactmath import (
    Rat,
    canonical_vector,
    echelon,
    enum_key,
    is_perfect_square,
    iter_kernel_primitives,
    iter_primitive_vectors,
    kernel_basis,
    primitive_vector,
    ratio,
)
from .nsring import Divisor, IntersectionForm, LinearClass, Point, _as_divisor


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


def _quotient(quadrics: list[dict], d: int) -> tuple[list, dict]:
    """(S/J)_d, d >= 2, for the ideal J of the gradient quadrics: the
    standard monomials and the normal form of every monomial of degree d as
    coordinates on them.  A monomial is a sorted index tuple, as the form's
    entry keys are: x_0^2 x_2 is (0, 0, 2).  The Macaulay matrix J_d has a
    row m q for each quadric q and monomial m of degree d - 2, over the
    monomials of degree d; the standard monomials are the free columns of its
    `echelon` form, and coordinate i, as a functional on S_d, is the i-th
    `kernel_basis` vector of J_d up to scale."""
    cols = list(itertools.combinations_with_replacement(range(3), d))
    index = {m: c for c, m in enumerate(cols)}
    rows = []
    for m in itertools.combinations_with_replacement(range(3), d - 2):
        for q in quadrics:
            row = [0] * len(cols)
            for e, c in q.items():
                row[index[tuple(sorted(m + e))]] = c
            rows.append(row)
    ech, pivots = echelon(rows)
    free = [c for c in range(len(cols)) if c not in pivots]
    nf = {cols[f]: [int(f == g) for g in free] for f in free}
    for row, p in zip(ech, pivots):
        nf[cols[p]] = [ratio(-row[f], row[p]) for f in free]
    return [cols[f] for f in free], nf


def _trace_point(quadrics: list[dict], standard: list, nf: dict) -> list[Rat]:
    """(tr M_0 : tr M_1 : tr M_2), M_k multiplication by x_k / h on (S/J)_D,
    in the first degree D >= 3 with dim (S/J)_D = dim (S/J)_{D+1} = tau <= D.
    By Gotzmann persistence (S/J)_D is then the ring of the singular scheme
    Z, and tr M_k sums x_k(p) / h(p) over Z with multiplicity: a Z at one
    point P gives P.  An irreducible cubic has tau <= 4, so D <= 5."""
    for d in range(3, 6):
        upper, nf_up = _quotient(quadrics, d + 1)
        if len(upper) == len(standard) <= d:
            break
        standard, nf = upper, nf_up
    else:
        raise AssertionError("the Jacobian quotient did not settle by degree 6")
    tau = len(standard)
    # mult[k][c][r]: coordinate r of x_k times the standard monomial c
    mult = [[nf_up[tuple(sorted(m + (k,)))] for m in standard] for k in range(3)]
    # M_h is invertible when h vanishes at no point of Z, which has at most
    # three: a plane holds at most 4 of the 13 points of height 1
    for h in iter_primitive_vectors(3, max_height=1):
        rows = [
            [sum(hk * mk[c][r] for hk, mk in zip(h, mult)) for c in range(tau)]
            + [mk[c][r] for mk in mult for c in range(tau)]
            for r in range(tau)
        ]
        ech, pivots = echelon(rows)
        if pivots == list(range(tau)):
            # row i is a multiple of (e_i | row i of M_h^-1 M_k, k = 0, 1, 2)
            return [
                sum(ratio(row[tau * (k + 1) + i], row[i]) for i, row in enumerate(ech))
                for k in range(3)
            ]
    raise AssertionError("every linear form of height 1 meets the singular scheme")


def _irreducible_candidate(form: IntersectionForm) -> list[Rat] | None:
    """The one point that can be the rational singular point of a
    Q-irreducible ternary cubic, or None when there is none."""
    # T(x, x, e_k), the k-th partial derivative divided by 3
    polars = [form._polar(tuple(int(i == k) for i in range(3))) for k in range(3)]
    quadrics = [{(a, b): v if a == b else 2 * v for (a, b), v in p.items() if v} for p in polars]
    standard, nf = _quotient(quadrics, 3)
    if len(standard) > 1:
        return _trace_point(quadrics, standard, nf)
    # the kernel of J_3 holds v_3(P) = (m(P))_m for a singular P, so a kernel
    # line is lambda = c v_3(P), and P_j = lambda[x_i^2 x_j] / (c P_i^2)
    for i in range(3):
        if standard and nf[(i, i, i)][0]:
            return [nf[tuple(sorted((i, i, j)))][0] for j in range(3)]
    return None


def _line_conic_points(l: tuple[int, ...], q) -> list[list[Rat]]:
    """The rational singular points of the cubic l q, q a Q-irreducible
    conic: the rational points of q on the line l = 0, and the vertex of q
    when q has rank 2."""
    v1, v2 = kernel_basis([list(l)])
    a, b, c = q.evaluate(v1), q.bilinear(v1, v2), q.evaluate(v2)
    points = [list(v) for v in kernel_basis(q.gram)]
    r = is_perfect_square(b * b - a * c)
    if r is not None:
        # the roots of q(s v1 + t v2) = a s^2 + 2 b s t + c t^2
        roots = [(r - b, a), (-r - b, a)] if a else [(1, 0), (c, -2 * b)]
        points += [[s * x + t * y for x, y in zip(v1, v2)] for s, t in roots]
    return points


def ternary_singular_point(form: IntersectionForm) -> Divisor | None:
    """The least rational singular point of a ternary cubic by `enum_key`, or
    None when it has none.

    A reducible cubic's singular points are read off `factor_cubic`'s
    factors: the whole line l of l^2 m or l^3 (its first point), the pairwise
    crossings of three lines, and for l q the points of q on l and the vertex
    of q.  On a Q-irreducible cubic, two singular points would span a line
    meeting the cubic four times, so a line on it; so there is at most one
    rational singular point P, and a candidate that fails the singularity
    check proves there is none.  The kernel of J_3, the degree-3 part of the
    Jacobian ideal, holds v_3(P) = (m(P))_m: when that kernel is at most a
    line, P is read off its vector; otherwise (cusps, and three conjugate
    lines) it is the trace point of the Jacobian quotient (`_trace_point`)."""
    if form.rank != 3:
        raise ValueError("singular-point search is specific to rank 3")
    if not form.entries:
        raise ValueError("the cubic is identically zero")
    return _singular_point(form, factor_cubic(form))


def _singular_point(form: IntersectionForm, fac: Factorization) -> Divisor | None:
    """`ternary_singular_point` of a nonzero rank-3 form whose cubic factors
    as `fac`, for a caller that has factored it already."""
    if fac.kind is FactorKind.IRREDUCIBLE:
        candidates = [_irreducible_candidate(form)]
    elif fac.kind is FactorKind.THREE_LINEAR:
        candidates = [
            [u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]]
            for u, v in itertools.combinations(fac.linears, 2)
        ]
    elif fac.kind is FactorKind.LINEAR_TIMES_QUADRIC:
        candidates = _line_conic_points(fac.linears[0], fac.quadric)
    else:
        candidates = [next(iter_kernel_primitives([list(fac.linears[0])]))]
    keys = {canonical_vector(p) for p in candidates if p is not None and any(p)}
    good = [key for key in keys if not any(Point(form, key).s)]
    return Divisor(min(good, key=enum_key)) if good else None
