"""Null-cone point chasing: lines, residuals, walks, flexes, singular points."""

from fractions import Fraction
import itertools
import random

import pytest

from nullcone.cubicchase import (
    ChaseEdge,
    Degeneracy,
    _tangent_section_is_cone,
    chase,
    inflection_test,
    is_singular_at,
    residual_on_tangent,
    ternary_singular_point,
    third_point_on_line,
)
from nullcone.exactmath import (
    Poly,
    canonical_vector,
    echelon,
    enum_key,
    height,
    iter_primitive_vectors,
    kernel_basis,
    primitive_vector,
)
from nullcone.nsring import Divisor, IntersectionForm, LinearClass, Point

from helpers import (
    annihilator_c2,
    change_basis,
    divisor_coords,
    form_of_cubic,
    hessian_det,
    key_shape_forms,
    nonzero_vector,
    on_line,
    plant_null_form,
    plant_sparse_form,
    seeded_ternary_cubics,
    transform_point,
    unimodular_matrix,
)

DIAG3 = IntersectionForm.diagonal([1, 1, -2])
DIAG4 = IntersectionForm.diagonal([1, 1, -2, 3])
# 3(x1^2 x2 - x0^3 - x0^2 x2): nodal, singular exactly at (0,0,1)
NODAL = IntersectionForm(3, {(0, 0, 0): -3, (0, 0, 2): -1, (1, 1, 2): 1})


def canon(divisor):
    return canonical_vector(divisor_coords(divisor))


# ---------------------------------------------------------------------------
# third_point_on_line


def test_third_point_basic():
    p1, p2 = (1, 1, 1), (-1, 1, 0)
    t = third_point_on_line(DIAG3, p1, p2)
    assert DIAG3.cube(t) == 0
    assert on_line(p1, p2, divisor_coords(t))


def test_third_point_root_formula():
    p1, p2 = (1, 1, 1, 0), (0, 1, 1, 1)
    assert DIAG4.cube(p1) == 0 and DIAG4.cube(p2) != 0
    q1, q2 = (1, 1, 1, 0), (-1, 1, 0, 0)
    t = third_point_on_line(DIAG4, q1, q2)
    # tangent at q1 (T(q1,q1,q2) = 0): the third intersection is q1 itself
    assert DIAG4.triple(q1, q1, q2) == 0
    assert canon(t) == canonical_vector(q1)


def test_third_point_line_contained():
    form = IntersectionForm(3, {(0, 1, 2): 1})  # 6 x0 x1 x2
    assert third_point_on_line(form, (1, 0, 0), (0, 1, 0)) is None


def test_third_point_errors():
    with pytest.raises(ValueError, match="first point is not on the cubic"):
        third_point_on_line(DIAG3, (1, 0, 0), (-1, 1, 0))
    with pytest.raises(ValueError, match="second point is not on the cubic"):
        third_point_on_line(DIAG3, (-1, 1, 0), (1, 0, 0))
    with pytest.raises(ValueError, match="projectively equal"):
        third_point_on_line(DIAG3, (1, 1, 1), (-2, -2, -2))
    with pytest.raises(ValueError, match="nonzero"):
        third_point_on_line(DIAG3, (0, 0, 0), (1, 1, 1))


def test_third_point_random_planted():
    rng = random.Random(47)
    found = 0
    for _ in range(40):
        n = rng.randint(3, 5)
        form, p1 = plant_null_form(rng, n, 4)
        p2 = next(
            (
                v
                for v in iter_primitive_vectors(n, max_height=3)
                if form.cube(v) == 0 and canonical_vector(v) != canonical_vector(p1)
            ),
            None,
        )
        if p2 is None:
            continue
        t = third_point_on_line(form, p1, p2)
        if t is None:
            continue
        found += 1
        assert form.cube(t) == 0
        assert on_line(p1, p2, divisor_coords(t))
    assert found >= 10


# ---------------------------------------------------------------------------
# residual_on_tangent


def test_residual_basic():
    d, x = (1, 1, 1, 0), (1, -1, 0, 0)
    assert DIAG4.triple(d, d, x) == 0
    r = residual_on_tangent(DIAG4, d, x)
    assert canon(r) == (1, -1, 0, 0) or canon(r) == canonical_vector((-1, 1, 0, 0))
    assert DIAG4.cube(r) == 0
    assert on_line(d, x, divisor_coords(r))


def test_residual_degenerate_root_returns_base():
    # direction with T(d,x,x) = 0 as well: the residual collapses onto d
    d, x = (1, 1, 1, 0), (1, 1, 1, 1)
    assert DIAG4.triple(d, d, x) == 0 and DIAG4.triple(d, x, x) == 0
    r = residual_on_tangent(DIAG4, d, x)
    assert canon(r) == canonical_vector(d)


def test_residual_line_contained():
    form = IntersectionForm(3, {(0, 0, 0): 3, (0, 1, 1): 1, (0, 2, 2): -1})
    assert residual_on_tangent(form, (0, 1, 0), (0, 0, 1)) is None


def test_residual_errors():
    with pytest.raises(ValueError, match="direction is not tangent"):
        residual_on_tangent(DIAG4, (1, 1, 1, 0), (1, 0, 0, 0))
    with pytest.raises(ValueError, match="base point is not on the cubic"):
        residual_on_tangent(DIAG4, (1, 0, 0, 0), (1, -1, 0, 0))
    with pytest.raises(ValueError, match="parallel"):
        residual_on_tangent(DIAG4, (1, 1, 1, 0), (-2, -2, -2, 0))
    with pytest.raises(ValueError, match="nonzero"):
        residual_on_tangent(DIAG4, (1, 1, 1, 0), (0, 0, 0, 0))


def _reference_residual(form, d, x):
    """The residual by full trilinear passes: the checks in order, then
    cube(x) d - 3 T(d, x, x) x as a primitive vector."""
    dd, xx = Divisor(d), Divisor(x)
    if dd.is_zero or xx.is_zero:
        raise ValueError("point and direction must be nonzero")
    cd = form.cube(dd)
    if cd != 0:
        raise ValueError(f"base point is not on the cubic: cube = {cd}")
    tangency = form.triple(dd, dd, xx)
    if tangency != 0:
        raise ValueError(f"direction is not tangent: T(d,d,x) = {tangency}")
    if canonical_vector(dd.coords) == canonical_vector(xx.coords):
        raise ValueError("direction is parallel to the base point")
    a, b = form.cube(xx), form.triple(dd, xx, xx)
    if a == 0 and b == 0:
        return None
    return primitive_vector([a * u - 3 * b * v for u, v in zip(dd.coords, xx.coords)])


def _outcome(fn, *args):
    try:
        out = fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))
    return ("ok", out if out is None or isinstance(out, tuple) else out.coords)


def _residual_cases(rng):
    """(form, points, directions): dense planted forms of rank 4-8, sparse
    ones of rank 40-120, and forms holding single key shapes iii, iik, ijj,
    ijk, whose points have a zero coordinate on the key so that tangent lines
    often lie on the cubic.  Points include halves and off-cubic vectors;
    directions are sparse and dense tangent vectors (some over 3), a
    non-tangent vector, a multiple of the point and zero."""
    forms = []
    for n in range(4, 9):
        form, d = plant_null_form(rng, n, 4)
        forms.append((form, [d]))
    for n in (40, 80, 120):
        form, d = plant_sparse_form(rng, n)
        forms.append((form, [d]))
    for form in key_shape_forms(rng, 4)[::3] + key_shape_forms(rng, 5)[-4:]:
        i = next(iter(form.entries))[0]
        p = [rng.randint(-3, 3) for _ in range(form.rank)]
        p[i], p[(i + 1) % form.rank] = 0, rng.choice((-1, 1)) * rng.randint(1, 3)
        forms.append((form, [tuple(p)]))
    for form, points in forms:
        n, d = form.rank, points[0]
        points += [
            tuple(Fraction(c, 2) for c in d),
            nonzero_vector(rng, n, 3),
            (0,) * n,
        ]
        s = form.square_class(d).coords
        j = next((a for a, sa in enumerate(s) if sa), 0)
        directions = []
        for size in (1, 2, 3, n):
            y = [0] * n
            for a in rng.sample(range(n), size):
                y[a] = rng.choice((-1, 1)) * rng.randint(1, 3)
            # s_j y - (s . y) e_j lies on the tangent hyperplane s = 0; at a
            # singular point (s = 0) every direction is tangent
            sy = sum(a * b for a, b in zip(s, y))
            x = [s[j] * c - (sy if a == j else 0) for a, c in enumerate(y)] if any(s) else y
            directions += [tuple(x), tuple(Fraction(c, 3) for c in x), tuple(y)]
        directions += [tuple(-2 * c for c in d), (0,) * n]
        yield form, points, directions


def test_residual_on_tangent_matches_full_passes():
    # the Divisor path and the Point path against the reference: the same
    # residual, or the same exception and message, checked in the same order;
    # a Point is refused only for the zero class
    rng = random.Random(62)
    seen = set()
    for form, points, directions in _residual_cases(rng):
        for p in points:
            try:
                point = Point(form, p)
            except ValueError as exc:
                point, refused = None, str(exc)
            for x in directions:
                expect = _outcome(_reference_residual, form, p, x)
                seen.add(expect[1].split(":")[0] if expect[0] != "ok" else expect[1] is None)
                assert _outcome(residual_on_tangent, form, Divisor(p), Divisor(x)) == expect
                if point is not None:
                    assert _outcome(residual_on_tangent, form, point, x) == expect
                else:
                    assert not any(p) and refused == "point must be nonzero"
                    assert expect[1] == "point and direction must be nonzero"
    assert seen == {
        True, False,
        "point and direction must be nonzero",
        "base point is not on the cubic",
        "direction is not tangent",
        "direction is parallel to the base point",
    }


def test_chase_on_a_budget_stall_makes_no_full_pass_per_direction(monkeypatch):
    # the chase from D on the rank-300 stall examines 500 directions, each
    # spanning a line on the cubic: evaluated on the entries that touch their
    # supports, they take no trilinear pass over every entry (the full-pass
    # version took four per direction, 2001 in all)
    rng = random.Random(1)
    form, d = plant_sparse_form(rng, 300)
    calls = []
    full_pass = IntersectionForm.triple

    def counted(self, *args):
        calls.append(args)
        return full_pass(self, *args)

    monkeypatch.setattr(IntersectionForm, "triple", counted)
    trace = chase(form, LinearClass((0,) * 300), d)
    assert trace.witness is None and len(trace.degeneracies) == 500
    assert len(calls) < 10


# ---------------------------------------------------------------------------
# chase


def test_chase_finds_witness():
    c2 = LinearClass((0, 0, 0, 1))
    trace = chase(DIAG4, c2, (1, 1, 1, 0))
    assert trace.witness is not None
    assert canon(trace.witness) == canonical_vector((-1, 3, 1, -2))
    assert c2.pair(trace.witness) == -2
    assert trace.degeneracies == []
    assert canon(trace.visited[-1]) == canon(trace.witness)


def test_chase_edges_are_valid_residual_steps():
    trace = chase(DIAG4, LinearClass((0, 0, 0, 1)), (1, 1, 1, 0))
    assert trace.edges
    for edge in trace.edges:
        assert isinstance(edge, ChaseEdge)
        assert DIAG4.cube(edge.source) == 0
        assert DIAG4.cube(edge.target) == 0
        assert DIAG4.triple(edge.source, edge.source, edge.direction) == 0
        again = residual_on_tangent(DIAG4, edge.source, edge.direction)
        assert canon(again) == canon(edge.target)


def test_chase_witness_at_start():
    trace = chase(DIAG4, LinearClass((1, 0, 0, 0)), (1, 1, 1, 0))
    assert canon(trace.witness) == canonical_vector((1, 1, 1, 0))
    assert trace.edges == [] and len(trace.visited) == 1


def test_chase_singular_start():
    trace = chase(NODAL, LinearClass((1, 0, 0)), (0, 0, 1))
    assert trace.witness is None and trace.edges == []
    assert trace.degeneracies
    kind, where = trace.degeneracies[0]
    assert kind is Degeneracy.POINT_SINGULAR
    assert canon(where) == (0, 0, 1)


def test_chase_line_contained():
    # 3 x0 (x0^2 + x1^2 - x2^2): the tangent plane x0 = 0 at (0,1,0) lies
    # entirely on the cubic, so every tangent direction degenerates
    form = IntersectionForm(3, {(0, 0, 0): 3, (0, 1, 1): 1, (0, 2, 2): -1})
    trace = chase(form, LinearClass((0, 0, 1)), (0, 1, 0), depth=1, budget=4)
    assert trace.witness is None and trace.edges == []
    kinds = {k for k, _ in trace.degeneracies}
    assert kinds == {Degeneracy.LINE_CONTAINED}
    assert all(canon(p) == (0, 1, 0) for _, p in trace.degeneracies)


def test_chase_perfect_cube_section():
    # 3 x0^2 x2 - x1^3 restricted to the tangent plane x2 = 0 at (1,0,0)
    # is the perfect cube -x1^3: T((1,0,0), x, y) = 0 on the plane, and
    # every residual collapses onto the point
    form = IntersectionForm(3, {(0, 0, 2): 1, (1, 1, 1): -1})
    trace = chase(form, LinearClass((0, 1, 0)), (1, 0, 0), depth=2, budget=30)
    assert trace.witness is None and trace.edges == []
    kinds = {k for k, _ in trace.degeneracies}
    assert kinds == {Degeneracy.TANGENT_SECTION_IS_CONE}


def test_chase_cone_section_at_rank4():
    # 3 x0^2 x2 + x1^3 + x3^3 at (1,0,0,0): T(p, x, y) = 0 on the tangent
    # hyperplane x2 = 0, so no direction is productive.  The four examined
    # directions with x1 = -x3 lie on the cubic; the other 26 collapse onto p.
    # The section x1^3 + x3^3 is not a perfect cube.
    form = IntersectionForm(4, {(0, 0, 2): 1, (1, 1, 1): 1, (3, 3, 3): 1})
    trace = chase(form, LinearClass((0, 1, 0, 0)), (1, 0, 0, 0), depth=2, budget=30)
    assert trace.witness is None and trace.edges == []
    kinds = [k for k, _ in trace.degeneracies]
    assert kinds == [Degeneracy.LINE_CONTAINED] * 4 + [Degeneracy.TANGENT_SECTION_IS_CONE]
    assert all(canon(p) == (1, 0, 0, 0) for _, p in trace.degeneracies)


def _cone_by_basis(form, p) -> bool:
    """T(p, u, v) = 0 for every pair of an integer basis of the tangent
    hyperplane at p, by trilinear evaluation."""
    basis = kernel_basis([list(form.square_class(p).coords)])
    return all(form.triple(p, u, v) == 0 for u in basis for v in basis)


def test_tangent_section_cone_test_matches_the_hyperplane_basis():
    # planted cones: with p = e0 and s = T(p, p, -) (s_0 = 0), the entries
    # d_0ab = s_a l_b + l_a s_b for an l with l_0 = 1 make T(p, -, -) vanish
    # on {s = 0}; the rest of the form is diagonal, so few pairs are stored.
    # Near misses zero one d_0ab (its pair then has no stored entry, and only
    # the pass over the support sees it) or bump one.  Random null points in
    # between; half of the planted forms in a basis moved by unimodular_matrix.
    rng = random.Random(61)
    verdicts = []
    for trial in range(160):
        n = rng.randint(3, 7)
        if trial % 4 == 0:
            form, p = plant_null_form(rng, n, 3)
        else:
            s = [0] + [rng.randint(-2, 2) for _ in range(n - 1)]
            l = [1] + [rng.randint(-2, 2) for _ in range(n - 1)]
            entries = {(a, a, a): rng.randint(-3, 3) for a in range(1, n)}
            for a, b in itertools.combinations_with_replacement(range(n), 2):
                entries[(0, a, b)] = s[a] * l[b] + l[a] * s[b]
            a, b = sorted(rng.choices(range(1, n), k=2))
            if trial % 4 == 2:
                entries[(0, a, b)] = 0
            elif trial % 4 == 3:
                entries[(0, a, b)] += rng.choice((-1, 1))
            form, p = IntersectionForm(n, entries), (1,) + (0,) * (n - 1)
            if trial % 8 >= 4:
                u, u_inv = unimodular_matrix(rng, n)
                form, p = change_basis(form, u), transform_point(u_inv, p)
        if form.square_class(p).is_zero:
            continue
        verdicts.append(_tangent_section_is_cone(form, Point(form, p)))
        assert verdicts[-1] == _cone_by_basis(form, p)
    assert 40 < sum(verdicts) < len(verdicts) - 40


def test_chase_from_a_point_matches_chase_from_its_divisor():
    # a Point start reuses its tangent pass and walks exactly as its divisor
    # does: the same ChaseTrace, at planted null points of ranks 2-10 given
    # as integers and as Fraction multiples, with c2 killing the start (so
    # the walk runs) or not (so the start is the witness)
    rng = random.Random(21)
    runs = 0
    for n in range(2, 11):
        for trial in range(3):
            form, d = plant_null_form(rng, n, 4)
            start = d if trial < 2 else tuple(Fraction(2 * c, 3) for c in d)
            if trial == 1 or n == 2:
                c2 = LinearClass(nonzero_vector(rng, n, 2))
            else:
                c2 = annihilator_c2(rng, d, form.square_class(d).coords)
            point = Point(form, start)
            for depth, budget in ((1, 5), (3, 40)):
                expect = chase(form, c2, point.divisor, depth, budget)
                assert chase(form, c2, point, depth, budget) == expect
                runs += bool(expect.edges)
    assert runs > 20


def test_chase_respects_budget_and_depth():
    trace = chase(DIAG4, LinearClass((0, 0, 0, 1)), (1, 1, 1, 0), depth=1, budget=2)
    # with a tiny budget the walk is still sound, just possibly witness-free
    for edge in trace.edges:
        assert DIAG4.cube(edge.target) == 0
    if trace.witness is not None:
        assert LinearClass((0, 0, 0, 1)).pair(trace.witness) != 0


def test_chase_errors():
    c2 = LinearClass((0, 0, 0, 1))
    with pytest.raises(ValueError, match="not on the cubic"):
        chase(DIAG4, c2, (1, 0, 0, 0))
    with pytest.raises(ValueError, match="nonzero"):
        chase(DIAG4, c2, (0, 0, 0, 0))
    with pytest.raises(ValueError, match="positive"):
        chase(DIAG4, c2, (1, 1, 1, 0), depth=0)
    with pytest.raises(ValueError, match="positive"):
        chase(DIAG4, c2, (1, 1, 1, 0), budget=0)


# ---------------------------------------------------------------------------
# is_singular_at


def test_is_singular_at():
    assert is_singular_at(NODAL, (0, 0, 1)) is True
    assert is_singular_at(DIAG3, (1, 1, 1)) is False
    with pytest.raises(ValueError, match="not on the cubic"):
        is_singular_at(DIAG3, (1, 0, 0))
    with pytest.raises(ValueError, match="nonzero"):
        is_singular_at(DIAG3, (0, 0, 0))


# ---------------------------------------------------------------------------
# inflection_test


def test_inflection_flex_point():
    is_flex, g = inflection_test(DIAG3, (-1, 1, 0))
    assert is_flex is True
    assert DIAG3.triple((-1, 1, 0), g, g) == 0
    # g really spans the tangent line: T(e, e, g) = 0
    assert DIAG3.triple((-1, 1, 0), (-1, 1, 0), g) == 0


def test_inflection_non_flex_point():
    is_flex, g = inflection_test(DIAG3, (1, 1, 1))
    assert is_flex is False
    assert DIAG3.triple((1, 1, 1), g, g) != 0
    assert DIAG3.triple((1, 1, 1), (1, 1, 1), g) == 0


def test_inflection_matches_hessian():
    for pt in [(1, 1, 1), (-1, 1, 0), (0, 2, 1), (2, 0, 1)]:
        if DIAG3.cube(pt) != 0:
            continue
        is_flex, _ = inflection_test(DIAG3, pt)
        assert is_flex == (hessian_det(DIAG3, pt) == 0)


def test_inflection_g_spans_the_tangent_line():
    # g spans the tangent line ker T(e, e, -) with e, so (d, e, g) has rank 3
    # exactly when d is off that line: T(e, e, d) != 0
    _, g = inflection_test(DIAG3, (-1, 1, 0))
    rows = [[Fraction(c) for c in (1, 1, 1)],
            [Fraction(c) for c in (-1, 1, 0)],
            [Fraction(c) for c in divisor_coords(g)]]
    assert len(echelon(rows)[1]) == 3
    rng = random.Random(25)
    for _ in range(50):
        form, e = plant_null_form(rng, 3, 4)
        g = divisor_coords(inflection_test(form, e)[1])
        on_line = tuple(u + v for u, v in zip(e, g))
        for d in (nonzero_vector(rng, 3, 3), on_line):
            independent = len(echelon([list(d), list(e), list(g)])[1]) == 3
            assert independent == (form.triple(e, e, d) != 0)


def test_inflection_errors():
    with pytest.raises(ValueError, match="rank 3"):
        inflection_test(DIAG4, (1, 1, 1, 0))
    with pytest.raises(ValueError, match="not on the cubic"):
        inflection_test(DIAG3, (1, 0, 0))
    with pytest.raises(ValueError, match="singular"):
        inflection_test(NODAL, (0, 0, 1))
    with pytest.raises(ValueError, match="nonzero"):
        inflection_test(DIAG3, (0, 0, 0))


# ---------------------------------------------------------------------------
# ternary_singular_point: each decision path


def test_singular_point_found_nodal():
    got = ternary_singular_point(NODAL)
    assert isinstance(got, Divisor)
    assert canon(got) == (0, 0, 1)


def test_singular_point_conic_pair():
    # 2(x0^3 + x1^3 + x2^3 - 3 x0 x1 x2): gradient quadrics are three
    # distinct irreducible conics meeting at the singular point (1,1,1)
    form = IntersectionForm(3, {(0, 0, 0): 2, (1, 1, 1): 2, (2, 2, 2): 2, (0, 1, 2): -1})
    got = ternary_singular_point(form)
    assert canon(got) == (1, 1, 1)
    assert is_singular_at(form, got)


def test_singular_point_from_a_point_description():
    # 3 x0 (x1^2 - 2 x2^2): the gradient quadric x1^2 - 2 x2^2 is irreducible
    # of rank 2, so its only rational zero is its radical point (1, 0, 0)
    form = IntersectionForm(3, {(0, 1, 1): 1, (0, 2, 2): -2})
    got = ternary_singular_point(form)
    assert canon(got) == (1, 0, 0)
    assert is_singular_at(form, got)


def test_singular_point_on_a_whole_singular_line():
    # 6 l^2 m with l = x0 - 2 x1 + x2: every gradient quadric vanishes on the
    # whole line l = 0, and the search returns its first point
    x0, x1, x2 = (Poly.variable(3, i) for i in range(3))
    l = x0 - 2 * x1 + x2
    form = form_of_cubic(l * l * (x1 + 3 * x2))
    got = ternary_singular_point(form)
    assert canon(got) == (1, 0, -1)
    for point in [got, (1, 1, 1), (0, 1, 2)]:
        assert is_singular_at(form, point)


def test_singular_point_none_by_anisotropy():
    # d/dx2 of 3 x2 (x0^2 + x1^2 - x2^2) is x0^2 + x1^2 - 3 x2^2, which has
    # no rational zeros: the singular locus is decided empty immediately
    form = IntersectionForm(3, {(0, 0, 2): 1, (1, 1, 2): 1, (2, 2, 2): -3})
    assert ternary_singular_point(form) is None


def test_singular_point_none_on_smooth_diagonal():
    assert ternary_singular_point(DIAG3) is None


def test_singular_point_errors():
    with pytest.raises(ValueError, match="rank 3"):
        ternary_singular_point(DIAG4)
    with pytest.raises(ValueError, match="identically zero"):
        ternary_singular_point(IntersectionForm(3, {}))


def test_singular_point_agrees_with_is_singular_scan():
    # a scan of the points of height <= 3 double-checks the contract: the
    # least singular point by enum_key, or None when there is none
    forms = [NODAL, DIAG3,
             IntersectionForm(3, {(0, 0, 2): 1, (1, 1, 2): 1, (2, 2, 2): -3})]
    forms += seeded_ternary_cubics(random.Random(514), 5)
    for form in forms:
        got = ternary_singular_point(form)
        brute = [
            v for v in iter_primitive_vectors(3, max_height=3)
            if form.cube(v) == 0 and form.square_class(v).is_zero
        ]
        if brute:
            assert canon(got) == canonical_vector(min(brute, key=enum_key))
        elif got is not None:
            assert height(canon(got)) > 3 and is_singular_at(form, got)
