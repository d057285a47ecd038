"""Byte-identity pins: digests of outputs that refactors must not change.

Each test renders a seeded set of results and compares one SHA-256 with the
value recorded when the pin was added.  A failing pin means the library's
output changed; if the change is intended, the new digest goes in with it.
"""

import contextlib
import hashlib
import io
import itertools
import json
import random
from importlib import resources

from nullcone.certify import Options, certify
from nullcone.cli import fixture_names, main, render_json
from nullcone.cubicchase import chase, residual_on_tangent, ternary_singular_point
from nullcone.cubicfactor import factor_over_Q, factor_quadratic_form
from nullcone.exactmath import Poly, canonical_vector, iter_primitive_vectors
from nullcone.quadpoints import is_isotropic, isotropic_vector

from helpers import (
    SECTION_DECOY_CUBIC,
    annihilator_c2,
    plant_null_form,
    plant_reducible_form,
    plant_sparse_form,
    random_linear_poly,
    random_quadric_poly,
    seeded_quadric_forms,
    seeded_rank5_forms,
    seeded_ternary_cubics,
)

PLANTED_CERTIFICATES_SHA256 = "2a945233b3a05a240d84cede099f6a5bc1949fb8e1b1dd4ccc7f4a314aada11e"
FACTOR_RESULTS_SHA256 = "bd9cbaa43353345e2d811c9be900d1d08d288b292517111f9ecb5651619ef770"
REDUCIBLE_CERTIFICATES_SHA256 = "edfafbac45f5a7be3882f03efcf23960d0acdaa591e29a7e486ef2e75233022c"
QUADRIC_LAYER_SHA256 = "75564ba6253315876bd7eaa71280e312b768b51994404d4c139c05728e0c9efa"
QUADRIC_LAYER_RANK5_SHA256 = "fdb3ba5636c3ce42bcdf1ca7e2a56c2f80202778153d6f042929ae3c9bf46d9e"
TERNARY_SINGULAR_POINTS_SHA256 = "04df0ba077d361f726f1df5405dc464ea22ecf97dfc6d99d7d39249e7d5353be"
CHASE_TRACES_SHA256 = "24cbe35f5af22cd15d5b07102352d5cc8e0acee3c8a3dc008374bdbc0cf208ea"
RANK3_CERTIFICATES_SHA256 = "d5a1cf0c5179e26bbc32be6c934661ac3723bf87208e280826e79dbc2fb3b81f"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_planted_certificates_pinned():
    # three planted null forms per rank 5..10, c2 . D = 0, so each one goes
    # through the factorization, the square class and the tangent chase
    rng = random.Random(510)
    rendered = []
    for n in range(5, 11):
        for _ in range(3):
            form, d = plant_null_form(rng, n, 4)
            c2 = annihilator_c2(rng, d, form.square_class(d).coords)
            rendered.append(render_json(certify(form, c2, d)))
    assert _sha256("".join(rendered)) == PLANTED_CERTIFICATES_SHA256


def test_reducible_certificates_pinned():
    # three cubics 6 L Q per rank 5..8, c2 . D = 0, so each one goes through
    # the factorization, the isotropic vector of Q and the secant sampling
    rng = random.Random(511)
    rendered = []
    for n in range(5, 9):
        for _ in range(3):
            form, d = plant_reducible_form(rng, n)
            c2 = annihilator_c2(rng, d, form.square_class(d).coords)
            cert = certify(form, c2, d)
            assert cert.rule == "thm_main_reducible"
            rendered.append(render_json(cert))
    assert _sha256("".join(rendered)) == REDUCIBLE_CERTIFICATES_SHA256


def test_factor_results_pinned():
    # the first products of criterion 01's generator, then a pure-cube-free
    # product (shear path), a linear form times an irreducible quadric with
    # no pure cube, and a cubic where a section-consistent candidate fails
    rng = random.Random(101)
    cubics = []
    for _ in range(8):
        n = rng.randint(3, 8)
        cubics.append(random_linear_poly(rng, n, 9) * random_quadric_poly(rng, n, 9))
    for _ in range(4):
        n = rng.randint(3, 8)
        cubics.append(
            random_linear_poly(rng, n, 9)
            * random_linear_poly(rng, n, 9)
            * random_linear_poly(rng, n, 9)
        )
    x0, x1, x2 = (Poly.variable(3, i) for i in range(3))
    cubics += [
        6 * x0 * x1 * x2,
        x0 * (x1 * x1 + x1 * x2 + 2 * x2 * x2),
        SECTION_DECOY_CUBIC,
    ]
    rows = []
    for f in cubics:
        for seed in range(3):
            r = factor_over_Q(f, seed)
            gram = None if r.quadric is None else [[str(c) for c in row] for row in r.quadric.gram]
            rows.append([r.kind.value, str(r.scalar), [list(l) for l in r.linears], gram])
    assert _sha256(json.dumps(rows)) == FACTOR_RESULTS_SHA256


def _verdict_row(v):
    return [v.kind.value, v.witness, str(v.obstruction), [list(b) for b in v.radical_basis]]


def test_quadric_layer_pinned():
    # integral forms, forms with denominators 2 and 3, half-integral forms
    # and degenerate forms of rank 1-3, in 2-6 variables: the verdicts,
    # witnesses, obstructions, radical bases and quadric splits
    rows = []
    for q in seeded_quadric_forms(random.Random(512), 300):
        split = factor_quadratic_form(q)
        rows.append([
            _verdict_row(isotropic_vector(q)),
            _verdict_row(is_isotropic(q)),
            None if split is None else [list(split[0]), list(split[1]), str(split[2])],
        ])
    assert _sha256(json.dumps(rows)) == QUADRIC_LAYER_SHA256


def test_quadric_layer_rank5_pinned():
    # nondegenerate forms in 5-8 variables: integral, with denominators 2 and
    # 3, definite, and with a hyperbolic pair planted under a unimodular
    # change of basis; the verdicts, witnesses and obstructions
    rows = [
        [_verdict_row(isotropic_vector(q)), _verdict_row(is_isotropic(q))]
        for q in seeded_rank5_forms(random.Random(513), 100)
    ]
    assert _sha256(json.dumps(rows)) == QUADRIC_LAYER_RANK5_SHA256


def test_ternary_singular_points_pinned():
    # random rank-3 forms, forms singular at (0, 0, 1) in a moved basis, the
    # products l q, l1 l2 l3, l^2 m and l^3, and the Hesse pencil: every
    # factorization kind occurs, and the irreducible cubics reach both the
    # kernel read-off and the trace point
    rows = []
    for form in seeded_ternary_cubics(random.Random(514), 20):
        point = ternary_singular_point(form)
        rows.append(None if point is None else [str(c) for c in point.coords])
    assert _sha256(json.dumps(rows)) == TERNARY_SINGULAR_POINTS_SHA256


def test_rank3_certificates_pinned():
    # every seeded ternary cubic with a rational singular point P, at the
    # first residual D through P with nu(D) = 2, then planted rank-3 null
    # forms; each at the default budget and at budget 1, so the certificates
    # cover the singular-point walk (witness and budget exhaustion), the
    # smooth tangent step (witness and inflection) and reducible cubics
    rng = random.Random(2323)
    cases = []
    for form in seeded_ternary_cubics(rng, 12):
        p = ternary_singular_point(form)
        if p is None:
            continue
        p_key = canonical_vector(p.coords)
        for x in itertools.islice(iter_primitive_vectors(3), 50):
            e = None if x == p_key else residual_on_tangent(form, p, x)
            if e is None or canonical_vector(e.coords) == p_key:
                continue
            if form.numerical_dimension(e) == 2:
                cases.append((form, annihilator_c2(rng, e.coords, form.square_class(e).coords), e))
                break
    for _ in range(40):
        form, d = plant_null_form(rng, 3, 4)
        cases.append((form, annihilator_c2(rng, d, form.square_class(d).coords), d))
    rendered = [
        render_json(certify(form, c2, d, options=options))
        for form, c2, d in cases
        for options in (Options(), Options(budget=1))
    ]
    assert len(rendered) == 160
    assert _sha256("".join(rendered)) == RANK3_CERTIFICATES_SHA256


def _coords(divisor):
    return [str(c) for c in divisor.coords]


def test_chase_traces_pinned():
    # two planted null forms per rank 4..10 and two rank-300 sparse forms
    # (the first a budget stall, every direction at D on a line of the
    # cubic), chased at three (depth, budget) settings; then the `chase`
    # subcommand on every fixture at the defaults and at depth 5, budget 40
    rng = random.Random(515)
    cases = []
    for n in range(4, 11):
        for _ in range(2):
            form, d = plant_null_form(rng, n, 4)
            cases.append((form, annihilator_c2(rng, d, form.square_class(d).coords), d))
    for seed in (1, 300_000):
        sparse = random.Random(seed)
        form, d = plant_sparse_form(sparse, 300)
        cases.append((form, annihilator_c2(sparse, d, form.square_class(d).coords), d))
    rows = []
    for form, c2, d in cases:
        for depth, budget in ((3, 500), (5, 40), (2, 7)):
            trace = chase(form, c2, d, depth, budget)
            rows.append([
                [_coords(p) for p in trace.visited],
                [[_coords(e.source), _coords(e.direction), _coords(e.target)] for e in trace.edges],
                [[kind.value, _coords(p)] for kind, p in trace.degeneracies],
                None if trace.witness is None else _coords(trace.witness),
            ])
    for name in sorted(fixture_names()):
        path = str(resources.files("nullcone").joinpath("fixtures", f"{name}.json"))
        for extra in ([], ["--depth", "5", "--budget", "40"]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(["chase", "--input", path, "--divisor", "D", *extra])
            rows.append([name, extra, code, out.getvalue(), err.getvalue()])
    assert _sha256(json.dumps(rows)) == CHASE_TRACES_SHA256
