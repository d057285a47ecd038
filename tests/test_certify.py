"""Certificate pipeline: rule selection, witnesses, replayable traces."""

from dataclasses import replace
import json
from fractions import Fraction
import random
import sys
import time

import pytest

from nullcone.certify import (
    CAVEAT_ASSUMED,
    CAVEAT_QFACTOR,
    RULE_B2_DOUBLE,
    RULE_B2_NULL,
    RULE_B3,
    RULE_B4,
    RULE_C2_NONZERO,
    RULE_C2_NU1,
    RULE_MAIN_IRREDUCIBLE,
    RULE_MAIN_REDUCIBLE,
    RULE_NEFPSEF,
    RULE_NONE,
    Assumptions,
    Check,
    Conclusion,
    Options,
    certify,
    replay,
    replay_check,
)
from nullcone.cli import fixture_names, load_fixture, load_fixture_certificate, parse_input, render_json
from nullcone.cubicchase import Degeneracy, _tangent_section_is_cone, chase
from nullcone import cubicfactor, exactmath, quadpoints
from nullcone.cubicfactor import expand_cubic
from nullcone.exactmath import Poly, canonical_vector, is_probable_prime, rational_roots, unit_keys
from nullcone.nsring import Divisor, IntersectionForm, LinearClass, Point
from nullcone.quadpoints import QuadraticForm

from helpers import (
    annihilator_c2,
    divisor_coords,
    form_of_cubic,
    plant_nu1_fixture,
    plant_null_form,
    plant_reducible_form,
    plant_sparse_form,
    random_form,
)

EXPECTED = {
    "nefpsef_cube_positive": (Conclusion.CERTIFIED, RULE_NEFPSEF),
    "nu1_c2_zero": (Conclusion.CERTIFIED, RULE_C2_NU1),
    "c2_nonzero": (Conclusion.CERTIFIED, RULE_C2_NONZERO),
    "b4_diagonal_irreducible": (Conclusion.CERTIFIED, RULE_B4),
    "b5_diagonal_irreducible": (Conclusion.CERTIFIED, RULE_MAIN_IRREDUCIBLE),
    "b5_split_isotropic": (Conclusion.CERTIFIED, RULE_MAIN_REDUCIBLE),
    "b3_smooth_tangent": (Conclusion.CERTIFIED, RULE_B3),
    "b3_singular_section": (Conclusion.CERTIFIED, RULE_B3),
    "b3_flex_obstruction": (Conclusion.INCONCLUSIVE, RULE_NONE),
    "b2_2_null_rational": (Conclusion.CERTIFIED, RULE_B2_NULL),
    "b2_2_double_root": (Conclusion.CERTIFIED, RULE_B2_DOUBLE),
    "b2_2_nonsquare": (Conclusion.INCONCLUSIVE, RULE_NONE),
    "inconsistent_three_linear": (Conclusion.INPUT_INCONSISTENT, RULE_NONE),
    "inconsistent_nu_zero": (Conclusion.INPUT_INCONSISTENT, RULE_NONE),
    "b4_split_inconclusive": (Conclusion.INCONCLUSIVE, RULE_NONE),
}


def run_fixture(name):
    parsed = parse_input(load_fixture(name))
    cert = certify(
        parsed.form,
        parsed.c2,
        parsed.divisors["D"],
        None,
        assumptions=parsed.assumptions,
        options=Options(),
    )
    return parsed, cert


def canon(divisor):
    return canonical_vector(divisor_coords(divisor))


def test_fixture_table_is_complete():
    assert sorted(EXPECTED) == fixture_names()


@pytest.mark.parametrize("name", sorted(EXPECTED))
def test_fixture_conclusion_rule_and_replay(name):
    parsed, cert = run_fixture(name)
    conclusion, rule = EXPECTED[name]
    assert cert.conclusion is conclusion
    assert cert.rule == rule
    assert replay(parsed.form, parsed.c2, cert) is True
    assert "D" in cert.witnesses
    assert CAVEAT_ASSUMED in cert.caveats
    if cert.conclusion is Conclusion.CERTIFIED and rule not in (
        RULE_NEFPSEF,
        RULE_C2_NU1,
        RULE_C2_NONZERO,
        RULE_B2_DOUBLE,
    ):
        assert "E" in cert.witnesses


def test_pinned_witnesses():
    _, cert = run_fixture("b4_diagonal_irreducible")
    assert canon(cert.witnesses["E"]) == canonical_vector((-1, 3, 1, -2))
    _, cert5 = run_fixture("b5_diagonal_irreducible")
    assert canon(cert5.witnesses["E"]) == canonical_vector((-1, 3, 1, -2, 0))
    _, certs = run_fixture("b5_split_isotropic")
    assert canon(certs.witnesses["E"]) == canonical_vector((1, 0, 2, 2, 3))
    _, certd = run_fixture("b2_2_double_root")
    assert canon(certd.witnesses["Dprime"]) == canonical_vector((-1, 1))


def test_witness_identities_hold_on_certified_fixtures():
    for name, (conclusion, _) in EXPECTED.items():
        if conclusion is not Conclusion.CERTIFIED:
            continue
        parsed, cert = run_fixture(name)
        form, c2 = parsed.form, parsed.c2
        if "E" in cert.witnesses and cert.rule != RULE_C2_NU1:
            e = cert.witnesses["E"]
            assert form.cube(e) == 0
            # rules whose witness is a null class with nonzero c2 pairing
            if cert.rule in (RULE_B4, RULE_MAIN_IRREDUCIBLE,
                             RULE_MAIN_REDUCIBLE, RULE_B2_NULL):
                assert c2.pair(e) != 0
        if cert.rule == RULE_B3 and "F" in cert.witnesses:
            # smooth rank-3 path: E is a non-inflection residual of the
            # tangent line at D, attested by T(E,F,F) != 0
            e, f = cert.witnesses["E"], cert.witnesses["F"]
            d = cert.witnesses["D"]
            assert form.triple(d, d, e) == 0
            assert form.triple(e, f, f) != 0
        if "Dprime" in cert.witnesses:
            dp = cert.witnesses["Dprime"]
            assert form.numerical_dimension(dp) == 1


def test_qfactor_caveat_marks_irreducibility_uses():
    for name in ("b4_diagonal_irreducible", "b5_diagonal_irreducible",
                 "b3_smooth_tangent"):
        _, cert = run_fixture(name)
        assert CAVEAT_QFACTOR in cert.caveats
    for name in ("nefpsef_cube_positive", "b5_split_isotropic",
                 "b2_2_null_rational"):
        _, cert = run_fixture(name)
        assert CAVEAT_QFACTOR not in cert.caveats


# ---------------------------------------------------------------------------
# precedence of the early rules


def test_nonzero_cube_wins_regardless_of_sign_and_rest():
    form = IntersectionForm.diagonal([-1, 1])
    cert = certify(form, LinearClass((5, 5)), (1, 0))
    assert cert.conclusion is Conclusion.CERTIFIED
    assert cert.rule == RULE_NEFPSEF
    assert [c.label for c in cert.trace] == ["cube(D)"]
    assert cert.trace[0].value == -1


def test_nu_zero_beats_c2_rule():
    form = IntersectionForm(2, {(0, 0, 0): 1})
    cert = certify(form, LinearClass((1, 1)), (0, 1))
    assert cert.conclusion is Conclusion.INPUT_INCONSISTENT
    assert cert.rule == RULE_NONE
    assert any("numerically trivial" in w for w in cert.warnings)


def test_nu_one_beats_c2_nonzero():
    form = IntersectionForm(2, {(0, 1, 1): 1})
    cert = certify(form, LinearClass((0, 7)), (1, 0))
    assert form.numerical_dimension((1, 0)) == 1
    assert LinearClass((0, 7)).pair((1, 0)) == 0
    cert2 = certify(form, LinearClass((7, 0)), (1, 0))
    assert cert.rule == RULE_C2_NU1
    assert cert2.rule == RULE_C2_NU1  # nu = 1 fires before the c2 test


def test_rank1_zero_cube_is_inconsistent():
    # at rank 1, cube(D) = d_000 D^3: it decides unless d_000 = 0, and then
    # T(D, -, -) = 0 too, so nu(D) = 0 ends the pipeline before any rule
    for value in (0, 1, -1, 3, -3):
        form = IntersectionForm(1, {(0, 0, 0): value} if value else {})
        for d in ((1,), (-2,), (Fraction(1, 2),)):
            cert = certify(form, LinearClass((1,)), d)
            labels = [c.label for c in cert.trace]
            if value:
                assert (cert.conclusion, cert.rule) == (Conclusion.CERTIFIED, RULE_NEFPSEF)
                assert labels == ["cube(D)"]
            else:
                assert cert.conclusion is Conclusion.INPUT_INCONSISTENT
                assert cert.rule == RULE_NONE and labels == ["cube(D)", "nu(D)"]
                assert any("numerically trivial" in w for w in cert.warnings)
            assert replay(form, LinearClass((1,)), cert)


# ---------------------------------------------------------------------------
# replay and tampering


def test_replay_detects_tampering():
    parsed, cert = run_fixture("b4_diagonal_irreducible")
    assert replay(parsed.form, parsed.c2, cert) is True
    original = cert.trace[0]
    cert.trace[0] = replace(original, value=original.value + 1)
    assert replay(parsed.form, parsed.c2, cert) is False
    cert.trace[0] = original
    assert replay(parsed.form, parsed.c2, cert) is True


def test_replay_check_each_op():
    for name in sorted(EXPECTED):
        parsed, cert = run_fixture(name)
        for chk in cert.trace:
            assert replay_check(parsed.form, parsed.c2, chk) == chk.value


def test_replay_check_unknown_op():
    form = IntersectionForm.diagonal([1, 1])
    with pytest.raises(ValueError, match="unknown check op"):
        replay_check(form, LinearClass((1, 1)),
                     Check("x", "nosuch", Fraction(0), ()))


# ---------------------------------------------------------------------------
# warnings, assumptions, options


def test_warnings_flow_from_input_validation():
    parsed, cert = run_fixture("b2_2_double_root")  # c2 = (0, 0)
    assert any("Calabi-Yau" in w for w in cert.warnings)


def test_ample_divisor_warning_appears():
    form = IntersectionForm.diagonal([1, 1, -2, 3])
    c2 = LinearClass((0, 0, 0, 1))
    cert = certify(form, c2, (1, 1, 1, 0), h=(0, 0, 1, 0))
    assert any("Miyaoka strictness" in w for w in cert.warnings)
    assert "H" in cert.witnesses


def test_assumptions_recorded():
    form = IntersectionForm.diagonal([1, 1, -2, 3])
    asm = Assumptions(d_is_nef_nonample=False, h_is_ample=True, x_is_calabi_yau=True)
    cert = certify(form, LinearClass((0, 0, 0, 1)), (1, 1, 1, 0), assumptions=asm)
    assert cert.assumptions == asm


def test_options_seed_does_not_change_outcome():
    parsed = parse_input(load_fixture("b4_diagonal_irreducible"))
    certs = [
        certify(parsed.form, parsed.c2, parsed.divisors["D"],
                options=Options(seed=s))
        for s in (0, 1, 5)
    ]
    for cert in certs:
        assert cert.rule == RULE_B4
        assert canon(cert.witnesses["E"]) == canon(certs[0].witnesses["E"])
        assert replay(parsed.form, parsed.c2, cert) is True


def test_options_budget_starves_chase_but_not_rule():
    parsed = parse_input(load_fixture("b4_diagonal_irreducible"))
    cert = certify(parsed.form, parsed.c2, parsed.divisors["D"],
                   options=Options(depth=1, budget=1))
    assert cert.conclusion is Conclusion.CERTIFIED
    assert cert.rule == RULE_B4  # irreducibility alone certifies; E is a bonus


def test_certify_is_deterministic():
    parsed, cert1 = run_fixture("b5_split_isotropic")
    _, cert2 = run_fixture("b5_split_isotropic")
    assert cert1 == cert2


# ---------------------------------------------------------------------------
# input errors and invariances


def test_zero_divisor_rejected():
    form = IntersectionForm.diagonal([1, 1])
    with pytest.raises(ValueError, match="divisor is zero"):
        certify(form, LinearClass((1, 1)), (0, 0))


def test_rank_mismatch_rejected():
    form = IntersectionForm.diagonal([1, 1])
    with pytest.raises(ValueError, match="coordinates"):
        certify(form, LinearClass((1, 1)), (1, 0, 0))


def test_scaling_the_divisor_keeps_the_verdict():
    for name in ("b4_diagonal_irreducible", "b2_2_null_rational",
                 "b2_2_double_root", "b3_smooth_tangent"):
        parsed, cert = run_fixture(name)
        d = parsed.divisors["D"]
        scaled = Divisor(tuple(3 * c for c in d.coords), "D")
        cert3 = certify(parsed.form, parsed.c2, scaled,
                        assumptions=parsed.assumptions)
        assert cert3.conclusion is cert.conclusion
        assert cert3.rule == cert.rule


def test_cube_and_nu_of_d_match_the_ring():
    # the pipeline reads cube(D) as s . x / den^3 and nu(D) from the same
    # s = T(x, x, -); both equal the ring's own evaluations, of the same type,
    # for D with fractional coordinates, cube(D) != 0 and nu = 0, 1 and 2
    rng = random.Random(19)
    cases = []
    for n in (2, 3, 4, 5):
        for _ in range(4):
            d = tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(n - 1))
            cases.append((random_form(rng, n, 5), d + (Fraction(1, 3),)))
            form, d = plant_null_form(rng, n, 4)
            cases.append((form, tuple(Fraction(x, 6) for x in d)))
        form, d, _ = plant_nu1_fixture(rng, n, 4)
        cases.append((form, tuple(Fraction(2 * x, 3) for x in d)))
        # a form on the first n - 1 coordinates: the last unit vector is in
        # its radical
        entries = random_form(rng, n - 1, 5).entries if n > 2 else {(0, 0, 0): 1}
        cases.append((IntersectionForm(n, entries), (0,) * (n - 1) + (Fraction(5, 7),)))
    for name in ("inconsistent_nu_zero", "nu1_c2_zero"):
        parsed = parse_input(load_fixture(name))
        cases.append((parsed.form, parsed.divisors["D"].coords))
    cubes, nus = set(), set()
    for form, d in cases:
        c2 = LinearClass([rng.randint(-3, 3) for _ in range(form.rank)])
        checks = {chk.label: chk.value for chk in certify(form, c2, d).trace}
        cube = form.cube(d)
        assert checks["cube(D)"] == cube and type(checks["cube(D)"]) is type(cube)
        cubes.add(cube != 0)
        if "nu(D)" in checks:
            nu = form.numerical_dimension(d)
            assert checks["nu(D)"] == nu and type(checks["nu(D)"]) is int
            nus.add(nu)
    assert cubes == {True, False} and nus == {0, 1, 2}


def test_witness_divisors_carry_names():
    _, cert = run_fixture("b4_diagonal_irreducible")
    assert cert.witnesses["D"].name == "D"


# ---------------------------------------------------------------------------
# latency


def test_rank20_planted_null_form_certifies_under_a_second():
    rng = random.Random(20)
    form, d = plant_null_form(rng, 20, 4)
    c2 = annihilator_c2(rng, d, form.square_class(d).coords)
    start = time.perf_counter()
    cert = certify(form, c2, d)
    elapsed = time.perf_counter() - start
    assert cert.rule == RULE_MAIN_IRREDUCIBLE
    assert replay(form, c2, cert)
    assert elapsed < 1.0, f"rank-20 certify took {elapsed:.2f} s"


def test_certify_and_replay_decode_no_monomial_keys(monkeypatch):
    # every cubic below has a pure power x_p^3, so the factor search runs on
    # the packed monomial keys alone: the tuple view Poly.terms is never
    # built (only the shear path, for a cubic with no pure power, decodes)
    rng = random.Random(16)
    cases = []
    for n in (4, 5, 6, 7):
        for form, d in (plant_reducible_form(rng, n), plant_null_form(rng, n, 4)):
            cases.append((form, annihilator_c2(rng, d, form.square_class(d).coords), d))
    big = random.Random(1_000_000)
    form, d = plant_sparse_form(big, 1000)
    # c2 = sum_j r_j (d_j e_0 - e_j) with d_0 = 1 annihilates d, built in O(rank)
    r = [big.randint(-1, 1) for _ in d[1:]]
    cases.append((form, LinearClass([sum(map(int.__mul__, r, d[1:]))] + [-x for x in r]), d))
    for form, _, _ in cases:
        cubic = expand_cubic(form)
        assert any(3 * u in cubic.packed for u in unit_keys(form.rank))

    def no_terms(self):
        raise AssertionError("Poly.terms decoded on a hot path")

    monkeypatch.setattr(Poly, "terms", property(no_terms))
    rules = set()
    for form, c2, d in cases:
        cert = certify(form, c2, d)
        assert replay(form, c2, cert)
        rules.add(cert.rule)
    assert {RULE_MAIN_REDUCIBLE, RULE_MAIN_IRREDUCIBLE} <= rules


def test_planted_reducible_factor_search_stays_on_the_tangent_hyperplane(monkeypatch):
    # a simple root of the anchor line is decided by the tangent hyperplane
    # there, so the coordinate-line search runs only at a multiple root, and
    # on a planted 6 L Q cubic that is rare
    sections = []
    real_sections = cubicfactor._coordinate_sections

    def spy(f, p, a, d):
        anchor = []
        for k in range(d + 1):
            e = [0] * f.nvars
            e[p], e[a] = d - k, k
            anchor.append(f.coeff(tuple(e)))
        roots = rational_roots(anchor)
        assert len(set(roots)) < len(roots), "section search at a simple anchor root"
        sections.append(f)
        return real_sections(f, p, a, d)

    monkeypatch.setattr(cubicfactor, "_coordinate_sections", spy)
    rng = random.Random(17)
    searched = total = 0
    for n in (4, 5, 6, 7, 8):
        for _ in range(20):
            form, d = plant_reducible_form(rng, n)
            c2 = annihilator_c2(rng, d, form.square_class(d).coords)
            before = len(sections)
            cert = certify(form, c2, d)
            assert replay(form, c2, cert)
            # rank 4 takes the rank-4 criterion, which needs an irreducible cubic
            assert cert.rule == (RULE_MAIN_REDUCIBLE if n >= 5 else RULE_NONE)
            searched += len(sections) > before
            total += 1
    assert searched < 0.05 * total, f"section search on {searched} of {total} inputs"


def test_cubic_is_expanded_only_when_a_candidate_factor_survives(monkeypatch):
    # an irreducible cubic is decided on the intersection table (no root on
    # the anchor line, or a refutation point off each tangent hyperplane);
    # a split one is expanded once per factorization, in certify and in
    # replay alike
    expansions = []
    real_expand = cubicfactor.expand_cubic

    def counted(form):
        expansions.append(form)
        return real_expand(form)

    monkeypatch.setattr(cubicfactor, "expand_cubic", counted)

    def run(name_or_case):
        if isinstance(name_or_case, str):
            parsed = parse_input(load_fixture(name_or_case))
            name_or_case = (parsed.form, parsed.c2, parsed.divisors["D"])
        form, c2, d = name_or_case
        cert = certify(form, c2, d)
        assert replay(form, c2, cert)
        # certify and replay each factor once per recorded factor_kind check
        factorizations = 2 * sum(chk.op == "factor_kind" for chk in cert.trace)
        assert factorizations
        return factorizations

    rng = random.Random(40)
    form, d = plant_null_form(rng, 40, 4)
    dense = (form, annihilator_c2(rng, d, form.square_class(d).coords), d)
    for case in ("b4_diagonal_irreducible", "b5_diagonal_irreducible", dense):
        run(case)
    assert expansions == []
    factorizations = run("b5_split_isotropic")
    assert len(expansions) == factorizations


def test_semiprime_pure_powers_factor_only_the_anchor_line(monkeypatch):
    # four pure-power coefficients p q with 30-bit primes, and d_011 putting
    # D = (1, -1, 0, 0) on the cubic: the anchor line's root -1 is simple, so
    # only the anchor line's two end coefficients are factored, once in
    # certify and once in replay
    primes = [m for m in range((1 << 30) + 1, (1 << 30) + 2000, 2) if is_probable_prime(m)]
    pure = [primes[2 * i] * primes[2 * i + 1] for i in range(4)]
    # cube(D) = d_000 - d_111 + 3 d_011, so d_111 = d_000 mod 3
    pure[1] = next(primes[2] * q for q in primes[3:] if (primes[2] * q - pure[0]) % 3 == 0)
    entries = {(i, i, i): v for i, v in enumerate(pure)}
    entries[(0, 1, 1)] = (pure[1] - pure[0]) // 3
    form = IntersectionForm(4, entries)
    c2, d = LinearClass((1, 1, 0, 0)), (1, -1, 0, 0)
    calls = []
    real_factorint = exactmath.factorint

    def counted(n):
        calls.append(n)
        return real_factorint(n)

    monkeypatch.setattr(exactmath, "factorint", counted)
    monkeypatch.setattr(quadpoints, "factorint", counted)
    cert = certify(form, c2, d)
    assert cert.rule == RULE_B4
    assert replay(form, c2, cert)
    assert len(calls) <= 4, f"factorint called {len(calls)} times"


def test_certify_makes_one_tangent_pass_at_d(monkeypatch):
    # cube(D), nu(D) and the tangent walk at D read one T(D, D, -) pass, and a
    # witness E from the chase keeps the cube its null-cone check computed:
    # at rank >= 5 the full trilinear pass runs once, on E
    rng = random.Random(18)
    cases = []
    for n in range(5, 11):
        for _ in range(3):
            form, d = plant_null_form(rng, n, 4)
            cases.append((form, annihilator_c2(rng, d, form.square_class(d).coords), d))
    for name in ("b4_diagonal_irreducible", "b3_smooth_tangent"):
        parsed = parse_input(load_fixture(name))
        cases.append((parsed.form, parsed.c2, parsed.divisors["D"]))
    squares, triples = [], []
    real_square, real_triple = IntersectionForm._square, IntersectionForm.triple

    def square(self, x):
        squares.append(x)
        return real_square(self, x)

    def triple(self, a, b, c):
        triples.append((a, b, c))
        return real_triple(self, a, b, c)

    monkeypatch.setattr(IntersectionForm, "_square", square)
    monkeypatch.setattr(IntersectionForm, "triple", triple)
    chased = 0
    for form, c2, d in cases:
        x, _ = form._scaled(d)
        squares.clear()
        triples.clear()
        cert = certify(form, c2, d)
        assert squares.count(x) == 1
        if form.rank >= 5:
            assert cert.rule == RULE_MAIN_IRREDUCIBLE and "E" in cert.witnesses
            assert len(triples) == 1
            chased += 1
        assert replay(form, c2, cert)
    assert chased == 18


def test_rank3_smooth_path_makes_two_triple_calls(monkeypatch):
    # cube(E) comes from the residual's null-cone check, T(D, D, E) from D's
    # tangent data and T(E, F, F) from one flex evaluation: two full
    # trilinear passes, on both outcomes of the smooth rank-3 rule
    calls = []
    real_triple = IntersectionForm.triple

    def triple(self, a, b, c):
        calls.append((a, b, c))
        return real_triple(self, a, b, c)

    monkeypatch.setattr(IntersectionForm, "triple", triple)
    for name in ("b3_smooth_tangent", "b3_flex_obstruction"):
        parsed = parse_input(load_fixture(name))
        calls.clear()
        cert = certify(parsed.form, parsed.c2, parsed.divisors["D"])
        assert len(calls) <= 2, (name, calls)
        assert [c.label for c in cert.trace][-3:] == ["cube(E)", "T(D,D,E)", "T(E,F,F)"]
        assert json.loads(render_json(cert)) == load_fixture_certificate(name)
        assert replay(parsed.form, parsed.c2, cert)


def test_sparse_rank200_certify_and_replay_under_a_second():
    # sparse planted forms (about 4n entries, as in toric hypersurface data):
    # every evaluation costs O(entries), and the linear-factor search tests
    # each section on its few terms, so rank 200 stays far below a second
    rng = random.Random(2000)
    for _ in range(4):
        form, d = plant_sparse_form(rng, 200)
        c2 = annihilator_c2(rng, d, form.square_class(d).coords)
        start = time.perf_counter()
        cert = certify(form, c2, d)
        assert replay(form, c2, cert)
        elapsed = time.perf_counter() - start
        assert cert.rule == RULE_MAIN_IRREDUCIBLE
        assert elapsed < 1.0, f"rank-200 sparse certify plus replay took {elapsed:.2f} s"


# rank-300 and rank-500 sparse forms whose chase from D stalls: every one of
# the 500 directions it examines spans a line on the cubic
SPARSE_STALLS = [(300, 1), (500, 500_002), (500, 500_005), (500, 500_008)]


@pytest.mark.parametrize(
    "rank, seed", SPARSE_STALLS, ids=[f"rank{n}-seed{s}" for n, s in SPARSE_STALLS]
)
def test_sparse_budget_stall_certifies_under_a_second(monkeypatch, rank, seed):
    # T(D, -, -) does not vanish on the tangent hyperplane: a budget stall,
    # not a cone, passed without expanding the cubic on the hyperplane; each
    # direction is evaluated on the entries that touch its support
    traces = []

    def recorded_chase(*args):
        traces.append(chase(*args))
        return traces[-1]

    monkeypatch.setattr(sys.modules["nullcone.certify"], "chase", recorded_chase)
    rng = random.Random(seed)
    form, d = plant_sparse_form(rng, rank)
    c2 = annihilator_c2(rng, d, form.square_class(d).coords)
    start = time.perf_counter()
    cert = certify(form, c2, d)
    assert replay(form, c2, cert)
    elapsed = time.perf_counter() - start
    assert cert.rule == RULE_MAIN_IRREDUCIBLE and set(cert.witnesses) == {"D"}
    assert elapsed < 1.0, f"rank-{rank} sparse certify plus replay took {elapsed:.2f} s"
    [trace] = traces
    assert trace.witness is None and not _tangent_section_is_cone(form, Point(form, d))
    assert Degeneracy.TANGENT_SECTION_IS_CONE not in {k for k, _ in trace.degeneracies}


def _rank5_linear_quadric(lin, diag):
    """The form of 6 L Q with Q = sum diag_i x_i^2 in five variables."""
    return form_of_cubic(Poly.linear(lin) * QuadraticForm.from_diagonal(diag).to_poly())


@pytest.mark.parametrize(
    "lin, diag, d, conclusion, rule, warning",
    [
        # Q = x0^2 - 2 x1^2 is degenerate and L = x2 is 1 on the radical
        # class e2, where T(e2, -, -) = 2 L(e2) Q != 0 and T(e2, e2, -) = 0
        ((0, 0, 1, 0, 0), (1, -2, 0, 0, 0), (1, 0, 0, 0, 0), Conclusion.CERTIFIED, RULE_C2_NU1, None),
        # L = x0 vanishes on the radical: every radical class has nu = 0
        ((1, 0, 0, 0, 0), (1, -2, 0, 0, 0), (0, 1, 0, 0, 0), Conclusion.INCONCLUSIVE, RULE_NONE,
         "no radical class"),
        # a definite quadric factor
        ((1, 0, 0, 0, 0), (1, 1, 1, 1, 1), (0, 1, 0, 0, 0), Conclusion.INPUT_INCONSISTENT, RULE_NONE,
         "definite"),
    ],
)
def test_rank5_linear_quadric_outcomes(lin, diag, d, conclusion, rule, warning):
    # D lies on L = 0 with Q(D) != 0, so cube(D) = 0 and T(D, D, -) = 2 Q(D) L
    form = _rank5_linear_quadric(lin, diag)
    c2 = LinearClass((0, 0, 0, 1, 1))
    cert = certify(form, c2, d)
    assert (cert.conclusion, cert.rule) == (conclusion, rule)
    assert replay(form, c2, cert)
    if warning is None:
        e = cert.witnesses["E"]
        assert cert.warnings == []
        assert form.numerical_dimension(e) == 1
        assert all(c == 0 for c in e.coords[:2])
    else:
        assert len(cert.warnings) == 1 and warning in cert.warnings[0]
