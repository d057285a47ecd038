"""Command-line interface: document validation, rendering, exit codes."""

import json
from importlib import resources

import pytest

from nullcone.certify import Assumptions
from nullcone.cli import (
    InputError,
    certificate_from_document,
    fixture_names,
    input_document,
    load_fixture,
    load_fixture_certificate,
    main,
    parse_input,
    render_json,
)

FIXTURES = sorted(fixture_names())


def fixture_path(name: str) -> str:
    return str(resources.files("nullcone").joinpath("fixtures", f"{name}.json"))


def minimal_doc():
    return {
        "rank": 2,
        "intersection": [[0, 1, 1, 1]],
        "c2": [1, "3/2"],
        "divisors": {"D": ["0", 1]},
    }


# ---------------------------------------------------------------------------
# parse_input validation


def test_minimal_document_parses():
    parsed = parse_input(minimal_doc())
    assert parsed.form.rank == 2
    assert parsed.form.entries == {(0, 1, 1): 1}
    assert [str(c) for c in parsed.c2.coords] == ["1", "3/2"]
    assert list(parsed.divisors) == ["D"]
    assert parsed.assumptions == Assumptions(True, True, True)


def test_assumptions_parsed():
    doc = minimal_doc()
    doc["assumptions"] = {"D_is_nef_nonample": False}
    parsed = parse_input(doc)
    assert parsed.assumptions.d_is_nef_nonample is False
    assert parsed.assumptions.h_is_ample is True


@pytest.mark.parametrize(
    "mutate,message",
    [
        (lambda d: "not a dict", "top level: expected an object"),
        (lambda d: {**d, "extra": 1}, "unknown keys"),
        (lambda d: {k: v for k, v in d.items() if k != "rank"}, "rank: expected an integer"),
        (lambda d: {**d, "rank": 0}, "rank: must be at least 1"),
        (lambda d: {**d, "rank": True}, "rank: expected an integer"),
        (lambda d: {**d, "intersection": {}}, "intersection: expected a list"),
        (lambda d: {**d, "intersection": [[0, 1, 1]]}, r"expected \[i, j, k, value\]"),
        (lambda d: {**d, "intersection": [[0, 1, 2, 1]]}, r"indices must lie in \[0, 1\]"),
        (lambda d: {**d, "intersection": [[1, 0, 0, 5]]}, "indices must satisfy i <= j <= k"),
        (
            lambda d: {**d, "intersection": [[0, 1, 1, 1], [0, 1, 1, 2]]},
            "conflicts with an earlier value",
        ),
        (lambda d: {**d, "intersection": [[0, 1, 1, 1.5]]}, "expected an integer"),
        (lambda d: {**d, "c2": [1]}, "c2: expected a list of 2 rationals"),
        (lambda d: {**d, "c2": [1, 2.5]}, "floating point is not accepted"),
        (lambda d: {**d, "c2": [1, True]}, "expected a rational, got a boolean"),
        (lambda d: {**d, "c2": [1, "x"]}, "not a rational"),
        (lambda d: {**d, "c2": [1, "1/0"]}, "not a rational"),
        (lambda d: {**d, "divisors": {}}, "divisors: expected a nonempty object"),
        (lambda d: {k: v for k, v in d.items() if k != "divisors"}, "divisors"),
        (lambda d: {**d, "divisors": {"D": [1]}}, r"divisors\['D'\]: expected a list of 2"),
        (lambda d: {**d, "assumptions": [1]}, "assumptions: expected an object"),
        (lambda d: {**d, "assumptions": {"weird": True}}, "assumptions: unknown keys"),
        (
            lambda d: {**d, "assumptions": {"H_is_ample": "yes"}},
            "expected true or false",
        ),
    ],
)
def test_parse_input_rejections(mutate, message):
    with pytest.raises(InputError, match=message):
        parse_input(mutate(minimal_doc()))


def test_fixture_documents_all_parse():
    for name in FIXTURES:
        parsed = parse_input(load_fixture(name))
        assert "D" in parsed.divisors


# ---------------------------------------------------------------------------
# serialization round-trips


def test_input_document_roundtrip_on_fixtures():
    for name in FIXTURES:
        parsed = parse_input(load_fixture(name))
        doc = input_document(parsed)
        again = parse_input(doc)
        assert again.form.rank == parsed.form.rank
        assert again.form.entries == parsed.form.entries
        assert again.c2.coords == parsed.c2.coords
        assert {k: v.coords for k, v in again.divisors.items()} == {
            k: v.coords for k, v in parsed.divisors.items()
        }
        assert again.assumptions == parsed.assumptions
        assert input_document(again) == doc


def test_certificate_documents_roundtrip_bytes():
    for name in FIXTURES:
        doc = load_fixture_certificate(name)
        text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
        assert render_json(certificate_from_document(doc)) == text


def test_certificate_schema_version_checked():
    doc = load_fixture_certificate(FIXTURES[0])
    doc["schema_version"] = "999"
    with pytest.raises(InputError, match="unsupported schema_version"):
        certificate_from_document(doc)
    with pytest.raises(InputError, match="expected an object"):
        certificate_from_document([1, 2])


# ---------------------------------------------------------------------------
# exit codes


def test_exit_code_certified(capsys):
    code = main(
        ["certify", "--input", fixture_path("b4_diagonal_irreducible"), "--divisor", "D"]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "conclusion: certified" in out


def test_exit_code_inconclusive(capsys):
    code = main(["certify", "--input", fixture_path("b2_2_nonsquare"), "--divisor", "D"])
    out = capsys.readouterr().out
    assert code == 1
    assert "conclusion: inconclusive" in out


def test_exit_code_inconsistent(capsys):
    code = main(
        ["certify", "--input", fixture_path("inconsistent_nu_zero"), "--divisor", "D"]
    )
    out = capsys.readouterr().out
    assert code == 2
    assert "conclusion: input_inconsistent" in out


def test_exit_code_bad_input_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["certify", "--input", str(bad), "--divisor", "D"]) == 2
    assert "error:" in capsys.readouterr().err

    missing = tmp_path / "nope.json"
    assert main(["certify", "--input", str(missing), "--divisor", "D"]) == 2
    assert "error: cannot read" in capsys.readouterr().err


def test_exit_code_unknown_divisor(capsys):
    code = main(
        ["certify", "--input", fixture_path("b2_2_nonsquare"), "--divisor", "Z"]
    )
    assert code == 2
    assert "divisor 'Z' not found" in capsys.readouterr().err


def test_unknown_flag_exits_with_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["certify", "--nope"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        main([])


def test_malformed_document_reports_location(tmp_path, capsys):
    doc = minimal_doc()
    doc["intersection"] = [[1, 0, 0, 5]]
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["certify", "--input", str(path), "--divisor", "D"]) == 2
    err = capsys.readouterr().err
    assert "indices must satisfy i <= j <= k" in err


# ---------------------------------------------------------------------------
# text and JSON renderings carry the same information


@pytest.mark.parametrize("name", FIXTURES)
def test_text_and_json_agree(name, capsys):
    argv = ["certify", "--input", fixture_path(name), "--divisor", "D", "--seed", "0"]
    main(argv + ["--format", "json"])
    doc = json.loads(capsys.readouterr().out)
    main(argv + ["--format", "text"])
    text = capsys.readouterr().out
    assert f"conclusion: {doc['conclusion']}" in text
    assert f"rule: {doc['rule']}" in text
    for wname, coords in doc["witnesses"].items():
        assert f"  {wname} = ({', '.join(coords)})" in text
    for chk in doc["trace"]:
        assert f"  {chk['label']} [{chk['op']}] = {chk['value']}" in text
    for warning in doc["warnings"]:
        assert f"  - {warning}" in text
    for caveat in doc["caveats"]:
        assert f"  - {caveat}" in text
    asm = doc["assumptions"]
    assert (
        "assumptions: "
        f"D_is_nef_nonample={str(asm['D_is_nef_nonample']).lower()} "
        f"H_is_ample={str(asm['H_is_ample']).lower()} "
        f"X_is_calabi_yau={str(asm['X_is_calabi_yau']).lower()}"
    ) in text


def test_json_output_matches_frozen_certificates(capsys):
    for name in FIXTURES:
        code = main(
            [
                "certify",
                "--input",
                fixture_path(name),
                "--divisor",
                "D",
                "--format",
                "json",
                "--seed",
                "0",
            ]
        )
        out = capsys.readouterr().out
        expected = json.dumps(load_fixture_certificate(name), indent=2, sort_keys=True) + "\n"
        assert out == expected, name
        assert code in (0, 1, 2)


# ---------------------------------------------------------------------------
# other subcommands


def test_analyze_basic(capsys):
    assert main(["analyze", "--input", fixture_path("b4_diagonal_irreducible"),
                 "--divisor", "D"]) == 0
    out = capsys.readouterr().out
    assert "rank: 4" in out
    assert "cube(D): 0" in out
    assert "nu(D): " in out
    assert "c2.D: 0" in out
    assert "cubic_factorization: irreducible_over_Q" in out


def test_analyze_with_ample_threshold(capsys):
    assert main(["analyze", "--input", fixture_path("nu1_c2_zero"),
                 "--divisor", "D", "--ample", "H"]) == 0
    out = capsys.readouterr().out
    assert "nu(D): 1" in out
    assert "c2.H: 3" in out
    assert "nef_threshold_t0: 1" in out
    assert "cube(H - t0*D): 0" in out
    assert "positivity_flags(D against H):" in out


def test_factor_subcommand(capsys):
    assert main(["factor", "--input", fixture_path("b5_split_isotropic")]) == 0
    out = capsys.readouterr().out
    assert "kind: linear_times_quadric" in out
    assert "linear[0]: (1, 0, 0, 0, 0)" in out
    assert "quadric_gram[4]: (0, 0, 0, 0, -1)" in out


def test_qpoint_isotropic(capsys):
    assert main(["qpoint", "--form", "1,2,-3"]) == 0
    out = capsys.readouterr().out
    assert "kind: isotropic" in out
    assert "witness: (1, 1, -1)" in out
    assert "value_at_witness: 0" in out


def test_qpoint_anisotropic(capsys):
    assert main(["qpoint", "--form", "1,1,-3"]) == 0
    out = capsys.readouterr().out
    assert "kind: anisotropic" in out
    assert "obstruction: 2" in out


def test_qpoint_gram_matrix(capsys):
    assert main(["qpoint", "--form", "[[0,1],[1,0]]"]) == 0
    out = capsys.readouterr().out
    assert "kind: isotropic" in out
    assert "witness: (0, 1)" in out


def test_qpoint_degenerate(capsys):
    assert main(["qpoint", "--form", "1,0,-1"]) == 0
    out = capsys.readouterr().out
    assert "radical[0]:" in out or "witness:" in out


def test_qpoint_malformed(capsys):
    assert main(["qpoint", "--form", "[[bad"]) == 2
    assert "--form" in capsys.readouterr().err
    assert main(["qpoint", "--form", " "]) == 2
    assert "empty diagonal" in capsys.readouterr().err


def test_chase_subcommand(capsys):
    assert main(["chase", "--input", fixture_path("b4_diagonal_irreducible"),
                 "--divisor", "D"]) == 0
    out = capsys.readouterr().out
    assert "visited:" in out
    assert "witness: (-1, 3, 1, -2)" in out
    assert "witness_c2: -2" in out
    assert "--(1, -1, 0, 1)-->" in out


def test_chase_no_witness(capsys):
    assert main(["chase", "--input", fixture_path("b3_flex_obstruction"),
                 "--divisor", "D", "--depth", "1", "--budget", "3"]) == 0
    out = capsys.readouterr().out
    assert "visited:" in out


@pytest.mark.parametrize("name", ["b2_2_null_rational", "b2_2_double_root"])
def test_chase_ends_when_the_only_tangent_direction_is_the_point(name, capsys):
    assert main(["chase", "--input", fixture_path(name), "--divisor", "D"]) == 0
    assert "witness: (none)" in capsys.readouterr().out


def test_qpoint_search_exhausted_is_an_error(capsys):
    assert main(["qpoint", "--form", "2,-263,79426,541939,-20625983",
                 "--height-bound", "1"]) == 2
    assert capsys.readouterr().err.startswith("error: no isotropic vector found")


def test_internal_assertion_is_an_error(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise AssertionError("identity failed")

    monkeypatch.setattr("nullcone.cli.isotropic_vector", broken)
    assert main(["qpoint", "--form", "1,2,-3"]) == 2
    assert "error: internal check failed" in capsys.readouterr().err


def test_thirdpoint_by_name_and_coords(capsys):
    assert main(["thirdpoint", "--input", fixture_path("b3_smooth_tangent"),
                 "--p1", "D", "--p2=-5,4,1"]) == 0
    out = capsys.readouterr().out
    # the line through D and its tangent residual returns to D
    assert "third_point: (1, 1, 1)" in out


def test_thirdpoint_coordinate_validation(capsys):
    assert main(["thirdpoint", "--input", fixture_path("b3_smooth_tangent"),
                 "--p1", "D", "--p2", "1,1"]) == 2
    assert "expected 3 comma-separated coordinates" in capsys.readouterr().err
    assert main(["thirdpoint", "--input", fixture_path("b3_smooth_tangent"),
                 "--p1", "D", "--p2", "E"]) == 2
    assert "not found" in capsys.readouterr().err


def test_thirdpoint_rejects_off_cone_points(capsys):
    assert main(["thirdpoint", "--input", fixture_path("b3_smooth_tangent"),
                 "--p1", "1,0,0", "--p2", "D"]) == 2
    assert "not on the cubic" in capsys.readouterr().err


def test_fixtures_listing_and_show(capsys):
    assert main(["fixtures"]) == 0
    out = capsys.readouterr().out
    for name in FIXTURES:
        assert name in out
    assert main(["fixtures", "--show", "b2_2_double_root"]) == 0
    shown = json.loads(capsys.readouterr().out)
    assert parse_input(shown).form.rank == 2
    assert main(["fixtures", "--show", "no_such_fixture"]) == 2
    assert "not found" in capsys.readouterr().err


def test_repeat_runs_are_identical(capsys):
    argv = ["certify", "--input", fixture_path("b5_split_isotropic"),
            "--divisor", "D", "--format", "json"]
    main(argv)
    first = capsys.readouterr().out
    main(argv)
    second = capsys.readouterr().out
    assert first == second
