"""Command-line interface: certify, analyze, factor, qpoint, chase, thirdpoint.

Input documents are JSON with exact rationals ("3/2" strings or integers);
floating point is rejected.  Certificates serialize deterministically so two
runs on the same input are byte-identical.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources

from .certify import (
    SCHEMA_VERSION,
    Assumptions,
    Certificate,
    Check,
    Conclusion,
    Options,
    certify,
)
from .cubicchase import chase, third_point_on_line
from .cubicfactor import FactorKind, expand_cubic, factor_over_Q
from .exactmath import frac
from .nsring import (
    Divisor,
    IntersectionForm,
    LinearClass,
    nef_threshold,
    positivity_flags,
)
from .quadpoints import IsotropyKind, QuadraticForm, SearchExhausted, isotropic_vector


class InputError(ValueError):
    """A malformed input document, with a locating message."""


def _parse_rat(value, where: str) -> Fraction:
    if isinstance(value, bool):
        raise InputError(f"{where}: expected a rational, got a boolean")
    if isinstance(value, float):
        raise InputError(f"{where}: floating point is not accepted; use 'p/q' strings")
    if isinstance(value, (int, str)):
        try:
            return Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(f"{where}: not a rational: {value!r} ({exc})") from None
    raise InputError(f"{where}: expected a rational, got {type(value).__name__}")


def _parse_int(value, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{where}: expected an integer, got {value!r}")
    return value


@dataclass
class ParsedInput:
    form: IntersectionForm
    c2: LinearClass
    divisors: dict[str, Divisor]
    assumptions: Assumptions


def parse_input(doc) -> ParsedInput:
    """Validate and load an input document (already JSON-decoded)."""
    if not isinstance(doc, dict):
        raise InputError("top level: expected an object")
    unknown = set(doc) - {
        "rank", "intersection", "c2", "divisors", "assumptions", "description",
    }
    if unknown:
        raise InputError(f"top level: unknown keys {sorted(unknown)}")
    rank = _parse_int(doc.get("rank"), "rank")
    if rank < 1:
        raise InputError("rank: must be at least 1")
    raw_entries = doc.get("intersection")
    if not isinstance(raw_entries, list):
        raise InputError("intersection: expected a list of [i, j, k, value] rows")
    entries: dict[tuple[int, int, int], int] = {}
    for pos, row in enumerate(raw_entries):
        where = f"intersection[{pos}]"
        if not isinstance(row, list) or len(row) != 4:
            raise InputError(f"{where}: expected [i, j, k, value]")
        i, j, k = (_parse_int(row[t], f"{where}[{t}]") for t in range(3))
        v = _parse_int(row[3], f"{where}[3]")
        if not all(0 <= t < rank for t in (i, j, k)):
            raise InputError(f"{where}: indices must lie in [0, {rank - 1}]")
        if not (i <= j <= k):
            raise InputError(f"{where}: indices must satisfy i <= j <= k")
        key = (i, j, k)
        if key in entries and entries[key] != v:
            raise InputError(f"{where}: conflicts with an earlier value for {key}")
        entries[key] = v
    form = IntersectionForm(rank, entries)
    raw_c2 = doc.get("c2")
    if not isinstance(raw_c2, list) or len(raw_c2) != rank:
        raise InputError(f"c2: expected a list of {rank} rationals")
    c2 = LinearClass(
        tuple(_parse_rat(x, f"c2[{i}]") for i, x in enumerate(raw_c2)), "c2"
    )
    raw_divs = doc.get("divisors")
    if not isinstance(raw_divs, dict) or not raw_divs:
        raise InputError("divisors: expected a nonempty object of name -> coordinates")
    divisors: dict[str, Divisor] = {}
    for name, coords in raw_divs.items():
        where = f"divisors[{name!r}]"
        if not isinstance(coords, list) or len(coords) != rank:
            raise InputError(f"{where}: expected a list of {rank} rationals")
        divisors[name] = Divisor(
            tuple(_parse_rat(x, f"{where}[{i}]") for i, x in enumerate(coords)), name
        )
    raw_asm = doc.get("assumptions", {})
    if not isinstance(raw_asm, dict):
        raise InputError("assumptions: expected an object")
    known = {"D_is_nef_nonample", "H_is_ample", "X_is_calabi_yau"}
    bad = set(raw_asm) - known
    if bad:
        raise InputError(f"assumptions: unknown keys {sorted(bad)}")
    for key, val in raw_asm.items():
        if not isinstance(val, bool):
            raise InputError(f"assumptions[{key!r}]: expected true or false")
    assumptions = Assumptions(
        d_is_nef_nonample=raw_asm.get("D_is_nef_nonample", True),
        h_is_ample=raw_asm.get("H_is_ample", True),
        x_is_calabi_yau=raw_asm.get("X_is_calabi_yau", True),
    )
    return ParsedInput(form, c2, divisors, assumptions)


def load_input(path: str) -> ParsedInput:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from None
    return parse_input(doc)


# ---------------------------------------------------------------------------
# serialization


def input_document(parsed: ParsedInput) -> dict:
    """Serialize parsed input back to a document; parse -> serialize -> parse
    is the identity on the parsed content."""
    form = parsed.form
    return {
        "rank": form.rank,
        "intersection": [
            [i, j, k, v] for (i, j, k), v in sorted(form.entries.items())
        ],
        "c2": [rat_str(c) for c in parsed.c2.coords],
        "divisors": {
            name: [rat_str(c) for c in div.coords]
            for name, div in sorted(parsed.divisors.items())
        },
        "assumptions": {
            "D_is_nef_nonample": parsed.assumptions.d_is_nef_nonample,
            "H_is_ample": parsed.assumptions.h_is_ample,
            "X_is_calabi_yau": parsed.assumptions.x_is_calabi_yau,
        },
    }


def rat_str(x) -> str:
    return str(frac(x))


def _encode_operand(op):
    if isinstance(op, tuple) and op and isinstance(op[0], tuple):
        return [[rat_str(x) for x in row] for row in op]
    if isinstance(op, tuple):
        return [rat_str(x) for x in op]
    return rat_str(op)


def certificate_document(cert: Certificate) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "conclusion": cert.conclusion.value,
        "rule": cert.rule,
        "witnesses": {
            name: [rat_str(c) for c in div.coords]
            for name, div in cert.witnesses.items()
        },
        "trace": [
            {
                "label": chk.label,
                "op": chk.op,
                "value": rat_str(chk.value),
                "operands": [_encode_operand(op) for op in chk.operands],
            }
            for chk in cert.trace
        ],
        "warnings": list(cert.warnings),
        "assumptions": {
            "D_is_nef_nonample": cert.assumptions.d_is_nef_nonample,
            "H_is_ample": cert.assumptions.h_is_ample,
            "X_is_calabi_yau": cert.assumptions.x_is_calabi_yau,
        },
        "caveats": list(cert.caveats),
    }


def _decode_operand(op):
    if isinstance(op, list) and op and isinstance(op[0], list):
        return tuple(tuple(frac(x) for x in row) for row in op)
    if isinstance(op, list):
        return tuple(frac(x) for x in op)
    return frac(op)


def certificate_from_document(doc) -> Certificate:
    """Decode a serialized certificate; serialize -> decode -> serialize is
    the identity byte-for-byte."""
    if not isinstance(doc, dict):
        raise InputError("certificate: expected an object")
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise InputError(
            f"certificate: unsupported schema_version {doc.get('schema_version')!r}"
        )
    witnesses = {
        name: Divisor(tuple(frac(c) for c in coords), name)
        for name, coords in doc.get("witnesses", {}).items()
    }
    trace = [
        Check(
            chk["label"],
            chk["op"],
            frac(chk["value"]),
            tuple(_decode_operand(op) for op in chk["operands"]),
        )
        for chk in doc.get("trace", [])
    ]
    asm = doc.get("assumptions", {})
    return Certificate(
        conclusion=Conclusion(doc["conclusion"]),
        rule=doc["rule"],
        witnesses=witnesses,
        trace=trace,
        warnings=list(doc.get("warnings", [])),
        assumptions=Assumptions(
            d_is_nef_nonample=asm.get("D_is_nef_nonample", True),
            h_is_ample=asm.get("H_is_ample", True),
            x_is_calabi_yau=asm.get("X_is_calabi_yau", True),
        ),
        caveats=list(doc.get("caveats", [])),
    )


def render_json(cert: Certificate) -> str:
    return json.dumps(certificate_document(cert), indent=2, sort_keys=True) + "\n"


def _vec_str(coords) -> str:
    return "(" + ", ".join(rat_str(c) for c in coords) + ")"


def render_text(cert: Certificate) -> str:
    lines = [
        f"conclusion: {cert.conclusion.value}",
        f"rule: {cert.rule}",
        "witnesses:",
    ]
    for name, div in cert.witnesses.items():
        lines.append(f"  {name} = {_vec_str(div.coords)}")
    lines.append("checks:")
    for chk in cert.trace:
        lines.append(f"  {chk.label} [{chk.op}] = {rat_str(chk.value)}")
    lines.append("warnings:" if cert.warnings else "warnings: (none)")
    for w in cert.warnings:
        lines.append(f"  - {w}")
    lines.append("caveats:")
    for c in cert.caveats:
        lines.append(f"  - {c}")
    asm = cert.assumptions
    lines.append(
        "assumptions: "
        f"D_is_nef_nonample={str(asm.d_is_nef_nonample).lower()} "
        f"H_is_ample={str(asm.h_is_ample).lower()} "
        f"X_is_calabi_yau={str(asm.x_is_calabi_yau).lower()}"
    )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands


def _get_divisor(parsed: ParsedInput, name: str) -> Divisor:
    if name not in parsed.divisors:
        raise InputError(
            f"divisor {name!r} not found; available: {sorted(parsed.divisors)}"
        )
    return parsed.divisors[name]


def _options_from_args(args) -> Options:
    return Options(
        depth=args.depth,
        budget=args.budget,
        max_height=args.max_height,
        seed=args.seed,
    )


def _cmd_certify(args) -> int:
    parsed = load_input(args.input)
    d = _get_divisor(parsed, args.divisor)
    h = _get_divisor(parsed, args.ample) if args.ample else None
    cert = certify(
        parsed.form,
        parsed.c2,
        d,
        h,
        assumptions=parsed.assumptions,
        options=_options_from_args(args),
    )
    out = render_json(cert) if args.format == "json" else render_text(cert)
    sys.stdout.write(out)
    if cert.conclusion is Conclusion.CERTIFIED:
        return 0
    if cert.conclusion is Conclusion.INCONCLUSIVE:
        return 1
    return 2


def _cmd_analyze(args) -> int:
    parsed = load_input(args.input)
    form, c2 = parsed.form, parsed.c2
    d = _get_divisor(parsed, args.divisor)
    h = _get_divisor(parsed, args.ample) if args.ample else None
    lines = [
        f"rank: {form.rank}",
        f"cube(D): {rat_str(form.cube(d))}",
        f"nu(D): {form.numerical_dimension(d)}",
        f"c2.D: {rat_str(c2.pair(d))}",
        f"square_class(D): {_vec_str(form.square_class(d).coords)}",
    ]
    fac = factor_over_Q(expand_cubic(form))
    lines.append(f"cubic_factorization: {fac.kind.value}")
    if h is not None:
        flags = positivity_flags(form, d, h)
        lines.append(
            "positivity_flags(D against H): "
            f"cube={str(flags[0]).lower()} "
            f"square={str(flags[1]).lower()} "
            f"linear={str(flags[2]).lower()}"
        )
        lines.append(f"c2.H: {rat_str(c2.pair(h))}")
        if form.numerical_dimension(d) == 1 and form.triple(d, h, h) != 0:
            t0 = nef_threshold(form, h, d)
            boundary = Divisor(
                tuple(x - t0 * y for x, y in zip(h.coords, d.coords))
            )
            lines.append(f"nef_threshold_t0: {rat_str(t0)}")
            lines.append(f"cube(H - t0*D): {rat_str(form.cube(boundary))}")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _cmd_factor(args) -> int:
    parsed = load_input(args.input)
    fac = factor_over_Q(expand_cubic(parsed.form), args.seed)
    lines = [f"kind: {fac.kind.value}", f"scalar: {rat_str(fac.scalar)}"]
    for idx, lin in enumerate(fac.linears):
        lines.append(f"linear[{idx}]: {_vec_str(lin)}")
    if fac.quadric is not None:
        for idx, row in enumerate(fac.quadric.gram):
            lines.append(f"quadric_gram[{idx}]: {_vec_str(row)}")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _parse_form_spec(spec: str) -> QuadraticForm:
    spec = spec.strip()
    if spec.startswith("["):
        try:
            rows = json.loads(spec)
        except json.JSONDecodeError as exc:
            raise InputError(f"--form: not valid JSON: {exc}") from None
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise InputError("--form: expected a JSON matrix [[...], ...]")
        gram = tuple(
            tuple(_parse_rat(x, f"--form[{i}][{j}]") for j, x in enumerate(row))
            for i, row in enumerate(rows)
        )
        return QuadraticForm(gram)
    parts = [p.strip() for p in spec.split(",") if p.strip()]
    if not parts:
        raise InputError("--form: empty diagonal")
    diag = [_parse_rat(p, f"--form[{i}]") for i, p in enumerate(parts)]
    return QuadraticForm.from_diagonal(diag)


def _cmd_qpoint(args) -> int:
    q = _parse_form_spec(args.form)
    verdict = isotropic_vector(q, args.height_bound)
    lines = [f"kind: {verdict.kind.value}"]
    if verdict.kind is IsotropyKind.ISOTROPIC:
        lines.append(f"witness: {_vec_str(verdict.witness)}")
        lines.append(f"value_at_witness: {rat_str(q.evaluate(verdict.witness))}")
    elif verdict.kind is IsotropyKind.ANISOTROPIC:
        lines.append(f"obstruction: {verdict.obstruction}")
    else:
        for idx, r in enumerate(verdict.radical_basis):
            lines.append(f"radical[{idx}]: {_vec_str(r)}")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _cmd_chase(args) -> int:
    parsed = load_input(args.input)
    d = _get_divisor(parsed, args.divisor)
    trace = chase(parsed.form, parsed.c2, d, depth=args.depth, budget=args.budget)
    lines = ["visited:"]
    for div in trace.visited:
        lines.append(f"  {_vec_str(div.coords)} (c2 = {rat_str(parsed.c2.pair(div))})")
    lines.append("edges:")
    for edge in trace.edges:
        lines.append(
            f"  {_vec_str(edge.source.coords)} --{_vec_str(edge.direction.coords)}--> "
            f"{_vec_str(edge.target.coords)}"
        )
    lines.append("degeneracies:" if trace.degeneracies else "degeneracies: (none)")
    for kind, at in trace.degeneracies:
        lines.append(f"  {kind.value} at {_vec_str(at.coords)}")
    if trace.witness is not None:
        lines.append(f"witness: {_vec_str(trace.witness.coords)}")
        lines.append(f"witness_c2: {rat_str(parsed.c2.pair(trace.witness))}")
    else:
        lines.append("witness: (none)")
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


def _point_arg(parsed: ParsedInput, text: str) -> Divisor:
    """A point given either as a divisor name or as comma-separated coordinates."""
    if text in parsed.divisors:
        return parsed.divisors[text]
    if "," in text:
        parts = text.split(",")
        if len(parts) != parsed.form.rank:
            raise InputError(
                f"point {text!r}: expected {parsed.form.rank} comma-separated coordinates"
            )
        return Divisor(tuple(_parse_rat(p.strip(), text) for p in parts))
    raise InputError(
        f"divisor {text!r} not found; available: {sorted(parsed.divisors)}"
    )


def _cmd_thirdpoint(args) -> int:
    parsed = load_input(args.input)
    p1 = _point_arg(parsed, args.p1)
    p2 = _point_arg(parsed, args.p2)
    result = third_point_on_line(parsed.form, p1, p2)
    if result is None:
        sys.stdout.write("line_contained: the whole line lies on the cubic\n")
    else:
        sys.stdout.write(f"third_point: {_vec_str(result.coords)}\n")
    return 0


def _fixture_root():
    return resources.files(__package__).joinpath("fixtures")


def fixture_names() -> list[str]:
    root = _fixture_root()
    names = []
    for entry in root.iterdir():
        if entry.name.endswith(".json") and not entry.name.endswith(".cert.json"):
            names.append(entry.name[: -len(".json")])
    return sorted(names)


def load_fixture(name: str) -> dict:
    path = _fixture_root().joinpath(f"{name}.json")
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise InputError(
            f"fixture {name!r} not found; available: {fixture_names()}"
        ) from None


def load_fixture_certificate(name: str) -> dict:
    path = _fixture_root().joinpath(f"{name}.cert.json")
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise InputError(f"fixture certificate {name!r} not found") from None


def _cmd_fixtures(args) -> int:
    if args.show:
        doc = load_fixture(args.show)
        sys.stdout.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        return 0
    for name in fixture_names():
        doc = load_fixture(name)
        desc = doc.get("description", "")
        sys.stdout.write(f"{name}: {desc}\n" if desc else f"{name}\n")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nullcone",
        description=(
            "Exact certification of rational-curve criteria from cubic "
            "intersection data"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, divisor=True):
        p.add_argument("--input", required=True, help="input JSON document")
        if divisor:
            p.add_argument("--divisor", required=True, help="name of the null divisor D")

    p_cert = sub.add_parser("certify", help="run the full rule pipeline")
    add_common(p_cert)
    p_cert.add_argument("--ample", help="name of an ample reference divisor H")
    p_cert.add_argument("--depth", type=int, default=3)
    p_cert.add_argument("--budget", type=int, default=500)
    p_cert.add_argument("--max-height", type=int, default=1000, dest="max_height")
    p_cert.add_argument("--seed", type=int, default=0)
    p_cert.add_argument("--format", choices=("json", "text"), default="text")
    p_cert.set_defaults(func=_cmd_certify)

    p_an = sub.add_parser("analyze", help="numeric profile of a divisor class")
    add_common(p_an)
    p_an.add_argument("--ample", help="name of an ample reference divisor H")
    p_an.set_defaults(func=_cmd_analyze)

    p_fac = sub.add_parser("factor", help="factor the cubic form of the input")
    add_common(p_fac, divisor=False)
    p_fac.add_argument("--seed", type=int, default=0)
    p_fac.set_defaults(func=_cmd_factor)

    p_qp = sub.add_parser("qpoint", help="rational point on a quadratic form")
    p_qp.add_argument(
        "--form",
        required=True,
        help="diagonal entries 'a,b,c' or a JSON Gram matrix [[...], ...]",
    )
    p_qp.add_argument("--height-bound", type=int, default=10**6, dest="height_bound")
    p_qp.set_defaults(func=_cmd_qpoint)

    p_ch = sub.add_parser("chase", help="walk the null cone looking for c2 != 0")
    add_common(p_ch)
    p_ch.add_argument("--depth", type=int, default=3)
    p_ch.add_argument("--budget", type=int, default=500)
    p_ch.set_defaults(func=_cmd_chase)

    p_tp = sub.add_parser("thirdpoint", help="third intersection of a null line")
    add_common(p_tp, divisor=False)
    p_tp.add_argument("--p1", required=True, help="name of the first null point")
    p_tp.add_argument("--p2", required=True, help="name of the second null point")
    p_tp.set_defaults(func=_cmd_thirdpoint)

    p_fx = sub.add_parser("fixtures", help="list bundled example inputs")
    p_fx.add_argument("--show", help="print one fixture input document")
    p_fx.set_defaults(func=_cmd_fixtures)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, SearchExhausted) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AssertionError as exc:
        print(f"error: internal check failed: {exc!r}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
