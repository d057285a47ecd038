"""The decision pipeline: from intersection data to a checkable certificate.

Rules are tried in a fixed order; the first applicable one decides the
conclusion.  Every numeric fact the conclusion relies on is recorded in the
trace as a named check that can be replayed from the raw input.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .cubicchase import _flex_value, _tangent_residuals, chase, ternary_singular_point
from .cubicfactor import FactorKind, factor_cubic
from .exactmath import (
    Rat,
    canonical_vector,
    enum_key,
    frac,
    is_perfect_square,
    primitive_vector,
    vec_dot,
)
from .nsring import Divisor, IntersectionForm, LinearClass, Point, _as_divisor, validate_input
from .quadpoints import (
    InsufficientPoints,
    IsotropyKind,
    QuadraticForm,
    isotropic_vector,
    sample_points,
)

SCHEMA_VERSION = "1"


class Conclusion(str, Enum):
    CERTIFIED = "certified"
    INCONCLUSIVE = "inconclusive"
    INPUT_INCONSISTENT = "input_inconsistent"


RULE_NEFPSEF = "nefpsef_contrapositive"
RULE_C2_NU1 = "prop_c2_nu1"
RULE_C2_NONZERO = "prop_c2_nonzero"
RULE_MAIN_REDUCIBLE = "thm_main_reducible"
RULE_MAIN_IRREDUCIBLE = "thm_main_irreducible"
RULE_B4 = "cor_irreducible_b4"
RULE_B3 = "prop_b2_3"
RULE_B2_NULL = "prop_b2_2_null_rational"
RULE_B2_DOUBLE = "prop_b2_2_double_root"
RULE_NONE = "none"

CAVEAT_ASSUMED = (
    "positivity assumptions (nef, non-ample, ample, geometry) are taken as "
    "asserted and are not themselves verified"
)
CAVEAT_QFACTOR = (
    "irreducibility is certified over the rationals only; the cubic may "
    "factor over an extension field"
)

_FACTOR_CODES = {
    FactorKind.IRREDUCIBLE: 0,
    FactorKind.LINEAR_TIMES_QUADRIC: 1,
    FactorKind.THREE_LINEAR: 2,
    FactorKind.LINEAR_SQUARE_TIMES_LINEAR: 3,
    FactorKind.LINEAR_CUBE: 4,
}


@dataclass(frozen=True)
class Check:
    """One replayable numeric fact: op applied to operands gives value."""

    label: str
    op: str
    value: Rat
    operands: tuple


@dataclass(frozen=True)
class Assumptions:
    d_is_nef_nonample: bool = True
    h_is_ample: bool = True
    x_is_calabi_yau: bool = True


@dataclass(frozen=True)
class Options:
    depth: int = 3
    budget: int = 500
    seed: int = 0

    def __post_init__(self):
        if self.depth < 1 or self.budget < 1:
            raise ValueError("depth and budget must be positive")


@dataclass
class Certificate:
    conclusion: Conclusion
    rule: str
    witnesses: dict[str, Divisor] = field(default_factory=dict)
    trace: list[Check] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)
    assumptions: Assumptions = field(default_factory=Assumptions)
    caveats: list[str] = field(default_factory=list)


class _Pipeline:
    def __init__(self, form, c2, d, h, assumptions, options):
        self.form: IntersectionForm = form
        self.c2: LinearClass = c2
        self.d = _as_divisor(d, "D")
        self.h = _as_divisor(h, "H") if h is not None else None
        self.asm = assumptions or Assumptions()
        self.opts = options or Options()
        self.trace: list[Check] = []
        self.warnings: list[str] = []
        self.caveats: list[str] = [CAVEAT_ASSUMED]
        self.witnesses: dict[str, Divisor] = {"D": self.d}
        # D's tangent pass: cube(D), nu(D) and the rules that walk tangent
        # lines at D all read it
        self.point: Point | None = None
        if self.h is not None:
            self.witnesses["H"] = self.h

    def check(self, label: str, op: str, value, *operands) -> Rat:
        value = frac(value)
        self.trace.append(Check(label, op, value, tuple(operands)))
        return value

    def finish(self, conclusion: Conclusion, rule: str) -> Certificate:
        return Certificate(
            conclusion=conclusion,
            rule=rule,
            witnesses=self.witnesses,
            trace=self.trace,
            warnings=self.warnings,
            assumptions=self.asm,
            caveats=self.caveats,
        )

    # -- rule steps, in pipeline order ------------------------------------

    def run(self) -> Certificate:
        form, c2, d = self.form, self.c2, self.d
        if d.rank != form.rank:
            raise ValueError(f"divisor has {d.rank} coordinates, expected {form.rank}")
        if d.is_zero:
            raise ValueError("the distinguished divisor is zero")
        self.warnings.extend(
            validate_input(form, c2, nef=[d], ample=[self.h] if self.h is not None else [])
        )
        self.point = Point(form, d, "D")
        cube_d = self.check("cube(D)", "cube", self.point.cube(), d.coords)
        if cube_d != 0:
            return self.finish(Conclusion.CERTIFIED, RULE_NEFPSEF)
        nu = self.check("nu(D)", "nu", self.point.nu(), d.coords)
        if nu == 0:
            self.warnings.append(
                "D is numerically trivial (nu = 0); no nef non-ample divisor on the "
                "intended geometry can satisfy this"
            )
            return self.finish(Conclusion.INPUT_INCONSISTENT, RULE_NONE)
        if nu == 1:
            return self.finish(Conclusion.CERTIFIED, RULE_C2_NU1)
        c2d = self.check("c2(D)", "c2", c2.pair(d), d.coords)
        if c2d != 0:
            return self.finish(Conclusion.CERTIFIED, RULE_C2_NONZERO)
        rank = form.rank
        if rank == 2:
            return self.rule_rank2()
        # no rank-1 input gets here: cube(D) = 0 with D != 0 forces d_000 = 0, so nu(D) = 0
        fac = factor_cubic(form, self.opts.seed)
        self.check("factor_kind", "factor_kind", _FACTOR_CODES[fac.kind], self.opts.seed)
        if fac.kind is FactorKind.IRREDUCIBLE:
            self.caveats.append(CAVEAT_QFACTOR)
            if rank == 3:
                return self.rule_rank3()
            trace = chase(form, c2, self.point, self.opts.depth, self.opts.budget)
            if trace.witness is not None:
                self.witnesses["E"] = trace.witness
                self.check("c2(E)", "c2", c2.pair(trace.witness), trace.witness.coords)
                self.check("cube(E)", "cube", trace.witness_cube, trace.witness.coords)
            return self.finish(
                Conclusion.CERTIFIED, RULE_B4 if rank == 4 else RULE_MAIN_IRREDUCIBLE
            )
        if rank < 5:
            self.warnings.append(
                f"the rank-{rank} criterion needs an irreducible cubic; this one factors "
                f"({fac.kind.value})"
            )
            return self.finish(Conclusion.INCONCLUSIVE, RULE_NONE)
        if fac.kind is FactorKind.LINEAR_TIMES_QUADRIC:
            return self._reducible_quadric(fac)
        self.warnings.append(
            f"the cubic splits into linear factors ({fac.kind.value}); no geometry "
            "with the asserted positivity has such a degenerate cubic"
        )
        return self.finish(Conclusion.INPUT_INCONSISTENT, RULE_NONE)

    def _reducible_quadric(self, fac) -> Certificate:
        form, c2 = self.form, self.c2
        lin = fac.linears[0]
        quad = fac.quadric
        verdict = isotropic_vector(quad)
        if verdict.kind is IsotropyKind.DEGENERATE:
            for r in verdict.radical_basis:
                point = Point(form, r)
                if point.nu() == 1:
                    e = point.divisor
                    self.witnesses["E"] = e
                    self.check("nu(E)", "nu", 1, e.coords)
                    self.check("cube(E)", "cube", point.cube(), e.coords)
                    return self.finish(Conclusion.CERTIFIED, RULE_C2_NU1)
            self.warnings.append(
                "the quadric factor is degenerate and no radical class has "
                "numerical dimension 1; the reducible criterion does not apply"
            )
            return self.finish(Conclusion.INCONCLUSIVE, RULE_NONE)
        if verdict.kind is IsotropyKind.ANISOTROPIC:
            # a nondegenerate form in rank >= 5 variables is anisotropic only
            # over the reals (Meyer's theorem): it is definite
            self.warnings.append(
                "the quadric factor is definite; the null cone of the asserted "
                "geometry cannot contain a definite quadric component"
            )
            return self.finish(Conclusion.INPUT_INCONSISTENT, RULE_NONE)
        try:
            samples = sample_points(quad, verdict.witness, 8, avoid=[lin, tuple(c2.coords)])
        except InsufficientPoints as exc:
            self.warnings.append(f"constructive point search gave out: {exc}")
            return self.finish(Conclusion.INCONCLUSIVE, RULE_NONE)
        e = Divisor(min(samples, key=enum_key))
        self.witnesses["E"] = e
        self.check(
            "Q(E)", "quad", quad.evaluate(e.coords), tuple(quad.gram), e.coords
        )
        self.check("L(E)", "dot", vec_dot(lin, e.coords), lin, e.coords)
        self.check("c2(E)", "c2", c2.pair(e), e.coords)
        self.check("cube(E)", "cube", self.form.cube(e), e.coords)
        return self.finish(Conclusion.CERTIFIED, RULE_MAIN_REDUCIBLE)

    def rule_rank3(self) -> Certificate:
        """The rank-3 rule on an irreducible cubic: residuals through its
        singular point P, or the tangent line at a smooth D."""
        form, c2, d = self.form, self.c2, self.d
        # every tangent line below has a residual: a line on the cubic would be
        # a rational line, and its linear form would divide the irreducible cubic
        p = ternary_singular_point(form)
        if p is not None:
            self.witnesses["P"] = p
            point = Point(form, p)
            self.check("cube(P)", "cube", point.cube(), p.coords)
            self.check("nu(P)", "nu", point.nu(), p.coords)
            for _, (e, cube_e, e_key) in _tangent_residuals(form, point, self.opts.budget):
                if e_key == point.key:
                    continue
                if c2.pair(e) != 0:
                    self.witnesses["E"] = e
                    self.check("cube(E)", "cube", cube_e, e.coords)
                    self.check("c2(E)", "c2", c2.pair(e), e.coords)
                    return self.finish(Conclusion.CERTIFIED, RULE_B3)
            self.warnings.append(
                "the cubic is singular but no residual class through the singular "
                "point had nonzero c2 pairing within the budget"
            )
            return self.finish(Conclusion.INCONCLUSIVE, RULE_NONE)
        # smooth cubic: walk to the residual of the tangent line at D; nu(D) = 2,
        # so the tangent plane is a rank-2 lattice with directions besides D
        point = self.point
        direction, (e, cube_e, e_key) = next(_tangent_residuals(form, point, 1))
        if e_key == point.key:
            x = direction.coords
            self.check("T(D,x,x)", "triple", form.triple(d, x, x), d.coords, x, x)
            self.warnings.append(
                "D is an inflection point of the cubic: the tangent line returns "
                "to D and the residual construction degenerates"
            )
            return self.finish(Conclusion.INCONCLUSIVE, RULE_NONE)
        self.witnesses["E"] = e
        self.check("cube(E)", "cube", cube_e, e.coords)
        self.check("T(D,D,E)", "triple", point.triple(e), d.coords, d.coords, e.coords)
        # cube(E) = 0 was checked by `_residual`: the flex value is T(E, F, F)
        val, g = _flex_value(form, Point(form, e))
        self.witnesses["F"] = g
        self.check("T(E,F,F)", "triple", val, e.coords, g.coords, g.coords)
        if val != 0:
            return self.finish(Conclusion.CERTIFIED, RULE_B3)
        self.warnings.append(
            "the residual class E is an inflection point: D, E and the tangent "
            "direction F satisfy T(D,D,E) = T(E,E,F) = T(E,F,F) = cube(E) = 0, "
            "the precise obstruction to the rank-3 criterion"
        )
        return self.finish(Conclusion.INCONCLUSIVE, RULE_NONE)

    def rule_rank2(self) -> Certificate:
        """The rank-2 rule: the null rays of the binary cubic f(x E0 + y D) =
        a x^3 + 3b x^2 y + 3c x y^2 besides D, where E0 is the basis vector
        off D, a = cube(E0), b = T(E0, E0, D) and c = T(E0, D, D).  E0's
        `Point` gives a and b, D's gives c, and the double-root class D' gives
        its two triples and nu from its own."""
        form, c2, d, point = self.form, self.c2, self.d, self.point
        e0 = Divisor(next(b for b in [(1, 0), (0, 1)] if b != point.key))
        e0_point = Point(form, e0)
        a = self.check("cube(E0)", "cube", e0_point.cube(), e0.coords)
        b = self.check("T(E0,E0,D)", "triple", e0_point.triple(d), e0.coords, e0.coords, d.coords)
        c = self.check("T(E0,D,D)", "triple", point.triple(e0), e0.coords, d.coords, d.coords)
        # nu(D) = 2 here, so sigma = T(D, D, -) is nonzero and vanishes on D:
        # c = sigma(E0) != 0.  So no ray below is (0, 0), and none is D, which
        # would need -3b +- s = 0, i.e. ac = 0
        rays: list[tuple[Rat, Rat]] = []
        disc = None
        if a == 0:
            rays += [(1, 0), (c, -b)]
        else:
            disc = self.check("disc", "b2disc", 9 * b * b - 12 * a * c, e0.coords, d.coords)
            s = is_perfect_square(disc)
            if s is not None:
                self.check("sqrt(disc)", "b2disc_sqrt", s, e0.coords, d.coords)
                rays.append((-3 * b + s, 2 * a))
                rays.append((-3 * b - s, 2 * a))
        seen = set()
        for x, y in rays:
            ray = primitive_vector(tuple(x * u + y * v for u, v in zip(e0.coords, d.coords)))
            key = canonical_vector(ray)
            if key in seen:
                continue
            seen.add(key)
            if c2.pair(ray) != 0:
                e = Divisor(ray)
                self.witnesses["E"] = e
                self.check("cube(E)", "cube", form.cube(e), e.coords)
                self.check("c2(E)", "c2", c2.pair(e), e.coords)
                return self.finish(Conclusion.CERTIFIED, RULE_B2_NULL)
        if a != 0 and disc == 0:
            # s = 0: both rays are the double root D', the loop's last
            dp = Point(form, ray)
            self.witnesses["Dprime"] = dp.divisor
            dpc = dp.divisor.coords
            self.check("T(D',D',D)", "triple", dp.triple(d), dpc, dpc, d.coords)
            self.check("T(D',D',E0)", "triple", dp.triple(e0), dpc, dpc, e0.coords)
            nu_dp = self.check("nu(D')", "nu", dp.nu(), dpc)
            if nu_dp == 1:
                return self.finish(Conclusion.CERTIFIED, RULE_B2_DOUBLE)
            self.warnings.append(
                f"the double-root class has numerical dimension {nu_dp}, not 1; "
                "the degenerate-ray criterion does not apply"
            )
            return self.finish(Conclusion.INCONCLUSIVE, RULE_NONE)
        if disc is not None and s is None:
            self.warnings.append(
                "the restricted cubic has no rational null ray besides D "
                "(discriminant is not a rational square)"
            )
        else:
            self.warnings.append(
                "every rational null ray pairs to zero with c2; nothing certifies"
            )
        return self.finish(Conclusion.INCONCLUSIVE, RULE_NONE)


def certify(
    form: IntersectionForm,
    c2: LinearClass,
    d,
    h=None,
    assumptions: Assumptions | None = None,
    options: Options | None = None,
) -> Certificate:
    """Run the rule pipeline and produce a certificate with a replayable trace."""
    return _Pipeline(form, c2, d, h, assumptions, options).run()


def _b2disc(form: IntersectionForm, e0, d) -> Rat:
    """The discriminant 9 b^2 - 12 a c of the cubic restricted to the span of
    E0 and D, with a = T(E0,E0,E0), b = T(E0,E0,D), c = T(E0,D,D)."""
    b = form.triple(e0, e0, d)
    return 9 * b * b - 12 * form.cube(e0) * form.triple(e0, d, d)


def replay_check(form: IntersectionForm, c2: LinearClass, chk: Check) -> Rat:
    """Recompute the value of a single trace check from the raw input."""
    op, args = chk.op, chk.operands
    if op == "cube":
        return form.cube(args[0])
    if op == "triple":
        return form.triple(args[0], args[1], args[2])
    if op == "c2":
        return c2.pair(args[0])
    if op == "nu":
        return form.numerical_dimension(args[0])
    if op == "dot":
        return vec_dot(args[0], args[1])
    if op == "quad":
        return QuadraticForm(args[0]).evaluate(args[1])
    if op == "b2disc":
        return _b2disc(form, *args)
    if op == "b2disc_sqrt":
        s = is_perfect_square(_b2disc(form, *args))
        if s is None:
            raise ValueError("discriminant is not a perfect square on replay")
        return s
    if op == "factor_kind":
        fac = factor_cubic(form, int(args[0]))
        return _FACTOR_CODES[fac.kind]
    raise ValueError(f"unknown check op {op!r}")


def replay(form: IntersectionForm, c2: LinearClass, cert: Certificate) -> bool:
    """Re-evaluate every trace check; True when all recorded values match."""
    return all(replay_check(form, c2, chk) == chk.value for chk in cert.trace)
