"""Numerical intersection data: trilinear form, divisor classes, dimension.

The ambient lattice has rank b; a symmetric trilinear form d_ijk plays the
role of the cup product on divisor classes and a linear form c2 pairs against
them.  All queries are exact.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import compress
from operator import mul
from typing import Iterable, Mapping, Sequence

from .exactmath import Rat, Vec, canonical_vector, cleared, frac, primitive_vector, ratio, vec, vec_dot


@dataclass(frozen=True)
class Divisor:
    """A divisor class: coordinates in the chosen lattice basis."""

    coords: Vec
    name: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "coords", vec(self.coords))

    @property
    def rank(self) -> int:
        return len(self.coords)

    @property
    def is_zero(self) -> bool:
        return not any(self.coords)

    def primitive(self) -> "Divisor":
        return Divisor(primitive_vector(self.coords), self.name)

    def canonical(self) -> "Divisor":
        return Divisor(canonical_vector(self.coords), self.name)

    def __add__(self, other: "Divisor") -> "Divisor":
        return Divisor(tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "Divisor") -> "Divisor":
        return Divisor(tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __rmul__(self, s) -> "Divisor":
        s = frac(s)
        return Divisor(tuple(s * c for c in self.coords))

    def __iter__(self):
        return iter(self.coords)


def _as_divisor(x, name: str | None = None) -> Divisor:
    """x as a Divisor, renamed to `name` when one is given."""
    if isinstance(x, Divisor):
        return x if name is None or x.name == name else Divisor(x.coords, name)
    return Divisor(x, name)


@dataclass(frozen=True)
class LinearClass:
    """A linear functional on divisor classes (e.g. the second Chern class)."""

    coords: Vec
    name: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "coords", vec(self.coords))

    @property
    def rank(self) -> int:
        return len(self.coords)

    @property
    def is_zero(self) -> bool:
        return not any(self.coords)

    def pair(self, d: Divisor | Sequence) -> Rat:
        other = d.coords if isinstance(d, Divisor) else vec(d)
        return vec_dot(self.coords, other)


class IntersectionForm:
    """Symmetric trilinear form with integer structure constants d_ijk.

    Entries are stored once per sorted index triple i <= j <= k.  `monomials`
    holds each as (i, j, k, w), w = d_ijk times the number of distinct
    orderings of ijk: the coefficient of x_i x_j x_k in the cubic T(x, x, x).
    Every evaluation is one integer pass over these, O(number of entries).
    `incidence[c]` lists the positions in `monomials` of the entries whose
    key holds c, so a vector with few nonzero coordinates can be evaluated
    on the entries that touch them alone.
    """

    def __init__(self, rank: int, entries: Mapping[tuple[int, int, int], int]):
        if rank < 1:
            raise ValueError("rank must be positive")
        self.rank = rank
        table: dict[tuple[int, int, int], int] = {}
        for key, value in entries.items():
            if len(key) != 3:
                raise ValueError(f"intersection index {key} must have three entries")
            i, j, k = sorted(key)
            if not (0 <= i and k < rank):
                raise ValueError(f"intersection index {key} out of range for rank {rank}")
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"intersection value for {key} must be an integer, got {value!r}")
            if value == 0:
                continue
            if (i, j, k) in table and table[(i, j, k)] != value:
                raise ValueError(f"conflicting values for intersection index {(i, j, k)}")
            table[(i, j, k)] = value
        self.entries = table
        self.monomials: list[tuple[int, int, int, int]] = []
        self.incidence: list[list[int]] = [[] for _ in range(rank)]
        for pos, ((i, j, k), value) in enumerate(table.items()):
            self.monomials.append(
                (i, j, k, value * (1 if i == k else 3 if i == j or j == k else 6))
            )
            self.incidence[i].append(pos)
            if j != i:
                self.incidence[j].append(pos)
            if k != j:
                self.incidence[k].append(pos)

    @classmethod
    def diagonal(cls, values: Sequence[int]) -> "IntersectionForm":
        return cls(len(values), {(i, i, i): v for i, v in enumerate(values)})

    def _coords(self, d) -> Vec:
        c = d.coords if isinstance(d, Divisor) else vec(d)
        if len(c) != self.rank:
            raise ValueError(f"divisor has {len(c)} coordinates, expected {self.rank}")
        return c

    def _scaled(self, d) -> tuple[tuple[int, ...], int]:
        """Integer coordinates and their common denominator."""
        return cleared(self._coords(d))

    def triple(self, a, b, c) -> Rat:
        """The full trilinear evaluation T(a, b, c)."""
        x, dx = self._scaled(a)
        y, dy = (x, dx) if b is a else self._scaled(b)
        z, dz = (x, dx) if c is a else self._scaled(c)
        if x == y == z:
            total = sum(w * x[i] * x[j] * x[k] for i, j, k, w in self.monomials)
        else:
            # w / 6 times the sum over all six orderings is T's sum over the
            # distinct orderings of ijk; every term is a multiple of 6
            total = sum(
                w * (x[i] * (y[j] * z[k] + y[k] * z[j])
                     + x[j] * (y[i] * z[k] + y[k] * z[i])
                     + x[k] * (y[i] * z[j] + y[j] * z[i]))
                for i, j, k, w in self.monomials
            ) // 6
        return ratio(total, dx * dy * dz)

    def cube(self, d) -> Rat:
        return self.triple(d, d, d)

    def _square(self, x: tuple[int, ...]) -> list[int]:
        """T(x, x, e_k) for every k, from integer coordinates x, in one pass:
        the gradient of the cubic, divided by 3."""
        out = [0] * self.rank
        for i, j, k, w in self.monomials:
            out[i] += w * x[j] * x[k]
            out[j] += w * x[i] * x[k]
            out[k] += w * x[i] * x[j]
        return [t // 3 for t in out]

    def _cube_and_polar(self, p: tuple[int, ...], x: tuple[int, ...]) -> tuple[int, int]:
        """(T(x, x, x), T(p, x, x)) from integer coordinates p and x, in one
        pass over the entries that touch the support of x: every other entry
        has a factor x_c = 0 in both sums (each term of the second takes two of
        its three coordinates from x)."""
        touching = set().union(*(self.incidence[c] for c in compress(range(self.rank), x)))
        cube = polar = 0
        for pos in touching:
            i, j, k, w = self.monomials[pos]
            xi, xj, xk = x[i], x[j], x[k]
            cube += w * xi * xj * xk
            polar += w * (p[i] * xj * xk + p[j] * xi * xk + p[k] * xi * xj)
        # w / 3 times the bracket is T's sum over the distinct orderings of
        # ijk with p in one slot; every term is a multiple of 3
        return cube, polar // 3

    def square_class(self, d) -> LinearClass:
        """The linear functional T(d, d, -) in basis coordinates."""
        x, den = self._scaled(d)
        return LinearClass(tuple(ratio(t, den * den) for t in self._square(x)))

    def numerical_dimension(self, d) -> int:
        """nu(d) in {0,1,2,3}: largest power of d that is nonzero in the ring,
        from one `_square` pass (see `_nu`)."""
        x, _ = self._scaled(d)
        return self._nu(x, self._square(x))

    def _nu(self, x: tuple[int, ...], s: Sequence[int]) -> int:
        """nu from integer coordinates x and s = `_square(x)`: a `Point`,
        which holds s, reads nu with no second pass, and `_polar` runs only
        when s vanishes."""
        if any(s):
            # cube(d) = T(d, d, -) . d, up to the positive factor den^3
            return 3 if sum(map(mul, s, x)) else 2
        return 1 if any(self._polar(x).values()) else 0

    def _polar(self, x: tuple[int, ...]) -> dict[tuple[int, int], int]:
        """T(x, e_a, e_b) keyed (a, b) for a <= b, from integer coordinates x;
        pairs no entry touches are absent.  An entry on ijk adds d_ijk x_c to
        the pair left when one c is taken out of ijk, once per distinct c."""
        pairs: dict[tuple[int, int], int] = {}
        for (i, j, k), v in self.entries.items():
            pairs[j, k] = pairs.get((j, k), 0) + v * x[i]
            if j != i:
                pairs[i, k] = pairs.get((i, k), 0) + v * x[j]
            if k != j:
                pairs[i, j] = pairs.get((i, j), 0) + v * x[k]
        return pairs


class Point:
    """A nonzero class p with its tangent pass, made once: integer coordinates
    x over the common denominator den, s = T(x, x, -) from one `_square` pass,
    and the number of zero coordinates.  The class as given is `divisor`.

    By Euler's identity cube(p) = s . x / den^3, nu(p) is `_nu(x, s)`,
    T(p, p, y) = s . y / den^2 and the square class T(p, p, -) is s / den^2,
    so none of them makes a second pass.  The canonical key is made on first
    use.  A point need not be on the cubic; `what` names it in the error for
    a zero class."""

    __slots__ = ("form", "divisor", "x", "den", "s", "zeros", "_key")

    def __init__(self, form: IntersectionForm, d, what: str = "point"):
        divisor = _as_divisor(d)
        if divisor.is_zero:
            raise ValueError(f"{what} must be nonzero")
        self.form, self.divisor = form, divisor
        self.x, self.den = form._scaled(divisor)
        self.s = form._square(self.x)
        self.zeros = self.x.count(0)
        self._key = None

    @property
    def key(self) -> tuple[int, ...]:
        if self._key is None:
            self._key = canonical_vector(self.x)
        return self._key

    def cube(self) -> Rat:
        return ratio(sum(map(mul, self.s, self.x)), self.den ** 3)

    def nu(self) -> int:
        return self.form._nu(self.x, self.s)

    def square_class(self) -> LinearClass:
        """T(p, p, -)."""
        return LinearClass(tuple(ratio(t, self.den ** 2) for t in self.s))

    def triple(self, y) -> Rat:
        """T(p, p, y)."""
        yi, yden = self.form._scaled(y)
        return ratio(sum(map(mul, self.s, yi)), self.den ** 2 * yden)


def nef_threshold(form: IntersectionForm, h: Divisor, d: Divisor) -> Fraction:
    """The positive t0 with cube(h - t0*d) = 0, for d of numerical dimension 1.

    With d^2 = 0 and d.h^2 != 0 the cubic in t collapses to a linear equation,
    so t0 = h^3 / (3 d.h^2) is exact.
    """
    nu = form.numerical_dimension(d)
    if nu != 1:
        raise ValueError(f"numerical dimension of d is {nu}, need exactly 1")
    dh2 = form.triple(d, h, h)
    if dh2 == 0:
        raise ValueError("triple(d, h, h) = 0; the ray h - t*d never leaves the null cone")
    return Fraction(form.cube(h), 3 * dh2)


def positivity_flags(form: IntersectionForm, n: Divisor, h: Divisor) -> tuple[bool, bool, bool]:
    """(n^3 > 0, n^2.h > 0, n.h^2 > 0) for a class n against a reference h."""
    return (
        form.cube(n) > 0,
        form.triple(n, n, h) > 0,
        form.triple(n, h, h) > 0,
    )


def validate_input(
    form: IntersectionForm,
    c2: LinearClass,
    nef: Iterable[Divisor] = (),
    ample: Iterable[Divisor] = (),
) -> list[str]:
    """Consistency warnings for asserted positivity data.

    Returns human-readable warnings; hard shape errors raise instead.
    """
    if c2.rank != form.rank:
        raise ValueError(f"c2 has {c2.rank} coordinates, expected {form.rank}")
    warnings: list[str] = []
    if c2.is_zero:
        warnings.append(
            "c2 pairing vanishes identically; c2(X) != 0 is required for a "
            "Calabi-Yau threefold"
        )
    for h in ample:
        if h.rank != form.rank:
            raise ValueError(f"divisor {h.name or h.coords} has wrong rank")
        val = c2.pair(h)
        if val <= 0:
            warnings.append(
                f"divisor {h.name or tuple(map(str, h.coords))} asserted ample "
                f"but c2 pairing is {val}: Miyaoka strictness violated"
            )
    for d in nef:
        if d.rank != form.rank:
            raise ValueError(f"divisor {d.name or d.coords} has wrong rank")
        val = c2.pair(d)
        if val < 0:
            warnings.append(
                f"divisor {d.name or tuple(map(str, d.coords))} asserted nef "
                f"but c2 pairing is {val}: Miyaoka nonnegativity violated"
            )
    return warnings
