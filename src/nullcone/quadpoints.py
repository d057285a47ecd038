"""Rational points on quadrics: local solvability, explicit zeros, sampling.

A quadratic form is held as an exact symmetric Gram matrix.  Deciding whether
it has a nontrivial rational zero goes through the classical local conditions
(real place plus the relevant primes); when a zero exists one is produced by
constructive descent, never by floating search.

A form keeps its rational Gram S, which certificates record, and builds the
integral Gram den S once (den the lcm of S's denominators): evaluation,
diagonalization, the Gram search and the secant sweep run on it in ints.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence

from .exactmath import (
    Mat,
    Poly,
    Rat,
    canonical_vector,
    cleared,
    factorint,
    frac,
    is_probable_prime,
    is_perfect_square,
    iter_primitive_vectors,
    kernel_basis,
    mat_identity,
    mat_vec,
    primitive_vector,
    ratio,
    unit_keys,
    vec,
    vec_dot,
)


class InsufficientPoints(RuntimeError):
    """Point sampling could not reach the requested count within its bound."""


# ---------------------------------------------------------------------------
# integer utilities (squarefree parts, square roots mod p)

def squarefree_split(n: int) -> tuple[int, int]:
    """Write n = s * t^2 with s squarefree (s carries the sign of n)."""
    if n == 0:
        raise ValueError("zero has no squarefree part")
    s, t = (1 if n > 0 else -1), 1
    for p, e in factorint(n).items():
        if e % 2:
            s *= p
        t *= p ** (e // 2)
    return s, t


def squarefree_part(n: int) -> int:
    return squarefree_split(n)[0]


def _sqrt_mod_prime(a: int, p: int) -> int | None:
    """A square root of a modulo prime p, or None if a is a non-residue."""
    a %= p
    if p == 2 or a == 0:
        return a % p
    if pow(a, (p - 1) // 2, p) != 1:
        return None
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        i, tt = 0, t
        while tt != 1:
            tt = tt * tt % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        r, t = r * b % p, t * b * b % p
    return r


def _crt(residues: Sequence[int], moduli: Sequence[int]) -> int:
    x, m = 0, 1
    for r, n in zip(residues, moduli):
        inv = pow(m % n, -1, n)
        x = x + m * ((r - x) * inv % n)
        m *= n
    return x % m


def _sqrt_mod_squarefree(a: int, m: int) -> int | None:
    """A square root of a modulo squarefree m >= 1 (CRT over prime factors)."""
    if m == 1:
        return 0
    residues, moduli = [], []
    for p in sorted(factorint(m)):
        r = _sqrt_mod_prime(a, p)
        if r is None:
            return None
        residues.append(r)
        moduli.append(p)
    return _crt(residues, moduli)


# ---------------------------------------------------------------------------
# quadratic forms


@dataclass(frozen=True)
class QuadraticForm:
    """A quadratic form: its exact symmetric Gram matrix S, den and den S."""

    gram: tuple[tuple[Rat, ...], ...]
    den: int = field(init=False, repr=False, compare=False)
    igram: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = tuple(vec(row) for row in self.gram)
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("Gram matrix must be square")
        for i in range(n):
            for j in range(i + 1, n):
                if rows[i][j] != rows[j][i]:
                    raise ValueError(f"Gram matrix not symmetric at ({i},{j})")
        object.__setattr__(self, "gram", rows)
        flat, den = cleared([e for row in rows for e in row])
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "igram", tuple(flat[i * n : i * n + n] for i in range(n)))

    @property
    def nvars(self) -> int:
        return len(self.gram)

    @property
    def is_zero(self) -> bool:
        return all(all(x == 0 for x in row) for row in self.gram)

    @classmethod
    def from_diagonal(cls, values: Sequence) -> "QuadraticForm":
        n = len(values)
        return cls(tuple(
            tuple(values[i] if i == j else 0 for j in range(n))
            for i in range(n)
        ))

    @classmethod
    def from_poly(cls, p: Poly) -> "QuadraticForm":
        if not p.is_homogeneous(2):
            raise ValueError("polynomial is not a homogeneous quadratic")
        n = p.nvars
        # the key of x_i x_j, i <= j, is u_i + u_j: its lowest set bit is u_j,
        # or 2 u_i for a square; a table of the n unit keys names them (one of
        # all n^2 / 2 pair keys would cost O(n^2) keys of O(n) bits each)
        index = {k: i for i, k in enumerate(unit_keys(n))}
        hessian = [[0] * n for _ in range(n)]
        for key, c in p.packed.items():
            low = key & -key
            i, j = (index[key >> 1],) * 2 if low == key else (index[key - low], index[low])
            hessian[i][j] = hessian[j][i] = 2 * c if i == j else c
        return cls.from_hessian(hessian)

    @classmethod
    def from_hessian(cls, b: Sequence[Sequence]) -> "QuadraticForm":
        """The form x^T b x / 2 of a symmetric matrix b, whose Hessian is b."""
        # a half is a Fraction only for an entry that is not an even integer
        return cls(tuple(tuple(x // 2 if x % 2 == 0 else Fraction(x, 2) for x in row) for row in b))

    def to_poly(self) -> Poly:
        n, a, u = self.nvars, self.igram, unit_keys(self.nvars)
        terms: dict[int, Rat] = {}
        for i in range(n):
            for j in range(i, n):
                c = a[i][j] if i == j else 2 * a[i][j]
                if c:
                    terms[u[i] + u[j]] = ratio(c, self.den)
        return Poly._of(n, terms)

    def evaluate(self, v: Sequence) -> Rat:
        x, d = cleared(vec(v))
        return ratio(vec_dot(x, mat_vec(self.igram, x)), self.den * d * d)

    def bilinear(self, v: Sequence, w: Sequence) -> Rat:
        """Polar pairing B with Q(v+w) = Q(v) + 2 B(v,w) + Q(w)."""
        (x, dx), (y, dy) = cleared(vec(v)), cleared(vec(w))
        return ratio(vec_dot(x, mat_vec(self.igram, y)), self.den * dx * dy)


def _quad(a: Sequence[Sequence[int]], x: Sequence[int]) -> int:
    """x^T a x for an integer matrix a and an integer vector x."""
    return sum(xi * sum(map(mul, row, x)) for row, xi in zip(a, x) if xi)


def radical(q: QuadraticForm) -> list[tuple[int, ...]]:
    """Canonical primitive basis of the radical (kernel of the Gram matrix)."""
    return kernel_basis([list(r) for r in q.gram])


def diagonalize(q: QuadraticForm) -> tuple[list[list[int]], list[Rat]]:
    """Congruence transform P with P^T S P diagonal; returns (P, diagonal).

    Fraction-free (Bareiss-style): elimination runs on A = den S, den the lcm
    of the Gram denominators, and keeps A = P^T (den S) P with P integral.
    Pivot k updates col_i <- |a_kk| col_i - sgn(a_kk) a_ki col_k, then divides
    P's column i by its content and A's row and column i to match, exactly.
    Every multiplier is positive, so each column of P is a positive multiple
    of the column that rational elimination (col_i -= a_ki / a_kk col_k)
    gives: the same pivots, diagonal signs and squarefree parts.  P is
    invertible, so the form is degenerate exactly when a diagonal entry is 0.

    A stays symmetric, so a congruence step computes row i of the new A
    alone, as one list update, and copies it into column i.  P is held by
    columns, so its step is one list update too, its content one gcd over
    that list; it is transposed once at the end.
    """
    n = q.nvars
    den, a = q.den, [list(row) for row in q.igram]
    # cols[j] is column j of P
    cols = mat_identity(n)

    def combine(dst: int, alpha: int, src: int, beta: int):
        # col_dst <- alpha col_dst + beta col_src, as a congruence of A: the
        # row operation first, then the column operation on its entry dst
        row = [alpha * x + beta * y for x, y in zip(a[dst], a[src])]
        row[dst] = alpha * row[dst] + beta * row[src]
        col = [alpha * x + beta * y for x, y in zip(cols[dst], cols[src])]
        g = math.gcd(*col)
        if g > 1:
            col = [x // g for x in col]
            row = [x // g for x in row]
            # the diagonal entry carries the factor twice
            row[dst] //= g
        cols[dst] = col
        a[dst] = row
        for r, x in zip(a, row):
            r[dst] = x

    def swap(i: int, j: int):
        for row in a:
            row[i], row[j] = row[j], row[i]
        a[i], a[j] = a[j], a[i]
        cols[i], cols[j] = cols[j], cols[i]

    for k in range(n):
        if a[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if a[i][i] != 0), None)
            if piv is not None:
                swap(k, piv)
            else:
                pair = next(
                    ((i, j) for i in range(k, n) for j in range(i + 1, n) if a[i][j] != 0),
                    None,
                )
                if pair is None:
                    continue
                i, j = pair
                combine(i, 1, j, 1)
                if i != k:
                    swap(k, i)
        akk = a[k][k]
        if akk == 0:
            continue
        sgn = 1 if akk > 0 else -1
        for i in range(k + 1, n):
            if a[k][i] != 0:
                combine(i, abs(akk), k, -sgn * a[k][i])
    return [list(row) for row in zip(*cols)], [ratio(a[i][i], den) for i in range(n)]


# ---------------------------------------------------------------------------
# Hilbert symbols and local solvability


def _val_unit(x: Rat, p: int) -> tuple[int, Fraction]:
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v, Fraction(num, den)


def _unit_residue(u: Fraction, m: int) -> int:
    """u mod m for a fraction whose denominator is invertible mod m."""
    return u.numerator * pow(u.denominator, -1, m) % m


def hilbert_symbol(a, b, place) -> int:
    """The Hilbert symbol (a, b) at 'real' or at a prime p, valued in {1, -1}."""
    a, b = frac(a), frac(b)
    if a == 0 or b == 0:
        raise ValueError("hilbert symbol requires nonzero arguments")
    if place == "real":
        return -1 if a < 0 and b < 0 else 1
    p = place
    if not isinstance(p, int) or isinstance(p, bool) or p < 2 or not is_probable_prime(p):
        raise ValueError(f"place must be 'real' or a prime, got {place!r}")
    alpha, u = _val_unit(a, p)
    beta, v = _val_unit(b, p)
    if p == 2:
        def eps(x: Fraction) -> int:
            return (_unit_residue(x, 8) - 1) // 2 % 2

        def omega(x: Fraction) -> int:
            return 0 if _unit_residue(x, 8) in (1, 7) else 1

        e = eps(u) * eps(v) + alpha * omega(v) + beta * omega(u)
        return -1 if e % 2 else 1
    sym = -1 if (alpha * beta * ((p - 1) // 2)) % 2 else 1
    if beta % 2:
        sym *= 1 if pow(_unit_residue(u, p), (p - 1) // 2, p) == 1 else -1
    if alpha % 2:
        sym *= 1 if pow(_unit_residue(v, p), (p - 1) // 2, p) == 1 else -1
    return sym


def _is_square_in_qp(x: int, p: int) -> bool:
    """Whether the nonzero integer x is a square in the p-adic field."""
    v, u = _val_unit(x, p)
    if v % 2:
        return False
    if p == 2:
        return _unit_residue(u, 8) == 1
    return pow(_unit_residue(u, p), (p - 1) // 2, p) == 1


def _hasse_invariant(diag: Sequence[int], place) -> int:
    out = 1
    for i in range(len(diag)):
        for j in range(i + 1, len(diag)):
            out *= hilbert_symbol(diag[i], diag[j], place)
    return out


def _relevant_primes(diag: Sequence[int]) -> list[int]:
    primes = {2}
    for d in diag:
        primes.update(factorint(d))
    return sorted(primes)


def _local_obstruction(diag: Sequence[Rat]):
    """First place where the diagonal form has no nontrivial zero.

    Returns 'real', a prime, or None when the form is isotropic.  From rank 5
    on, only the signs are read: by Meyer's theorem an indefinite form in 5 or
    more variables is isotropic (Serre, A Course in Arithmetic, IV 3.2, Cor. 2),
    so there the entries may be any nonzero rationals.  Below rank 5 they must
    be squarefree integers.  The rank-4 anisotropy test is: discriminant a
    local square and Hasse invariant equal to -(-1,-1)_p.
    """
    r = len(diag)
    if all(d > 0 for d in diag) or all(d < 0 for d in diag):
        return "real"
    if r >= 5:
        return None
    if r == 2:
        target = -diag[0] * diag[1]
        if is_perfect_square(target) is not None:
            return None
        return next(p for p, e in sorted(factorint(target).items()) if e % 2)
    if r == 3:
        a, b, c = diag
        for place in ["real"] + _relevant_primes(diag):
            if hilbert_symbol(-a * c, -b * c, place) == -1:
                return place
        return None
    disc = diag[0] * diag[1] * diag[2] * diag[3]
    for p in _relevant_primes(diag):
        if _is_square_in_qp(disc, p) and _hasse_invariant(diag, p) == -hilbert_symbol(-1, -1, p):
            return p
    return None


class IsotropyKind(str, Enum):
    ISOTROPIC = "isotropic"
    ANISOTROPIC = "anisotropic"
    DEGENERATE = "degenerate"


@dataclass(frozen=True)
class IsotropyVerdict:
    kind: IsotropyKind
    witness: tuple[int, ...] | None = None
    obstruction: object | None = None
    radical_basis: tuple[tuple[int, ...], ...] = ()


def _squarefree_scaling(diag: Sequence[Rat]) -> tuple[list[int], list[int]]:
    """(squarefree parts s_i, multipliers m_i) of a nonzero diagonal: a zero w
    of sum s_i w_i^2 lifts to the zero y_i = m_i w_i of sum diag_i y_i^2."""
    # y_i = den_i z_i turns the form into sum (num_i den_i) z_i^2 over the
    # integers; writing num_i den_i = s_i t_i^2 and z_i = (T / t_i) w_i with
    # T = lcm(t_i) clears every square part at once.
    s_parts, ts = [], []
    for d in diag:
        s, t = squarefree_split(d.numerator * d.denominator)
        s_parts.append(s)
        ts.append(t)
    t_lcm = math.lcm(*ts)
    return s_parts, [d.denominator * (t_lcm // t) for d, t in zip(diag, ts)]


def _decide_isotropy(q: QuadraticForm) -> tuple[IsotropyVerdict, Mat, list[Rat], tuple | None]:
    """The witness-free verdict, with the `diagonalize` output (P, diagonal)
    it was read from and, below rank 5, the diagonal's `_squarefree_scaling`.

    A form is degenerate exactly when a diagonal entry is 0.  From rank 5 on
    the verdict is read from the diagonal's signs alone, by Meyer's theorem
    (an indefinite form in 5 or more variables is isotropic), so nothing is
    factored; ranks 2-4 need the primes of the squarefree parts.
    """
    if q.is_zero:
        raise ValueError("the zero form is not a valid quadric")
    p, diag = diagonalize(q)
    if 0 in diag:
        verdict = IsotropyVerdict(IsotropyKind.DEGENERATE, radical_basis=tuple(radical(q)))
        return verdict, p, diag, None
    split = _squarefree_scaling(diag) if len(diag) < 5 else None
    obstruction = _local_obstruction(diag if split is None else split[0])
    if obstruction is None:
        return IsotropyVerdict(IsotropyKind.ISOTROPIC), p, diag, split
    return IsotropyVerdict(IsotropyKind.ANISOTROPIC, obstruction=obstruction), p, diag, split


def is_isotropic(q: QuadraticForm) -> IsotropyVerdict:
    """Decide rational isotropy by local conditions, without a witness; from
    rank 5 on by the signs of the diagonal alone."""
    return _decide_isotropy(q)[0]


# -- constructive zeros ------------------------------------------------------


def _ternary_descent(a: int, b: int, c: int) -> tuple[int, int, int]:
    """Nontrivial primitive zero of a x^2 + b y^2 + c z^2 (squarefree, mixed
    signs, known solvable), by classical descent.  Each reduction (a square
    t^2 out of one coefficient, a common factor g of two moved to the third)
    lifts a zero back by scaling coordinates by t or g; positive diagonal
    scalings commute, so one ``scale`` list holds them all."""
    scale = [1, 1, 1]
    abc = [a, b, c]
    while True:
        progressed = False
        for i in range(3):
            s, t = squarefree_split(abc[i])
            if t != 1:
                abc[i] = s
                for k in range(3):
                    if k != i:
                        scale[k] *= t
                progressed = True
        for i, j, k in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
            g = math.gcd(abc[i], abc[j])
            if g > 1:
                abc[i] //= g
                abc[j] //= g
                abc[k] *= g
                scale[k] *= g
                progressed = True
                break
        if not progressed:
            break
    a1, b1, c1 = abc
    u, v, w = _lagrange(-a1 * c1, -b1 * c1)
    if u % c1 != 0:
        raise AssertionError("descent produced a witness outside the lattice")
    sol = (v, w, u // c1)
    if a1 * sol[0] ** 2 + b1 * sol[1] ** 2 + c1 * sol[2] ** 2 != 0:
        raise AssertionError("descent verification failed")
    return primitive_vector([x * m for x, m in zip(sol, scale)])


def _lagrange(a: int, b: int) -> tuple[int, int, int]:
    """(u, v, w) != 0 with u^2 = a v^2 + b w^2, for squarefree a, b.

    Lagrange's reduction: take t^2 = a mod b, replace b by (t^2 - a)/b
    (smaller), recurse, and combine with the two-square-style identity.
    Raises ArithmeticError when the equation has no rational solution.
    """
    if a == 1:
        return (1, 1, 0)
    if b == 1:
        return (1, 0, 1)
    if abs(a) > abs(b):
        u, w, v = _lagrange(b, a)
        return (u, v, w)
    if a < 0 and b < 0:
        raise ArithmeticError("negative definite: no nontrivial zero")
    if abs(b) <= 4:
        for h in range(1, 9):
            rng = range(-h, h + 1)
            for u in range(0, h + 1):
                for v in rng:
                    for w in rng:
                        if max(u, abs(v), abs(w)) == h and u * u == a * v * v + b * w * w:
                            return (u, v, w)
        raise ArithmeticError("no zero at small height: form is anisotropic")
    t = _sqrt_mod_squarefree(a, abs(b))
    if t is None:
        raise ArithmeticError("a is not a square modulo b: form is anisotropic")
    if t > abs(b) // 2:
        t -= abs(b)
    b_next = (t * t - a) // b
    if b_next == 0:
        raise AssertionError("squarefree a cannot be a perfect square here")
    b_core, sq = squarefree_split(b_next)
    x, y, z = _lagrange(a, b_core)
    u = t * x + a * y
    v = x + t * y
    return primitive_vector((u, v, b_core * sq * z))


def _dense_zero_search(gram: list[list[int]], budget: int) -> tuple[int, ...] | None:
    """Bounded direct search for a nontrivial zero of an integer Gram matrix
    of size n >= 2 (`isotropic_vector` calls it from rank 4 on).

    Enumerates primitive assignments of all-but-one coordinate by increasing
    height and solves the remaining coordinate exactly; a rational root is
    accepted by scaling the whole vector.  Budget counts coordinate solves;
    returns None when it runs out.
    """
    n = len(gram)
    for i in range(n):
        if gram[i][i] == 0:
            axis = [0] * n
            axis[i] = 1
            return tuple(axis)
    others = [tuple(j for j in range(n) if j != pos) for pos in range(n)]
    evals = 0
    for v in iter_primitive_vectors(n - 1):
        evals += n
        if evals > budget:
            return None
        # a zero coordinate of v adds nothing to b or c
        nonzero = [k for k in range(n - 1) if v[k]]
        for pos in range(n):
            idx = others[pos]
            a = gram[pos][pos]
            row_pos = gram[pos]
            b = 0
            c = 0
            for t, k in enumerate(nonzero):
                vk = v[k]
                ik = idx[k]
                b += row_pos[ik] * vk
                row = gram[ik]
                c += row[ik] * vk * vk
                for l in nonzero[t + 1:]:
                    c += 2 * row[idx[l]] * vk * v[l]
            # a t^2 + 2 b t + c = 0 has a rational root iff b^2 - ac is a
            # perfect square; scale the complement by a to stay integral
            disc = b * b - a * c
            if disc < 0:
                continue
            root = math.isqrt(disc)
            if root * root != disc:
                continue
            w = [0] * n
            for k in range(n - 1):
                w[idx[k]] = a * v[k]
            w[pos] = -b + root
            return tuple(w)
    return None


def _hyperbolic_pair(diag: Sequence[Rat]) -> list[int] | None:
    """A zero a e_i + b e_j of sum diag_k y_k^2 for the first pair i < j of
    opposite square classes, else None; nothing is factored.

    With n_k = num_k den_k, diag_i = -diag_j up to squares exactly when
    -n_i n_j is a positive square r^2, and then a : b = den_i |n_j| : den_j r.
    On squarefree parts this is the first pair with s_i = -s_j.
    """
    ns = [d.numerator * d.denominator for d in diag]
    for i, j in itertools.combinations(range(len(ns)), 2):
        prod = -ns[i] * ns[j]
        r = math.isqrt(prod) if prod > 0 else 0
        if r * r == prod:
            y = [0] * len(ns)
            y[i], y[j] = diag[i].denominator * abs(ns[j]), diag[j].denominator * r
            return y
    return None


def _diagonal_zero(s: list[int]) -> tuple[int, ...]:
    """A primitive nontrivial zero of sum s_i w_i^2 (squarefree diagonal,
    known isotropic), by exact construction with no search budget.

    Rank 3 is the ternary descent; rank > 5 solves an indefinite rank-5
    subform.  Rank 4 or 5 splits as <s_0, s_1> + rest and joins the parts by
    the first squarefree u (in the order 1, -1, 2, -2, 3, ...) that
    s_0 x^2 + s_1 y^2 represents and -rest represents: a zero a of
    <s_0, s_1, -u> and a zero b of rest + <u> give (a_0 b_u, a_1 b_u, a_2 b').
    The scan ends: the rational zeros of an isotropic quadric of rank >= 3 are
    Zariski dense, so one has s_0 x_0^2 + s_1 x_1^2 != 0, and the squarefree
    part of that value is a valid u (Cassels, Rational Quadratic Forms, ch. 6).
    """
    pair = _hyperbolic_pair(s)
    if pair is not None:
        return primitive_vector(pair)
    r = len(s)
    if r == 2:
        raise AssertionError("an isotropic squarefree binary form is a hyperbolic pair")
    if r == 3:
        return _ternary_descent(*s)
    if r > 5:
        order = sorted(range(r), key=lambda i: (abs(s[i]), i))
        pos = next(i for i in order if s[i] > 0)
        neg = next(i for i in order if s[i] < 0)
        chosen = sorted([pos, neg] + [i for i in order if i not in (pos, neg)][:3])
        w = [0] * r
        for i, val in zip(chosen, _diagonal_zero([s[i] for i in chosen])):
            w[i] = val
        return tuple(w)
    rest = s[2:]
    # the first squarefree u of 1, -1, 2, -2, 3, -3, 5, ... that joins the parts
    u = next(
        u for k in itertools.count(1) if squarefree_part(k) == k for u in (k, -k)
        if _local_obstruction([s[0], s[1], -u]) is None
        and _local_obstruction(rest + [u]) is None
    )
    a = _ternary_descent(s[0], s[1], -u)
    b = _diagonal_zero(rest + [u])
    # s_0 != -s_1, so a_2 != 0 and the joined vector is nonzero
    return primitive_vector((a[0] * b[-1], a[1] * b[-1]) + tuple(a[2] * x for x in b[:-1]))


def isotropic_vector(q: QuadraticForm) -> IsotropyVerdict:
    """Like is_isotropic, but an isotropic verdict carries an explicit witness.

    A hyperbolic pair of the diagonal gives the witness at once, read off
    perfect squares without factoring.  From rank 4 on, a height-ordered
    search on the original Gram matrix comes next, since small zeros of the
    input need not be small in the diagonal basis.  Only if that budget runs
    out, or at rank 3, are the squarefree parts computed and `_diagonal_zero`
    (the ternary descent or the exact split) constructs a zero; so a form of
    rank 5 or more whose zero the pair or the search finds is never factored
    (Meyer's theorem decides it).  Every isotropic form gets a witness.
    """
    base, p, diag, split = _decide_isotropy(q)
    if base.kind is not IsotropyKind.ISOTROPIC:
        return base
    pair = _hyperbolic_pair(diag)
    x = None if pair is None else mat_vec(p, pair)
    if x is None and len(diag) >= 4:
        x = _dense_zero_search(q.igram, 300_000)
    if x is None:
        s_parts, mults = split or _squarefree_scaling(diag)
        w = _diagonal_zero(s_parts)
        x = mat_vec(p, [m * wi for m, wi in zip(mults, w)])
    x = canonical_vector(x)
    if q.evaluate(x) != 0:
        raise AssertionError("isotropic witness failed verification")
    return IsotropyVerdict(IsotropyKind.ISOTROPIC, witness=x)


# ---------------------------------------------------------------------------
# secant sampling


@dataclass(frozen=True)
class ResidualPoint:
    """Second intersection of a line with the quadric; tangent means the
    line meets the quadric doubly at the base point."""

    point: tuple[int, ...]
    tangent: bool


def _residual(
    a: Sequence[Sequence[int]], v: Sequence[int], av: Sequence[int], w: Sequence[int]
) -> tuple[tuple[int, ...], bool] | None:
    """The secant formula: second_intersection on a = den S for integer v
    and w, with av = a v computed once per sweep, as a raw (point, tangent)
    tuple, or None when the line lies on the quadric.  Scaling by den > 0 or
    a positive factor moves no point or zero.

    B(v, w) = (a v) . w and Q(w) = w^T a w are summed over supp(w) alone, so
    a direction with few nonzero coordinates costs O(|supp(w)|^2), not
    O(n^2).  The residual point is verified on the whole matrix.
    """
    supp = [i for i, x in enumerate(w) if x]
    bvw = qw = 0
    for i in supp:
        wi, row = w[i], a[i]
        bvw += av[i] * wi
        row_w = 0
        for j in supp:
            row_w += row[j] * w[j]
        qw += wi * row_w
    if bvw == 0:
        return None if qw == 0 else (primitive_vector(v), True)
    pt = primitive_vector([qw * x - 2 * bvw * y for x, y in zip(v, w)])
    if _quad(a, pt) != 0:
        raise AssertionError("residual point failed verification")
    return pt, False


def second_intersection(q: QuadraticForm, v: Sequence, w: Sequence) -> ResidualPoint | None:
    """Residual intersection of the line through v (on the quadric) along w.

    Returns None when the whole line lies on the quadric.  The formula
    Q(w) v - 2 B(v, w) w parametrizes the second root exactly.
    """
    vv, ww = vec(v), vec(w)
    if all(x == 0 for x in vv) or all(x == 0 for x in ww):
        raise ValueError("base point and direction must be nonzero")
    if q.evaluate(vv) != 0:
        raise ValueError("base point does not lie on the quadric")
    if canonical_vector(vv) == canonical_vector(ww):
        raise ValueError("direction is parallel to the base point")
    x, y = primitive_vector(vv), primitive_vector(ww)
    # `_residual` reads w on its support alone, so its length is checked here
    if len(y) != q.nvars:
        raise ValueError(f"dimension mismatch: {q.nvars} vs {len(y)}")
    found = _residual(q.igram, x, mat_vec(q.igram, x), y)
    return None if found is None else ResidualPoint(*found)


def sample_points(
    q: QuadraticForm,
    v: Sequence,
    count: int,
    avoid: Iterable[Sequence] = (),
    max_directions: int = 5000,
) -> list[tuple[int, ...]]:
    """Distinct rational points on the quadric avoiding given hyperplanes.

    Sweeps secant lines through v in deterministic (height, spiral) direction
    order; raises InsufficientPoints if max_directions lines do not suffice.
    """
    if count < 1:
        raise ValueError("count must be positive")
    a, vv = q.igram, primitive_vector(v)
    if _quad(a, vv) != 0:
        raise ValueError("base point does not lie on the quadric")
    av = mat_vec(a, vv)
    if all(x == 0 for x in av):
        raise ValueError("base point lies in the radical; all secants degenerate")
    avoid_forms = [primitive_vector(l) for l in avoid]
    v_key = canonical_vector(vv)
    out: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    for w in itertools.islice(iter_primitive_vectors(q.nvars), max_directions):
        if w == v_key:
            continue
        found = _residual(a, vv, av, w)
        if found is None or found[1]:
            continue
        point = found[0]
        key = canonical_vector(point)
        if key in seen:
            continue
        seen.add(key)
        if any(vec_dot(l, point) == 0 for l in avoid_forms):
            continue
        out.append(point)
        if len(out) == count:
            return out
    raise InsufficientPoints(
        f"found {len(out)} of {count} requested points within {max_directions} directions"
    )
