"""Rational points on quadrics: local solvability, explicit zeros, sampling.

A quadratic form is held as an exact symmetric Gram matrix.  Deciding whether
it has a nontrivial rational zero goes through the classical local conditions
(real place plus the relevant primes); when a zero exists one is produced by
constructive descent, never by floating search.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Iterable, Sequence

from .exactmath import (
    Mat,
    Poly,
    canonical_vector,
    frac,
    is_perfect_square,
    iter_primitive_vectors,
    kernel_basis,
    mat_identity,
    mat_vec,
    primitive_vector,
    vec,
    vec_dot,
)


class SearchExhausted(RuntimeError):
    """A bounded constructive search ran out of budget without an answer."""


class InsufficientPoints(RuntimeError):
    """Point sampling could not reach the requested count within its bound."""


# ---------------------------------------------------------------------------
# integer utilities (factoring, square roots mod p)

_SMALL_PRIMES: list[int] = []
_sieve_limit = 1000
_is_comp = bytearray(_sieve_limit)
for _n in range(2, _sieve_limit):
    if not _is_comp[_n]:
        _SMALL_PRIMES.append(_n)
        for _m in range(_n * _n, _sieve_limit, _n):
            _is_comp[_m] = 1
del _is_comp, _n


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with a fixed base set (deterministic far past 2^64)."""
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of composite odd n (Brent's cycle variant)."""
    if n % 2 == 0:
        return 2
    for c in itertools.count(1):
        x = y = 2
        d = 1
        f = lambda v: (v * v + c) % n
        while d == 1:
            x = f(x)
            y = f(f(y))
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d


def factorint(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {prime: exponent}; n must be nonzero."""
    if n == 0:
        raise ValueError("cannot factor zero")
    n = abs(n)
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        if p * p > n:
            break
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_probable_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.extend((d, m // d))
    return out


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
    """A quadratic form given by its exact symmetric Gram matrix."""

    gram: tuple[tuple[Fraction, ...], ...]

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
            tuple(frac(values[i]) if i == j else Fraction(0) for j in range(n))
            for i in range(n)
        ))

    @classmethod
    def from_poly(cls, p: Poly) -> "QuadraticForm":
        if not p.is_homogeneous(2):
            raise ValueError("polynomial is not a homogeneous quadratic")
        n = p.nvars
        g = [[Fraction(0)] * n for _ in range(n)]
        for e, c in p.terms.items():
            idx = [i for i, k in enumerate(e) for _ in range(k)]
            i, j = idx
            if i == j:
                g[i][i] = c
            else:
                g[i][j] += c / 2
                g[j][i] += c / 2
        return cls(tuple(tuple(row) for row in g))

    def to_poly(self) -> Poly:
        n = self.nvars
        terms: dict[tuple[int, ...], Fraction] = {}
        for i in range(n):
            for j in range(i, n):
                c = self.gram[i][j] if i == j else 2 * self.gram[i][j]
                if c:
                    e = [0] * n
                    e[i] += 1
                    e[j] += 1
                    terms[tuple(e)] = terms.get(tuple(e), Fraction(0)) + c
        return Poly(n, terms)

    def evaluate(self, v: Sequence) -> Fraction:
        x = vec(v)
        return vec_dot(x, mat_vec([list(r) for r in self.gram], x))

    def bilinear(self, v: Sequence, w: Sequence) -> Fraction:
        """Polar pairing B with Q(v+w) = Q(v) + 2 B(v,w) + Q(w)."""
        x = vec(v)
        return vec_dot(x, mat_vec([list(r) for r in self.gram], vec(w)))


def radical(q: QuadraticForm) -> list[tuple[int, ...]]:
    """Canonical primitive basis of the radical (kernel of the Gram matrix)."""
    return kernel_basis([list(r) for r in q.gram])


def diagonalize(q: QuadraticForm) -> tuple[Mat, list[Fraction]]:
    """Congruence transform P with P^T S P diagonal; returns (P, diagonal)."""
    n = q.nvars
    s = [list(row) for row in q.gram]
    p = mat_identity(n)

    def add_col(dst: int, src: int, c: Fraction):
        for r in range(n):
            s[r][dst] += c * s[r][src]
        for r in range(n):
            s[dst][r] += c * s[src][r]
        for r in range(n):
            p[r][dst] += c * p[r][src]

    def swap(i: int, j: int):
        for r in range(n):
            s[r][i], s[r][j] = s[r][j], s[r][i]
        s[i], s[j] = s[j], s[i]
        for r in range(n):
            p[r][i], p[r][j] = p[r][j], p[r][i]

    for k in range(n):
        if s[k][k] == 0:
            piv = next((i for i in range(k + 1, n) if s[i][i] != 0), None)
            if piv is not None:
                swap(k, piv)
            else:
                pair = next(
                    ((i, j) for i in range(k, n) for j in range(i + 1, n) if s[i][j] != 0),
                    None,
                )
                if pair is None:
                    continue
                i, j = pair
                add_col(i, j, Fraction(1))
                if i != k:
                    swap(k, i)
        if s[k][k] == 0:
            continue
        for i in range(k + 1, n):
            if s[k][i] != 0:
                add_col(i, k, -s[k][i] / s[k][k])
    return p, [s[i][i] for i in range(n)]


# ---------------------------------------------------------------------------
# Hilbert symbols and local solvability


def _val_unit(x: Fraction, p: int) -> tuple[int, Fraction]:
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
    v, u = _val_unit(Fraction(x), p)
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


def _local_obstruction(diag: Sequence[int]):
    """First place where the squarefree diagonal form has no nontrivial zero.

    Returns 'real', a prime, or None when the form is isotropic.  The rank-4
    anisotropy test is: discriminant a local square and Hasse invariant equal
    to -(-1,-1)_p.  Rank >= 5 indefinite forms are always isotropic.
    """
    r = len(diag)
    if r <= 1:
        return "real"
    if all(d > 0 for d in diag) or all(d < 0 for d in diag):
        return "real"
    if r >= 5:
        return None
    if r == 2:
        target = -diag[0] * diag[1]
        if is_perfect_square(target) is not None:
            return None
        for p, e in sorted(factorint(target).items()):
            if e % 2:
                return p
        raise AssertionError("non-square with all even valuations")
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


def _squarefree_diagonal(q: QuadraticForm) -> tuple[Mat, list[Fraction], list[int], list[int]]:
    """Diagonalize and scale to a squarefree integer diagonal.

    Returns (P, diagonal, squarefree parts s_i, multipliers m_i) where a zero
    w of sum s_i w_i^2 lifts to the original form via y_i = m_i w_i, x = P y.
    """
    p, diag = diagonalize(q)
    # y_i = den_i z_i turns the form into sum (num_i den_i) z_i^2 over the
    # integers; writing num_i den_i = s_i t_i^2 and z_i = (T / t_i) w_i with
    # T = lcm(t_i) clears every square part at once.
    s_parts, ts = [], []
    for d in diag:
        s, t = squarefree_split(d.numerator * d.denominator)
        s_parts.append(s)
        ts.append(t)
    t_lcm = math.lcm(*ts)
    mults = [d.denominator * (t_lcm // t) for d, t in zip(diag, ts)]
    return p, diag, s_parts, mults


def is_isotropic(q: QuadraticForm) -> IsotropyVerdict:
    """Decide rational isotropy by local conditions, without a witness."""
    if q.is_zero:
        raise ValueError("the zero form is not a valid quadric")
    rad = radical(q)
    if rad:
        return IsotropyVerdict(IsotropyKind.DEGENERATE, radical_basis=tuple(rad))
    _, _, s_parts, _ = _squarefree_diagonal(q)
    obstruction = _local_obstruction(s_parts)
    if obstruction is None:
        return IsotropyVerdict(IsotropyKind.ISOTROPIC)
    return IsotropyVerdict(IsotropyKind.ANISOTROPIC, obstruction=obstruction)


# -- constructive zeros ------------------------------------------------------


def _ternary_descent(a: int, b: int, c: int) -> tuple[int, int, int]:
    """Nontrivial zero of a x^2 + b y^2 + c z^2 (squarefree, mixed signs,
    known solvable).  Classical descent with explicit witness back-maps."""
    back = []
    abc = [a, b, c]
    while True:
        progressed = False
        for i in range(3):
            s, t = squarefree_split(abc[i])
            if t != 1:
                abc[i] = s

                def lift_square(sol, i=i, t=t):
                    out = [x * t for x in sol]
                    out[i] = sol[i]
                    return tuple(out)

                back.append(lift_square)
                progressed = True
        for i, j, k in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
            g = math.gcd(abc[i], abc[j])
            if g > 1:
                abc[i] //= g
                abc[j] //= g
                abc[k] *= g

                def lift_gcd(sol, k=k, g=g):
                    out = list(sol)
                    out[k] = sol[k] * g
                    return tuple(out)

                back.append(lift_gcd)
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
    for lift in reversed(back):
        sol = lift(sol)
    g = math.gcd(*sol)
    return tuple(x // g for x in sol)


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
    w = b_core * sq * z
    g = math.gcd(u, v, w)
    return (u // g, v // g, w // g)


def _ternary_solvable(diag: Sequence[int]) -> bool:
    return _local_obstruction(list(diag)) is None


#: Coefficient size past which bounded searches on a diagonal form are futile:
#: a zero would need massive cancellation, so the solver fails fast instead.
_TAME_COEFFICIENT_LIMIT = 10**6


def _dense_zero_search(
    gram: list[list[int]], height_bound: int, budget: int
) -> tuple[int, ...] | None:
    """Bounded direct search for a nontrivial zero of an integer Gram matrix.

    Enumerates primitive assignments of all-but-one coordinate by increasing
    height and solves the remaining coordinate exactly; a rational root is
    accepted by scaling the whole vector.  This finds every projective zero
    whose complement of one coordinate is proportional to a vector within the
    height bound.  Budget counts coordinate solves; returns None when it runs
    out.
    """
    n = len(gram)
    for i in range(n):
        if gram[i][i] == 0:
            axis = [0] * n
            axis[i] = 1
            return tuple(axis)
    if n < 2:
        return None
    others = [tuple(j for j in range(n) if j != pos) for pos in range(n)]
    evals = 0
    for v in iter_primitive_vectors(n - 1, max_height=height_bound):
        evals += n
        if evals > budget:
            return None
        for pos in range(n):
            idx = others[pos]
            a = gram[pos][pos]
            row_pos = gram[pos]
            b = 0
            c = 0
            for k in range(n - 1):
                vk = v[k]
                if vk == 0:
                    continue
                ik = idx[k]
                b += row_pos[ik] * vk
                row = gram[ik]
                c += row[ik] * vk * vk
                for l in range(k + 1, n - 1):
                    if v[l]:
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


def _solve_squarefree_diagonal(s: list[int], height_bound: int) -> tuple[int, ...]:
    """A nontrivial integer zero of sum s_i w_i^2 (squarefree diagonal,
    known isotropic).  Raises SearchExhausted if every constructive route
    and the bounded fallback fail."""
    r = len(s)
    for i in range(r):
        for j in range(i + 1, r):
            if s[i] == -s[j]:
                w = [0] * r
                w[i] = w[j] = 1
                return tuple(w)
    if r == 2:
        raise AssertionError("an isotropic squarefree binary form is a hyperbolic pair")
    if r == 3:
        return _ternary_descent(s[0], s[1], s[2])
    if r > 5:
        order = sorted(range(r), key=lambda i: (abs(s[i]), i))
        pos = next(i for i in order if s[i] > 0)
        neg = next(i for i in order if s[i] < 0)
        chosen = [pos, neg] + [i for i in order if i not in (pos, neg)][:3]
        chosen.sort()
        sub = _solve_squarefree_diagonal([s[i] for i in chosen], height_bound)
        w = [0] * r
        for idx, val in zip(chosen, sub):
            w[idx] = val
        return tuple(w)
    # rank 4 or 5: try smaller isotropic subforms first
    for size in (3, 4):
        if size >= r:
            break
        for combo in itertools.combinations(range(r), size):
            sub = [s[i] for i in combo]
            if _local_obstruction(sub) is None:
                try:
                    part = _solve_squarefree_diagonal(sub, height_bound)
                except SearchExhausted:
                    continue
                w = [0] * r
                for idx, val in zip(combo, part):
                    w[idx] = val
                return tuple(w)
    # bounded searches only pay off while the coefficients stay moderate; a
    # zero of a huge diagonal needs cancellation far beyond any small box
    if max(abs(c) for c in s) <= _TAME_COEFFICIENT_LIMIT:
        # meet in the middle on a 2 + (r-2) split
        a_pair = (s[0], s[1])
        rest = s[2:]
        bound_b = 4
        table_bound = None
        while bound_b <= 64:
            bound_a = min(height_bound, bound_b * bound_b * 4, 512)
            # bound_a stops growing at its cap; the table depends on it alone
            if bound_a != table_bound:
                table_bound = bound_a
                table: dict[int, tuple[int, int]] = {}
                for x in range(0, bound_a + 1):
                    for y in range(-bound_a, bound_a + 1):
                        if x == 0 and y <= 0:
                            continue
                        val = a_pair[0] * x * x + a_pair[1] * y * y
                        if val != 0:
                            table.setdefault(val, (x, y))
            rng = range(-bound_b, bound_b + 1)
            for tail in itertools.product(rng, repeat=len(rest)):
                if all(t == 0 for t in tail):
                    continue
                val = sum(c * t * t for c, t in zip(rest, tail))
                hit = table.get(-val)
                if hit is not None:
                    w = (hit[0], hit[1]) + tail
                    g = math.gcd(*w)
                    return tuple(x // g for x in w)
            bound_b *= 2
        # last resort: fix all but one coordinate, solve the last exactly
        diag_gram = [[s[i] if i == j else 0 for j in range(r)] for i in range(r)]
        w = _dense_zero_search(diag_gram, min(height_bound, 60), 60_000)
        if w is not None:
            g = math.gcd(*w)
            return tuple(x // g for x in w)
    raise SearchExhausted(
        f"no zero of the diagonal form {s} found within the search budget"
    )


def isotropic_vector(q: QuadraticForm, height_bound: int = 10**6) -> IsotropyVerdict:
    """Like is_isotropic, but an isotropic verdict carries an explicit witness.

    The witness comes from the diagonalized form when its coefficients stay
    moderate; otherwise (diagonalization can inflate a dense Gram matrix
    enormously) a direct height-ordered search on the original form takes
    over, since small zeros of the input need not be small in the skew basis.
    """
    base = is_isotropic(q)
    if base.kind is not IsotropyKind.ISOTROPIC:
        return base
    p, _, s_parts, mults = _squarefree_diagonal(q)
    try:
        w = _solve_squarefree_diagonal(list(s_parts), height_bound)
    except SearchExhausted:
        den = math.lcm(*(e.denominator for row in q.gram for e in row))
        gram = [[int(e * den) for e in row] for row in q.gram]
        direct = _dense_zero_search(gram, height_bound, 300_000)
        if direct is None:
            raise SearchExhausted(
                "no isotropic vector found within the search budget"
            ) from None
        x = canonical_vector(direct)
        if q.evaluate(x) != 0:
            raise AssertionError("isotropic witness failed verification")
        return IsotropyVerdict(IsotropyKind.ISOTROPIC, witness=x)
    y = [m * wi for m, wi in zip(mults, w)]
    x = canonical_vector(mat_vec(p, y))
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
    qw = q.evaluate(ww)
    bvw = q.bilinear(vv, ww)
    if qw == 0 and bvw == 0:
        return None
    if bvw == 0:
        return ResidualPoint(primitive_vector(vv), True)
    pt = primitive_vector(tuple(qw * a - 2 * bvw * b for a, b in zip(vv, ww)))
    if q.evaluate(pt) != 0:
        raise AssertionError("residual point failed verification")
    return ResidualPoint(pt, False)


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
    vv = vec(v)
    if q.evaluate(vv) != 0:
        raise ValueError("base point does not lie on the quadric")
    if all(x == 0 for x in mat_vec([list(r) for r in q.gram], vv)):
        raise ValueError("base point lies in the radical; all secants degenerate")
    avoid_forms = [vec(l) for l in avoid]
    v_key = canonical_vector(vv)
    out: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    for w in itertools.islice(iter_primitive_vectors(q.nvars), max_directions):
        if w == v_key:
            continue
        res = second_intersection(q, vv, w)
        if res is None or res.tangent:
            continue
        key = canonical_vector(res.point)
        if key in seen:
            continue
        seen.add(key)
        if any(vec_dot(l, res.point) == 0 for l in avoid_forms):
            continue
        out.append(res.point)
        if len(out) == count:
            return out
    raise InsufficientPoints(
        f"found {len(out)} of {count} requested points within {max_directions} directions"
    )
