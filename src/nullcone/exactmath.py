"""Exact arithmetic: polynomials, integer factoring, linear algebra, lattice enumeration.

Everything in this package is computed over the rationals with no rounding.
One scalar rule, decided by `frac` alone: an exact value is an ``int`` unless
it is fractional, and then a reduced ``fractions.Fraction``.  `vec` and the
constructors of `Poly`, divisor classes and quadratic forms apply it, so
integral data is held, and computed on, as ints.  Each true division is
`ratio(a, b)`, a ``Fraction`` only when fractional; ``/`` is never used, since
on two ints it gives a float.  `cleared` alone clears denominators, and
kernels are read off the integer `echelon` form.

A `Poly` stores each monomial under one packed int key, the exponent of x_i
in a 16-bit field with x_0 the most significant, so int order on keys is
lex order on exponent tuples, a monomial product is a key sum and a
divisibility test is one guard-bit test: each one int operation, where
exponent tuples take O(rank) Python steps.  Every monomial has total degree
below 2^15, which keeps each field's top bit clear.  `Poly.terms` is a
read-only {exponent tuple: coefficient} view, decoded on access; library
code reads keys through `unit_keys`, `key_exponent` and `key_support`, and
the layout is known to this module alone.  Polynomial division runs in
ints on primitive parts, the content taken once (Gauss's lemma).  The lattice
enumerators share one lazy depth-first walk in (height, spiral-lex) order, on
an explicit stack, whose cost grows with the vectors consumed, not the rank.
A kernel walk cuts a prefix as soon as some row cannot be completed: per
height and column, an int bitset holds the sums the remaining coordinates
can reach, so only prefixes that lead to a vector are extended.
"""
from __future__ import annotations

import bisect
import itertools
import math
from fractions import Fraction
from operator import mul
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence

Rat = int | Fraction
Vec = tuple[Rat, ...]
Mat = list[list[Rat]]
Exponent = tuple[int, ...]


def frac(x) -> Rat:
    """The exact scalar for x: the one place that decides the scalar type.

    An int stays an int and a bool becomes the int 0 or 1.  A Fraction or a
    string such as "3/2" becomes a Fraction, returned as an int when its
    denominator is 1.  Anything else (a float) raises TypeError.
    """
    if type(x) is int:
        return x
    if isinstance(x, int):
        return int(x)
    if isinstance(x, str):
        x = Fraction(x)
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    raise TypeError(f"expected an exact rational, got {type(x).__name__}: {x!r}")


def ratio(a: Rat, b: Rat) -> Rat:
    """a over b under the scalar rule, building no Fraction for an integer."""
    q, r = divmod(a, b)
    return Fraction(a, b) if r else q


# the type set of an all-int vector, tested at C level as
# _INTS.issuperset(map(type, v)); a bool is not in it and goes through `frac`
_INTS = frozenset((int,))


def vec(values: Iterable) -> Vec:
    """The values as a tuple of exact scalars; an all-int input comes back
    as a tuple with no per-coordinate `frac` call."""
    v = values if type(values) is tuple else tuple(values)
    return v if _INTS.issuperset(map(type, v)) else tuple(frac(x) for x in v)


def vec_dot(a: Sequence[Rat], b: Sequence[Rat]) -> Rat:
    # map stops at the shorter argument, so the lengths are checked first
    if len(a) != len(b):
        raise ValueError(f"dimension mismatch: {len(a)} vs {len(b)}")
    return sum(map(mul, a, b))


def cleared(v: Sequence[Rat]) -> tuple[tuple[int, ...], int]:
    """(d v, d) for the least d >= 1 with d v integral: the one place that
    clears denominators.  An all-int tuple comes back as itself, with d = 1."""
    if _INTS.issuperset(map(type, v)):
        return (v if type(v) is tuple else tuple(v)), 1
    d = math.lcm(*(x.denominator for x in v))
    return tuple(x.numerator * (d // x.denominator) for x in v), d


# ---------------------------------------------------------------------------
# sparse polynomials

# A monomial x^e in n variables is one int key: e_i sits in the _W-bit field
# at bit offset _W (n - 1 - i).  x_0 holds the most significant field, so
# int order on keys is lex order on exponent tuples.  A stored monomial has
# total degree below _LIMIT = 2^(_W - 1), so no field reaches its top (guard)
# bit and the fields sum to less than 2^_W - 1.  Hence a product of
# monomials is the sum of their keys, with no carry between fields; the
# total degree is the key mod 2^_W - 1, since 2^_W = 1 there; and x^a
# divides x^b exactly when ((b | G) - a) & G == G, G the guard bits, as each
# field subtracts within its own guard bit.
_W = 16
_LIMIT = 1 << (_W - 1)
_FIELD = (1 << _W) - 1


def unit_keys(nvars: int) -> list[int]:
    """The key of each variable x_i, in variable order: the key of x^e is
    sum e_i unit_keys[i], and a product of monomials the sum of their keys."""
    return [1 << s for s in range(_W * (nvars - 1), -1, -_W)]


def key_exponent(key: int, nvars: int, i: int) -> int:
    """The exponent of x_i in the monomial with this key."""
    return key >> _W * (nvars - 1 - i) & _FIELD


def key_support(key: int, nvars: int) -> list[tuple[int, int]]:
    """(i, e_i) for each variable x_i in the monomial, ascending in i: one
    step per variable present, not one per variable of the ring."""
    out = []
    while key:
        s = (key.bit_length() - 1) // _W * _W
        e = key >> s
        key ^= e << s
        out.append((nvars - 1 - s // _W, e))
    return out


def _key(expo: Exponent, nvars: int) -> int:
    """The key of an exponent tuple, which must have nvars entries, each at
    least 0, and a total degree below _LIMIT."""
    if len(expo) != nvars:
        raise ValueError(f"exponent {expo} has wrong arity for {nvars} variables")
    if min(expo, default=0) < 0 or sum(expo) >= _LIMIT:
        raise ValueError(f"exponent {expo} is not one of 0 <= e_i with sum e_i < {_LIMIT}")
    key = 0
    for k in expo:
        key = key << _W | k
    return key


def _check_degree(d: int) -> None:
    if d >= _LIMIT:
        raise ValueError(f"degree {d} is at or past the limit {_LIMIT}")


class Poly:
    """Sparse multivariate polynomial over Q in `nvars` variables.

    `packed` maps each monomial's int key (above: x_0 most significant, so
    int order is lex order) to its nonzero exact scalar; the ring operations,
    division and the cubic factor search work on it, one int operation per
    monomial product, comparison or divisibility test.  `terms` is the same
    polynomial as {exponent tuple: coefficient}, a read-only view decoded on
    each access.  The constructor takes that tuple form.  Every exponent is
    at least 0 and every monomial's total degree below 2^15: the constructor
    raises ValueError outside that range, and so do `*` and `**` on a
    product that would reach it.
    """

    __slots__ = ("nvars", "packed")

    def __init__(self, nvars: int, terms: Mapping[Exponent, Rat] | None = None):
        self.nvars = nvars
        clean: dict[int, Rat] = {}
        if terms:
            for expo, coeff in terms.items():
                c = frac(coeff)
                key = _key(expo, nvars)
                if c != 0:
                    clean[key] = c
        self.packed = clean

    @classmethod
    def _of(cls, nvars: int, packed: dict[int, Rat]) -> "Poly":
        """A Poly over computed packed terms, zeros dropped, with no frac call on ints."""
        p = cls.__new__(cls)
        p.nvars = nvars
        p.packed = {k: c if type(c) is int else frac(c) for k, c in packed.items() if c}
        return p

    @property
    def terms(self) -> Mapping[Exponent, Rat]:
        """The terms as {exponent tuple: coefficient}, decoded on each access."""
        shifts = range(_W * (self.nvars - 1), -1, -_W)
        return MappingProxyType(
            {tuple(k >> s & _FIELD for s in shifts): c for k, c in self.packed.items()}
        )

    @classmethod
    def zero(cls, nvars: int) -> "Poly":
        return cls._of(nvars, {})

    @classmethod
    def constant(cls, nvars: int, c) -> "Poly":
        return cls._of(nvars, {0: frac(c)})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "Poly":
        return cls.linear([int(j == i) for j in range(nvars)])

    @classmethod
    def linear(cls, coords: Sequence) -> "Poly":
        return cls._of(len(coords), dict(zip(unit_keys(len(coords)), map(frac, coords))))

    @property
    def is_zero(self) -> bool:
        return not self.packed

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((k % _FIELD for k in self.packed), default=-1)

    def is_homogeneous(self, d: int | None = None) -> bool:
        degs = {k % _FIELD for k in self.packed}
        if not degs:
            return True
        if len(degs) > 1:
            return False
        return d is None or degs == {d}

    def coeff(self, expo: Exponent) -> Rat:
        try:
            return self.packed.get(_key(expo, self.nvars), 0)
        except ValueError:
            # no stored monomial has such exponents
            return 0

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.nvars == other.nvars and self.packed == other.packed

    def __hash__(self):
        return hash((self.nvars, frozenset(self.packed.items())))

    def __neg__(self) -> "Poly":
        return Poly._of(self.nvars, {k: -c for k, c in self.packed.items()})

    def __add__(self, other: "Poly") -> "Poly":
        if self.nvars != other.nvars:
            raise ValueError("variable-count mismatch")
        out = dict(self.packed)
        for k, c in other.packed.items():
            out[k] = out.get(k, 0) + c
        return Poly._of(self.nvars, out)

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, Poly):
            if self.nvars != other.nvars:
                raise ValueError("variable-count mismatch")
            _check_degree(self.degree() + other.degree())
            out: dict[int, Rat] = {}
            for k1, c1 in self.packed.items():
                for k2, c2 in other.packed.items():
                    k = k1 + k2
                    out[k] = out.get(k, 0) + c1 * c2
            return Poly._of(self.nvars, out)
        s = frac(other)
        return Poly._of(self.nvars, {k: c * s for k, c in self.packed.items()})

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative power")
        _check_degree(self.degree() * k)
        out = Poly.constant(self.nvars, 1)
        for _ in range(k):
            out = out * self
        return out

    def evaluate(self, point: Sequence) -> Rat:
        n = self.nvars
        if len(point) != n:
            raise ValueError(f"point has {len(point)} coordinates, expected {n}")
        pt = vec(point)
        total = 0
        for k, c in self.packed.items():
            for i, e in key_support(k, n):
                c *= pt[i] ** e
            total += c
        return total

    def substitute(self, images: Sequence["Poly"]) -> "Poly":
        """Substitute x_i -> images[i] (all images share a variable count)."""
        if len(images) != self.nvars:
            raise ValueError("need one image per variable")
        m = images[0].nvars
        out = Poly.zero(m)
        for k, c in self.packed.items():
            term = Poly.constant(m, c)
            for i, e in key_support(k, self.nvars):
                for _ in range(e):
                    term = term * images[i]
            out = out + term
        return out

    def __repr__(self) -> str:
        if not self.packed:
            return "Poly(0)"
        bits = []
        for e, c in sorted(self.terms.items(), reverse=True):
            mono = "*".join(
                f"x{i}" if k == 1 else f"x{i}^{k}" for i, k in enumerate(e) if k
            )
            bits.append(f"{c}" + (f"*{mono}" if mono else ""))
        return "Poly(" + " + ".join(bits) + ")"


def primitive_part(p: Poly) -> tuple[Rat, Poly]:
    """(c, q) with p = c q, c > 0 and q integral and primitive; an integral p
    is not rescaled, and a primitive one comes back as itself."""
    nums, den = cleared(list(p.packed.values()))
    g = math.gcd(*nums)
    if g == 1 and den == 1:
        return 1, p
    return ratio(g, den), Poly._of(p.nvars, {k: c // g for k, c in zip(p.packed, nums)})


def integral_divide(f: Poly, g: Poly) -> Poly | None:
    """Exact quotient f/g of an integral f by a primitive integral g, or None.

    Plain lex division in ints, on packed keys.  If g | f, each remainder's
    leading term is a multiple of g's, by an integral coefficient (Gauss's
    lemma): one failed step proves non-divisibility.  The remainder's keys
    are sorted once and kept sorted, the leading one last; a key cancelled
    since is skipped."""
    guards = _LIMIT * (((1 << _W * f.nvars) - 1) // _FIELD)
    le_g = max(g.packed)
    lc_g = g.packed[le_g]
    g_tail = [(k, c) for k, c in g.packed.items() if k != le_g]
    q: dict[int, int] = {}
    r = dict(f.packed)
    order = sorted(r)
    while r:
        le_r = order.pop()
        if le_r not in r:
            continue
        if ((le_r | guards) - le_g) & guards != guards:
            return None
        e = le_r - le_g
        c, rem = divmod(r.pop(le_r), lc_g)
        if rem:
            return None
        q[e] = c
        # r -= c x^e g; its leading term cancels lc_r exactly, and every
        # term it adds lies below it
        for kg, cg in g_tail:
            m = e + kg
            v = r.get(m, 0) - c * cg
            if not v:
                del r[m]
                continue
            if m not in r:
                bisect.insort(order, m)
            r[m] = v
    return Poly._of(f.nvars, q)


def exact_divide(f: Poly, g: Poly) -> Poly | None:
    """Exact quotient f/g, or None: with f = a F and g = b G for primitive F
    and G, it is (a / b) (F / G), one Poly built around `integral_divide`."""
    if g.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    if f.nvars != g.nvars:
        raise ValueError("variable-count mismatch")
    (a, big_f), (b, big_g) = primitive_part(f), primitive_part(g)
    q, s = integral_divide(big_f, big_g), ratio(a, b)
    return None if q is None else Poly._of(f.nvars, {k: c * s for k, c in q.packed.items()})


# ---------------------------------------------------------------------------
# integer factoring

_SMALL_PRIMES = [p for p in range(2, 1000) if all(p % q for q in range(2, math.isqrt(p) + 1))]


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
    """A nontrivial factor of composite odd n: Pollard's rho with Floyd's
    cycle detection (x steps once, y twice), one gcd per step."""
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


# ---------------------------------------------------------------------------
# univariate rational roots


def _divisors(n: int) -> list[int]:
    """The positive divisors of n != 0, ascending, built from its factorization."""
    out = [1]
    for p, e in factorint(n).items():
        out = [d * p**k for d in out for k in range(e + 1)]
    return sorted(out)


def _deflate(coeffs: list[Rat], r: Rat) -> list[Rat]:
    """Synthetic division by (t - r); the remainder must be zero."""
    out = [coeffs[0]]
    for c in coeffs[1:]:
        out.append(c + r * out[-1])
    if out[-1] != 0:
        raise ArithmeticError("deflation by a non-root")
    return out[:-1]


def _one_rational_root(coeffs: list[Rat]) -> Rat | None:
    """One rational root of the poly with the given descending coefficients,
    of degree 1 or at least 3 (`rational_roots` solves quadratics itself)."""
    deg = len(coeffs) - 1
    if deg == 1:
        return ratio(-coeffs[1], coeffs[0])
    if coeffs[-1] == 0:
        return 0
    ints = primitive_vector(coeffs)
    lead = _divisors(ints[0])
    for p in _divisors(ints[-1]):
        for q in lead:
            if math.gcd(p, q) > 1:  # p/q in lowest terms came earlier
                continue
            for num in (p, -p):
                # q^deg f(num/q) = sum c_i num^(deg-i) q^i, by Horner in num
                val, q_pow = ints[0], 1
                for c in ints[1:]:
                    q_pow *= q
                    val = val * num + c * q_pow
                if val == 0:
                    return ratio(num, q)
    return None


def rational_roots(coeffs: Sequence) -> list[Rat]:
    """All rational roots (with multiplicity, ascending) of a univariate poly.

    ``coeffs`` are descending; degenerate leading zeros are allowed but the
    polynomial must not be identically zero.
    """
    cs = list(itertools.dropwhile(lambda c: c == 0, map(frac, coeffs)))
    if not cs:
        raise ValueError("the zero polynomial has every point as a root")
    roots: list[Rat] = []
    while len(cs) > 1:
        if len(cs) == 3:
            a, b, c = cs
            s = is_perfect_square(b * b - 4 * a * c)
            if s is None:
                break
            roots.extend([ratio(-b + s, 2 * a), ratio(-b - s, 2 * a)])
            break
        r = _one_rational_root(cs)
        if r is None:
            break
        roots.append(r)
        cs = _deflate(cs, r)
    return sorted(roots)


def is_perfect_square(q) -> Rat | None:
    """The nonnegative square root of q when q is a rational square, else None."""
    q = frac(q)
    if q < 0:
        return None
    rn = math.isqrt(q.numerator)
    rd = math.isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return ratio(rn, rd)
    return None


# ---------------------------------------------------------------------------
# exact linear algebra over the rationals


def mat_identity(n: int) -> Mat:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def mat_vec(a: Mat, v: Sequence) -> Vec:
    n = len(v)
    for row in a:
        if len(row) != n:
            raise ValueError(f"dimension mismatch: {len(row)} vs {n}")
    return tuple(sum(map(mul, row, v)) for row in a)


def primitive_vector(v: Sequence) -> tuple[int, ...]:
    """Primitive integer representative of a rational vector, sign preserved.

    Clears denominators and divides out the (positive) content; the direction
    of the input is kept, so formula outputs stay recognizable.
    """
    w, _ = cleared(vec(v))
    g = math.gcd(*w)
    return tuple(x // g for x in w) if g > 1 else w


def canonical_vector(v: Sequence) -> tuple[int, ...]:
    """Primitive representative with positive leading nonzero entry.

    The canonical form used for deduplication keys, kernel bases and
    enumeration output, where no algebraic sign is at stake.
    """
    w = primitive_vector(v)
    for x in w:
        if x:
            return w if x > 0 else tuple(-y for y in w)
    return w


def echelon(rows: Sequence[Sequence]) -> tuple[list[tuple[int, ...]], list[int]]:
    """Integer reduced echelon form: the nonzero rows and their pivot columns.

    Fraction-free Gauss-Jordan (after Bareiss, Math. Comp. 22 (1968)): a step
    replaces a row by the primitive part of a row - b pivot_row, a > 0 the
    pivot and b the row's entry.  So each row is the rational RREF's row
    scaled to a primitive vector, its pivot positive and alone in its column.
    """
    m = [primitive_vector(row) for row in rows]
    ncols = len(m[0]) if m else 0
    if any(len(row) != ncols for row in m):
        raise ValueError("ragged matrix")
    pivots: list[int] = []
    for col in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(m)) if m[i][col]), None)
        if piv is None:
            continue
        p = m[piv] if m[piv][col] > 0 else tuple(-x for x in m[piv])
        m[piv], m[r] = m[r], p
        a = p[col]
        for i, row in enumerate(m):
            b = row[col]
            if b and i != r:
                m[i] = primitive_vector([a * x - b * y for x, y in zip(row, p)])
        pivots.append(col)
        if len(pivots) == len(m):
            break
    return m[: len(pivots)], pivots


def kernel_basis(rows: Sequence[Sequence]) -> list[tuple[int, ...]]:
    """Basis of the rational kernel as canonical primitive integer vectors.

    One vector per free column of the `echelon` form, in column order: 1 in
    that column, and -(entry / pivot) in each pivot column.
    """
    if not rows:
        raise ValueError("empty matrix")
    m, pivots = echelon(rows)
    basis = []
    for j in range(len(rows[0])):
        if j in pivots:
            continue
        v = [0] * len(rows[0])
        v[j] = 1
        for row, pc in zip(m, pivots):
            v[pc] = -ratio(row[j], row[pc])
        basis.append(canonical_vector(v))
    return basis


# ---------------------------------------------------------------------------
# deterministic enumeration of integer vectors


def height(v: Sequence[int]) -> int:
    return max(abs(int(x)) for x in v)


def spiral_key(v: Sequence[int]):
    """Sort key ordering coordinates 0 < 1 < -1 < 2 < -2 < ..."""
    return tuple((abs(int(x)), 0 if x >= 0 else 1) for x in v)


def enum_key(v: Sequence[int]):
    """Sort key for the enumerators' (height, spiral-lex) order on the
    projective point of a primitive integer vector v: the key of its
    canonical vector, which for a primitive v is only a sign flip."""
    if next((x for x in v if x), 0) < 0:
        v = tuple(-x for x in v)
    return height(v), spiral_key(v)


# A row gets reachability bitsets only while n (2 h sum|a| + 1), which bounds
# the bits of either of its two bitset lists, is at most this (512 KiB each);
# a wider row keeps only the interval bound.
_REACH_BITS = 1 << 22


def _smear(bits: int, step: int, count: int) -> int:
    """The union of bits << j*step over 0 <= j < count, by doubling."""
    k = 1
    while 2 * k <= count:
        bits |= bits << k * step
        k *= 2
    return bits | bits << (count - k) * step


def _reach(row: list[int], h: int) -> list[tuple[int, int | None, int | None]]:
    """Per column c, (span, full, tall) for the tail sums
    S = sum_{k>c} row[k] x_k over integers |x_k| <= h.

    span = h sum_{k>c} |row[k]| bounds |S|.  Bit span + S of ``full`` is set
    when S is such a sum, and of ``tall`` when it is one with some |x_k| = h.
    Past _REACH_BITS both are None, and only the bound is left.
    """
    span = 0
    full, tall = (1, 0) if len(row) * (2 * h * sum(map(abs, row)) + 1) <= _REACH_BITS else (None, None)
    out = []
    for a in map(abs, reversed(row)):
        out.append((span, full, tall))
        span += h * a
        if full is not None:
            # x_k = -h..h shifts by 0..2h steps of a; x_k = +-h alone by 0 or 2h
            tall = _smear(tall, a, 2 * h + 1) | full | full << 2 * h * a
            full = _smear(full, a, 2 * h + 1)
    return out[::-1]


def _walk(n: int, rows: list[list[int]], canonical: bool, max_height: int | None) -> Iterator[tuple[int, ...]]:
    """Vectors x != 0 in Z^n with rows.x = 0, lazily, by (height, spiral-lex).

    For each height h, coordinates are fixed in index order trying 0, 1, -1,
    ..., h, -h.  ``rows`` are integer and in echelon form from the right:
    each row's last nonzero column is zero in the other rows, so it is solved
    exactly once the walk reaches it.  A branch ends when that value is not
    an integer of height <= h, or when some row cannot be completed: the
    negated partial sum must be a sum the remaining coordinates reach at
    height <= h (`_reach`), and one reached with a coordinate at height h
    while no fixed coordinate is at h yet.  The cut only drops branches that
    yield nothing, so the order is that of the plain walk.  With no rows the
    test is skipped, and while no coordinate is at h the last one takes only
    h and -h.  With ``canonical`` only primitive vectors with a positive
    leading entry come out; with a single free column (rows-free n = 1, as
    kernel lines never walk) that is one vector, and the walk ends after it.
    The value lists are built once per height (the spiral, its part >= 0 for
    a canonical vector's first nonzero coordinate, the +-h tail), so a node
    picks one of them and filters nothing.
    """
    pivot_row: list[int | None] = [None] * n
    for r, row in enumerate(rows):
        pivot_row[max(j for j, a in enumerate(row) if a)] = r
    free = pivot_row.count(None)
    if free == 0:
        return
    x = [0] * n

    def values(c: int, sums: list[int], top: int) -> list[int]:
        # before the first nonzero coordinate of a canonical vector (top = 0)
        # only values >= 0 are tried
        r = pivot_row[c]
        if r is not None:
            q, rem = divmod(-sums[r], rows[r][c])
            return [] if rem or abs(q) > h or (canonical and not top and q < 0) else [q]
        if not rows and c == n - 1 and top < h:
            return tail_first if canonical and not top else tail
        return spiral_first if canonical and not top else spiral

    def reachable(sums: list[int], c: int, t: int) -> bool:
        for s, (span, full, tall) in zip(sums, reach[c]):
            i = span - s
            if i < 0 or i > 2 * span:
                return False
            bits = full if t == h else tall
            if bits is not None and not bits >> i & 1:
                return False
        return True

    def extend() -> Iterator[tuple[int, ...]]:
        # per fixed coordinate: its values left, and the row sums and height before it
        start = [0] * len(rows)
        stack = [(iter(values(0, start, 0)), start, 0)]
        while stack:
            it, sums, top = stack[-1]
            c = len(stack) - 1
            for v in it:
                t = max(top, abs(v))
                if rows:
                    nxt = [s + row[c] * v for s, row in zip(sums, rows)]
                    if not reachable(nxt, c, t):
                        continue
                else:
                    nxt = sums
                x[c] = v
                if c + 1 < n:
                    stack.append((iter(values(c + 1, nxt, t)), nxt, t))
                    break
                if t == h and (not canonical or math.gcd(*x) == 1):
                    yield tuple(x)
            else:
                stack.pop()

    h = 1
    while max_height is None or h <= max_height:
        # the candidate values at height h, built once per height: the
        # spiral, its part >= 0 and the +-h tail for the last rows-free column
        spiral = [0] + [s * k for k in range(1, h + 1) for s in (1, -1)]
        spiral_first, tail, tail_first = list(range(h + 1)), [h, -h], [h]
        reach = list(zip(*(_reach(row, h) for row in rows)))
        for v in extend():
            yield v
            if canonical and free == 1:
                return
        h += 1


def iter_integer_vectors(n: int, max_height: int | None = None) -> Iterator[tuple[int, ...]]:
    """Nonzero integer vectors ordered by (height, spiral-lex), lazily."""
    return _walk(n, [], False, max_height)


def iter_primitive_vectors(n: int, max_height: int | None = None) -> Iterator[tuple[int, ...]]:
    """Canonical primitive vectors (one per projective point), same order; n = 1 gives only (1,)."""
    return _walk(n, [], True, max_height)


def iter_kernel_primitives(rows: Sequence[Sequence], max_height: int | None = None) -> Iterator[tuple[int, ...]]:
    """Canonical primitive integer vectors of ker(rows), by (height, spiral-lex).

    A kernel of dimension at most 1 gives its `kernel_basis` vector, if its
    height is at most max_height, with no walk.  A larger one is walked over
    the `echelon` form from the right, lazily: the cost grows with the vectors
    consumed, not with the rank.
    """
    n = len(rows[0])
    m, pivots = echelon([row[::-1] for row in rows])
    if n - len(pivots) <= 1:
        return iter([v for v in kernel_basis(rows) if max_height is None or height(v) <= max_height])
    return _walk(n, [list(row[::-1]) for row in m], True, max_height)
