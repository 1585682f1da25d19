"""Exact arithmetic for rationals and cyclotomic field elements.

A CycloNum of order n is an element of Q(zeta_n) stored on the power basis
1, z, ..., z^(phi(n)-1) after reduction modulo the n-th cyclotomic
polynomial.  The representation is canonical: two values of equal order are
equal exactly when their coefficient tuples are equal.  A value is never
demoted to a smaller cyclotomic field, so a value keeps the order it was
built with (a character value the order of its class); mixed-order
arithmetic embeds both operands into Q(zeta_lcm) first.

Coefficients are ints or Fractions.  The constructor converts any other
value with Fraction() once and nothing else converts, so a value in Z[zeta_n],
such as every character value, keeps int coefficients (Phi_n is monic).

Arithmetic costs what the nonzero terms cost.  `CycloNum.terms(m)` lists a
value's nonzero terms as (exponent over zeta_m, coefficient) pairs, and
`dot` is the one coefficient convolution: it accumulates a whole sum of
products of such term lists in one dense list and reduces it once.  A
caller that pairs a value with many others extracts its terms once; a
product of two values is a `dot` of one term.  `_reduce` visits only the
nonzero entries at exponents phi(n) and above, and adds each, times its
power of zeta_n reduced modulo Phi_n, to the lower entries; `_power_rows`
builds those powers once per order, and for n = 120 each has at most 6 of
its 32 coefficients nonzero.  A value compared with an int or a Fraction is
compared as a rational, never embedded.

`_gauss_jordan` is the package's one elimination, over F_p: the character
tables split their class algebras with it.  `_charpoly` is the one
characteristic polynomial: over F_p of the class matrices, for their
eigenvalues, and over Z of the lattice forms, for determinant and signature.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import compress
from math import gcd, lcm
from operator import mul

from .permgrp import require

__all__ = [
    "CycloNum",
    "dot",
    "euler_phi",
    "prime_factors",
    "cyclotomic_polynomial",
    "galois_apply",
]


def prime_factors(n: int) -> list[int]:
    """The distinct prime factors of n, ascending, by trial division."""
    if n < 1:
        raise ValueError("order must be a positive integer")
    factors, p = [], 2
    while p * p <= n:
        if n % p == 0:
            factors.append(p)
            while n % p == 0:
                n //= p
        p += 1
    if n > 1:
        factors.append(n)
    return factors


def euler_phi(n: int) -> int:
    """Euler totient of n."""
    result = n
    for p in prime_factors(n):
        result -= result // p
    return result


def _poly_div_exact(num: list[int], den: tuple[int, ...]) -> list[int]:
    # Exact division of integer polynomials (ascending coefficients); den monic.
    num = list(num)
    dn = len(den) - 1
    quot = [0] * (len(num) - dn)
    for i in range(len(quot) - 1, -1, -1):
        c = num[i + dn]
        quot[i] = c
        if c:
            for j in range(dn + 1):
                num[i + j] -= c * den[j]
    if any(num[:dn]):
        raise ArithmeticError("polynomial division was not exact")
    return quot


@cache
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n(x), ascending degree; monic over the integers."""
    if n < 1:
        raise ValueError("order must be a positive integer")
    poly = [-1] + [0] * (n - 1) + [1]  # x^n - 1
    for d in range(1, n):
        if n % d == 0:
            poly = _poly_div_exact(poly, cyclotomic_polynomial(d))
    return tuple(poly)


def _degree(order: int) -> int:
    # phi(order), read off the cached cyclotomic polynomial
    return len(cyclotomic_polynomial(order)) - 1


@cache
def _phi_terms(order: int) -> tuple[tuple[int, int], ...]:
    # the nonzero lower terms (j, c) of Phi_order = x^deg + sum c x^j
    return tuple((j, c) for j, c in enumerate(cyclotomic_polynomial(order)[:-1]) if c)


@cache
def _power_rows(order: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    # row s: the nonzero terms (j, c) of zeta_order^s reduced modulo Phi_order,
    # for s < order; row s + 1 is row s times x, with x^deg rewritten by Phi_order
    deg, terms = _degree(order), _phi_terms(order)
    vec, rows = [1] + [0] * (deg - 1), []
    for _ in range(order):
        rows.append(tuple(compress(enumerate(vec), vec)))
        top = vec.pop()
        vec.insert(0, 0)
        if top:
            for j, c in terms:
                vec[j] -= top * c
    return tuple(rows)


def _reduce(order: int, dense) -> tuple[int | Fraction, ...]:
    # Polynomial remainder modulo Phi_order, padded to length phi(order): each
    # nonzero entry at an exponent e >= phi(order) adds its multiple of the
    # reduced power zeta^(e mod order) to the lower entries.
    deg = _degree(order)
    cs = list(dense[:deg])
    cs.extend([0] * (deg - len(cs)))
    high = dense[deg:]
    if any(high):
        rows = _power_rows(order)
        for e, c in compress(enumerate(high, deg), high):
            for j, p in rows[e % order]:
                cs[j] += c * p
    return tuple(cs)


_EXACT = {int, Fraction}


class CycloNum:
    """An exact element of Q(zeta_order), in reduced power-basis form."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs):
        coeffs = tuple(coeffs)
        if not set(map(type, coeffs)) <= _EXACT:
            coeffs = tuple(c if isinstance(c, (int, Fraction)) else Fraction(c) for c in coeffs)
        deg = _degree(order)
        if len(coeffs) != deg:
            raise ValueError(f"need phi({order}) = {deg} coefficients, got {len(coeffs)}")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("CycloNum is immutable")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_rational(cls, value, order: int = 1) -> "CycloNum":
        dense = [value] + [0] * (_degree(order) - 1)
        return cls(order, dense)

    @classmethod
    def zeta(cls, order: int, power: int = 1) -> "CycloNum":
        """The root of unity zeta_order ** power."""
        dense = [0] * (power % order) + [1]
        return cls(order, _reduce(order, dense))

    @classmethod
    def from_power_counts(cls, order: int, counts) -> "CycloNum":
        """Build sum_s c_s * zeta_order**s from a dense sequence of ints or Fractions."""
        return cls(order, _reduce(order, counts))

    @classmethod
    def zero(cls, order: int = 1) -> "CycloNum":
        return cls.from_rational(0, order)

    @classmethod
    def one(cls, order: int = 1) -> "CycloNum":
        return cls.from_rational(1, order)

    # -- order handling ----------------------------------------------------

    def embed(self, m: int) -> "CycloNum":
        """The same value viewed in Q(zeta_m); requires order | m."""
        if m == self.order:
            return self
        if m % self.order:
            raise ValueError(f"cannot embed order {self.order} into order {m}")
        step = m // self.order
        dense = [0] * ((len(self.coeffs) - 1) * step + 1)
        for i, c in enumerate(self.coeffs):
            dense[i * step] = c
        return CycloNum(m, _reduce(m, dense))

    def terms(self, m: int) -> list[tuple[int, int | Fraction]]:
        """The nonzero terms (exponent over zeta_m, coefficient), ascending;
        requires order | m.  zeta_order^i is zeta_m^(i * m/order)."""
        if m % self.order:
            raise ValueError(f"order {self.order} does not divide {m}")
        cs = self.coeffs
        # pairs and zero test both in C
        return list(compress(zip(range(0, len(cs) * (m // self.order), m // self.order), cs), cs))

    def _common(self, other: "CycloNum"):
        m = lcm(self.order, other.order)
        return self.embed(m), other.embed(m)

    # -- arithmetic --------------------------------------------------------

    @staticmethod
    def _coerce(value) -> "CycloNum":
        if isinstance(value, CycloNum):
            return value
        if isinstance(value, (int, Fraction)):
            return CycloNum.from_rational(value)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._common(other)
        return CycloNum(a.order, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return CycloNum(self.order, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return CycloNum(self.order, tuple(c * other for c in self.coeffs))
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        m = lcm(self.order, other.order)
        return dot(m, (1,), (self.terms(m),), (other.terms(m),))

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            # a rational q has the coefficients (q, 0, ..., 0) in every field
            return self.is_rational() == other
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._common(other)
        return a.coeffs == b.coeffs

    __hash__ = None  # cross-order equality makes a consistent hash unavailable

    # -- queries and rendering ---------------------------------------------

    def is_rational(self):
        """The value as an int or Fraction when it is rational, else None."""
        if any(self.coeffs[1:]):
            return None
        return self.coeffs[0]

    def render_text(self) -> str:
        """Human-readable form like "1/2 - 3*z5 + z5^2"."""
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = -c if c < 0 else c
            if i == 0:
                body = str(mag)
            else:
                power = f"z{self.order}" if i == 1 else f"z{self.order}^{i}"
                body = power if mag == 1 else f"{mag}*{power}"
            terms.append(("-" if c < 0 else "+", body))
        if not terms:
            return "0"
        sign, body = terms[0]
        out = ("-" if sign == "-" else "") + body
        for sign, body in terms[1:]:
            out += f" {sign} {body}"
        return out

    def __repr__(self):
        return f"CycloNum({self.order}, {self.render_text()!r})"


def _integer(value: CycloNum, what: str) -> int:
    """The value as an int; requires a rational integer."""
    q = value.is_rational()
    require(q is not None and q.denominator == 1, f"{what} is not an integer")
    return q.numerator  # an int, also for a Fraction with denominator 1


def dot(order: int, weights, xs, ys) -> CycloNum:
    """sum_i weights[i] * x_i * y_i in Q(zeta_order).

    weights are ints or Fractions; xs and ys hold the operands' terms over
    zeta_order, `x_i.terms(order)`, so that a caller that pairs one value
    with many reads its terms once.  Every product of two terms lands in
    one dense list at its exponent, and the sum is reduced modulo Phi_order
    once.
    """
    dense = [0] * (2 * order - 1)  # an exponent is below 2 * order - 1
    top = 0
    for w, xt, yt in zip(weights, xs, ys, strict=True):
        if w and xt and yt:
            top = max(top, xt[-1][0] + yt[-1][0])
            for i, a in xt:
                a *= w
                for j, b in yt:
                    dense[i + j] += a * b
    del dense[top + 1 :]  # so that the reduction scans only written exponents
    return CycloNum(order, _reduce(order, dense))


def _gauss_jordan(rows, p: int):
    """The nonzero rows of the reduced row-echelon form of `rows` and their
    pivot columns, over F_p.

    The entries are ints in [0, p).  The sweep stops once every row holds a
    pivot.
    """
    rows = [list(row) for row in rows]
    pivots = []
    for col in range(len(rows[0]) if rows else 0):
        rank = len(pivots)
        piv = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if piv is None:
            continue
        inv = pow(rows[piv][col], p - 2, p)
        row = [v * inv % p for v in rows[piv]]
        rows[piv], rows[rank] = rows[rank], row
        for r, other in enumerate(rows):
            f = other[col]
            if f and r != rank:
                rows[r] = [(a - f * b) % p for a, b in zip(other, row)]
        pivots.append(col)
        if len(pivots) == len(rows):
            break
    return rows[: len(pivots)], pivots


def _charpoly(S, p: int) -> list[int]:
    """det(x I - S), leading coefficient first, over F_p, or over Z when p == 0.

    Berkowitz's algorithm never divides, so it holds for every p, also when
    p <= len(S).  Over F_p the coefficients are ints in [0, p), and each
    A^j C is reduced as it is made, in the same pass.
    """
    coeffs = [1]  # of the leading k x k block, leading coefficient first
    for k in range(len(S)):
        # Toeplitz column of the new block: 1, -s_kk, -R C, -R A C, ..., -R A^(k-1) C
        block, R = [row[:k] for row in S[:k]], S[k][:k]
        col, toeplitz = [row[k] for row in S[:k]], [1, -S[k][k]]
        for _ in range(k):
            toeplitz.append(-sum(map(mul, R, col)))
            col = [sum(map(mul, row, col)) % p for row in block] if p else [sum(map(mul, row, col)) for row in block]
        # the product with the Toeplitz matrix: coefficient i is sum_j t_(i-j) c_j
        coeffs = [sum(map(mul, toeplitz[i::-1], coeffs)) for i in range(k + 2)]
        if p:
            coeffs = [c % p for c in coeffs]
    return coeffs


def galois_apply(a: CycloNum, k: int) -> CycloNum:
    """Apply the field automorphism zeta |-> zeta**k (k coprime to the order)."""
    n = a.order
    if gcd(k, n) != 1:
        raise ValueError(f"{k} is not coprime to the order {n}")
    dense = [0] * n
    for i, c in enumerate(a.coeffs):
        dense[(i * k) % n] += c
    return CycloNum(n, _reduce(n, dense))
