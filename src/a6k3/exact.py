"""Exact arithmetic for rationals and cyclotomic field elements.

A CycloNum of order n is an element of Q(zeta_n) stored on the power basis
1, z, ..., z^(phi(n)-1) after reduction modulo the n-th cyclotomic
polynomial.  The representation is canonical: two values of equal order are
equal exactly when their coefficient tuples are equal.  A value lying in a
smaller cyclotomic field is never demoted automatically; mixed-order
arithmetic embeds both operands into Q(zeta_lcm) first.

Coefficients are ints or Fractions.  The constructor converts any other
value with Fraction() once and nothing else converts, so a value in Z[zeta_n],
such as every character value, keeps int coefficients (Phi_n is monic).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, lcm

__all__ = [
    "CycloNum",
    "euler_phi",
    "cyclotomic_polynomial",
    "galois_apply",
]


def euler_phi(n: int) -> int:
    """Euler totient of n."""
    if n < 1:
        raise ValueError("order must be a positive integer")
    result = n
    m = n
    p = 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            result -= result // p
        p += 1
    if m > 1:
        result -= result // m
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


def _reduce(order: int, dense) -> tuple[int | Fraction, ...]:
    # Polynomial remainder modulo Phi_order, padded to length phi(order).
    phi = cyclotomic_polynomial(order)
    deg = len(phi) - 1
    cs = list(dense)
    for i in range(len(cs) - 1, deg - 1, -1):
        c = cs[i]
        if c:
            for j in range(deg):
                cs[i - deg + j] -= c * phi[j]
    cs = cs[:deg]
    cs.extend([0] * (deg - len(cs)))
    return tuple(cs)


class CycloNum:
    """An exact element of Q(zeta_order), in reduced power-basis form."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs):
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

    def restrict(self, n: int) -> "CycloNum":
        """Rewrite the value in Q(zeta_n); requires n | order and membership."""
        if self.order % n:
            raise ValueError(f"{n} does not divide order {self.order}")
        if n == self.order:
            return self
        basis = [CycloNum.zeta(n, i).embed(self.order).coeffs for i in range(_degree(n))]
        sol = _solve_columns(basis, self.coeffs)
        if sol is None:
            raise ValueError(f"value does not lie in Q(zeta_{n})")
        return CycloNum(n, sol)

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
        a, b = self._common(other)
        dense = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
        for i, x in enumerate(a.coeffs):
            if x:
                for j, y in enumerate(b.coeffs):
                    if y:
                        dense[i + j] += x * y
        return CycloNum(a.order, _reduce(a.order, dense))

    __rmul__ = __mul__

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        a, b = self._common(other)
        return a.coeffs == b.coeffs

    __hash__ = None  # cross-order equality makes a consistent hash unavailable

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    # -- Galois action -----------------------------------------------------

    def galois(self, k: int) -> "CycloNum":
        """Image under zeta |-> zeta**k; k must be coprime to the order."""
        n = self.order
        if gcd(k, n) != 1:
            raise ValueError(f"{k} is not coprime to the order {n}")
        dense = [0] * n
        for i, c in enumerate(self.coeffs):
            dense[(i * k) % n] += c
        return CycloNum(n, _reduce(n, dense))

    # -- queries and rendering ---------------------------------------------

    def is_rational(self):
        """The value as an int or Fraction when it is rational, else None."""
        if any(self.coeffs[1:]):
            return None
        return self.coeffs[0]

    def sort_key(self):
        # Total order on values of one fixed order; used for canonical listings.
        return tuple((c.numerator, c.denominator) for c in self.coeffs)

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

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "coeffs": [[c.numerator, c.denominator] for c in self.coeffs],
        }

    @classmethod
    def from_json(cls, data: dict) -> "CycloNum":
        coeffs = [Fraction(num, den) for num, den in data["coeffs"]]
        return cls(data["order"], coeffs)

    def __repr__(self):
        return f"CycloNum({self.order}, {self.render_text()!r})"


def _solve_columns(columns, rhs):
    # Solve sum_j x_j * columns[j] = rhs over the rationals; None when unsolvable.
    nrows = len(rhs)
    ncols = len(columns)
    mat = [[columns[j][i] for j in range(ncols)] + [rhs[i]] for i in range(nrows)]
    pivots = []
    row = 0
    for col in range(ncols):
        pivot = next((r for r in range(row, nrows) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[row], mat[pivot] = mat[pivot], mat[row]
        inv = Fraction(1, mat[row][col])  # exact; int / int would give a float
        mat[row] = [v * inv for v in mat[row]]
        for r in range(nrows):
            if r != row and mat[r][col] != 0:
                f = mat[r][col]
                mat[r] = [a - f * b for a, b in zip(mat[r], mat[row])]
        pivots.append(col)
        row += 1
        if row == nrows:
            break
    # inconsistent rows mean rhs is outside the span
    for r in range(row, nrows):
        if mat[r][ncols] != 0:
            return None
    sol = [0] * ncols
    for r, col in enumerate(pivots):
        sol[col] = mat[r][ncols]
    return tuple(sol)


def galois_apply(a: CycloNum, k: int) -> CycloNum:
    """Apply the field automorphism zeta |-> zeta**k (k coprime to the order)."""
    return a.galois(k)
