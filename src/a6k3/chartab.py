"""Exact character tables via the Dixon-Schneider class-algebra method.

The pipeline: a simultaneous eigenspace split of the class-sum matrices
over F_p, p = 1 mod the group exponent and p > 2*ceil(sqrt(|G|));
eigenvalues the roots of the characteristic polynomial, ascending, with
their multiplicities, found by one evaluation at every point of F_p in
64-bit lanes of one int; the eigenvector of a simple root from one Krylov
sequence, kept when it is checked to be one, and a nullspace for the
other roots; degree recovery from the second orthogonality relation; and
a lift of each value on a class of order o to Q(zeta_o), where it stays,
through root-of-unity multiplicities, each distinct tuple of values on a
class's powers lifted once per table, with the roots of unity and square
roots mod p memoized per prime.  A class matrix is counted, by
`_class_matrix`, only when the split reads it (Schneider 1990),
non-rational classes first, as only they can separate Galois-conjugate
characters, then by size; a space on which it acts as a scalar is kept
with no characteristic polynomial.
Eliminations are `exact._gauss_jordan` and characteristic polynomials
`exact._charpoly`, both over F_p.  The row orthogonality relations of the
square table, which imply the column relations, are re-verified exactly
before a table is returned: per row pair, the classes where every row is
rational are one sum of ints or Fractions, the others one `exact.dot`.
Classes are named by `class_labels`; `cli` writes the text form of a table.

Inner loops are C passes over whole lists: the products of a class matrix
(`permgrp._right_products`) and the `Counter` of their classes; each F_p
inner product, `sum(map(mul, ...))`; the lift, one class at a time with one
matrix of roots of unity per element order and prime; and the
orthogonality check, which reads each irrational value's terms once.
"""

from __future__ import annotations

import sys
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import accumulate, compress, islice
from math import gcd, isqrt, lcm
from operator import mul, not_

from .exact import CycloNum, _charpoly, _gauss_jordan, _integer, dot, prime_factors
from .permgrp import (
    A6_CLASS_SHAPE,
    ConjClassData,
    PermGroup,
    VerificationError,
    _classes,
    _index,
    _right_products,
    conjugacy_classes,
    group_cache,
    require,
)

MAX_TABLE_ORDER = 10_000
MAX_CLASS_COUNT = 16
PRIME_SEARCH_GUARD = 10**6

__all__ = [
    "ClassAlgebra",
    "CharacterTable",
    "structure_constants",
    "group_exponent",
    "admissible_primes",
    "character_table",
    "match_reference_table",
    "reference_a6_rows",
    "class_labels",
]


class ClassAlgebra:
    """Conjugacy classes with the exact class-multiplication constants.

    constants[i][j][k] counts pairs (x, y) in C_i x C_j with x*y = z for one
    fixed z in C_k; the count is independent of the choice of z.
    """

    def __init__(self, group_order: int, classes: tuple[ConjClassData, ...], constants: tuple):
        self.group_order, self.classes, self.constants = group_order, classes, constants


def _require_consistent(M, i: int, sizes):
    # sum_k M[j][k] |C_k| = |C_i| |C_j| for the class matrix M = M_i
    for j, row in enumerate(M):
        total = sum(map(mul, row, sizes))
        require(total == sizes[i] * sizes[j], f"class-algebra constants are inconsistent at ({i}, {j})")


@group_cache
def _class_matrix(G: PermGroup, i: int) -> tuple:
    """The class matrix M_i[j][k] = a[i][j][k], checked as it is built:
    x*y = z_k has y = x^-1 z_k, so column k counts the classes of w z_k for
    w in the inverse class C_i*."""
    classes = conjugacy_classes(G)
    members, class_of, _ = _classes(G)
    pos = _index(G)
    inverses = map(G.images.__getitem__, members[_inverse_class_map(classes)[i]])
    M = [[0] * len(classes) for _ in classes]
    reps = [c.representative for c in classes]
    for k, products in enumerate(_right_products(inverses, G.degree, reps)):
        for j, count in Counter(map(class_of.__getitem__, map(pos.__getitem__, products))).items():
            M[j][k] = count
    _require_consistent(M, i, [c.size for c in classes])
    return tuple(map(tuple, M))


@group_cache
def structure_constants(G: PermGroup) -> ClassAlgebra:
    """The class-algebra structure constants, every class matrix counted."""
    if len(G) > MAX_TABLE_ORDER:
        raise ValueError(f"group order {len(G)} exceeds the guard {MAX_TABLE_ORDER}")
    classes = conjugacy_classes(G)
    constants = tuple(_class_matrix(G, i) for i in range(len(classes)))
    return ClassAlgebra(group_order=len(G), classes=classes, constants=constants)


def group_exponent(G: PermGroup) -> int:
    return lcm(*(c.element_order for c in conjugacy_classes(G)))


def _is_prime(n: int) -> bool:
    return n >= 2 and prime_factors(n) == [n]


def admissible_primes(G: PermGroup):
    """Primes p = 1 (mod exponent) with p > 2*ceil(sqrt(|G|)), ascending."""
    e = group_exponent(G)
    root = isqrt(len(G))
    if root * root < len(G):
        root += 1
    p = 2 * root
    while True:
        p += 1
        require(p <= PRIME_SEARCH_GUARD, "prime search guard exceeded")
        if (e == 1 or p % e == 1) and _is_prime(p):
            yield p


# -- linear algebra over F_p -------------------------------------------------


def _nullspace(matrix, p):
    # basis of {x : matrix @ x = 0 mod p}, x as lists; entries in [0, p)
    n = len(matrix[0])
    rows, pivots = _gauss_jordan(matrix, p)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        x = [0] * n
        x[fc] = 1
        for r, pc in enumerate(pivots):
            x[pc] = (-rows[r][fc]) % p
        basis.append(x)
    return basis


@cache
def _lanes(p: int, j: int) -> int:
    """x^j mod p for every x < p, in the 64-bit lane x of one int."""
    return int.from_bytes(b"".join(pow(x, j, p).to_bytes(8, sys.byteorder) for x in range(p)), sys.byteorder)


def _eigenvalues(S, p):
    """The eigenvalues of S over F_p, ascending, each with its multiplicity as
    a root of the characteristic polynomial `exact._charpoly(S, p)`.  They are
    the zero lanes of sum_j c_j _lanes(p, j), the polynomial at every point of
    F_p: a lane adds len(S) + 1 terms of at most (p - 1)^2, so none carries
    while len(S) <= MAX_CLASS_COUNT and p <= PRIME_SEARCH_GUARD."""
    coeffs = _charpoly(S, p)
    packed = sum(c * _lanes(p, j) for j, c in enumerate(reversed(coeffs)))
    values = memoryview(packed.to_bytes(8 * p, sys.byteorder)).cast("Q")
    roots = []
    for lam in compress(range(p), map(not_, map(p.__rmod__, values))):
        # synthetic division by x - lam while it leaves no remainder
        k = 0
        while True:
            *quotient, rest = accumulate(coeffs, lambda b, c: (c + lam * b) % p)
            if rest:
                break
            k, coeffs = k + 1, quotient
        roots.append((lam, k))
    return roots


def _primitive_root(p: int) -> int:
    # smallest primitive root mod p; p-1 is small enough for trial factoring
    factors = prime_factors(p - 1)
    for g in range(1, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in factors):
            return g
    raise VerificationError("no primitive root found")


def _split(M, B, pivots, p: int) -> list:
    """The eigenspaces of the class matrix M in span(B) over F_p, for
    eigenvalues ascending, each as (basis, pivots) in reduced row-echelon
    form like B; they span B exactly when M is diagonalizable on it."""
    m = len(B)
    # the action on span(B), in the rref coordinates of B: M maps span(B)
    # into itself, so only the pivot rows of M are read
    S = [[sum(map(mul, M[c], vec)) % p for vec in B] for c in pivots]
    lam = S[0][0]
    if all(S[x][y] == (lam if x == y else 0) for x in range(m) for y in range(m)):
        # M acts on span(B) as lam: B is already its one eigenspace
        return [(B, pivots)]
    roots = _eigenvalues(S, p)
    # g = prod (x - mu) over the distinct roots, and the Krylov vectors S^j v,
    # j < len(roots), of v = (1, ..., 1), highest power first
    g, krylov = [1], [[1] * m]
    for mu, _ in roots:
        g = [(a - mu * b) % p for a, b in zip(g + [0], [0, *g])]
    for _ in roots[1:]:
        krylov.insert(0, [sum(map(mul, row, krylov[0])) % p for row in S])
    krylov = list(zip(*krylov))
    columns = list(zip(*B))
    parts = []
    for lam, k in roots:
        basis = None
        if k == 1:
            # (S - lam) u = g(S) v for u = (g/(x - lam))(S) v, so u spans the
            # lam-eigenspace, a line, if g(S) v = 0 and u != 0, as when S is
            # diagonalizable and v meets that line; u is kept only if checked
            q = list(accumulate(g, lambda b, c: (c + lam * b) % p))[:-1]
            u = [sum(map(mul, q, row)) % p for row in krylov]
            if any(u) and [sum(map(mul, row, u)) % p for row in S] == [lam * x % p for x in u]:
                basis = [u]
        if basis is None:
            basis = _nullspace([[(S[x][y] - (lam if x == y else 0)) % p for y in range(m)] for x in range(m)], p)
        # the eigenvectors in B's coordinates, written out over the classes
        vecs = [[sum(map(mul, coords, col)) % p for col in columns] for coords in basis]
        parts.append(_gauss_jordan(vecs, p))
    return parts


def _common_eigenvectors(G: PermGroup, p: int):
    """One-dimensional common eigenspaces of the class-sum matrices over F_p.

    Spaces are split by the class matrices in the order (rational class, size,
    index), each counted only when a space is left to split.  The result is
    the list of normalized central-character rows (identity-class entry 1).
    """
    classes = conjugacy_classes(G)
    r = len(classes)
    # a class fixed by every power coprime to its order is rational; its matrix
    # cannot separate Galois-conjugate characters, so the others are read first
    rational = [all(c.power_map[k] == i for k in range(1, c.element_order) if gcd(k, c.element_order) == 1)
                for i, c in enumerate(classes)]
    # bases are kept in reduced row-echelon form, each with its pivot columns,
    # so that the coordinates of a member vector can be read off at them
    spaces = [([[1 if c == k else 0 for c in range(r)] for k in range(r)], list(range(r)))]
    for i in sorted(range(1, r), key=lambda i: (rational[i], classes[i].size, i)):
        if all(len(B) == 1 for B, _ in spaces):
            break
        M = _class_matrix(G, i)  # M[j][k] = a[i][j][k]; acts as w |-> M w
        new_spaces = []
        for B, pivots in spaces:
            parts = [(B, pivots)] if len(B) == 1 else _split(M, B, pivots, p)
            require(sum(len(sub) for sub, _ in parts) == len(B), f"class matrix {i} is not diagonalizable mod {p}")
            new_spaces += parts
        spaces = new_spaces
    require(all(len(B) == 1 for B, _ in spaces), f"common eigenspaces not one-dimensional mod {p}")
    # each basis is in reduced row-echelon form, so its one vector's
    # identity-class coordinate, the true value 1, is 1 unless it is 0
    require(all(B[0][0] == 1 for B, _ in spaces), "eigenvector vanishes on the identity class")
    return [B[0] for B, _ in spaces]


@cache
def _square_roots(p: int) -> dict:
    """The square root in [1, p/2] of each nonzero square mod p."""
    return {x * x % p: x for x in range(1, p // 2 + 1)}


@cache
def _dft(p: int, o: int) -> tuple:
    """Row t of the o x o matrix zeta^(-t l) / o mod p, for zeta = g^((p-1)/o)
    with g the least primitive root mod p: zeta_o mod p, for o dividing p - 1."""
    zeta, inv_o = pow(_primitive_root(p), (p - 1) // o, p), pow(o, p - 2, p)
    scaled = [pow(zeta, j, p) * inv_o % p for j in range(o)]
    return tuple(tuple(scaled[-t * l % o] for l in range(o)) for t in range(o))


class CharacterTable:
    """Exact irreducible character values: rows[i][k] is chi_i on
    classes[k], in Q(zeta_o) for the element order o of that class, computed
    with the prime `prime`; `exponent` is the group exponent."""

    def __init__(self, group_order: int, classes: tuple[ConjClassData, ...], rows, exponent: int, prime: int):
        self.group_order, self.classes, self.rows = group_order, classes, rows
        self.exponent, self.prime = exponent, prime

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(_integer(row[0], "a degree") for row in self.rows)


def _inverse_class_map(classes) -> list[int]:
    return [c.power_map[c.element_order - 1] for c in classes]


@group_cache
def character_table(G: PermGroup, prime_index: int = 0) -> CharacterTable:
    """The exact character table of G, computed with the prime_index-th
    admissible prime (0 = smallest)."""
    order = len(G)
    if order > MAX_TABLE_ORDER:
        raise ValueError(f"group order {order} exceeds the guard {MAX_TABLE_ORDER}")
    classes = conjugacy_classes(G)
    r = len(classes)
    if r > MAX_CLASS_COUNT:
        raise ValueError(f"class count {r} exceeds the guard {MAX_CLASS_COUNT}")
    e = group_exponent(G)
    inv_class = _inverse_class_map(classes)
    sizes = [c.size for c in classes]

    # an admissible prime always splits the class algebra (Dixon 1967)
    p = next(islice(admissible_primes(G), prime_index, None))
    omega_rows = _common_eigenvectors(G, p)

    # degrees from 1/chi(1)^2 = (1/|G|) sum_i w_i w_i' / |C_i|
    inv_sizes = [pow(size, p - 2, p) for size in sizes]
    roots = _square_roots(p)
    degrees = []
    charp_rows = []
    for w in omega_rows:
        total = sum(map(mul, map(mul, w, map(w.__getitem__, inv_class)), inv_sizes)) % p
        require(total != 0, "degree recovery hit a zero denominator")
        d = roots.get(order * pow(total, p - 2, p) % p)
        require(d is not None, "degree recovery: residue is not a square")
        degrees.append(d)
        charp_rows.append([d * x * y % p for x, y in zip(w, inv_sizes)])
    require(sum(d * d for d in degrees) == order, "degree column is inconsistent")

    # lift chi(g) = sum_t m_t zeta_o^t, in Q(zeta_o) for g of order o, where
    # m_t = (1/o) sum_{l<o} chi_p(g^l) zeta_o^(-t l) mod p; each distinct
    # tuple of values on a class's powers is lifted once, and its first
    # entry, chi_p(1) = d, fixes the degree that the counts must sum to
    lifted = {}
    columns = []
    for c in classes:
        o = c.element_order
        powers, dft = c.power_map[:o], _dft(p, o)
        column = []
        for d, chi_p in zip(degrees, charp_rows):
            values = tuple(map(chi_p.__getitem__, powers))
            value = lifted.get(values)
            if value is None:
                # each count lies in [0, p), so the sum also bounds every count by d
                counts = [sum(map(mul, values, row)) % p for row in dft]
                require(sum(counts) == d, "root-of-unity multiplicities do not sum to the degree")
                value = lifted[values] = CycloNum.from_power_counts(o, counts)
            column.append(value)
        columns.append(column)
    rows = list(zip(*columns))

    # rows in the order of their coefficient tuples: the identity value
    # (d, 0, ..., 0) leads with the degree
    rows.sort(key=lambda row: [v.coeffs for v in row])
    table = CharacterTable(
        group_order=order,
        classes=classes,
        rows=tuple(rows),
        exponent=e,
        prime=p,
    )
    _verify_orthogonality(table)
    return table


def _verify_orthogonality(table: CharacterTable):
    """Require sum_i |C_i| chi_a(i) chi_b(i*) = |G| delta_ab for every row
    pair a <= b of a square table with positive integer degrees.

    The classes on which every row is rational, as on their inverses, are one
    exact int/Fraction `sum(map(mul, ...))` per pair; the others are one `dot`,
    whose products share one reduction modulo Phi_field.
    """
    classes = table.classes
    r = len(classes)
    order = table.group_order
    rows = table.rows
    require(len(rows) == r and all(len(row) == r for row in rows), "the table is not square")
    require(all(d > 0 for d in table.degrees), "a degree is not a positive integer")
    inv_class = _inverse_class_map(classes)
    sizes = [c.size for c in classes]
    # i -> i* is a size-preserving involution, so row pair (a, b) has the sum
    # of (b, a): each pair is checked once
    involution = all(inv_class[inv_class[i]] == i and sizes[inv_class[i]] == sizes[i] for i in range(r))
    require(involution, "class inversion is not a size-preserving involution")
    # for a square table the row relations X D Y^T = |G| I, with D the class
    # sizes and Y[b][i] = chi_b(i*), imply the column relations Y^T X D = |G| I
    field = lcm(table.exponent, *(v.order for row in rows for v in row))
    values = [[v.is_rational() for v in row] for row in rows]
    rational = [None not in column for column in zip(*values)]
    plain = [i for i in range(r) if rational[i] and rational[inv_class[i]]]
    other = [i for i in range(r) if i not in plain]
    weighted = [[sizes[i] * row[i] for i in plain] for row in values]
    plain_starred = [[row[inv_class[i]] for i in plain] for row in values]
    # each irrational value's terms are read once, and every pair reuses them
    terms = [{i: row[i].terms(field) for i in other} for row in rows]
    other_sizes = [sizes[i] for i in other]
    other_terms = [[row[i] for i in other] for row in terms]
    other_starred = [[row[inv_class[i]] for i in other] for row in terms]
    for a in range(r):
        for b in range(a, r):
            rest = (order if a == b else 0) - sum(map(mul, weighted[a], plain_starred[b]))
            total = dot(field, other_sizes, other_terms[a], other_starred[b]) if other else 0
            require(total == rest, f"row orthogonality fails at ({a}, {b})")


# -- the reference A6 table --------------------------------------------------


def _sqrt5() -> CycloNum:
    # sqrt(5) = 2*zeta5 + 2*zeta5^4 + 1
    return 2 * CycloNum.zeta(5, 1) + 2 * CycloNum.zeta(5, 4) + 1


@cache
def reference_a6_rows() -> tuple[tuple[CycloNum, ...], ...]:
    """The golden 7x7 A6 table; columns 1A 2A 3A 3B 4A 5A 5B.

    This fixture is only ever compared against computed output; the Dixon
    engine never reads from it.
    """
    half = Fraction(1, 2)
    gold_minus = half * (1 - _sqrt5())  # (1 - sqrt 5)/2
    gold_plus = half * (1 + _sqrt5())   # (1 + sqrt 5)/2
    q = CycloNum.from_rational
    rows = (
        (q(1), q(1), q(1), q(1), q(1), q(1), q(1)),
        (q(5), q(1), q(2), q(-1), q(-1), q(0), q(0)),
        (q(5), q(1), q(-1), q(2), q(-1), q(0), q(0)),
        (q(8), q(0), q(-1), q(-1), q(0), gold_minus, gold_plus),
        (q(8), q(0), q(-1), q(-1), q(0), gold_plus, gold_minus),
        (q(9), q(1), q(0), q(0), q(1), q(-1), q(-1)),
        (q(10), q(-2), q(1), q(1), q(0), q(0), q(0)),
    )
    return rows


def _row_multiset_key(rows):
    # equal values of one order have equal coefficient tuples, and int and
    # Fraction coefficients compare as numbers
    return tuple(sorted(tuple((v.order, v.coeffs) for v in row) for row in rows))


@cache
def _golden_key():
    # the golden key, each value embedded into its column's element order as
    # a computed table builds it.  Swapping 3A/3B or 5A/5B is induced by an
    # outer automorphism of A6 and only permutes rows, so it keeps the key
    orders = [o for o, _ in A6_CLASS_SHAPE]
    return _row_multiset_key([tuple(v.embed(o) for v, o in zip(row, orders)) for row in reference_a6_rows()])


def match_reference_table(table: CharacterTable) -> bool:
    """True when the table equals the golden A6 table up to the allowed
    symmetry: swapping the two order-3 columns and/or the two order-5
    columns, which permutes the rows, and the rows in any order."""
    shape = tuple((c.element_order, c.size) for c in table.classes)
    return shape == A6_CLASS_SHAPE and _row_multiset_key(table.rows) == _golden_key()


# -- class names --------------------------------------------------------------


def class_labels(classes) -> tuple[str, ...]:
    """Atlas-style class names: 1A, 2A, 3A, 3B, ... in canonical class order."""
    counts: dict[int, int] = {}
    labels = []
    for c in classes:
        k = counts.get(c.element_order, 0)
        counts[c.element_order] = k + 1
        labels.append(f"{c.element_order}{chr(ord('A') + k)}")
    return tuple(labels)
