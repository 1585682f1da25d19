"""Exact character tables via the Dixon-Schneider class-algebra method.

The pipeline: exhaustive structure constants, a simultaneous eigenspace
split of the class-sum matrices over a prime field F_p with p = 1 mod the
group exponent and p > 2*ceil(sqrt(|G|)), eigenvalues the roots of the
characteristic polynomial, ascending, degree recovery from the second
orthogonality relation, and a lift of each value on a class of order o to
Q(zeta_o) in Q(zeta_exponent) through root-of-unity multiplicities.  The
row orthogonality relations of the square table, which imply the column
relations, are re-verified exactly before a table is returned, each row
pair as one `exact.dot` with a single cyclotomic reduction.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache, reduce
from itertools import islice
from math import isqrt, lcm

from .exact import CycloNum, dot, prime_factors
from .permgrp import (
    ConjClassData,
    PermGroup,
    VerificationError,
    _classes,
    _tables,
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
    "dixon_prime",
    "admissible_primes",
    "character_table",
    "match_reference_table",
    "reference_a6_rows",
    "class_labels",
    "render_table_text",
    "display_value",
    "table_to_json",
]


class ClassAlgebra:
    """Conjugacy classes with the exact class-multiplication constants.

    constants[i][j][k] counts pairs (x, y) in C_i x C_j with x*y = z for one
    fixed z in C_k; the count is independent of the choice of z.
    """

    def __init__(self, group_order: int, classes: tuple[ConjClassData, ...], constants: tuple):
        self.group_order, self.classes, self.constants = group_order, classes, constants

    def check_consistency(self):
        """sum_k a[i][j][k] |C_k| = |C_i| |C_j| for all i, j."""
        sizes = [c.size for c in self.classes]
        r = len(self.classes)
        for i in range(r):
            for j in range(r):
                total = sum(self.constants[i][j][k] * sizes[k] for k in range(r))
                require(total == sizes[i] * sizes[j], f"class-algebra constants are inconsistent at ({i}, {j})")


@group_cache
def structure_constants(G: PermGroup) -> ClassAlgebra:
    """Exhaustively counted class-algebra structure constants."""
    if len(G) > MAX_TABLE_ORDER:
        raise ValueError(f"group order {len(G)} exceeds the guard {MAX_TABLE_ORDER}")
    classes = conjugacy_classes(G)
    r = len(classes)
    class_of = _classes(G)[1]
    inv_class = _inverse_class_map(classes)
    a = [[[0] * r for _ in range(r)] for _ in range(r)]
    for k, ck in enumerate(classes):
        # x*y = z has the unique solution y = x^-1 z, and y^-1 = z^-1 x
        left = _tables(G).left(ck.representative.inverse().images)
        pairs = Counter(zip(class_of, map(inv_class.__getitem__, map(class_of.__getitem__, left))))
        for (i, j), count in pairs.items():
            a[i][j][k] = count
    alg = ClassAlgebra(
        group_order=len(G),
        classes=classes,
        constants=tuple(tuple(tuple(row) for row in plane) for plane in a),
    )
    alg.check_consistency()
    return alg


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


def dixon_prime(G: PermGroup) -> int:
    """The smallest admissible prime for G."""
    return next(admissible_primes(G))


# -- linear algebra over F_p -------------------------------------------------


def _rref(rows, p):
    rows = [list(r) for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots = []
    rank = 0
    for col in range(ncols):
        piv = next((r for r in range(rank, nrows) if rows[r][col] % p), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col], p - 2, p)
        rows[rank] = [(v * inv) % p for v in rows[rank]]
        for r in range(nrows):
            if r != rank and rows[r][col] % p:
                f = rows[r][col]
                rows[r] = [(a - f * b) % p for a, b in zip(rows[r], rows[rank])]
        pivots.append(col)
        rank += 1
        if rank == nrows:
            break
    return rows[:rank], pivots


def _nullspace(matrix, p):
    # basis of {x : matrix @ x = 0 mod p}, x as lists
    n = len(matrix[0])
    rows, pivots = _rref(matrix, p)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for fc in free:
        x = [0] * n
        x[fc] = 1
        for r, pc in enumerate(pivots):
            x[pc] = (-rows[r][fc]) % p
        basis.append(x)
    return basis


def _eigenvalues(S, p):
    """The eigenvalues of S over F_p, ascending: the roots of its characteristic
    polynomial det(x I - S), by Berkowitz's algorithm, which never divides and
    so holds for every p, also when p <= len(S)."""
    coeffs = [1]  # of the leading k x k block, leading coefficient first
    for k in range(len(S)):
        # Toeplitz column of the new block: 1, -s_kk, -R C, -R A C, ..., -R A^(k-1) C
        col, toeplitz = [S[x][k] for x in range(k)], [1, -S[k][k] % p]
        for _ in range(k):
            toeplitz.append(-sum(S[k][x] * col[x] for x in range(k)) % p)
            col = [sum(S[x][y] * col[y] for y in range(k)) % p for x in range(k)]
        coeffs = [sum(toeplitz[i - j] * coeffs[j] for j in range(min(i, k) + 1)) % p for i in range(k + 2)]
    return [lam for lam in range(p) if reduce(lambda acc, c: (acc * lam + c) % p, coeffs) == 0]


def _primitive_root(p: int) -> int:
    # smallest primitive root mod p; p-1 is small enough for trial factoring
    factors = prime_factors(p - 1)
    for g in range(1, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in factors):
            return g
    raise VerificationError("no primitive root found")


def _common_eigenvectors(alg: ClassAlgebra, p: int):
    """One-dimensional common eigenspaces of the class-sum matrices over F_p.

    Spaces are refined against the class matrices in canonical class order;
    within a split, the eigenvalues are the roots of the characteristic
    polynomial, ascending.  The result is the list of normalized
    central-character rows (identity-class entry 1).
    """
    r = len(alg.classes)
    # bases are kept in reduced row-echelon form so that the coordinates of a
    # member vector can be read off at the pivot columns
    spaces = [[[1 if c == k else 0 for c in range(r)] for k in range(r)]]
    for i in range(1, r):
        if all(len(B) == 1 for B in spaces):
            break
        M = alg.constants[i]  # (M)[j][k] = a[i][j][k]; acts as w |-> M w
        new_spaces = []
        for B in spaces:
            if len(B) == 1:
                new_spaces.append(B)
                continue
            pivots = [next(c for c in range(r) if row[c] % p) for row in B]
            imgs = []
            for vec in B:
                img = [sum(M[c][k] * vec[k] for k in range(r)) % p for c in range(r)]
                imgs.append(img)
            # restricted matrix in the rref coordinates of B
            S = [[imgs[a][pivots[b]] for a in range(len(B))] for b in range(len(B))]
            found = 0
            for lam in _eigenvalues(S, p):
                A = [[(S[x][y] - (lam if x == y else 0)) % p for y in range(len(B))] for x in range(len(B))]
                kernel = _nullspace(A, p)
                vecs = []
                for coords in kernel:
                    v = [0] * r
                    for a, ca in enumerate(coords):
                        if ca:
                            for c in range(r):
                                v[c] = (v[c] + ca * B[a][c]) % p
                    vecs.append(v)
                sub, _ = _rref(vecs, p)
                new_spaces.append(sub)
                found += len(sub)
                if found == len(B):
                    break
            require(found == len(B), f"class matrix {i} is not diagonalizable mod {p}")
        spaces = new_spaces
    require(all(len(B) == 1 for B in spaces), f"common eigenspaces not one-dimensional mod {p}")
    rows = []
    for B in spaces:
        w = B[0]
        lead = w[0]  # identity-class coordinate; the true value there is 1
        require(lead % p != 0, "eigenvector vanishes on the identity class")
        inv = pow(lead, p - 2, p)
        rows.append([(v * inv) % p for v in w])
    return rows


class CharacterTable:
    """Exact irreducible character values over Q(zeta_exponent): rows[i][k]
    is chi_i on classes[k], computed with the prime `prime`."""

    def __init__(self, group_order: int, classes: tuple[ConjClassData, ...], rows, exponent: int, prime: int):
        self.group_order, self.classes, self.rows = group_order, classes, rows
        self.exponent, self.prime = exponent, prime

    @property
    def degrees(self) -> tuple[int, ...]:
        return tuple(int(row[0].is_rational()) for row in self.rows)


def _inverse_class_map(classes) -> list[int]:
    return [c.power_map[c.element_order - 1] for c in classes]


@group_cache
def character_table(G: PermGroup, prime_index: int = 0) -> CharacterTable:
    """The exact character table of G, computed with the prime_index-th
    admissible prime (0 = smallest)."""
    alg = structure_constants(G)
    classes = alg.classes
    r = len(classes)
    if r > MAX_CLASS_COUNT:
        raise ValueError(f"class count {r} exceeds the guard {MAX_CLASS_COUNT}")
    order = alg.group_order
    e = group_exponent(G)
    inv_class = _inverse_class_map(classes)
    sizes = [c.size for c in classes]

    # an admissible prime always splits the class algebra (Dixon 1967)
    p = next(islice(admissible_primes(G), prime_index, None))
    omega_rows = _common_eigenvectors(alg, p)

    # degrees from 1/chi(1)^2 = (1/|G|) sum_i w_i w_i' / |C_i|
    degrees = []
    charp_rows = []
    for w in omega_rows:
        total = 0
        for i in range(r):
            total = (total + w[i] * w[inv_class[i]] * pow(sizes[i], p - 2, p)) % p
        require(total % p != 0, "degree recovery hit a zero denominator")
        dsq = (order * pow(total, p - 2, p)) % p
        d = next((x for x in range(1, p // 2 + 1) if (x * x) % p == dsq), None)
        require(d is not None, "degree recovery: residue is not a square")
        degrees.append(d)
        charp_rows.append([(d * w[i] * pow(sizes[i], p - 2, p)) % p for i in range(r)])
    require(sum(d * d for d in degrees) == order, "degree column is inconsistent")

    # lift chi(g) = sum_t m_t zeta_o^t for g of order o, where
    # m_t = (1/o) sum_{l<o} chi_p(g^l) theta^(-t l e/o); zeta_o^t = zeta_e^(t e/o)
    theta = pow(_primitive_root(p), (p - 1) // e, p)
    theta_pow = [pow(theta, t, p) for t in range(e)]
    rows = []
    for d, chi_p in zip(degrees, charp_rows):
        row = []
        for c in classes:
            o = c.element_order
            step, inv_o = e // o, pow(o, p - 2, p)
            values = [chi_p[c.power_map[l]] for l in range(o)]
            # the power map has period o, so only the exponents t * e/o carry
            # counts, and the list ends at the highest of them; each count
            # lies in [0, p), so the sum also bounds every count by d
            counts = [0] * ((o - 1) * step + 1)
            for t in range(o):
                acc = sum(v * theta_pow[-t * l * step % e] for l, v in enumerate(values))
                counts[t * step] = acc * inv_o % p
            require(sum(counts) == d, "root-of-unity multiplicities do not sum to the degree")
            row.append(CycloNum.from_power_counts(e, counts))
        rows.append(tuple(row))

    rows.sort(key=lambda row: (int(row[0].is_rational()), [v.sort_key() for v in row]))
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

    Each pair is one `dot` over the classes, so its r products share one
    reduction modulo Phi_exponent; the sum is compared exactly.
    """
    classes = table.classes
    r = len(classes)
    order = table.group_order
    rows = table.rows
    require(len(rows) == r and all(len(row) == r for row in rows), "the table is not square")
    degrees = [row[0].is_rational() for row in rows]
    require(all(d is not None and d.denominator == 1 and d > 0 for d in degrees), "a degree is not a positive integer")
    inv_class = _inverse_class_map(classes)
    sizes = [c.size for c in classes]
    # i -> i* is a size-preserving involution, so row pair (a, b) has the sum
    # of (b, a): each pair is checked once
    involution = all(inv_class[inv_class[i]] == i and sizes[inv_class[i]] == sizes[i] for i in range(r))
    require(involution, "class inversion is not a size-preserving involution")
    # for a square table the row relations X D Y^T = |G| I, with D the class
    # sizes and Y[b][i] = chi_b(i*), imply the column relations Y^T X D = |G| I
    starred = [[row[i] for i in inv_class] for row in rows]
    field = lcm(table.exponent, *(v.order for row in rows for v in row))
    for a in range(r):
        for b in range(a, r):
            total = dot(field, sizes, rows[a], starred[b])
            require(total == (order if a == b else 0), f"row orthogonality fails at ({a}, {b})")


# -- the reference A6 table --------------------------------------------------


def _sqrt5() -> CycloNum:
    # sqrt(5) = 2*zeta5 + 2*zeta5^4 + 1
    return 2 * CycloNum.zeta(5, 1) + 2 * CycloNum.zeta(5, 4) + 1


REFERENCE_A6_CLASS_SHAPE = ((1, 1), (2, 45), (3, 40), (3, 40), (4, 90), (5, 72), (5, 72))


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


def _row_multiset_key(rows, common_order):
    normalized = [tuple(v.embed(common_order) for v in row) for row in rows]
    return sorted(tuple(v.sort_key() for v in row) for row in normalized)


def match_reference_table(table: CharacterTable) -> bool:
    """True when the table equals the golden A6 table up to the allowed
    symmetry: swapping the two order-3 columns and/or the two order-5
    columns (with the induced swaps of the paired rows)."""
    shape = tuple((c.element_order, c.size) for c in table.classes)
    if shape != REFERENCE_A6_CLASS_SHAPE:
        return False
    ref = reference_a6_rows()
    common = lcm(table.exponent, 5)
    got = _row_multiset_key(table.rows, common)
    for swap3 in (False, True):
        for swap5 in (False, True):
            cols = [0, 1, 2, 3, 4, 5, 6]
            if swap3:
                cols[2], cols[3] = cols[3], cols[2]
            if swap5:
                cols[5], cols[6] = cols[6], cols[5]
            variant = [tuple(row[c] for c in cols) for row in ref]
            # row order is irrelevant under the multiset comparison, so the
            # induced row swaps need no separate handling
            if _row_multiset_key(variant, common) == got:
                return True
    return False


# -- rendering ----------------------------------------------------------------


def class_labels(classes) -> tuple[str, ...]:
    """Atlas-style class names: 1A, 2A, 3A, 3B, ... in canonical class order."""
    counts: dict[int, int] = {}
    labels = []
    for c in classes:
        k = counts.get(c.element_order, 0)
        counts[c.element_order] = k + 1
        labels.append(f"{c.element_order}{chr(ord('A') + k)}")
    return tuple(labels)


def display_value(v: CycloNum) -> str:
    """Compact text form: rationals verbatim, otherwise the value rewritten
    in the smallest convenient cyclotomic field."""
    r = v.is_rational()
    if r is not None:
        return str(r)
    for n in (4, 5, 8, 12):
        if v.order % n == 0:
            try:
                return v.restrict(n).render_text()
            except ValueError:
                continue
    return v.render_text()


def render_table_text(table: CharacterTable) -> str:
    labels = class_labels(table.classes)
    body = [[display_value(v) for v in row] for row in table.rows]
    names = [f"chi{i+1}" for i in range(len(table.rows))]
    widths = [max(len(labels[j]), *(len(body[i][j]) for i in range(len(body)))) for j in range(len(labels))]
    name_w = max(len(n) for n in names)
    lines = [" " * name_w + "  " + "  ".join(l.rjust(w) for l, w in zip(labels, widths))]
    lines.append(" " * name_w + "  " + "  ".join("-" * w for w in widths))
    for name, row in zip(names, body):
        lines.append(name.ljust(name_w) + "  " + "  ".join(v.rjust(w) for v, w in zip(row, widths)))
    return "\n".join(lines)


def table_to_json(table: CharacterTable) -> dict:
    return {
        "group_order": table.group_order,
        "exponent": table.exponent,
        "classes": [
            {"label": lbl, "element_order": c.element_order, "size": c.size}
            for lbl, c in zip(class_labels(table.classes), table.classes)
        ],
        "rows": [[v.to_json() for v in row] for row in table.rows],
    }
