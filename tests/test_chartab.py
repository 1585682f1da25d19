"""The Dixon-Schneider engine: structure constants, primes, exact tables."""

import copy
import random
from fractions import Fraction
from itertools import islice, product
from math import gcd

import pytest
from testkit import clear_caches

from a6k3.exact import CycloNum, _charpoly, _gauss_jordan, euler_phi, galois_apply, prime_factors
from a6k3.permgrp import A6_CLASS_SHAPE, Perm, VerificationError, _classes, _index, closure, conjugacy_classes, conjugate_group
from a6k3.pgl9 import build_pgammal29, build_pgl29, build_psl29, classify_overgroups
from a6k3.chartab import (
    _class_matrix,
    _eigenvalues,
    _is_prime,
    _nullspace,
    _primitive_root,
    _split,
    _verify_orthogonality,
    admissible_primes,
    character_table,
    class_labels,
    match_reference_table,
    reference_a6_rows,
    structure_constants,
)
from a6k3 import chartab
from a6k3.cli import render_table_text
from a6k3.extbuild import alternating6


def s3():
    return closure([Perm.from_cycles([(0, 1)], 3), Perm.from_cycles([(0, 1, 2)], 3)])


def c4():
    return closure([Perm.from_cycles([(0, 1, 2, 3)], 4)])


def members(G, c):
    # the class of c, rebuilt by conjugating its representative over G
    return {g * c.representative * g.inverse() for g in G.elements}


def test_structure_constants_c2():
    C2 = closure([Perm.from_cycles([(0, 1)], 2)])
    alg = structure_constants(C2)
    # the involution class squared lands on the identity exactly once
    assert alg.constants[1][1][0] == 1
    assert alg.constants[1][1][1] == 0


def test_structure_constants_s3_brute_force():
    G = s3()
    alg = structure_constants(G)
    classes = alg.classes
    ti = next(i for i, c in enumerate(classes) if c.element_order == 2)
    # 9 products of transpositions, 3 of them equal any fixed element of a class
    assert alg.constants[ti][ti][0] == 3
    # independent recount for a couple of entries
    for i in range(3):
        for j in range(3):
            for k in range(3):
                z = classes[k].representative
                count = sum(
                    1
                    for x in members(G, classes[i])
                    for y in members(G, classes[j])
                    if x * y == z
                )
                assert count == alg.constants[i][j][k]


def test_structure_constants_consistency_a6():
    alg = structure_constants(alternating6())
    sizes = [c.size for c in alg.classes]
    r = len(sizes)
    for i in range(r):
        for j in range(r):
            assert (
                sum(alg.constants[i][j][k] * sizes[k] for k in range(r))
                == sizes[i] * sizes[j]
            )


def test_structure_constants_independent_of_z():
    rng = random.Random(31)
    G = s3()
    alg = structure_constants(G)
    classes = alg.classes
    for k, ck in enumerate(classes):
        z = rng.choice(sorted(members(G, ck)))
        for i, ci in enumerate(classes):
            row = [0] * len(classes)
            for x in members(G, ci):
                y = x.inverse() * z
                j = next(jj for jj, cj in enumerate(classes) if y in members(G, cj))
                row[j] += 1
            assert tuple(row) == tuple(alg.constants[i][jj][k] for jj in range(len(classes)))


def test_dixon_prime_examples():
    assert next(admissible_primes(alternating6())) == 61
    C2 = closure([Perm.from_cycles([(0, 1)], 2)])
    assert next(admissible_primes(C2)) == 5
    assert next(admissible_primes(c4())) == 5
    assert list(islice(admissible_primes(alternating6()), 2)) == [61, 181]


def test_character_table_c4():
    t = character_table(c4())
    assert t.degrees == (1, 1, 1, 1)
    z4 = CycloNum.zeta(4)
    allowed = [CycloNum.one(4), z4, -CycloNum.one(4), -z4]
    for row in t.rows:
        for v in row:
            assert any(v == w for w in allowed)
    # each linear character is determined by its value on the generator class
    gen_col = next(i for i, c in enumerate(t.classes) if c.element_order == 4)
    values = [row[gen_col] for row in t.rows]
    for w in allowed:
        assert sum(1 for v in values if v == w) == 1


def test_character_table_s3():
    t = character_table(s3())
    assert sorted(t.degrees) == [1, 1, 2]
    assert sum(d * d for d in t.degrees) == 6
    rows = {tuple(int(v.is_rational()) for v in row) for row in t.rows}
    assert rows == {(1, 1, 1), (1, -1, 1), (2, 0, -1)}


def test_character_table_a6():
    t = character_table(build_psl29())
    assert t.degrees == (1, 5, 5, 8, 8, 9, 10)
    assert class_labels(t.classes) == ("1A", "2A", "3A", "3B", "4A", "5A", "5B")
    # the two degree-5 rows take values {2, -1} on the order-3 classes
    pos3 = [i for i, c in enumerate(t.classes) if c.element_order == 3]
    for row in (t.rows[1], t.rows[2]):
        vals = sorted(int(row[i].is_rational()) for i in pos3)
        assert vals == [-1, 2]
    # the degree-8 rows carry (1 +- sqrt5)/2 on the order-5 classes
    sqrt5 = 2 * CycloNum.zeta(5, 1) + 2 * CycloNum.zeta(5, 4) + 1
    minus, plus = Fraction(1, 2) * (1 - sqrt5), Fraction(1, 2) * (1 + sqrt5)
    pos5 = [i for i, c in enumerate(t.classes) if c.element_order == 5]
    for row in (t.rows[3], t.rows[4]):
        a, b = (row[i] for i in pos5)
        assert (a == minus and b == plus) or (a == plus and b == minus)


def test_character_values_keep_int_coefficients():
    # character values lie in Z[zeta_o], so no Fraction is ever built for them,
    # and each table's rows are sorted by their int coefficient tuples
    for build, _ in TOWER.values():
        rows = character_table(build()).rows
        assert all(type(c) is int for row in rows for v in row for c in v.coeffs)
        assert sorted(rows, key=lambda row: [v.coeffs for v in row]) == list(rows)


def test_match_reference_table():
    assert match_reference_table(character_table(build_psl29()))
    assert match_reference_table(character_table(alternating6()))
    assert not match_reference_table(character_table(c4()))


def test_match_rejects_perturbed_table():
    t = character_table(build_psl29())
    rows = [list(row) for row in t.rows]
    rows[6] = list(rows[6])
    rows[6][1] = rows[6][1] + 1
    from a6k3.chartab import CharacterTable

    bad = CharacterTable(
        group_order=t.group_order,
        classes=t.classes,
        rows=tuple(tuple(r) for r in rows),
        exponent=t.exponent,
        prime=t.prime,
    )
    assert not match_reference_table(bad)


def test_reference_fixture_self_consistency():
    rows = reference_a6_rows()
    assert len(rows) == 7 and all(len(r) == 7 for r in rows)
    assert [int(r[0].is_rational()) for r in rows] == [1, 5, 5, 8, 8, 9, 10]
    # sqrt5 encoding: the two golden entries sum to 1 and multiply to -1
    a, b = rows[3][5], rows[3][6]
    assert a + b == 1 and a * b == -1


def test_orthogonality_exact():
    for G in (s3(), c4(), build_psl29()):
        t = character_table(G)
        classes = t.classes
        sizes = [c.size for c in classes]
        inv = [c.power_map[c.element_order - 1] for c in classes]
        for a, ra in enumerate(t.rows):
            for b, rb in enumerate(t.rows):
                total = CycloNum.zero(t.exponent)
                for i in range(len(classes)):
                    total = total + sizes[i] * (ra[i] * rb[inv[i]])
                assert total == (t.group_order if a == b else 0)
        assert sum(d * d for d in t.degrees) == t.group_order


def test_galois_action_permutes_rows():
    t = character_table(build_psl29())
    # zeta5 -> zeta5^2 maps sqrt5 to -sqrt5; zeta -> zeta^17 (17 = 2 mod 5,
    # coprime to 60) extends it to the field of every class, and it exchanges
    # the two degree-8 rows
    mapped = tuple(galois_apply(v, 17) for v in t.rows[3])
    assert all(v == w for v, w in zip(mapped, t.rows[4]))
    # the golden entries are built in Q(zeta5), where k = 2 applies
    pos5 = [i for i, c in enumerate(t.classes) if c.element_order == 5]
    for i in pos5:
        assert t.rows[3][i].order == 5
        assert galois_apply(t.rows[3][i], 2) == t.rows[4][i]
    # automorphisms fix every rational-valued row
    for idx in (0, 1, 2, 5, 6):
        mapped = tuple(galois_apply(v, 7) for v in t.rows[idx])
        assert all(v == w for v, w in zip(mapped, t.rows[idx]))


def test_next_prime_reproduces_identical_table():
    t1 = character_table(build_psl29(), prime_index=0)
    t2 = character_table(build_psl29(), prime_index=1)
    assert t1.prime == 61 and t2.prime == 181
    for r1, r2 in zip(t1.rows, t2.rows):
        assert all(v == w for v, w in zip(r1, r2))


def test_class_count_guard():
    # C2^5 has 32 classes, beyond the class-count guard
    gens = [Perm.from_cycles([(2 * i, 2 * i + 1)], 10) for i in range(5)]
    G = closure(gens)
    assert len(G) == 32
    with pytest.raises(ValueError):
        character_table(G)


def test_rendering_and_json():
    t = character_table(build_psl29())
    text = render_table_text(t)
    assert "1A" in text and "5B" in text and "chi7" in text
    assert t.group_order == 360
    assert len(t.rows) == 7
    first = t.classes[0]
    assert (class_labels(t.classes)[0], first.element_order, first.size) == ("1A", 1, 1)
    v = t.rows[0][0]
    assert (v.order, v.coeffs) == (1, (1,))


def test_random_small_groups_have_valid_tables():
    rng = random.Random(777)
    built = 0
    while built < 6:
        degree = rng.randint(3, 5)
        imgs = list(range(degree))
        rng.shuffle(imgs)
        g1 = Perm(imgs)
        rng.shuffle(imgs)
        g2 = Perm(imgs)
        G = closure([g1, g2])
        if len(conjugacy_classes(G)) > 16:
            continue
        t = character_table(G)
        assert sum(d * d for d in t.degrees) == len(G)
        assert len(t.rows) == len(conjugacy_classes(G))
        built += 1


# the A6 tower with the sorted degree columns the benchmark's set-up expects
TOWER = {
    "S6": (lambda: classify_overgroups().s6, (1, 1, 5, 5, 5, 5, 9, 9, 10, 10, 16)),
    "PGL(2,9)": (build_pgl29, (1, 1, 8, 8, 8, 8, 9, 9, 10, 10, 10)),
    "M10": (lambda: classify_overgroups().m10, (1, 1, 9, 9, 10, 10, 10, 16)),
    "PGammaL(2,9)": (build_pgammal29, (1, 1, 1, 1, 9, 9, 9, 9, 10, 10, 16, 16, 20)),
    "PSL(2,9)": (build_psl29, (1, 5, 5, 8, 8, 9, 10)),
}


@pytest.mark.parametrize("name", list(TOWER))
def test_values_lie_in_their_class_fields_and_obey_galois(name):
    # chi(g) lies in Q(zeta_o) for g of order o, and is built there; and
    # chi(g^k) = sigma_k(chi(g)) for k coprime to o: facts of the field, not
    # of the engine
    t = character_table(TOWER[name][0]())
    for row in t.rows:
        for c, v in zip(t.classes, row):
            o = c.element_order
            assert v.order == o
            for k in range(o):
                if gcd(k, o) == 1:
                    assert row[c.power_map[k]] == galois_apply(v, k)


@pytest.mark.parametrize("name", [n for n in TOWER if n != "PSL(2,9)"])
def test_tower_tables_agree_at_two_primes(name):
    build, degrees = TOWER[name]
    t1 = character_table(build(), prime_index=0)
    t2 = character_table(build(), prime_index=1)
    assert t1.prime != t2.prime
    assert tuple(sorted(t1.degrees)) == degrees
    assert all(v == w for r1, r2 in zip(t1.rows, t2.rows) for v, w in zip(r1, r2))


def counted_constants(G, classes):
    """a[i][j][k] = #{x in C_i : x^-1 z in C_j} for the representative z of
    C_k, composing image tuples by hand: no bytes kernel, no pair coding."""
    class_of = {tuple(x.images): i for i, c in enumerate(classes) for x in members(G, c)}
    inverses = []
    for x, i in class_of.items():
        xinv = [0] * len(x)
        for point, image in enumerate(x):
            xinv[image] = point
        inverses.append((xinv, i))
    r = len(classes)
    a = [[[0] * r for _ in range(r)] for _ in range(r)]
    for k, c in enumerate(classes):
        z = tuple(c.representative.images)
        for xinv, i in inverses:
            # (x^-1 z)(point) = x^-1(z(point))
            a[i][class_of[tuple(xinv[image] for image in z)]][k] += 1
    return tuple(tuple(tuple(row) for row in plane) for plane in a)


@pytest.mark.parametrize("name", [n for n in TOWER if n != "PSL(2,9)"])
def test_structure_constants_match_counted_products(name):
    # the tower group and two seeded relabelings of it
    G = TOWER[name][0]()
    rng = random.Random(2400)
    relabeled = [conjugate_group(G, Perm(rng.sample(range(G.degree), G.degree))) for _ in range(2)]
    for H in (G, *relabeled):
        counted = counted_constants(H, conjugacy_classes(H))
        # each class matrix counts over the inverse class; M10's classes 6
        # and 7 are the tower's only non-real ones, where counting over the
        # class itself would differ
        assert [_class_matrix(H, i) for i in range(len(counted))] == list(counted)
        assert structure_constants(H).constants == counted


@pytest.mark.parametrize("name", list(TOWER))
def test_permutation_characters_decompose_into_rows(name):
    # the natural permutation character pi, its symmetric square
    # (pi(g)^2 + pi(g^2))/2 and its alternating square (pi(g)^2 - pi(g^2))/2
    # are characters: each has a non-negative integer inner product with
    # every irreducible row, and these multiplicities rebuild it on every
    # class (Isaacs, Character Theory of Finite Groups, ch. 4-5)
    t = character_table(TOWER[name][0]())
    fixed = [sum(i == x for i, x in enumerate(c.representative.images)) for c in t.classes]
    square = [c.power_map[2] for c in t.classes]  # the class of g^2
    inv = [c.power_map[c.element_order - 1] for c in t.classes]
    sym = [(f * f + fixed[q]) // 2 for f, q in zip(fixed, square)]
    alt = [(f * f - fixed[q]) // 2 for f, q in zip(fixed, square)]
    for psi in (fixed, sym, alt):
        mults = []
        for row in t.rows:
            total = sum((c.size * v * row[inv[k]] for k, (c, v) in enumerate(zip(t.classes, psi))), CycloNum.zero())
            m = (total * Fraction(1, t.group_order)).is_rational()
            assert m is not None and m.denominator == 1 and m >= 0
            mults.append(int(m))
        for k, v in enumerate(psi):
            assert sum((m * row[k] for m, row in zip(mults, t.rows)), CycloNum.zero()) == v


# per tower table: the classes whose matrices the split reads, in the order
# it reads them, and the characteristic polynomials whose roots it scans.  The
# non-rational classes come first, smaller classes first, as only they can
# separate Galois-conjugate characters; S6 and PGammaL(2,9) have none.  A
# space on which a class matrix acts as a scalar is kept without a scan
SPLITS = {
    "S6": ([1, 2], 3),
    "PGL(2,9)": ([5, 6, 9, 10, 7], 6),
    "M10": ([6, 7, 1], 2),
    "PGammaL(2,9)": ([1, 2], 6),
    "PSL(2,9)": ([5, 6, 2], 2),
}


@pytest.mark.parametrize("name", list(TOWER))
def test_split_counts_only_the_class_matrices_it_reads(name, monkeypatch):
    read, scans = [], []
    class_matrix, eigenvalues = chartab._class_matrix, chartab._eigenvalues
    monkeypatch.setattr(chartab, "_class_matrix", lambda G, i: read.append(i) or class_matrix(G, i))
    monkeypatch.setattr(chartab, "_eigenvalues", lambda S, p: scans.append(S) or eigenvalues(S, p))
    character_table.__wrapped__(TOWER[name][0]())
    assert (read, len(scans)) == SPLITS[name]


# per tower table: the eliminations the split makes for an eigenspace, and
# the values the lift computes.  A simple root takes its eigenvector from the
# Krylov vectors of (1, ..., 1) and needs none unless that vector fails its
# check; a multiple root needs one.  Each distinct tuple of values on a
# class's powers is lifted once, of 121, 121, 64, 169 and 49 cells
NULLSPACES = {"S6": 2, "PGL(2,9)": 5, "M10": 1, "PGammaL(2,9)": 5, "PSL(2,9)": 1}
LIFTS = {"S6": 47, "PGL(2,9)": 45, "M10": 33, "PGammaL(2,9)": 61, "PSL(2,9)": 27}


@pytest.mark.parametrize("name", list(TOWER))
def test_eliminations_and_lifts_per_table(name, monkeypatch):
    calls, lifts = [], []
    nullspace, lift = chartab._nullspace, CycloNum.from_power_counts
    monkeypatch.setattr(chartab, "_nullspace", lambda A, p: calls.append(A) or nullspace(A, p))
    monkeypatch.setattr(CycloNum, "from_power_counts", lambda o, counts: lifts.append(o) or lift(o, counts))
    character_table.__wrapped__(TOWER[name][0]())
    assert (len(calls), len(lifts)) == (NULLSPACES[name], LIFTS[name])


def test_relabeled_tables_are_the_tables():
    # a relabeling t can reorder classes of one element order and size, and
    # so break the ties of the split's read order (rational class, size,
    # index) another way; the table of t G t^-1, its columns taken back
    # through the conjugation, is still the table of G
    rng = random.Random(3001)
    moved = set()
    for name, (build, _) in TOWER.items():
        G = build()
        table = character_table(G)
        for _ in range(3):
            t = Perm(rng.sample(range(G.degree), G.degree))
            H = conjugate_group(G, t)
            _, class_of, _ = _classes(H)
            pos = _index(H)
            cols = [class_of[pos[(t * c.representative * t.inverse()).images]] for c in table.classes]
            rows = [tuple(row[k] for k in cols) for row in character_table(H).rows]
            assert sorted(rows, key=lambda row: [v.coeffs for v in row]) == list(table.rows)
            if cols != sorted(cols):
                moved.add(name)
    # the equal-size classes of PGammaL(2,9) differ in their fixed points, so
    # their least members keep one order under every relabeling
    assert moved == set(TOWER) - {"PGammaL(2,9)"}


def full_split(M, B, pivots, p):
    # every root of the restriction S of M to span(B), its kernel and an
    # elimination, with no shortcut for a scalar S
    m = len(B)
    S = [[sum(M[pivots[b]][k] * B[a][k] for k in range(len(M))) % p for a in range(m)] for b in range(m)]
    parts = []
    for lam, _ in _eigenvalues(S, p):
        kernel = _nullspace([[(S[x][y] - (lam if x == y else 0)) % p for y in range(m)] for x in range(m)], p)
        parts.append(_gauss_jordan([[sum(c * row[k] for c, row in zip(coords, B)) % p for k in range(len(M))]
                                    for coords in kernel], p))
    return parts


@pytest.mark.parametrize("p", [7, 241])
def test_scalar_restriction_keeps_its_space(p):
    # a class matrix acting on span(B) as lam leaves B and its pivots as
    # they are, which the full split gives back too; any other matrix is
    # split as the full split splits it
    rng = random.Random(2903 + p)
    scalar = 0
    for r in range(1, 9):
        for _ in range(6):
            B = []
            while not B:  # a space of the split is never 0
                B, pivots = _gauss_jordan([[rng.randrange(p) for _ in range(r)] for _ in range(rng.randint(1, r))], p)
            # M = lam I + u c^T with c orthogonal to span(B): M w = lam w there
            lam, u = rng.randrange(p), [rng.randrange(p) for _ in range(r)]
            c = rng.choice(_nullspace(B, p) or [[0] * r])
            M = [[(lam * (j == k) + u[j] * c[k]) % p for k in range(r)] for j in range(r)]
            assert _split(M, B, pivots, p) == [(B, pivots)] == full_split(M, B, pivots, p)
            scalar += any(c)
            M = [[rng.randrange(p) for _ in range(r)] for _ in range(r)]
            assert _split(M, B, pivots, p) == full_split(M, B, pivots, p)
            # a diagonal matrix acting on the whole space splits it by its
            # distinct entries
            d = [rng.randrange(p) for _ in range(r)]
            M = [[d[j] * (j == k) for k in range(r)] for j in range(r)]
            whole = [[int(j == k) for k in range(r)] for j in range(r)]
            parts = _split(M, whole, list(range(r)), p)
            assert parts == full_split(M, whole, list(range(r)), p) and len(parts) == len(set(d))
    # the scalar matrices include some that are not lam I
    assert scalar > 0


def missing_eigenvector_matrix(rng, r, p):
    # M = P D P^-1, diagonalizable, with the columns e_0, (1, ..., 1) and
    # random ones in P, and d_0 = 0 a simple root: (1, ..., 1) is the
    # eigenvector of d_1 and has no component in the eigenspace of d_0
    while True:
        P = [[int(j == 0)] + [1] + [rng.randrange(p) for _ in range(r - 2)] for j in range(r)]
        inverse, pivots = _gauss_jordan([row + [int(j == k) for k in range(r)] for j, row in enumerate(P)], p)
        if pivots == list(range(r)):
            break
    d = [0] + [rng.randrange(1, p) for _ in range(r - 1)]
    PD = [[v * x % p for v, x in zip(row, d)] for row in P]
    return [[sum(a * b for a, b in zip(row, col)) % p for col in zip(*[row[r:] for row in inverse])] for row in PD]


@pytest.mark.parametrize("p", [7, 241])
def test_unchecked_krylov_vector_falls_back_to_the_nullspace(p, monkeypatch):
    # a simple root whose Krylov vector is no eigenvector, as when M is not
    # diagonalizable, or is 0, as when (1, ..., 1) has no component in its
    # eigenspace, is split by an elimination, as the full split splits it
    rng = random.Random(4001 + p)
    calls = []
    nullspace = chartab._nullspace
    monkeypatch.setattr(chartab, "_nullspace", lambda A, p: calls.append(A) or nullspace(A, p))
    for make in (similar_jordan_matrix, missing_eigenvector_matrix):
        simple_fallbacks = 0
        for r in range(2, 9):
            for _ in range(4):
                M = make(rng, r, p)
                whole = [[int(j == k) for k in range(r)] for j in range(r)]
                calls.clear()
                assert _split(M, whole, list(range(r)), p) == full_split(M, whole, list(range(r)), p)
                multiple = sum(k > 1 for _, k in _eigenvalues(M, p))
                if calls:  # a matrix that is no scalar
                    simple_fallbacks += len(calls) - multiple
        assert simple_fallbacks > 0, make.__name__


def test_column_swaps_leave_the_golden_key():
    # swapping 3A/3B or 5A/5B only permutes the golden rows, so the key of
    # every swap is the one key match_reference_table compares with
    orders = [o for o, _ in A6_CLASS_SHAPE]
    keys = set()
    for swap3, swap5 in product((False, True), repeat=2):
        cols = [0, 1, *((3, 2) if swap3 else (2, 3)), 4, *((6, 5) if swap5 else (5, 6))]
        swapped = [tuple(row[c].embed(o) for c, o in zip(cols, orders)) for row in reference_a6_rows()]
        keys.add(chartab._row_multiset_key(swapped))
    assert keys == {chartab._golden_key()}


def test_match_embeds_no_computed_value(monkeypatch):
    # the golden key is built in the class fields, so the computed values
    # are compared by their own (order, coeffs)
    t = character_table.__wrapped__(build_psl29())
    embed, embedded = CycloNum.embed, []

    def counted(v, m):
        embedded.append(v)
        return embed(v, m)

    monkeypatch.setattr(CycloNum, "embed", counted)
    assert match_reference_table(t)
    computed = {id(v) for row in t.rows for v in row}
    assert not any(id(v) in computed for v in embedded)


def test_orthogonality_reads_each_value_once(monkeypatch):
    # a value on a class where some row is irrational is split into its terms
    # once per check, not once per row pair it enters; the classes where
    # every row is rational are summed as plain numbers and never split.
    # Every value of PGammaL(2,9) is rational
    terms, calls = CycloNum.terms, []

    def counted(v, m):
        calls.append(v)
        return terms(v, m)

    monkeypatch.setattr(CycloNum, "terms", counted)
    for build, irrational, count in ((build_pgammal29, [], 0), (build_pgl29, [5, 6, 7, 8, 9, 10], 66)):
        t = character_table(build())
        assert [i for i, column in enumerate(zip(*t.rows)) if any(v.is_rational() is None for v in column)] == irrational
        calls.clear()
        _verify_orthogonality(t)
        assert len(calls) == len(t.rows) * len(irrational) == count


def test_orthogonality_embeds_no_value(monkeypatch):
    # the sums are compared with the ints |G| and 0 as rationals, not as
    # values embedded into the table's field
    t = character_table(build_pgammal29())
    embed, calls = CycloNum.embed, []

    def counted(v, m):
        calls.append(m)
        return embed(v, m)

    monkeypatch.setattr(CycloNum, "embed", counted)
    _verify_orthogonality(t)
    assert calls == []


@pytest.mark.parametrize("name", list(TOWER))
def test_other_primitive_roots_give_the_same_table(name, monkeypatch):
    # another primitive root g^k, k coprime to the exponent 120, conjugates
    # theta by a Galois automorphism; that only permutes Irr(G), and the
    # sorted table is the same: the mutant "conjugated theta" is equivalent
    G = TOWER[name][0]()
    rows = character_table.__wrapped__(G).rows
    root, roots = chartab._primitive_root, []
    try:
        for k in (7, 11, 239):
            monkeypatch.setattr(chartab, "_primitive_root", lambda p, k=k: roots.append(k) or pow(root(p), k, p))
            clear_caches()  # the lift's roots of unity are memoized per prime
            assert character_table.__wrapped__(G).rows == rows
    finally:
        monkeypatch.undo()
        clear_caches()
    assert sorted(set(roots)) == [7, 11, 239]


def scanned_eigenspaces(S, p):
    # one nullspace per candidate eigenvalue: {eigenvalue: eigenspace dimension}
    m = len(S)
    dims = {}
    for lam in range(p):
        kernel = _nullspace([[(S[x][y] - (lam if x == y else 0)) % p for y in range(m)] for x in range(m)], p)
        if kernel:
            dims[lam] = len(kernel)
    return dims


def generalized_dimension(S, lam, p):
    # the nullity of (S - lam I)^m, by repeated products and one nullspace
    m = len(S)
    A = [[(S[x][y] - (lam if x == y else 0)) % p for y in range(m)] for x in range(m)]
    power = A
    for _ in range(m - 1):
        power = [[sum(a * b for a, b in zip(row, col)) % p for col in zip(*A)] for row in power]
    return len(_nullspace(power, p))


def similar_jordan_matrix(rng, m, p):
    # Jordan blocks with few distinct eigenvalues, hidden by elementary similarities
    S = [[0] * m for _ in range(m)]
    eigen = [rng.randrange(p) for _ in range(rng.randint(1, 3))]
    for x in range(m):
        S[x][x] = rng.choice(eigen)
        if x and S[x - 1][x - 1] == S[x][x] and rng.random() < 0.6:
            S[x - 1][x] = 1
    for _ in range(3 * m):
        i, j, c = rng.randrange(m), rng.randrange(m), rng.randrange(1, p)
        if i != j:
            # S <- E S E^-1 with E = I + c e_i e_j^T
            S[i] = [(a + c * b) % p for a, b in zip(S[i], S[j])]
            for row in S:
                row[j] = (row[j] - c * row[i]) % p
    return S


# p = 241 is the tower's prime; at 7, 11 and 13 a matrix can have p or more
# rows, as a class matrix of a group with up to 16 classes can
@pytest.mark.parametrize("p, sizes, seed", [(241, range(1, 9), 4217), (7, range(9, 17), 5309),
                                            (11, range(9, 17), 5310), (13, range(9, 17), 5311)])
def test_eigenvalues_are_the_scanned_eigenvalues(p, sizes, seed):
    rng = random.Random(seed)
    defective = 0
    for m in sizes:
        dense = [[[rng.randrange(p) for _ in range(m)] for _ in range(m)] for _ in range(3)]
        for S in dense + [similar_jordan_matrix(rng, m, p) for _ in range(3)]:
            dims, roots = scanned_eigenspaces(S, p), _eigenvalues(S, p)
            assert [lam for lam, _ in roots] == sorted(dims)
            # a multiplicity is the dimension of the generalized eigenspace,
            # at least that of the eigenspace; together at most m
            assert all(k == generalized_dimension(S, lam, p) >= dims[lam] for lam, k in roots)
            assert sum(k for _, k in roots) <= m
            defective += sum(dims.values()) < m
    # the sample includes matrices that are not diagonalizable
    assert defective > 0


def test_no_lane_carries_at_a_prime_the_search_returns(monkeypatch):
    # a lane of the root scan adds at most MAX_CLASS_COUNT + 1 terms, each
    # at most (p - 1)^2, and the prime search returns no p above its guard
    assert (chartab.MAX_CLASS_COUNT + 1) * (chartab.PRIME_SEARCH_GUARD - 1) ** 2 < 2**64
    monkeypatch.setattr(chartab, "PRIME_SEARCH_GUARD", 100)
    found = []
    with pytest.raises(VerificationError, match="prime search guard"):
        found.extend(admissible_primes(closure([Perm.from_cycles([(0, 1)], 2)])))
    assert found[-1] == 97


# at 7 and 13 the sizes reach p, so a polynomial may have degree p or more
@pytest.mark.parametrize("p, sizes, seed", [(7, range(1, 17), 6101), (13, range(1, 17), 6102),
                                            (241, range(1, 17), 6103), (10007, range(1, 9), 6104)])
def test_packed_roots_are_the_roots_at_each_point(p, sizes, seed):
    # the zero lanes of the packed evaluation are the points x of F_p where
    # the characteristic polynomial, evaluated by Horner's rule at x alone,
    # is 0; its roots in F_p, with multiplicity, number at most its degree
    rng = random.Random(seed)
    split = 0
    for m in sizes:
        for S in ([[rng.randrange(p) for _ in range(m)] for _ in range(m)], similar_jordan_matrix(rng, m, p)):
            coeffs = _charpoly(S, p)
            plain = []
            for x in range(p):
                value = 0
                for c in coeffs:
                    value = (value * x + c) % p
                if not value:
                    plain.append(x)
            roots = _eigenvalues(S, p)
            assert [lam for lam, _ in roots] == plain
            assert all(k >= 1 for _, k in roots) and sum(k for _, k in roots) <= m
            split += sum(k for _, k in roots) == m
    # the Jordan samples split over F_p, with all their roots in the scan
    assert split >= len(sizes)


def test_character_table_d8_x_c3_at_p_13():
    # 15 classes at p = 13: the central involution's class matrix is 15 x 15
    G = closure([Perm([1, 2, 3, 0, 4, 5, 6]), Perm([0, 3, 2, 1, 4, 5, 6]), Perm([0, 1, 2, 3, 5, 6, 4])])
    t = character_table(G)
    assert (len(G), t.prime) == (24, 13)
    assert sorted(t.degrees) == [1] * 12 + [2] * 3


def naive_orthogonality(table):
    # every row pair and every column pair, and positive integer degrees
    classes, rows, r = table.classes, table.rows, len(table.classes)
    inv = [c.power_map[c.element_order - 1] for c in classes]
    sizes = [c.size for c in classes]
    for a in range(r):
        for b in range(r):
            total = sum((sizes[i] * (rows[a][i] * rows[b][inv[i]]) for i in range(r)), CycloNum.zero())
            if total != (table.group_order if a == b else 0):
                return False
    for i in range(r):
        for j in range(r):
            total = sum((rows[a][i] * rows[a][inv[j]] for a in range(r)), CycloNum.zero())
            if total != (Fraction(table.group_order, sizes[i]) if i == j else 0):
                return False
    return all(isinstance(row[0].is_rational(), int) and row[0].is_rational() > 0 for row in rows)


def with_fields(table, **fields):
    """A shallow copy of a result object with some fields replaced."""
    new = copy.copy(table)
    vars(new).update(fields)
    return new


def corrupted_entry(table, seed):
    rng = random.Random(seed)
    a, i = rng.randrange(len(table.rows)), rng.randrange(len(table.classes))
    v = table.rows[a][i]
    new = rng.choice(
        [
            v + 1,
            -v,
            galois_apply(v, table.exponent - 1),  # complex conjugate
            v * CycloNum.zeta(table.exponent, rng.randrange(1, table.exponent)),
            table.rows[a][rng.randrange(len(table.classes))],  # another entry of the row
        ]
    )
    rows = [list(row) for row in table.rows]
    rows[a][i] = new
    return with_fields(table, rows=tuple(tuple(row) for row in rows))


def test_orthogonality_check_matches_the_full_check():
    # every class of S6 is rational, so there a corruption that makes a
    # value irrational moves its class out of the plain rational sum
    for G in (build_pgl29(), classify_overgroups().s6):
        t = character_table(G)
        outcomes = set()
        seen = set()
        irrational = 0
        for seed in range(200):
            bad = corrupted_entry(t, seed)
            key = tuple((v.order, v.coeffs) for row in bad.rows for v in row)
            if key in seen:
                continue
            seen.add(key)
            irrational += any(v.is_rational() is None for row in bad.rows for v in row)
            passes = naive_orthogonality(bad)
            outcomes.add(passes)
            if passes:
                _verify_orthogonality(bad)
            else:
                with pytest.raises(VerificationError):
                    _verify_orthogonality(bad)
        # some corruptions leave the table unchanged, most do not
        assert len(seen) >= 100 and outcomes == {True, False} and irrational > 0


def test_rational_column_with_an_irrational_inverse_column_fails_cleanly():
    # M10's classes 6 and 7 are inverse to each other, and each column holds
    # two irrational values; made rational on class 6 alone, the column
    # pairs with an irrational one and must fail the check, not the sum
    t = character_table(classify_overgroups().m10)
    assert [c.power_map[c.element_order - 1] for c in t.classes[6:]] == [7, 6]
    rows = tuple((*row[:6], CycloNum.from_rational(1), row[7]) for row in t.rows)
    bad = with_fields(t, rows=rows)
    assert not naive_orthogonality(bad)
    with pytest.raises(VerificationError, match="row orthogonality"):
        _verify_orthogonality(bad)


def test_orthogonality_check_rejects_a_table_of_the_wrong_shape():
    t = character_table(classify_overgroups().m10)
    rows = [list(row) for row in t.rows]
    rows[2][0] = rows[2][0] + CycloNum.zeta(t.exponent, 1)  # an irrational degree
    for bad, message in (
        (t.rows + t.rows[-1:], "not square"),
        (t.rows[:-1], "not square"),
        (tuple(tuple(row) for row in rows), "not an integer"),
    ):
        with pytest.raises(VerificationError, match=message):
            _verify_orthogonality(with_fields(t, rows=bad))


def test_class_inversion_must_be_a_size_preserving_involution():
    t = character_table(build_pgl29())
    classes = list(t.classes)
    sizes = [c.size for c in classes]
    selfinv = [k for k, c in enumerate(classes) if c.power_map[c.element_order - 1] == k]
    i, j = next((i, j) for i in selfinv for j in selfinv if sizes[i] != sizes[j])

    def with_inverse(cls, k, target):
        c = cls[k]
        pm = list(c.power_map)
        for l in range(c.element_order - 1, len(pm), c.element_order):
            pm[l] = target
        cls[k] = c._replace(power_map=tuple(pm))

    not_involution = list(classes)
    with_inverse(not_involution, i, j)  # i* = j but j* = j
    size_changing = list(classes)
    with_inverse(size_changing, i, j)
    with_inverse(size_changing, j, i)  # an involution exchanging sizes
    for cls in (not_involution, size_changing):
        with pytest.raises(VerificationError, match="involution"):
            _verify_orthogonality(with_fields(t, classes=tuple(cls)))


def test_inversion_swapping_two_rational_classes_is_checked():
    # S6's classes 1 and 2 have one size and rational, unequal columns; with
    # class data that makes them inverse to each other, the plain rational
    # sum must pair column 1 with column 2, and the table fails
    t = character_table(classify_overgroups().s6)
    assert t.classes[1].size == t.classes[2].size and t.classes[1].element_order == 2
    classes = list(t.classes)
    for k, target in ((1, 2), (2, 1)):
        classes[k] = classes[k]._replace(power_map=tuple(target if l % 2 else 0 for l in range(len(classes[k].power_map))))
    bad = with_fields(t, classes=tuple(classes))
    assert not naive_orthogonality(bad)
    with pytest.raises(VerificationError, match="row orthogonality"):
        _verify_orthogonality(bad)


def test_factorization_against_brute_force():
    primes = [p for p in range(2, 2000) if all(p % d for d in range(2, p))]
    for n in range(1, 2000):
        assert prime_factors(n) == [p for p in primes if n % p == 0]
        assert euler_phi(n) == sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)
        assert _is_prime(n) == (n in primes)

    def order(g, p):
        x, k = g % p, 1
        while x != 1:
            x, k = x * g % p, k + 1
        return k

    for p in primes:
        # the least g of multiplicative order p - 1
        assert _primitive_root(p) == next(g for g in range(1, p) if order(g, p) == p - 1)
    with pytest.raises(ValueError):
        prime_factors(0)
