"""The Dixon-Schneider engine: structure constants, primes, exact tables."""

import copy
import random
from fractions import Fraction
from itertools import islice
from math import gcd

import pytest

from a6k3.exact import CycloNum, euler_phi, galois_apply, prime_factors
from a6k3.permgrp import Perm, VerificationError, closure, conjugacy_classes
from a6k3.pgl9 import build_pgammal29, build_pgl29, build_psl29, classify_overgroups
from a6k3.chartab import (
    _eigenvalues,
    _is_prime,
    _nullspace,
    _primitive_root,
    _verify_orthogonality,
    admissible_primes,
    character_table,
    class_labels,
    dixon_prime,
    match_reference_table,
    reference_a6_rows,
    render_table_text,
    structure_constants,
    table_to_json,
)
from a6k3.extbuild import alternating6


def s3():
    return closure([Perm.from_cycles([(0, 1)], 3), Perm.from_cycles([(0, 1, 2)], 3)])


def c4():
    return closure([Perm.from_cycles([(0, 1, 2, 3)], 4)])


def test_structure_constants_c2():
    C2 = closure([Perm.from_cycles([(0, 1)], 2)])
    alg = structure_constants(C2)
    # the involution class squared lands on the identity exactly once
    assert alg.constants[1][1][0] == 1
    assert alg.constants[1][1][1] == 0


def test_structure_constants_s3_brute_force():
    alg = structure_constants(s3())
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
                    for x in classes[i].members
                    for y in classes[j].members
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
    alg = structure_constants(s3())
    classes = alg.classes
    for k, ck in enumerate(classes):
        z = rng.choice(ck.members)
        for i, ci in enumerate(classes):
            row = [0] * len(classes)
            for x in ci.members:
                y = x.inverse() * z
                j = next(jj for jj, cj in enumerate(classes) if y in cj.members)
                row[j] += 1
            assert tuple(row) == tuple(alg.constants[i][jj][k] for jj in range(len(classes)))


def test_dixon_prime_examples():
    assert dixon_prime(alternating6()) == 61
    C2 = closure([Perm.from_cycles([(0, 1)], 2)])
    assert dixon_prime(C2) == 5
    assert dixon_prime(c4()) == 5
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
    golden = {
        tuple(v.sort_key() for v in (Fraction(1, 2) * (1 - sqrt5).embed(60), Fraction(1, 2) * (1 + sqrt5).embed(60))),
        tuple(v.sort_key() for v in (Fraction(1, 2) * (1 + sqrt5).embed(60), Fraction(1, 2) * (1 - sqrt5).embed(60))),
    }
    pos5 = [i for i, c in enumerate(t.classes) if c.element_order == 5]
    for row in (t.rows[3], t.rows[4]):
        key = tuple(row[i].sort_key() for i in pos5)
        assert key in golden


def test_character_values_keep_int_coefficients():
    # character values lie in Z[zeta_e], so no Fraction is ever built for them
    t = character_table(build_psl29())
    assert all(type(c) is int for row in t.rows for v in row for c in v.coeffs)


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
    # zeta5 -> zeta5^2 maps sqrt5 to -sqrt5; on Q(zeta60) that automorphism
    # is zeta -> zeta^17 (17 = 2 mod 5, coprime to 60), and it exchanges the
    # two degree-8 rows
    mapped = tuple(galois_apply(v, 17) for v in t.rows[3])
    assert all(v == w for v, w in zip(mapped, t.rows[4]))
    # the golden entries themselves live in Q(zeta5), where k = 2 applies
    pos5 = [i for i, c in enumerate(t.classes) if c.element_order == 5]
    for i in pos5:
        small = t.rows[3][i].restrict(5)
        assert galois_apply(small, 2) == t.rows[4][i]
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
    data = table_to_json(t)
    assert data["group_order"] == 360
    assert len(data["rows"]) == 7
    assert data["classes"][0] == {"label": "1A", "element_order": 1, "size": 1}


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
    # chi(g) lies in Q(zeta_o) for g of order o, and chi(g^k) = sigma_k(chi(g))
    # for k coprime to o: facts of the field, not of the engine
    t = character_table(TOWER[name][0]())
    for row in t.rows:
        for c, v in zip(t.classes, row):
            o = c.element_order
            small = v.restrict(o)
            for k in range(o):
                if gcd(k, o) == 1:
                    assert row[c.power_map[k]] == galois_apply(small, k)


@pytest.mark.parametrize("name", [n for n in TOWER if n != "PSL(2,9)"])
def test_tower_tables_agree_at_two_primes(name):
    build, degrees = TOWER[name]
    t1 = character_table(build(), prime_index=0)
    t2 = character_table(build(), prime_index=1)
    assert t1.prime != t2.prime
    assert tuple(sorted(t1.degrees)) == degrees
    assert all(v == w for r1, r2 in zip(t1.rows, t2.rows) for v, w in zip(r1, r2))


def scanned_eigenspaces(S, p):
    # one nullspace per candidate eigenvalue: {eigenvalue: eigenspace dimension}
    m = len(S)
    dims = {}
    for lam in range(p):
        kernel = _nullspace([[(S[x][y] - (lam if x == y else 0)) % p for y in range(m)] for x in range(m)], p)
        if kernel:
            dims[lam] = len(kernel)
    return dims


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
            dims = scanned_eigenspaces(S, p)
            assert _eigenvalues(S, p) == sorted(dims)
            defective += sum(dims.values()) < m
    # the sample includes matrices that are not diagonalizable
    assert defective > 0


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
            v.galois(table.exponent - 1),  # complex conjugate
            v * CycloNum.zeta(table.exponent, rng.randrange(1, table.exponent)),
            table.rows[a][rng.randrange(len(table.classes))],  # another entry of the row
        ]
    )
    rows = [list(row) for row in table.rows]
    rows[a][i] = new
    return with_fields(table, rows=tuple(tuple(row) for row in rows))


def test_orthogonality_check_matches_the_full_check():
    t = character_table(build_pgl29())
    outcomes = set()
    seen = set()
    for seed in range(200):
        bad = corrupted_entry(t, seed)
        key = tuple(v.sort_key() for row in bad.rows for v in row)
        if key in seen:
            continue
        seen.add(key)
        passes = naive_orthogonality(bad)
        outcomes.add(passes)
        if passes:
            _verify_orthogonality(bad)
        else:
            with pytest.raises(VerificationError):
                _verify_orthogonality(bad)
    # some corruptions leave the table unchanged, most do not
    assert len(seen) >= 100 and outcomes == {True, False}


def test_orthogonality_check_rejects_a_table_of_the_wrong_shape():
    t = character_table(classify_overgroups().m10)
    rows = [list(row) for row in t.rows]
    rows[2][0] = rows[2][0] + CycloNum.zeta(t.exponent, 1)  # an irrational degree
    for bad, message in (
        (t.rows + t.rows[-1:], "not square"),
        (t.rows[:-1], "not square"),
        (tuple(tuple(row) for row in rows), "positive integer"),
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
