"""The Dixon-Schneider engine: structure constants, primes, exact tables."""

import random
from fractions import Fraction
from itertools import islice

import pytest

from a6k3.exact import CycloNum, galois_apply
from a6k3.permgrp import Perm, closure, conjugacy_classes
from a6k3.pgl9 import build_psl29
from a6k3.chartab import (
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
