"""GF(9), the projective line, and the tower up to PGammaL(2,9)."""

import random
from itertools import product

import pytest

from a6k3.permgrp import (
    Perm,
    closure,
    conjugate_group,
    conjugacy_classes,
    derived_subgroup,
    is_a6_certified,
)
from a6k3.pgl9 import (
    F9,
    M10CosetFacts,
    build_pgammal29,
    build_pgl29,
    build_psl29,
    classify_overgroups,
    f9_elements,
    moebius_perm,
    _split_overgroups,
)


def test_field_axioms_all_pairs():
    els = f9_elements()
    assert len(set(els)) == 9
    zero = F9(0)
    one = F9(1)
    for x, y in product(els, repeat=2):
        assert x + y == y + x
        assert x * y == y * x
        assert x + zero == x and x * one == x
        assert x + (-x) == zero
        if not y.is_zero():
            assert (x * y) / y == x
    for x, y, z in product(els[:3], els, els[:3]):
        assert (x + y) + z == x + (y + z)
        assert x * (y + z) == x * y + x * z
        assert (x * y) * z == x * (y * z)


def test_negative_powers_are_powers_of_the_inverse():
    for x in f9_elements()[1:]:
        power = F9(1)
        for k in range(11):
            # x^k as k products, the oracle for the square-and-multiply loop
            assert x**k == power
            assert x ** -k == x.inverse() ** k
            power = power * x


def test_multiplicative_group_cyclic_of_order_8():
    g = F9(1, 1)
    powers = {g}
    acc = g
    for _ in range(7):
        acc = acc * g
        powers.add(acc)
    assert len(powers) == 8 and F9(1) in powers


def test_frobenius_is_an_order2_field_automorphism():
    els = f9_elements()
    for x, y in product(els, repeat=2):
        assert (x + y).frobenius() == x.frobenius() + y.frobenius()
        assert (x * y).frobenius() == x.frobenius() * y.frobenius()
    for x in els:
        assert x.frobenius().frobenius() == x
    assert any(x.frobenius() != x for x in els)


def test_moebius_action_is_faithful():
    # only the scalar matrix classes fix all 10 points
    els = f9_elements()
    identity = Perm.identity(10)
    trivial = 0
    total = 0
    for a, b, c, d in product(els, repeat=4):
        if (a * d - b * c).is_zero():
            continue
        total += 1
        if moebius_perm(a, b, c, d) == identity:
            trivial += 1
    assert total == 80 * 72  # |GL(2,9)|
    assert trivial == 8  # exactly the scalars


def test_singular_matrix_rejected():
    with pytest.raises(ValueError):
        moebius_perm(F9(1), F9(0), F9(0), F9(0))


def test_group_orders():
    assert len(build_pgl29()) == 720  # 9 * (81 - 1)
    assert len(build_pgammal29()) == 1440
    assert len(build_psl29()) == 360


def test_pgl_contains_order_10_element():
    assert any(x.order() == 10 for x in build_pgl29().elements)


def test_psl_certificate():
    psl = build_psl29()
    assert is_a6_certified(psl)
    assert tuple(c.size for c in conjugacy_classes(psl)) == (1, 45, 40, 40, 90, 72, 72)
    assert derived_subgroup(psl) == psl


def test_quotient_of_pgammal_by_psl_is_klein_four():
    gam = build_pgammal29()
    psl = build_psl29()
    assert len(gam) == 4 * len(psl)
    assert all(g * g in psl for g in gam.elements)


def test_classify_overgroups():
    split = classify_overgroups()
    groups = (split.s6, split.pgl, split.m10)
    assert all(len(H) == 720 for H in groups)
    assert len({H.elements for H in groups}) == 3
    assert split.pgl == build_pgl29()
    psl = build_psl29()
    # no involutions outside PSL inside M10
    assert not any(x.order() == 2 for x in split.m10.elements if x not in psl)


def test_classification_stable_under_conjugated_regeneration():
    rng = random.Random(17)
    imgs = list(range(10))
    rng.shuffle(imgs)
    t = Perm(imgs)
    gam2 = closure(tuple(t * g * t.inverse() for g in build_pgammal29().generators))
    psl2 = derived_subgroup(derived_subgroup(gam2))
    # derived tower: [gam, gam] = PSL already; applying twice is idempotent
    assert len(psl2) == 360 and is_a6_certified(psl2)
    split2 = _split_overgroups(gam2, psl2)
    split = classify_overgroups()
    for name in ("s6", "pgl", "m10"):
        assert getattr(split2, name) == conjugate_group(getattr(split, name), t)


def test_m10_order4_class_check():
    from a6k3.pgl9 import m10_order4_class_check

    split = classify_overgroups()
    psl = build_psl29()
    facts = m10_order4_class_check(split.m10, psl)
    assert isinstance(facts, M10CosetFacts)
    assert facts.involutions_outside == 0
    assert facts.order4_outside_one_class
    # independent recount of the order-4 coset elements
    count = sum(1 for x in split.m10.elements if x not in psl and x.order() == 4)
    assert facts.order4_count == count and count > 0
    with pytest.raises(ValueError):
        m10_order4_class_check(split.m10, split.s6)


def test_coset_involutions_of_s6_and_pgl():
    # the cosets of PSL(2,9) in S6 and PGL(2,9) hold involutions, where the
    # one in M10 holds none; each count is checked against a scan of orders
    from a6k3.pgl9 import m10_order4_class_check

    split = classify_overgroups()
    psl = build_psl29()
    for over, involutions in ((split.s6, 30), (split.pgl, 36)):
        facts = m10_order4_class_check(over, psl)
        outside = [x.order() for x in over.elements if x not in psl]
        assert facts.involutions_outside == outside.count(2) == involutions
        assert facts.order4_count == outside.count(4)


def test_derived_tower_of_pgammal():
    gam = build_pgammal29()
    D = derived_subgroup(gam)
    assert len(D) == 360 and is_a6_certified(D)
    assert D == build_psl29()
