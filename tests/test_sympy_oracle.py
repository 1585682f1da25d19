"""The tower, the candidates and their derived subgroups against sympy's
Schreier-Sims implementation (C. C. Sims 1970), an oracle that shares no code
with this package."""

import random

import pytest

combinatorics = pytest.importorskip("sympy.combinatorics")

from a6k3.extbuild import build_all_candidates
from a6k3.permgrp import Perm, center, conjugacy_classes, conjugate_group, derived_subgroup
from a6k3.pgl9 import build_pgammal29, build_pgl29, build_psl29, classify_overgroups, m10_order4_class_check


def sympy_perm(x):
    return combinatorics.Permutation(list(x.images))


def sympy_group(G):
    return combinatorics.PermutationGroup(list(map(sympy_perm, G.generators)))


def test_tower_orders_agree_with_sympy():
    orders = [sympy_group(G).order() for G in (build_psl29(), build_pgl29(), build_pgammal29())]
    assert orders == [360, 720, 1440]


def test_candidate_classes_and_centers_agree_with_sympy():
    cands = build_all_candidates()
    assert list(cands) == ["A6_4", "S6_2", "PGL29_2", "M10_2"]
    counts, centers = [], []
    for c in cands.values():
        S = sympy_group(c.group)
        counts.append(len(S.conjugacy_classes()))
        centers.append(S.center().order())
        assert counts[-1] == len(conjugacy_classes(c.group)) and centers[-1] == len(center(c.group))
    assert counts == [28, 22, 22, 16] and centers == [4, 2, 2, 2]


def test_derived_subgroups_agree_with_sympy():
    # PGL(2,9), PGammaL(2,9), the four candidates and two relabelings of each
    base = [build_pgl29(), build_pgammal29(), *(c.group for c in build_all_candidates().values())]
    rng = random.Random(2020)
    relabeled = [conjugate_group(G, Perm(rng.sample(range(G.degree), G.degree))) for G in base * 2]
    for G in base + relabeled:
        D = derived_subgroup(G)
        S = sympy_group(G).derived_subgroup()
        assert len(D) == S.order() == 360
        assert all(S.contains(sympy_perm(h)) for h in D.generators)
        # each A6 is perfect, by both
        assert derived_subgroup(D) == D and S.is_perfect


def test_m10_coset_agrees_with_sympy():
    # M10 \ PSL(2,9) has no involutions, and its order-4 elements form one
    # class of M10, as many as `m10_order4_class_check` counts
    split, psl = classify_overgroups(), build_psl29()
    M, P = sympy_group(split.m10), sympy_group(psl)
    coset = [g for g in M.generate() if not P.contains(g)]
    assert len(coset) == 360
    assert all(g.order() != 2 for g in coset)
    quads = {g for g in coset if g.order() == 4}
    assert M.conjugacy_class(next(iter(quads))) == quads
    facts = m10_order4_class_check(split.m10, psl)
    assert len(quads) == facts.order4_count and facts.involutions_outside == 0 and facts.order4_outside_one_class
