"""The derived subgroups of the tower and of the candidates against sympy's
Schreier-Sims implementation (C. C. Sims 1970), an oracle that shares no code
with this package."""

import random

import pytest

combinatorics = pytest.importorskip("sympy.combinatorics")

from a6k3.extbuild import build_all_candidates
from a6k3.permgrp import Perm, conjugate_group, derived_subgroup
from a6k3.pgl9 import build_pgammal29, build_pgl29


def sympy_perm(x):
    return combinatorics.Permutation(list(x.images))


def test_derived_subgroups_agree_with_sympy():
    # PGL(2,9), PGammaL(2,9), the four candidates and two relabelings of each
    base = [build_pgl29(), build_pgammal29(), *(c.group for c in build_all_candidates().values())]
    rng = random.Random(2020)
    relabeled = [conjugate_group(G, Perm(rng.sample(range(G.degree), G.degree))) for G in base * 2]
    for G in base + relabeled:
        D = derived_subgroup(G)
        S = combinatorics.PermutationGroup(list(map(sympy_perm, G.generators))).derived_subgroup()
        assert len(D) == S.order() == 360
        assert all(S.contains(sympy_perm(h)) for h in D.generators)
        # each A6 is perfect, by both
        assert derived_subgroup(D) == D and S.is_perfect
