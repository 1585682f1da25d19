"""Lefschetz bookkeeping, the decomposition system, and the exclusion tree."""

import copy
import gc
import random
import weakref
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from a6k3.exact import CycloNum
from a6k3.permgrp import Perm, VerificationError, closure
from a6k3.pgl9 import build_psl29
from a6k3.chartab import character_table
from a6k3.extbuild import build_all_candidates, build_candidate
from a6k3.k3verify import (
    AXIOMS,
    CONTRADICTION,
    NO_CONTRADICTION,
    NOT_APPLICABLE,
    GramLattice,
    MultiplicityVector,
    NikulinTable,
    SignCase,
    all_sign_cases,
    argument_3class_trace,
    argument_free_c4,
    argument_nonintegral,
    argument_order5_blocks,
    argument_pigeonhole,
    decomposition_system,
    euler_iota,
    gram_determinant,
    gram_e8,
    gram_hyperbolic,
    gram_is_even,
    gram_k3,
    gram_signature,
    gram_transcendental,
    lattice_checks,
    lefschetz_invariant_rank,
    nonpositive_sign_cases,
    perturb_identity_equation,
    run_exclusion,
    solve_decomposition,
)


def a6_table():
    return character_table(build_psl29())


def test_nikulin_table():
    nik = NikulinTable()
    assert nik.orders() == frozenset(range(1, 9))
    assert nik.fixed_euler(1) == 24
    assert [nik.fixed_euler(o) for o in range(2, 9)] == [8, 6, 4, 4, 2, 3, 2]
    assert nik.unused_orders({1, 2, 3, 4, 5}) == (6, 7, 8)
    with pytest.raises(ValueError):
        nik.fixed_euler(9)


def test_lefschetz_rank_a6():
    nik = NikulinTable()
    rank = lefschetz_invariant_rank(build_psl29(), nik)
    assert rank == 5 and rank.denominator == 1
    # the displayed average: (24 + 8*45 + 6*80 + 4*90 + 4*144) / 360
    assert Fraction(24 + 8 * 45 + 6 * 80 + 4 * 90 + 4 * 144, 360) == 5


def test_lefschetz_rank_small_groups():
    nik = NikulinTable()
    trivial = closure([Perm.identity(3)])
    assert lefschetz_invariant_rank(trivial, nik) == 24
    involution = closure([Perm.from_cycles([(0, 1), (2, 3)], 4)])
    # a symplectic involution fixes a rank-16 part of the full cohomology
    assert lefschetz_invariant_rank(involution, nik) == Fraction(24 + 8, 2) == 16


def test_lefschetz_rank_integral_on_a6_subgroups():
    nik = NikulinTable()
    A6 = build_psl29()
    seen = set()
    for c in A6.elements[:120]:
        H = closure([c])
        if len(H) in seen:
            continue
        seen.add(len(H))
        rank = lefschetz_invariant_rank(H, nik)
        assert rank.denominator == 1 and rank >= 0
    # a couple of nonabelian subgroups
    for gens in (
        [Perm.from_cycles([(0, 1, 2)], 6), Perm.from_cycles([(0, 1), (3, 4)], 6)],
        [Perm.from_cycles([(0, 1, 2, 3, 4)], 6), Perm.from_cycles([(1, 4), (2, 3)], 6)],
    ):
        H = closure(gens)
        rank = lefschetz_invariant_rank(H, nik)
        assert rank.denominator == 1 and rank >= 0


def test_lefschetz_rejects_missing_order():
    nik = NikulinTable()
    C9 = closure([Perm.from_cycles([tuple(range(9))], 9)])
    with pytest.raises(ValueError):
        lefschetz_invariant_rank(C9, nik)


def test_decomposition_system_equations():
    system = decomposition_system(a6_table(), NikulinTable())
    eqs = {eq.label: eq for eq in system.equations}
    ident = eqs["1A"]
    assert ident.fixed_euler == 24
    assert [int(c.is_rational()) for c in ident.coeffs] == [5, 5, 8, 8, 9, 10]
    assert ident.target == 19
    two = eqs["2A"]
    assert two.fixed_euler == 8
    assert [int(c.is_rational()) for c in two.coeffs] == [1, 1, 0, 0, 1, -2]
    assert two.target == 3
    four = eqs["4A"]
    assert [int(c.is_rational()) for c in four.coeffs] == [-1, -1, 0, 0, 1, 0]
    assert four.target == -1
    # the order-5 equations carry the golden-ratio coefficients on a4, a5
    five = eqs["5A"]
    sqrt5 = 2 * CycloNum.zeta(5, 1) + 2 * CycloNum.zeta(5, 4) + 1
    golden = [Fraction(1, 2) * (1 - sqrt5), Fraction(1, 2) * (1 + sqrt5)]
    assert five.coeffs[2] != five.coeffs[3]
    for v in (five.coeffs[2], five.coeffs[3]):
        assert any(v == g for g in golden)
    assert five.coeffs[4] == -1 and five.target == -1


def test_decomposition_system_requires_matching_table():
    C4 = closure([Perm.from_cycles([(0, 1, 2, 3)], 4)])
    with pytest.raises(ValueError):
        decomposition_system(character_table(C4), NikulinTable())


def test_solve_decomposition_unique():
    system = decomposition_system(a6_table(), NikulinTable())
    sols = solve_decomposition(system)
    assert sols == (MultiplicityVector(1, 1, 0, 0, 1, 0),)
    # residuals: the solution satisfies every equation exactly
    vec = sols[0]
    for eq in system.equations:
        total = CycloNum.zero(1)
        for a, c in zip(vec, eq.coeffs):
            total = total + a * c
        assert total == eq.target


def test_solve_decomposition_negative_control():
    system = decomposition_system(a6_table(), NikulinTable())
    assert solve_decomposition(perturb_identity_equation(system, 21)) == ()


def test_euler_iota():
    assert euler_iota(SignCase(1, 1, 1)) == 20
    assert euler_iota(SignCase(-1, -1, 1)) == 0
    assert euler_iota(SignCase(-1, -1, -1)) == -18
    assert len(all_sign_cases()) == 8
    allowed = nonpositive_sign_cases()
    assert set(allowed) == {
        SignCase(-1, 1, -1),
        SignCase(1, -1, -1),
        SignCase(-1, -1, -1),
        SignCase(-1, -1, 1),
    }
    assert all(euler_iota(c) <= 0 for c in allowed)


def test_argument_3class_trace():
    from a6k3.k3verify import picard_multiplicities

    table = a6_table()
    mv = picard_multiplicities(table)
    for case in (SignCase(-1, 1, -1), SignCase(1, -1, -1)):
        out = argument_3class_trace(case, table, mv)
        assert out.status == CONTRADICTION
        assert out.witnesses["trace"] == -2
        assert sum(out.witnesses["terms"]) == -2
        assert out.axioms == ("A2",)
    out = argument_3class_trace(SignCase(-1, -1, 1), table, mv)
    assert out.status == NOT_APPLICABLE


def test_generic_picard_trace():
    from a6k3.k3verify import picard_multiplicities, trace_on_picard

    table = a6_table()
    mv = picard_multiplicities(table)
    assert mv == MultiplicityVector(1, 1, 0, 0, 1, 0)
    # with all signs +1 the trace at the identity is rank S(X) = 20
    assert trace_on_picard(mv, {}, table, 0) == 20
    # at the order-2 class: 1 + 1 + 1 + 1 = 4, the fixed-count bookkeeping
    pos2 = next(i for i, c in enumerate(table.classes) if c.element_order == 2)
    assert trace_on_picard(mv, {}, table, pos2) == 4


def test_picard_multiplicities_keeps_no_table_alive():
    from a6k3.k3verify import picard_multiplicities

    table = copy.copy(a6_table())  # a copy that nothing else holds
    assert picard_multiplicities(table) == MultiplicityVector(1, 1, 0, 0, 1, 0)
    ref = weakref.ref(table)
    del table
    gc.collect()
    assert ref() is None


def test_argument_nonintegral():
    case = SignCase(-1, -1, -1)
    swap = argument_nonintegral(case, swap23=True)
    assert swap.status == CONTRADICTION and swap.witnesses["values_checked"] == 10
    fix = argument_nonintegral(case, swap23=False)
    assert fix.status == CONTRADICTION and fix.witnesses["values_checked"] == 20
    assert argument_nonintegral(SignCase(-1, 1, -1), True).status == NOT_APPLICABLE
    # the discriminating sanity value: 3 + 0*zeta4 is integral
    assert (CycloNum.from_rational(3, 4) + 0 * CycloNum.zeta(4)).is_rational() == 3


def test_argument_pigeonhole():
    cands = build_all_candidates()
    for kind in ("A6_4", "S6_2"):
        out = argument_pigeonhole(kind, cands[kind])
        assert out.status == CONTRADICTION
        assert out.witnesses["min_fixed_points_of_square"] == 2
        assert out.witnesses["permutations_scanned"] == 720
        assert out.axioms == ("A1",)
    with pytest.raises(ValueError):
        argument_pigeonhole("PGL29_2", cands["PGL29_2"])


def test_pigeonhole_against_independent_scan():
    # oracle: explicit scan over all 720 permutations of 6 points
    best = None
    for images in permutations(range(6)):
        def apply(p, q):
            return tuple(p[q[i]] for i in range(6))
        sq = apply(images, images)
        if apply(sq, sq) != (0, 1, 2, 3, 4, 5):
            continue
        best = min(best, sum(1 for i in range(6) if sq[i] == i)) if best is not None else sum(1 for i in range(6) if sq[i] == i)
    assert best == 2
    # the worked example: (1 2 3 4)(5 6) squares to (1 3)(2 4), fixing 5 and 6
    p = Perm.from_cycles([(0, 1, 2, 3), (4, 5)], 6)
    sq = p * p
    assert sq == Perm.from_cycles([(0, 2), (1, 3)], 6)
    assert [i for i in range(6) if sq(i) == i] == [4, 5]


def test_argument_order5_blocks():
    table = a6_table()
    out = argument_order5_blocks(build_candidate("PGL29_2"), table)
    assert out.status == CONTRADICTION
    assert out.witnesses["block_sizes"] == [3, 6]
    assert out.witnesses["size3_traces"] == [3]
    assert out.witnesses["size6_traces"] == [1, 6]
    assert out.witnesses["achievable_totals"] == [4, 9]
    assert out.witnesses["required_total"] == -1
    with pytest.raises(ValueError):
        argument_order5_blocks(build_candidate("M10_2"), table)


def test_order5_commuting_witness():
    cand = build_candidate("PGL29_2")
    sigmas = [
        x for x in cand.a6.elements if x.order() == 5 and x * cand.gtilde == cand.gtilde * x
    ]
    assert sigmas  # (h^2, 1) commutes with (h^5, zeta4)


def test_argument_free_c4():
    assert argument_free_c4(2).status == CONTRADICTION
    assert argument_free_c4(4).status == NO_CONTRADICTION
    assert argument_free_c4(0).status == NO_CONTRADICTION


def test_run_exclusion():
    cands = build_all_candidates()
    report = run_exclusion(cands.values(), a6_table(), NikulinTable())
    assert report.verdict == "M10_2"
    assert len(report.outcomes) == 16
    assert report.validate_complete(("A6_4", "S6_2", "PGL29_2", "M10_2"))
    for kind in ("A6_4", "S6_2", "PGL29_2"):
        mine = [o for o in report.outcomes if o.kind == kind]
        assert len(mine) == 4
        assert all(o.status == CONTRADICTION for o in mine)
    m10 = [o for o in report.outcomes if o.kind == "M10_2"]
    assert len(m10) == 4
    assert all(o.status == NOT_APPLICABLE for o in m10)
    assert all("inner automorphism" in o.witnesses["reason"] for o in m10)
    # designated arguments per sign case
    s6 = {o.sign_case: o.argument for o in report.outcomes if o.kind == "S6_2"}
    assert s6[SignCase(-1, -1, 1)] == "pigeonhole"
    assert s6[SignCase(-1, -1, -1)] == "nonintegral_euler"
    pgl = {o.sign_case: o.argument for o in report.outcomes if o.kind == "PGL29_2"}
    assert pgl[SignCase(-1, -1, 1)] == "order5_blocks"
    # the pigeonhole witness is recorded in the report
    pig = next(
        o for o in report.outcomes if o.kind == "S6_2" and o.sign_case == SignCase(-1, -1, 1)
    )
    assert pig.witnesses["min_fixed_points_of_square"] == 2
    assert set(AXIOMS) == {"A1", "A2"}


def test_run_exclusion_json_shape():
    cands = build_all_candidates()
    report = run_exclusion(cands.values(), a6_table(), NikulinTable())
    data = report.to_json()
    assert data["verdict"] == "M10_2"
    assert len(data["outcomes"]) == 16
    assert {"argument", "kind", "sign_case", "status", "witnesses", "axioms_used"} <= set(
        data["outcomes"][0]
    )
    assert len(data["notes"]) == 2


def test_gram_lattice_type():
    L = GramLattice("U", gram_hyperbolic())
    assert L.rank == 2
    with pytest.raises(ValueError):
        GramLattice("bad", ((0, 1), (2, 0)))
    with pytest.raises(ValueError):
        GramLattice("bad", ((0, 1),))


def test_lattice_invariants_exact():
    U = gram_hyperbolic()
    assert gram_determinant(U) == -1
    assert gram_signature(U) == (1, 1)
    assert gram_is_even(U)
    E8 = gram_e8()
    assert gram_determinant(E8) == 1
    assert gram_signature(E8) == (0, 8)
    assert gram_is_even(E8)
    L = gram_k3()
    assert len(L) == 22
    assert gram_determinant(L) == -1
    assert gram_signature(L) == (3, 19)
    assert gram_is_even(L)
    T = gram_transcendental()
    assert gram_determinant(T) == 36
    assert gram_signature(T) == (2, 0)
    assert gram_is_even(T)


def test_singular_gram_matrices():
    # a zero pivot whose row is zero stays on the diagonal as a zero
    assert gram_determinant(((1, 1), (1, 1))) == 0
    assert gram_signature(((1, 1), (1, 1))) == (1, 0)
    assert gram_determinant(((0, 0), (0, 0))) == 0
    assert gram_signature(((0, 0), (0, 0))) == (0, 0)
    # one elimination serves both, so both require a symmetric matrix
    for fn in (gram_determinant, gram_signature):
        with pytest.raises(VerificationError):
            fn(((0, 1), (2, 0)))


def random_symmetric(rng: random.Random, n: int) -> tuple:
    # sparse small entries, so zero pivots and singular matrices are common
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = rng.choice((0, 0, 0, 1, -1, 2, -2, 3))
    return tuple(tuple(row) for row in m)


def test_lattice_signatures_against_float_oracle():
    rng = random.Random(7322)
    fixed = (gram_hyperbolic(), gram_e8(), gram_k3(), gram_transcendental())
    samples = tuple(random_symmetric(rng, rng.randint(1, 6)) for _ in range(200))
    for gram in fixed + samples:
        eig = np.linalg.eigvalsh(np.array(gram, dtype=float))
        pos = int(np.sum(eig > 1e-9))
        neg = int(np.sum(eig < -1e-9))
        assert gram_signature(gram) == (pos, neg)
        assert abs(gram_determinant(gram) - np.linalg.det(np.array(gram, dtype=float))) < 1e-6


def test_lattice_checks_report():
    report = lattice_checks()
    assert report.ok
    by_name = {e.name: e for e in report.entries}
    assert by_name["U^3 + E8^2"].signature == (3, 19)
    assert abs(by_name["U^3 + E8^2"].determinant) == 1
    assert by_name["T(F)"].determinant == 36
    assert by_name["T(F)"].signature == (2, 0)
    assert all(e.even for e in report.entries)
