"""Lefschetz bookkeeping, the decomposition system, and the exclusion tree."""

import ast
import copy
import gc
import json
import random
import weakref
from collections import Counter
from fractions import Fraction
from itertools import permutations, product
from pathlib import Path

import numpy as np
import pytest
from test_exact import berkowitz

from a6k3 import cli, k3verify
from a6k3.exact import CycloNum
from a6k3.permgrp import Perm, VerificationError, closure, conjugate_group
from a6k3.pgl9 import build_psl29
from a6k3.chartab import CharacterTable, character_table
from a6k3.extbuild import (
    assemble_candidate,
    build_all_candidates,
    build_candidate,
    identify,
    verify_extension_structure,
)
from a6k3.k3verify import (
    AXIOMS,
    CONTRADICTION,
    NO_CONTRADICTION,
    NOT_APPLICABLE,
    MultiplicityVector,
    NikulinTable,
    SignCase,
    _gram_charpoly,
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
    equations = decomposition_system(a6_table(), NikulinTable())
    eqs = {eq.label: eq for eq in equations}
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


def test_decomposition_system_reads_the_rows_in_degree_order():
    # the golden rows with chi2 (degree 5) and chi6 (degree 9) swapped: the
    # same multiset, but the a2 and a6 columns would belong to other characters
    table = copy.copy(a6_table())
    rows = list(table.rows)
    rows[1], rows[5] = rows[5], rows[1]
    table.rows = rows
    with pytest.raises(VerificationError, match="golden rows"):
        decomposition_system(table, NikulinTable())


def test_solve_decomposition_unique():
    equations = decomposition_system(a6_table(), NikulinTable())
    sols = solve_decomposition(equations)
    assert sols == (MultiplicityVector(1, 1, 0, 0, 1, 0),)
    # residuals: the solution satisfies every equation exactly
    vec = sols[0]
    for eq in equations:
        total = CycloNum.zero(1)
        for a, c in zip(vec, eq.coeffs):
            total = total + a * c
        assert total == eq.target


def test_solve_decomposition_negative_control():
    equations = decomposition_system(a6_table(), NikulinTable())
    assert solve_decomposition(perturb_identity_equation(equations, 21)) == ()


def product_search(equations):
    # the box search that solve_decomposition replaced: every vector of the
    # product of the per-degree ranges, filtered by the identity equation,
    # then checked equation by equation in CycloNum arithmetic
    ident = next(eq for eq in equations if eq.element_order == 1)
    degrees = [int(c.is_rational()) for c in ident.coeffs]
    bound = int(ident.target.is_rational())
    solutions = []
    for vec in product(*(range(bound // d + 1) for d in degrees)):
        if sum(a * d for a, d in zip(vec, degrees)) != bound:
            continue
        if all(sum((a * c for a, c in zip(vec, eq.coeffs)), CycloNum.zero()) == eq.target for eq in equations):
            solutions.append(MultiplicityVector(*vec))
    return tuple(solutions)


def test_solve_decomposition_against_product_search():
    equations = decomposition_system(a6_table(), NikulinTable())
    found = 0
    for r in range(41):
        perturbed = perturb_identity_equation(equations, r)
        if r == 0:
            # the target -1 is a negative bound, which the box search
            # answered with no solutions and the hyperplane search refuses
            assert product_search(perturbed) == ()
            with pytest.raises(VerificationError, match="nonnegative"):
                solve_decomposition(perturbed)
            continue
        sols = solve_decomposition(perturbed)
        assert sols == product_search(perturbed)
        found += bool(sols)
    assert found == 1  # r = 20, the K3 system itself
    # systems solved by a seeded vector: every target is its sum a_i chi_i(c),
    # irrational on the order-5 classes when a4 != a5
    rng = random.Random(5407)
    for _ in range(10):
        vec = [rng.randrange(2) for _ in range(6)]
        solved = tuple(
            eq._replace(target=sum((a * c for a, c in zip(vec, eq.coeffs)), CycloNum.zero()))
            for eq in equations
        )
        sols = solve_decomposition(solved)
        assert MultiplicityVector(*vec) in sols
        assert sols == product_search(solved)


def test_solve_decomposition_rejects_bad_identity_equation():
    equations = decomposition_system(a6_table(), NikulinTable())
    pos = next(i for i, eq in enumerate(equations) if eq.element_order == 1)
    ident = equations[pos]
    q = CycloNum.from_rational
    bad_degrees = (q(Fraction(5, 2)), q(0), CycloNum.zeta(5))
    bad_targets = (q(Fraction(19, 2)), q(-1), CycloNum.zeta(5))
    variants = [ident._replace(coeffs=(d,) + ident.coeffs[1:]) for d in bad_degrees]
    variants += [ident._replace(target=t) for t in bad_targets]
    for eq in variants:
        with pytest.raises(VerificationError):
            solve_decomposition(equations[:pos] + (eq,) + equations[pos + 1 :])


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
        assert out.axioms_used == ("A2",)
    # its premise is a mixed case, eps2 != eps3
    with pytest.raises(VerificationError, match="not mixed"):
        argument_3class_trace(SignCase(-1, -1, 1), table, mv)
    # chi3 alone: the trace 1 + chi3(3B) = 0 is no contradiction
    out = argument_3class_trace(SignCase(-1, 1, -1), table, MultiplicityVector(0, 1, 0, 0, 0, 0))
    assert (out.status, out.witnesses["trace"]) == (NO_CONTRADICTION, 0)


def test_3class_trace_terms_must_add_up(monkeypatch):
    # the printed terms are recomputed apart from the trace, and must sum to it
    from a6k3.k3verify import picard_multiplicities

    table = a6_table()
    mv = picard_multiplicities(table)
    trace = k3verify.trace_on_picard
    monkeypatch.setattr(k3verify, "trace_on_picard", lambda *args: trace(*args) + 1)
    with pytest.raises(VerificationError, match="do not add up"):
        argument_3class_trace(SignCase(-1, 1, -1), table, mv)


def test_3class_trace_reads_order3_representatives():
    # the classes are selected by their element_order field; each one read
    # must have a representative of order 3
    table = a6_table()
    five = next(c.representative for c in table.classes if c.element_order == 5)
    classes = tuple(c._replace(representative=five) if c.element_order == 3 else c for c in table.classes)
    relabeled = CharacterTable(table.group_order, classes, table.rows, table.exponent, table.prime)
    with pytest.raises(VerificationError, match="not of order 3"):
        argument_3class_trace(SignCase(-1, 1, -1), relabeled, MultiplicityVector(1, 1, 0, 0, 1, 0))


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
    swap = argument_nonintegral(swap23=True)
    assert swap.status == CONTRADICTION and swap.witnesses["values_checked"] == 10
    fix = argument_nonintegral(swap23=False)
    assert fix.status == CONTRADICTION and fix.witnesses["values_checked"] == 20
    # the witness is the first value checked, as a value: cli writes its text
    assert swap.witnesses["sample"] == 3 + 9 * CycloNum.zeta(4)
    assert fix.witnesses["sample"] == 3 + 19 * CycloNum.zeta(4)
    # the premise: iota is -1 on all three summands
    assert swap.sign_case == fix.sign_case == SignCase(-1, -1, -1)
    # the discriminating sanity value: 3 + 0*zeta4 is integral
    assert (CycloNum.from_rational(3, 4) + 0 * CycloNum.zeta(4)).is_rational() == 3


def test_argument_pigeonhole():
    cands = build_all_candidates()
    for kind in ("A6_4", "S6_2"):
        out = argument_pigeonhole(kind, cands[kind])
        assert out.status == CONTRADICTION
        assert out.witnesses["min_fixed_points_of_square"] == 2
        assert out.witnesses["permutations_scanned"] == 720
        assert out.axioms_used == ("A1",)
    with pytest.raises(ValueError):
        argument_pigeonhole("PGL29_2", cands["PGL29_2"])


def test_pigeonhole_requires_a_full_scan(monkeypatch):
    # the scan reports what it counted; a short count fails the argument
    monkeypatch.setattr(k3verify, "_min_fixed_of_square", lambda: (2, 1, 719))
    with pytest.raises(VerificationError, match="pigeonhole scan"):
        argument_pigeonhole("A6_4", build_all_candidates()["A6_4"])


def test_pigeonhole_requires_the_closed_form_count(monkeypatch):
    # 256 = the sum of 6!/z over the cycle types of S6 with parts in {1, 2, 4}
    monkeypatch.setattr(k3verify, "_min_fixed_of_square", lambda: (2, 255, 720))
    with pytest.raises(VerificationError, match="miscounted"):
        argument_pigeonhole("A6_4", build_all_candidates()["A6_4"])


def wrong_witness(order, commuting):
    # the least element of candidate.a6 of the given order that commutes, or
    # does not commute, with gtilde
    def pick(candidate, _):
        g = candidate.gtilde
        return next(x for x in candidate.a6.elements if x.order() == order and (x * g == g * x) == commuting)

    return pick


@pytest.mark.parametrize(
    "order, commuting, match",
    [(1, True, "tau is not of order 3"), (3, False, "tau does not commute")],
)
def test_pigeonhole_requires_its_tau(monkeypatch, order, commuting, match):
    # in A6_4 gtilde centralizes the A6, so every tau commutes with it
    monkeypatch.setattr(k3verify, "_least_commuting", wrong_witness(order, commuting))
    with pytest.raises(VerificationError, match=match):
        argument_pigeonhole("S6_2", build_all_candidates()["S6_2"])


@pytest.mark.parametrize(
    "order, commuting, match",
    [(1, True, "sigma is not of order 5"), (5, False, "sigma does not commute")],
)
def test_order5_blocks_require_their_sigma(monkeypatch, order, commuting, match):
    monkeypatch.setattr(k3verify, "_least_commuting", wrong_witness(order, commuting))
    with pytest.raises(VerificationError, match=match):
        argument_order5_blocks(build_candidate("PGL29_2"), a6_table())


def test_nonintegral_requires_a_square_root_of_minus_one(monkeypatch):
    zeta = CycloNum.zeta
    monkeypatch.setattr(CycloNum, "zeta", lambda order, power=1: zeta(5 if order == 4 else order, power))
    with pytest.raises(VerificationError, match="zeta4"):
        argument_nonintegral(swap23=True)


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
    # kind by kind, each allowed sign case once, in order
    kinds = ("A6_4", "S6_2", "PGL29_2", "M10_2")
    order = [(o.kind, o.sign_case) for o in report.outcomes]
    assert order == list(product(kinds, nonpositive_sign_cases()))
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


def test_empty_locus_case_is_the_allowed_case_of_euler_number_zero():
    assert [c for c in nonpositive_sign_cases() if euler_iota(c) == 0] == [k3verify._empty_locus_case()]
    assert k3verify._empty_locus_case() == SignCase(-1, -1, 1)


def test_exclusion_refuses_an_argument_naming_the_wrong_case(monkeypatch):
    # the integrality argument naming the empty-locus case leaves the
    # all-minus case without an outcome, and the order check sees it
    nonintegral = k3verify.argument_nonintegral
    monkeypatch.setattr(
        k3verify,
        "argument_nonintegral",
        lambda swap23: nonintegral(swap23)._replace(sign_case=k3verify._empty_locus_case()),
    )
    with pytest.raises(VerificationError, match="an exclusion outcome is missing"):
        run_exclusion(build_all_candidates().values(), a6_table(), NikulinTable())


def test_sign_case_is_written_once():
    # every other argument derives its sign case: a case it is given, or the
    # empty-locus case; only the integrality argument writes its premise
    def constant(node):
        if isinstance(node, ast.UnaryOp):
            return constant(node.operand)
        return isinstance(node, ast.Constant)

    tree = ast.parse(Path(k3verify.__file__).read_text())
    written = [
        getattr(top, "name", None)
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Call)
        and getattr(node.func, "id", None) == "SignCase"
        and node.args
        and all(map(constant, node.args))
    ]
    assert written == ["argument_nonintegral"]


def test_exclusion_under_relabeling():
    # the exclusion reads structure, not positions: each candidate conjugated
    # on all its points and rebuilt from its group, a6 and gtilde gives the
    # canonical outcomes, up to the cycle strings of the witnesses tau and sigma
    table, nikulin = a6_table(), NikulinTable()
    cands = build_all_candidates()

    def invariant(outcomes):
        kept = lambda witnesses: {k: v for k, v in witnesses.items() if k not in ("tau", "sigma")}
        return [o._replace(witnesses=kept(o.witnesses)) for o in outcomes]

    canonical = invariant(run_exclusion(cands.values(), table, nikulin).outcomes)
    for seed in range(3):
        rng = random.Random(seed)
        moved = []
        for kind, cand in cands.items():
            imgs = list(range(cand.group.degree))
            rng.shuffle(imgs)
            t = Perm(imgs)
            gtilde = t * cand.gtilde * t.inverse()
            assert gtilde != cand.gtilde
            new = assemble_candidate(kind, conjugate_group(cand.group, t), conjugate_group(cand.a6, t), gtilde)
            assert verify_extension_structure(new).passed
            assert identify(new) == kind
            moved.append(new)
        report = run_exclusion(moved, table, nikulin)
        assert report.verdict == "M10_2"
        assert invariant(report.outcomes) == canonical


def test_run_exclusion_json_shape():
    # the exclusion as the report writes it: each outcome record as it stands
    report = json.loads(cli.render_json(cli.build_report("exclude")))
    data = next(c for c in report["checks"] if c["id"] == "exclude.pipeline")["witnesses"]
    assert report["verdict"] == data["verdict"] == "M10_2"
    assert len(data["outcomes"]) == 16
    for outcome in data["outcomes"]:
        assert list(outcome) == ["argument", "kind", "sign_case", "status", "witnesses", "axioms_used"]
        assert outcome["sign_case"] in [list(c) for c in nonpositive_sign_cases()]
        assert isinstance(outcome["axioms_used"], list)
    assert len(data["notes"]) == 2


def test_gram_lattice_type():
    # a Gram matrix is square and symmetric, or it has no determinant or signature
    cases = (
        (((0, 1),), "not square"),
        (((0, 1, 2), (1, 0, 0)), "not square"),
        (((0, 1), (2, 0)), "not symmetric"),
    )
    for bad, message in cases:
        for invariant in (gram_determinant, gram_signature):
            with pytest.raises(VerificationError, match=message):
                invariant(bad)


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
    # a singular matrix has zero eigenvalues, neither positive nor negative
    assert gram_determinant(((1, 1), (1, 1))) == 0
    assert gram_signature(((1, 1), (1, 1))) == (1, 0)
    assert gram_determinant(((0, 0), (0, 0))) == 0
    assert gram_signature(((0, 0), (0, 0))) == (0, 0)
    # one characteristic polynomial serves both, so both require a symmetric matrix
    for fn in (gram_determinant, gram_signature):
        with pytest.raises(VerificationError):
            fn(((0, 1), (2, 0)))


def random_symmetric(rng: random.Random, n: int) -> tuple:
    # sparse small entries, so zero diagonal entries and singular matrices are common
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = rng.choice((0, 0, 0, 1, -1, 2, -2, 3))
    return tuple(tuple(row) for row in m)


def degenerate_samples():
    # symmetric matrices with a zero diagonal, or with a zero row and column
    rng = random.Random(6051)
    samples = []
    for k in range(40):
        gram = [list(row) for row in random_symmetric(rng, rng.randint(2, 8))]
        n = len(gram)
        if k % 4 == 1:  # a zero diagonal
            for i in range(n):
                gram[i][i] = 0
        elif k % 4 == 2:  # a zero row and column
            z = rng.randrange(n)
            for i in range(n):
                gram[z][i] = gram[i][z] = 0
        samples.append(tuple(tuple(row) for row in gram))
    return tuple(samples)


def test_lattice_signatures_against_float_oracle():
    rng = random.Random(7322)
    fixed = (gram_hyperbolic(), gram_e8(), gram_k3(), gram_transcendental())
    samples = tuple(random_symmetric(rng, rng.randint(1, 6)) for _ in range(200))
    for gram in fixed + samples + degenerate_samples():
        eig = np.linalg.eigvalsh(np.array(gram, dtype=float))
        pos = int(np.sum(eig > 1e-9))
        neg = int(np.sum(eig < -1e-9))
        assert gram_signature(gram) == (pos, neg)
        assert abs(gram_determinant(gram) - np.linalg.det(np.array(gram, dtype=float))) < 1e-6


def block_diagonal(blocks) -> tuple:
    n = sum(map(len, blocks))
    gram, off = [[0] * n for _ in range(n)], 0
    for b in blocks:
        for i, row in enumerate(b):
            gram[off + i][off : off + len(b)] = row
        off += len(b)
    return tuple(tuple(row) for row in gram)


def test_block_charpoly_is_the_whole_charpoly():
    # the lifted polynomial over F_q is the division-free one over Z, on
    # forms with every entry coupled and on sums of diagonal blocks
    rng = random.Random(2907)
    fixed = (gram_hyperbolic(), gram_e8(), gram_k3(), gram_transcendental())
    coupled = tuple(random_symmetric(rng, rng.randint(1, 8)) for _ in range(100))
    parts = [[random_symmetric(rng, rng.randint(1, 4)) for _ in range(rng.randint(2, 4))] for _ in range(100)]
    for gram in fixed + coupled + degenerate_samples() + tuple(map(block_diagonal, parts)):
        assert _gram_charpoly(gram) == berkowitz(gram)


def test_lift_prime_is_prime():
    # the lattice forms' polynomials are found over F_q, which needs q prime
    sympy = pytest.importorskip("sympy")
    assert sympy.isprime(k3verify._LIFT_PRIME)


def test_charpoly_lift_is_refused_at_the_bound():
    # the coefficients over Z are the symmetric residues mod q while
    # 2 (1 + rho)^n < q, rho the largest absolute row sum of the form; a
    # form at the bound is refused, not lifted to wrong coefficients
    q = k3verify._LIFT_PRIME
    for n in (1, 2, 8):
        # the n x n form with every entry a, one block with eigenvalues n a
        # and 0, for the largest a that keeps 2 (1 + n a)^n below q
        r = round((q / 2) ** (1 / n)) + 1
        while 2 * r**n >= q:
            r -= 1
        a = (r - 1) // n
        for sign in (1, -1):
            gram = ((sign * a,) * n,) * n
            assert _gram_charpoly(gram) == [1, -sign * n * a] + [0] * (n - 1)
            with pytest.raises(VerificationError, match="lift prime"):
                _gram_charpoly(((sign * (a + 1),) * n,) * n)
    # a 1 x 1 form is its own determinant up to (q - 3) / 2 in absolute
    # value; at (q - 1) / 2 both invariants refuse it
    for v in ((q - 3) // 2, -(q - 3) // 2):
        assert gram_determinant(((v,),)) == v
    for invariant in (gram_determinant, gram_signature):
        with pytest.raises(VerificationError, match="lift prime"):
            invariant((((q - 1) // 2,),))


def dense_pivots(gram):
    # a dense symmetric elimination over Q: Fractions throughout, every column
    # of every row below the pivot updated; a zero pivot with a nonzero row is
    # repaired by adding the row and column of a later index (a congruence)
    n = len(gram)
    m = [[Fraction(v) for v in row] for row in gram]
    for i in range(n):
        if m[i][i] == 0:
            j = next((c for c in range(i + 1, n) if m[i][c] != 0), None)
            if j is None:
                continue
            for sign in (1, -1):
                if 2 * sign * m[i][j] + m[j][j] != 0:
                    for c in range(n):
                        m[i][c] += sign * m[j][c]
                    for r in range(n):
                        m[r][i] += sign * m[r][j]
                    break
        for r in range(i + 1, n):
            if m[r][i] != 0:
                f = m[r][i] / m[i][i]
                for c in range(n):
                    m[r][c] -= f * m[i][c]
    return [m[i][i] for i in range(n)]


def test_diagonal_against_dense_elimination():
    # an exact oracle for the characteristic-polynomial invariants: the pivots
    # of a congruent diagonal form multiply to the determinant, and their
    # signs give the signature (Sylvester's law of inertia)
    samples = degenerate_samples()
    fixed = (gram_hyperbolic(), gram_e8(), gram_k3(), gram_transcendental())
    for gram in fixed + samples:
        pivots = dense_pivots(gram)
        det = Fraction(1)
        for p in pivots:
            det *= p
        assert gram_determinant(gram) == det
        assert gram_signature(gram) == (sum(p > 0 for p in pivots), sum(p < 0 for p in pivots))
    # the sample reaches the repair and the zero-row branch
    assert any(0 in dense_pivots(g) for g in samples)
    assert any(g[0][0] == 0 and dense_pivots(g)[0] != 0 for g in samples)


def test_lattice_checks_report():
    entries = lattice_checks()
    by_name = {e.name: e for e in entries}
    assert {name: e[1:] for name, e in by_name.items()} == cli.CLAIMS["lattice.forms"][1]
    assert by_name["U^3 + E8^2"].signature == (3, 19)
    assert abs(by_name["U^3 + E8^2"].determinant) == 1
    assert by_name["T(F)"].determinant == 36
    assert by_name["T(F)"].signature == (2, 0)
    assert all(e.even for e in entries)


def test_exclusion_runs_each_shared_argument_once(monkeypatch):
    # the order-3 trace reads only the sign case, the integrality argument
    # only whether gtilde swaps the order-3 classes: two of each per report
    calls = Counter()
    for name in ("argument_3class_trace", "argument_nonintegral"):

        def spy(*args, _fn=getattr(k3verify, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(k3verify, name, spy)
    report = cli.build_report("all")
    assert report["verdict"] == "M10_2"
    assert calls == {"argument_3class_trace": 2, "argument_nonintegral": 2}
