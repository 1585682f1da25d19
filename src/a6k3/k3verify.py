"""The K3-side verification pipeline.

Fixed published data (Nikulin's symplectic fixed-point counts, the K3 Betti
numbers, the relevant lattice forms) feed a chain of exact computations:
the rank of the A6-invariant part of the full cohomology, the Diophantine
decomposition of the Picard representation, and the sign-case exclusion
that eliminates three of the four A6.mu4 candidates.  Two geometric inputs
are consumed as named axioms:

  A1: the Euler number of the fixed locus of the antisymplectic involution
      iota is nonpositive, and zero exactly when that locus is empty.
  A2: for sigma symplectic of order 3 or 5, the fixed locus of iota*sigma
      has nonnegative Euler number.

No floating point participates in any verdict.  The fixtures, equations,
sign cases and outcomes are immutable namedtuple records; ExclusionReport,
the one result object, is a plain class.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cache
from itertools import permutations, product
from math import prod

from .chartab import CharacterTable, class_labels, display_value, match_reference_table
from .exact import CycloNum
from .extbuild import KINDS, ExtensionCandidate, identify
from .permgrp import Perm, PermGroup, centralizer_of_subgroup, closure, conjugacy_classes, element_orders, require

__all__ = [
    "NikulinTable",
    "SignCase",
    "MultiplicityVector",
    "ClassEquation",
    "DecompositionSystem",
    "ArgumentOutcome",
    "ExclusionReport",
    "GramLattice",
    "LatticeFacts",
    "LatticeReport",
    "AXIOMS",
    "CONTRADICTION",
    "NO_CONTRADICTION",
    "NOT_APPLICABLE",
    "K3_EULER_NUMBER",
    "RANK_H2",
    "RANK_TRANSCENDENTAL",
    "RANK_PICARD",
    "RANK_INVARIANT_H2",
    "lefschetz_invariant_rank",
    "decomposition_system",
    "perturb_identity_equation",
    "solve_decomposition",
    "picard_multiplicities",
    "trace_on_picard",
    "euler_iota",
    "all_sign_cases",
    "nonpositive_sign_cases",
    "argument_3class_trace",
    "argument_nonintegral",
    "argument_pigeonhole",
    "argument_order5_blocks",
    "argument_free_c4",
    "run_exclusion",
    "gram_hyperbolic",
    "gram_e8",
    "gram_k3",
    "gram_transcendental",
    "gram_determinant",
    "gram_signature",
    "gram_is_even",
    "lattice_checks",
]

CONTRADICTION = "contradiction_found"
NO_CONTRADICTION = "no_contradiction"
NOT_APPLICABLE = "not_applicable"

AXIOMS = {
    "A1": "euler(fixed locus of iota) <= 0, with equality iff the locus is empty",
    "A2": "euler(fixed locus of iota*sigma) >= 0 for symplectic sigma of order 3 or 5",
}

# Published K3 data consumed as fixtures, not computed here.
K3_EULER_NUMBER = 24        # Euler number of a K3 surface
RANK_H2 = 22                # second cohomology rank
RANK_TRANSCENDENTAL = 2     # rank T(X) for the surfaces at hand
RANK_PICARD = 20            # rank S(X) for the surfaces at hand
RANK_INVARIANT_H2 = 3       # rank of the A6-invariant part of H^2 alone


class NikulinTable(
    namedtuple(
        "NikulinTable",
        "counts whole_surface_euler",
        defaults=(((2, 8), (3, 6), (4, 4), (5, 4), (6, 2), (7, 3), (8, 2)), K3_EULER_NUMBER),
    )
):
    """Fixed-point counts of a symplectic automorphism by element order, as
    (order, count) pairs, and the Euler number for the identity.

    Orders 6, 7 and 8 never occur in A6; they are kept for fidelity to the
    published table and flagged by unused_orders().
    """

    __slots__ = ()

    def fixed_euler(self, order: int) -> int:
        if order == 1:
            return self.whole_surface_euler
        for o, n in self.counts:
            if o == order:
                return n
        raise ValueError(f"no fixed-point count for element order {order}")

    def orders(self) -> frozenset:
        return frozenset([1] + [o for o, _ in self.counts])

    def unused_orders(self, used) -> tuple[int, ...]:
        used = set(used)
        return tuple(sorted(o for o in self.orders() if o not in used))


class SignCase(namedtuple("SignCase", "eps2 eps3 eps6")):
    """The signs of iota on the three nontrivial Picard summands."""

    __slots__ = ()


class MultiplicityVector(namedtuple("MultiplicityVector", "a2 a3 a4 a5 a6 a7")):
    """Multiplicities of chi2..chi7 in the complexified Picard lattice."""

    __slots__ = ()


def lefschetz_invariant_rank(G: PermGroup, nikulin: NikulinTable) -> Fraction:
    """(1/|G|) * sum over g of euler(fixed locus of g), from class data."""
    total = Fraction(0)
    for c in conjugacy_classes(G):
        total += c.size * nikulin.fixed_euler(c.element_order)
    return total / len(G)


class ClassEquation(namedtuple("ClassEquation", "label element_order fixed_euler coeffs target")):
    """One trace condition: sum_i a_i chi_i(c) = fixed_euler - 5, with coeffs
    chi2(c), ..., chi7(c) and the target as CycloNum.

    Displayed in the familiar form (fixed_euler - 4) = 1 + sum a_i chi_i(c);
    the -5 absorbs the trivial summand and the Lefschetz bookkeeping
    (two trivial cohomology summands, T(X) of rank 2 in the -1 eigenspace).
    """

    __slots__ = ()

    def render(self) -> str:
        names = [f"a{i}" for i in range(2, 8)]
        parts = []
        for c, n in zip(self.coeffs, names):
            text = display_value(c)
            if " " in text or text.startswith("-"):
                text = f"({text})"
            parts.append(f"{text}*{n}")
        return f"{self.fixed_euler - 4} = 1 + " + " + ".join(parts)


class DecompositionSystem(namedtuple("DecompositionSystem", "equations")):
    """One ClassEquation per conjugacy class."""

    __slots__ = ()


def decomposition_system(table: CharacterTable, nikulin: NikulinTable) -> DecompositionSystem:
    """One equation per conjugacy class, with exact cyclotomic coefficients."""
    if not match_reference_table(table):
        raise ValueError("character table does not match the golden A6 table")
    labels = class_labels(table.classes)
    eqs = []
    for pos, (lbl, c) in enumerate(zip(labels, table.classes)):
        fixed = nikulin.fixed_euler(c.element_order)
        coeffs = tuple(table.rows[i][pos] for i in range(1, 7))
        eqs.append(
            ClassEquation(
                label=lbl,
                element_order=c.element_order,
                fixed_euler=fixed,
                coeffs=coeffs,
                target=CycloNum.from_rational(fixed - 5),
            )
        )
    return DecompositionSystem(equations=tuple(eqs))


def perturb_identity_equation(system: DecompositionSystem, new_rank: int) -> DecompositionSystem:
    """Negative-control helper: replace the identity equation's right side."""
    eqs = list(system.equations)
    for i, eq in enumerate(eqs):
        if eq.element_order == 1:
            eqs[i] = eq._replace(fixed_euler=new_rank + 4, target=CycloNum.from_rational(new_rank - 1))
    return DecompositionSystem(equations=tuple(eqs))


def solve_decomposition(system: DecompositionSystem) -> tuple[MultiplicityVector, ...]:
    """All nonnegative integer solutions, by exhaustive bounded search.

    The identity equation bounds every multiplicity by target / degree, so
    the search space is finite and fully enumerated.
    """
    ident = next(eq for eq in system.equations if eq.element_order == 1)
    degrees = [int(c.is_rational()) for c in ident.coeffs]
    bound = int(ident.target.is_rational())
    others = [eq for eq in system.equations if eq.element_order != 1]
    solutions = []
    for vec in product(*(range(bound // d + 1) for d in degrees)):
        if sum(a * d for a, d in zip(vec, degrees)) != bound:
            continue
        ok = True
        for eq in others:
            total = CycloNum.zero(1)
            for a, c in zip(vec, eq.coeffs):
                if a:
                    total = total + a * c
            if total != eq.target:
                ok = False
                break
        if ok:
            solutions.append(MultiplicityVector(*vec))
    return tuple(solutions)


# -- the sign-case analysis ----------------------------------------------------


def picard_multiplicities(table: CharacterTable, nikulin: NikulinTable = NikulinTable()) -> MultiplicityVector:
    """The unique solved multiplicity vector, recomputed rather than assumed."""
    solutions = solve_decomposition(decomposition_system(table, nikulin))
    require(len(solutions) == 1, f"expected a unique multiplicity vector, got {len(solutions)}")
    return solutions[0]


def trace_on_picard(mv: MultiplicityVector, signs: dict, table: CharacterTable, class_pos: int) -> CycloNum:
    """Trace of a signed involution times a group element on the Picard part.

    The trivial summand contributes 1; each remaining summand chi_i
    contributes signs[i] * a_i * chi_i(c), defaulting to sign +1.
    """
    total = CycloNum.one()
    rows = _degree_rows(table)
    for i, a in zip(range(2, 8), mv):
        if a:
            total = total + signs.get(i, 1) * a * rows[i - 1][class_pos]
    return total


def euler_iota(case: SignCase) -> int:
    """Euler number of the fixed locus of iota: 1 + 5(eps2 + eps3) + 9 eps6."""
    return 1 + 5 * (case.eps2 + case.eps3) + 9 * case.eps6


def all_sign_cases() -> tuple[SignCase, ...]:
    return tuple(SignCase(*t) for t in product((1, -1), repeat=3))


def nonpositive_sign_cases() -> tuple[SignCase, ...]:
    """The sign cases allowed by axiom A1, in a fixed canonical order."""
    allowed = [case for case in all_sign_cases() if euler_iota(case) <= 0]
    return tuple(sorted(allowed))


class ArgumentOutcome(
    namedtuple("ArgumentOutcome", "argument kind sign_case status witnesses axioms", defaults=((),))
):
    """One argument's outcome for a kind (None: any kind) and a sign case."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "argument": self.argument,
            "kind": self.kind,
            "sign_case": list(self.sign_case) if self.sign_case else None,
            "status": self.status,
            "witnesses": self.witnesses,
            "axioms_used": list(self.axioms),
        }


def _degree_rows(table: CharacterTable):
    # rows keyed by their degrees; A6's canonical row order is
    # degrees (1, 5, 5, 8, 8, 9, 10)
    require(table.degrees == (1, 5, 5, 8, 8, 9, 10), "the rows are not in A6's degree order")
    return table.rows


def _order3_positions(table: CharacterTable):
    return [i for i, c in enumerate(table.classes) if c.element_order == 3]


def argument_3class_trace(
    case: SignCase, table: CharacterTable, mv: MultiplicityVector
) -> ArgumentOutcome:
    """Trace of iota*sigma on the Picard lattice, with multiplicities mv, for an order-3 sigma.

    For the mixed sign cases there is an order-3 class on which
    1 + eps2*chi2 + eps3*chi3 + eps6*chi6 is negative, violating axiom A2
    (euler(fixed locus of iota*sigma) equals that trace).
    """
    name = "3class_trace"
    if case not in (SignCase(-1, 1, -1), SignCase(1, -1, -1)):
        return ArgumentOutcome(name, None, case, NOT_APPLICABLE, {"reason": "sign case outside the argument's range"})
    signs = {2: case.eps2, 3: case.eps3, 6: case.eps6}
    rows = _degree_rows(table)
    labels = class_labels(table.classes)
    best = None
    for pos in _order3_positions(table):
        val = trace_on_picard(mv, signs, table, pos)
        rat = val.is_rational()
        require(rat is not None and rat.denominator == 1, "a Picard trace is not an integer")
        parts = [1] + [
            int((signs[i] * mv[i - 2] * rows[i - 1][pos]).is_rational())
            for i in (2, 3, 6)
        ]
        if best is None or int(rat) < best[0]:
            best = (int(rat), labels[pos], parts)
    value, label, parts = best
    status = CONTRADICTION if value < 0 else NO_CONTRADICTION
    return ArgumentOutcome(
        name,
        None,
        case,
        status,
        {"class": label, "trace": value, "terms": parts},
        axioms=("A2",),
    )


def argument_nonintegral(case: SignCase, swap23: bool) -> ArgumentOutcome:
    """Integrality of euler(fixed locus of gtilde) in the all-minus case.

    The eigenvalues of gtilde on the relevant summands are +-zeta4, so the
    Euler number evaluates to 3 + (9-2n)*zeta4 (when gtilde swaps the two
    5-dimensional summands) or 3 + (19-2n)*zeta4 (when it fixes them); an
    Euler number must be a rational integer, so every n must fail.
    """
    name = "nonintegral_euler"
    if case != SignCase(-1, -1, -1):
        return ArgumentOutcome(name, None, case, NOT_APPLICABLE, {"reason": "sign case outside the argument's range"})
    dim = 9 if swap23 else 19
    z4 = CycloNum.zeta(4)
    nonintegral = []
    for n in range(dim + 1):
        value = 3 + (dim - 2 * n) * z4
        nonintegral.append(value.is_rational() is None)
    status = CONTRADICTION if all(nonintegral) else NO_CONTRADICTION
    return ArgumentOutcome(
        name,
        None,
        case,
        status,
        {
            "scenario": "swap" if swap23 else "fix",
            "values_checked": dim + 1,
            "all_nonintegral": all(nonintegral),
            "sample": (3 + dim * z4).render_text(),
        },
    )


@cache
def _min_fixed_of_square() -> tuple[int, int]:
    # scan all 720 permutations of 6 points; among those with p^4 = id,
    # the least number of fixed points of p^2
    best = None
    eligible = 0
    for images in permutations(range(6)):
        sq = tuple(images[images[i]] for i in range(6))
        fourth = tuple(sq[sq[i]] for i in range(6))
        if fourth != (0, 1, 2, 3, 4, 5):
            continue
        eligible += 1
        fixed = sum(1 for i in range(6) if sq[i] == i)
        if best is None or fixed < best:
            best = fixed
    return best, eligible


def argument_pigeonhole(kind: str, candidate: ExtensionCandidate) -> ArgumentOutcome:
    """In the (-1,-1,+1) case the fixed locus of iota must be empty (A1),
    yet gtilde permutes the six fixed points of an order-3 element it
    commutes with, and the square of any such permutation fixes at least
    two of them."""
    name = "pigeonhole"
    if kind not in ("A6_4", "S6_2") or candidate.kind != kind:
        raise ValueError("argument applies to the A6_4 and S6_2 candidates only")
    if candidate.group.degree != 10:
        raise ValueError("candidate does not act on 6 + 4 points")
    tau = Perm.from_cycles([(3, 4, 5)], candidate.group.degree)
    require(tau in candidate.a6, "the 3-cycle tau is missing from the distinguished A6")
    require(tau * candidate.gtilde == candidate.gtilde * tau, "tau does not commute with gtilde")
    min_fixed, eligible = _min_fixed_of_square()
    status = CONTRADICTION if min_fixed > 0 else NO_CONTRADICTION
    return ArgumentOutcome(
        name,
        kind,
        SignCase(-1, -1, 1),
        status,
        {
            "tau": tau.cycle_string(),
            "commutes_with_gtilde": True,
            "min_fixed_points_of_square": min_fixed,
            "eligible_permutations": eligible,
            "permutations_scanned": 720,
        },
        axioms=("A1",),
    )


def argument_order5_blocks(candidate: ExtensionCandidate, table: CharacterTable) -> ArgumentOutcome:
    """In the (-1,-1,+1) case for the PGL-type candidate, an order-5 element
    commuting with gtilde acts by a rational matrix split into blocks of
    sizes 3 and 6; Galois-stable eigenvalue multisets only achieve traces
    {4, 9}, never the required -1."""
    name = "order5_blocks"
    if candidate.kind != "PGL29_2":
        raise ValueError("argument applies to the PGL29_2 candidate only")
    gtilde, a6 = candidate.gtilde, candidate.a6
    # the centralizer of <gtilde> is read from the candidate's index tables
    commuting = centralizer_of_subgroup(candidate.group, closure([gtilde]))
    sigmas = [x for x, o in zip(a6.elements, element_orders(a6)) if o == 5 and x in commuting]
    require(sigmas, "no order-5 element commuting with gtilde")
    sigma = min(sigmas)

    # axiom A1 forces an empty iota fixed locus in this sign case, hence an
    # empty gtilde fixed locus: 0 = 2 + 1 + (9 - 2s) pins the block split
    case = SignCase(-1, -1, 1)
    require(euler_iota(case) == 0, "the iota fixed locus is not forced empty")
    s = (2 + 1 + 9) // 2
    blocks = (9 - s, s)

    one = CycloNum.one(5)
    orbit_sum = sum((CycloNum.zeta(5, i) for i in range(1, 5)), CycloNum.zero(5))

    def stable_traces(size: int) -> tuple[int, ...]:
        # Galois-stable multisets of 5th roots of unity: j copies of {1}
        # plus k copies of the full primitive orbit, j + 4k = size
        traces = set()
        for k in range(size // 4 + 1):
            j = size - 4 * k
            value = j * one + k * orbit_sum
            rat = value.is_rational()
            require(rat is not None and rat.denominator == 1, "a Galois-stable trace is not an integer")
            traces.add(int(rat))
        return tuple(sorted(traces))

    traces_small = stable_traces(blocks[0])
    traces_large = stable_traces(blocks[1])
    totals = tuple(sorted({a + b for a in traces_small for b in traces_large}))

    # required trace: the degree-9 character on the order-5 classes
    rows = _degree_rows(table)
    required = {
        int(rows[5][i].is_rational())
        for i, c in enumerate(table.classes)
        if c.element_order == 5
    }
    require(required == {-1}, "the degree-9 character is not -1 on the order-5 classes")
    required_total = -1

    status = CONTRADICTION if required_total not in totals else NO_CONTRADICTION
    return ArgumentOutcome(
        name,
        "PGL29_2",
        case,
        status,
        {
            "sigma": sigma.cycle_string(),
            "block_sizes": list(blocks),
            "size3_traces": list(traces_small),
            "size6_traces": list(traces_large),
            "achievable_totals": list(totals),
            "required_total": required_total,
        },
        axioms=("A1",),
    )


def argument_free_c4(euler_number: int = 2) -> ArgumentOutcome:
    """A free order-4 action would force 4 | euler_number; it is 2."""
    status = CONTRADICTION if euler_number % 4 != 0 else NO_CONTRADICTION
    return ArgumentOutcome(
        "free_order4_divisibility",
        None,
        SignCase(-1, -1, 1),
        status,
        {"euler_number": euler_number, "mod_4": euler_number % 4},
    )


class ExclusionReport:
    """Per-kind, per-sign-case outcomes of the exclusion pipeline."""

    def __init__(self, outcomes: tuple, sign_cases: tuple, notes: tuple):
        self.outcomes, self.sign_cases, self.notes = outcomes, sign_cases, notes

    @property
    def verdict(self) -> str | None:
        """The unique kind not excluded in every sign case, else None."""
        survivors = {o.kind for o in self.outcomes if o.status != CONTRADICTION}
        return survivors.pop() if len(survivors) == 1 else None

    def validate_complete(self, kinds) -> bool:
        cases = nonpositive_sign_cases()
        have = {(o.kind, o.sign_case) for o in self.outcomes}
        return all((k, c) in have for k in kinds for c in cases)

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "sign_cases": [list(c) for c in self.sign_cases],
            "outcomes": [o.to_json() for o in self.outcomes],
            "notes": list(self.notes),
        }


def run_exclusion(candidates, table: CharacterTable, nikulin: NikulinTable) -> ExclusionReport:
    """Run the full sign-case decision tree over all four candidates.

    For each of A6_4, S6_2 and PGL29_2 the square of gtilde acts trivially
    on the distinguished A6, which makes it an antisymplectic involution
    commuting with the whole symplectic part; every allowed sign case then
    ends in a contradiction.  For M10_2 that structural premise fails, so
    no argument applies and the kind survives.  Outcomes are recorded as
    found; the verdict is derived from them.
    """
    by_kind = {c.kind: c for c in candidates}
    if set(by_kind) != set(KINDS):
        raise ValueError("need exactly the four candidate kinds")
    if not match_reference_table(table):
        raise ValueError("character table does not match the golden A6 table")
    for kind, cand in by_kind.items():
        if identify(cand) != kind:
            raise ValueError(f"candidate labeled {kind} identifies differently")

    cases = nonpositive_sign_cases()
    mv = picard_multiplicities(table, nikulin)
    outcomes = []
    for kind in ("A6_4", "S6_2", "PGL29_2"):
        cand = by_kind[kind]
        iota = cand.gtilde * cand.gtilde
        require(
            iota in centralizer_of_subgroup(cand.group, cand.a6),
            f"premise failure: gtilde^2 is not central over A6 for {kind}",
        )
        for case in cases:
            if case in (SignCase(-1, 1, -1), SignCase(1, -1, -1)):
                out = argument_3class_trace(case, table, mv)._replace(kind=kind)
            elif case == SignCase(-1, -1, -1):
                out = argument_nonintegral(case, swap23=cand.fusion.swaps_3)._replace(kind=kind)
            else:  # SignCase(-1, -1, 1)
                if kind == "PGL29_2":
                    out = argument_order5_blocks(cand, table)
                else:
                    out = argument_pigeonhole(kind, cand)
            outcomes.append(out)

    m10 = by_kind["M10_2"]
    iota = m10.gtilde * m10.gtilde
    require(
        iota not in centralizer_of_subgroup(m10.group, m10.a6),
        "M10_2 unexpectedly satisfies the central-square premise",
    )
    for case in cases:
        outcomes.append(
            ArgumentOutcome(
                "central_square_premise",
                "M10_2",
                case,
                NOT_APPLICABLE,
                {"reason": "gtilde^2 acts on A6 by a nontrivial inner automorphism"},
            )
        )

    report = ExclusionReport(
        outcomes=tuple(outcomes),
        sign_cases=cases,
        notes=(
            "invariant cohomology accounting: rank 5 over the full cohomology "
            "= 3 (invariant part of H^2) + 2 (the degree-0 and degree-4 summands)",
            "fixed-point counts for element orders "
            + ", ".join(str(o) for o in nikulin.unused_orders({1, 2, 3, 4, 5}))
            + " are unused by A6 and kept for fidelity",
        ),
    )
    require(report.validate_complete(KINDS), "an exclusion outcome is missing")
    return report


# -- lattice checks -------------------------------------------------------------


class GramLattice(namedtuple("GramLattice", "name gram")):
    """A lattice given by its symmetric integer Gram matrix."""

    __slots__ = ()

    def __new__(cls, name: str, gram: tuple):
        n = len(gram)
        if any(len(row) != n for row in gram):
            raise ValueError("Gram matrix is not square")
        if any(gram[i][j] != gram[j][i] for i in range(n) for j in range(n)):
            raise ValueError("Gram matrix is not symmetric")
        return super().__new__(cls, name, gram)

    # _replace builds through _make, which would skip the checks
    _make = classmethod(lambda cls, fields: cls(*fields))

    @property
    def rank(self) -> int:
        return len(self.gram)


def gram_hyperbolic() -> tuple:
    """The rank-2 even unimodular form of signature (1,1)."""
    return ((0, 1), (1, 0))


def gram_e8() -> tuple:
    """The negative definite even unimodular rank-8 form."""
    edges = {(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 7)}
    gram = [[0] * 8 for _ in range(8)]
    for i in range(8):
        gram[i][i] = -2
    for i, j in edges:
        gram[i][j] = 1
        gram[j][i] = 1
    return tuple(tuple(row) for row in gram)


def gram_k3() -> tuple:
    """Three hyperbolic planes plus two E8 summands: the rank-22 K3 form."""
    blocks = [gram_hyperbolic()] * 3 + [gram_e8()] * 2
    n = sum(len(b) for b in blocks)
    gram = [[0] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i in range(len(b)):
            for j in range(len(b)):
                gram[off + i][off + j] = b[i][j]
        off += len(b)
    return tuple(tuple(row) for row in gram)


def gram_transcendental() -> tuple:
    """The transcendental form diag(6, 6) of the target surface."""
    return ((6, 0), (0, 6))


def _diagonal(gram) -> list[Fraction]:
    """The pivots of an exact symmetric elimination of gram.

    Every move has determinant 1, so the product of the pivots is det(gram).
    A zero pivot is repaired by adding (or, when that cancels, subtracting)
    another row and column, the congruence move that splits a hyperbolic 2x2
    block; it stays zero only when its row is zero.  Row operations alone
    clear below a pivot: the block not yet pivoted is the Schur complement
    that the full congruence would leave, so it stays symmetric and the
    pivots have gram's signature.
    """
    n = len(gram)
    m = [[Fraction(v) for v in row] for row in gram]
    require(all(m[i][j] == m[j][i] for i in range(n) for j in range(n)), "matrix not symmetric")
    for i in range(n):
        if m[i][i] == 0:
            j = next((c for c in range(i + 1, n) if m[i][c] != 0), None)
            if j is None:
                continue  # zero row: a zero on the diagonal
            for sign in (1, -1):
                probe = 2 * sign * m[i][j] + m[j][j]
                if probe != 0:
                    for c in range(n):
                        m[i][c] += sign * m[j][c]
                    for r in range(n):
                        m[r][i] += sign * m[r][j]
                    break
            require(m[i][i] != 0, "a zero pivot was not repaired")
        d = m[i][i]
        for r in range(i + 1, n):
            if m[r][i] != 0:
                f = m[r][i] / d
                for c in range(n):
                    m[r][c] -= f * m[i][c]
    return [m[i][i] for i in range(n)]


def _determinant(diag) -> Fraction:
    return prod(diag, start=Fraction(1))


def _signature(diag) -> tuple[int, int]:
    return sum(d > 0 for d in diag), sum(d < 0 for d in diag)


def gram_determinant(gram) -> Fraction:
    """Determinant of a symmetric matrix: the product of its diagonal form."""
    return _determinant(_diagonal(gram))


def gram_signature(gram) -> tuple[int, int]:
    """Signature (positive, negative) of a symmetric matrix."""
    return _signature(_diagonal(gram))


def gram_is_even(gram) -> bool:
    return all(gram[i][i] % 2 == 0 for i in range(len(gram)))


class LatticeFacts(namedtuple("LatticeFacts", "name rank determinant even signature")):
    """Rank, determinant, parity and (positive, negative) signature of one lattice."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "rank": self.rank,
            "determinant": self.determinant,
            "even": self.even,
            "signature": list(self.signature),
        }


class LatticeReport(namedtuple("LatticeReport", "entries ok")):
    """The LatticeFacts of each fixed form, and whether all match the expected values."""

    __slots__ = ()


def lattice_checks() -> LatticeReport:
    """Rank, determinant, parity and signature of the fixed lattice forms."""
    expected = {
        "U": (2, -1, True, (1, 1)),
        "E8": (8, 1, True, (0, 8)),
        "U^3 + E8^2": (22, -1, True, (3, 19)),
        "T(F)": (2, 36, True, (2, 0)),
    }
    lattices = (
        GramLattice("U", gram_hyperbolic()),
        GramLattice("E8", gram_e8()),
        GramLattice("U^3 + E8^2", gram_k3()),
        GramLattice("T(F)", gram_transcendental()),
    )
    entries = []
    ok = True
    for lattice in lattices:
        # one elimination gives both the determinant and the signature
        diag = _diagonal(lattice.gram)
        det = _determinant(diag)
        require(det.denominator == 1, "an integer Gram matrix has a non-integral determinant")
        facts = LatticeFacts(
            name=lattice.name,
            rank=lattice.rank,
            determinant=int(det),
            even=gram_is_even(lattice.gram),
            signature=_signature(diag),
        )
        want = expected[lattice.name]
        if (facts.rank, facts.determinant, facts.even, facts.signature) != want:
            ok = False
        entries.append(facts)
    return LatticeReport(entries=tuple(entries), ok=ok)
