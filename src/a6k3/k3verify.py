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
sign cases, outcomes and the ExclusionReport that collects them are
immutable namedtuple records; the decomposition system is the tuple of its
ClassEquations.  `run_exclusion` walks the four kinds once and records for
each whether gtilde^2 centralizes the A6, as found: a kind without that
premise gets a `central_square_premise` outcome per sign case.  Each
argument names the sign case its premise closes, and `run_exclusion` keeps
no case dispatch: it requires the outcomes, sorted by sign case, in the
order of KINDS times the allowed cases.  No `require`
here compares a result with the paper's answer; `cli.CLAIMS` holds those.
Every integer read out of a cyclotomic value goes through `exact._integer`,
which fails a check on anything else.  The report's JSON and text are
written by `cli` alone.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cache, reduce
from itertools import permutations, product
from math import factorial, lcm
from operator import itemgetter, mul, ne

from .chartab import CharacterTable, class_labels, match_reference_table
from .exact import CycloNum, _charpoly, _integer
from .extbuild import KINDS, ExtensionCandidate, identify
from .permgrp import (
    Perm,
    PermGroup,
    centralizer_of_subgroup,
    commuting_images,
    conjugacy_classes,
    element_orders,
    require,
)

__all__ = [
    "NikulinTable",
    "SignCase",
    "MultiplicityVector",
    "ClassEquation",
    "ArgumentOutcome",
    "ExclusionReport",
    "LatticeFacts",
    "AXIOMS",
    "CONTRADICTION",
    "NO_CONTRADICTION",
    "NOT_APPLICABLE",
    "K3_EULER_NUMBER",
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

    `cli` displays it as (fixed_euler - 4) = 1 + sum a_i chi_i(c);
    the -5 absorbs the trivial summand and the Lefschetz bookkeeping
    (two trivial cohomology summands, T(X) of rank 2 in the -1 eigenspace).
    """

    __slots__ = ()


def decomposition_system(table: CharacterTable, nikulin: NikulinTable) -> tuple[ClassEquation, ...]:
    """One equation per conjugacy class, with exact cyclotomic coefficients."""
    if not match_reference_table(table):
        raise ValueError("character table does not match the golden A6 table")
    rows = _degree_rows(table)
    labels = class_labels(table.classes)
    eqs = []
    for pos, (lbl, c) in enumerate(zip(labels, table.classes)):
        fixed = nikulin.fixed_euler(c.element_order)
        coeffs = tuple(rows[i][pos] for i in range(1, 7))
        eqs.append(
            ClassEquation(
                label=lbl,
                element_order=c.element_order,
                fixed_euler=fixed,
                coeffs=coeffs,
                target=CycloNum.from_rational(fixed - 5),
            )
        )
    return tuple(eqs)


def perturb_identity_equation(equations, new_rank: int) -> tuple[ClassEquation, ...]:
    """Negative-control helper: replace the identity equation's right side."""
    new = {"fixed_euler": new_rank + 4, "target": CycloNum.from_rational(new_rank - 1)}
    return tuple(eq._replace(**new) if eq.element_order == 1 else eq for eq in equations)


def solve_decomposition(equations) -> tuple[MultiplicityVector, ...]:
    """All nonnegative integer solutions, by exhaustive bounded search.

    The identity equation bounds every multiplicity by target / degree, so
    the search space is finite and fully enumerated.
    """
    ident = next(eq for eq in equations if eq.element_order == 1)
    degrees, bound = [_integer(c, "a degree") for c in ident.coeffs], _integer(ident.target, "the target")
    require(all(d > 0 for d in degrees), "a degree is not a positive integer")
    require(bound >= 0, "the target is not a nonnegative integer")
    # each equation embedded once into a common field, as one nonzero row per
    # power-basis coordinate: the coefficients of a_2..a_7, then the target
    field = lcm(*(v.order for eq in equations for v in (*eq.coeffs, eq.target)))
    rows = [r for eq in equations for r in zip(*(v.embed(field).coeffs for v in (*eq.coeffs, eq.target)))]
    rows = [r for r in rows if any(r)]
    # the degree hyperplane in lexicographic order: each prefix within its
    # remaining budget, then the last multiplicity solved
    partial = [((), bound)]
    for d in degrees[:-1]:
        partial = [(vec + (a,), rem - a * d) for vec, rem in partial for a in range(rem // d + 1)]
    solutions = []
    for vec, rem in partial:
        vec += (rem // degrees[-1],)
        # map stops at the shorter vec, so each sum leaves out the target
        if rem % degrees[-1] == 0 and all(sum(map(mul, vec, r)) == r[-1] for r in rows):
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
    namedtuple("ArgumentOutcome", "argument kind sign_case status witnesses axioms_used", defaults=((),))
):
    """One argument's outcome for a kind (None: any kind) and a sign case."""

    __slots__ = ()


def _degree_rows(table: CharacterTable):
    # the golden rows, ascending by degree, are in A6's canonical order
    degrees = table.degrees
    require(match_reference_table(table) and list(degrees) == sorted(degrees), "the rows are not A6's golden rows")
    return table.rows


def argument_3class_trace(
    case: SignCase, table: CharacterTable, mv: MultiplicityVector
) -> ArgumentOutcome:
    """Trace of iota*sigma on the Picard lattice, with multiplicities mv, for an order-3 sigma.

    For the mixed sign cases, eps2 != eps3, there is an order-3 class on which
    1 + eps2*chi2 + eps3*chi3 + eps6*chi6 is negative, violating axiom A2
    (euler(fixed locus of iota*sigma) equals that trace).
    """
    require(case.eps2 != case.eps3, "the trace argument's sign case is not mixed")
    signs = {2: case.eps2, 3: case.eps3, 6: case.eps6}
    rows = _degree_rows(table)
    labels = class_labels(table.classes)
    best = None
    for pos in (i for i, c in enumerate(table.classes) if c.element_order == 3):
        require(table.classes[pos].representative.order() == 3, "a class the trace argument reads is not of order 3")
        trace = _integer(trace_on_picard(mv, signs, table, pos), "a Picard trace")
        parts = [1] + [_integer(signs[i] * mv[i - 2] * rows[i - 1][pos], "a Picard trace term") for i in (2, 3, 6)]
        require(sum(parts) == trace, "the printed trace terms do not add up to the trace")
        if best is None or trace < best[0]:
            best = (trace, labels[pos], parts)
    value, label, parts = best
    status = CONTRADICTION if value < 0 else NO_CONTRADICTION
    return ArgumentOutcome(
        "3class_trace",
        None,
        case,
        status,
        {"class": label, "trace": value, "terms": parts},
        axioms_used=("A2",),
    )


def argument_nonintegral(swap23: bool) -> ArgumentOutcome:
    """Integrality of euler(fixed locus of gtilde) in the all-minus case,
    where iota is -1 on all three summands.

    The eigenvalues of gtilde on the relevant summands are +-zeta4, so the
    Euler number evaluates to 3 + (9-2n)*zeta4 (when gtilde swaps the two
    5-dimensional summands) or 3 + (19-2n)*zeta4 (when it fixes them); an
    Euler number must be a rational integer, so every n must fail.
    """
    dim = 9 if swap23 else 19
    z4 = CycloNum.zeta(4)
    require(z4 * z4 == -1, "the integrality argument's zeta4 is not a square root of -1")
    values = [3 + (dim - 2 * n) * z4 for n in range(dim + 1)]
    nonintegral = all(value.is_rational() is None for value in values)
    return ArgumentOutcome(
        "nonintegral_euler",
        None,
        SignCase(-1, -1, -1),
        CONTRADICTION if nonintegral else NO_CONTRADICTION,
        {
            "scenario": "swap" if swap23 else "fix",
            "values_checked": len(values),
            "all_nonintegral": nonintegral,
            "sample": values[0],
        },
    )


@cache
def _min_fixed_of_square() -> tuple[int, int, int]:
    # scan the permutations of 6 points: the least number of fixed points of
    # p^2 among those with p^4 = id, how many those are and how many scanned
    identity = tuple(range(6))
    best, eligible, scanned = None, 0, 0
    for images in permutations(identity):
        scanned += 1
        sq = itemgetter(*images)(images)
        if itemgetter(*sq)(sq) != identity:
            continue
        eligible += 1
        fixed = sum(1 for i in identity if sq[i] == i)
        if best is None or fixed < best:
            best = fixed
    return best, eligible, scanned


def _fourth_roots_of_identity(n: int) -> int:
    # the p in S_n with p^4 = id: the cycle types with m4 4-cycles, m2
    # 2-cycles and fixed points, each of n!/z with z = prod_i i^m_i m_i!
    return sum(
        factorial(n) // (4**m4 * factorial(m4) * 2**m2 * factorial(m2) * factorial(n - 4 * m4 - 2 * m2))
        for m4 in range(n // 4 + 1)
        for m2 in range((n - 4 * m4) // 2 + 1)
    )


def _least_commuting(candidate: ExtensionCandidate, order: int) -> Perm:
    """The least element of the given order in candidate.a6 that commutes with gtilde."""
    a6 = candidate.a6
    commuting = set(commuting_images(a6, candidate.gtilde))
    # a6.images ascend, so the first match is the least such element
    x = next((Perm(x) for x, o in zip(a6.images, element_orders(a6)) if o == order and x in commuting), None)
    require(x is not None, f"no order-{order} element commuting with gtilde")
    return x


def _empty_locus_case() -> SignCase:
    """The one allowed sign case with euler_iota 0, where by axiom A1 the
    fixed locus of iota is empty."""
    (case,) = [case for case in nonpositive_sign_cases() if euler_iota(case) == 0]
    return case


def argument_pigeonhole(kind: str, candidate: ExtensionCandidate) -> ArgumentOutcome:
    """In the empty-locus case the fixed locus of iota is empty (A1),
    yet gtilde permutes the six fixed points of an order-3 element it
    commutes with, and the square of any such permutation fixes at least
    two of them."""
    name = "pigeonhole"
    if kind not in ("A6_4", "S6_2") or candidate.kind != kind:
        raise ValueError("argument applies to the A6_4 and S6_2 candidates only")
    tau, gtilde = _least_commuting(candidate, 3), candidate.gtilde
    require(tau.order() == 3, "the pigeonhole's tau is not of order 3")
    require(tau * gtilde == gtilde * tau, "the pigeonhole's tau does not commute with gtilde")
    min_fixed, eligible, scanned = _min_fixed_of_square()
    require(scanned == factorial(6), "the pigeonhole scan missed a permutation of 6 points")
    require(eligible == _fourth_roots_of_identity(6), "the pigeonhole scan miscounted the p with p^4 = id")
    status = CONTRADICTION if min_fixed > 0 else NO_CONTRADICTION
    return ArgumentOutcome(
        name,
        kind,
        _empty_locus_case(),
        status,
        {
            "tau": tau.cycle_string(),
            "commutes_with_gtilde": True,
            "min_fixed_points_of_square": min_fixed,
            "eligible_permutations": eligible,
            "permutations_scanned": scanned,
        },
        axioms_used=("A1",),
    )


def argument_order5_blocks(candidate: ExtensionCandidate, table: CharacterTable) -> ArgumentOutcome:
    """In the empty-locus case for the PGL-type candidate, an order-5 element
    commuting with gtilde acts by a rational matrix split into blocks of
    sizes 3 and 6; Galois-stable eigenvalue multisets only achieve traces
    {4, 9}, never the required -1."""
    name = "order5_blocks"
    if candidate.kind != "PGL29_2":
        raise ValueError("argument applies to the PGL29_2 candidate only")
    sigma, gtilde = _least_commuting(candidate, 5), candidate.gtilde
    require(sigma.order() == 5, "the order-5 blocks' sigma is not of order 5")
    require(sigma * gtilde == gtilde * sigma, "the order-5 blocks' sigma does not commute with gtilde")

    # axiom A1 forces an empty iota fixed locus in this sign case, hence an
    # empty gtilde fixed locus: euler_iota(case) = 2 + 1 + (9 - 2s) pins the block split
    case = _empty_locus_case()
    s, odd = divmod(2 + 1 + 9 - euler_iota(case), 2)
    require(not odd, "the order-5 block split is not an integer")
    blocks = (9 - s, s)

    one = CycloNum.one(5)
    orbit_sum = sum((CycloNum.zeta(5, i) for i in range(1, 5)), CycloNum.zero(5))

    def stable_traces(size: int) -> tuple[int, ...]:
        # Galois-stable multisets of 5th roots of unity: size - 4k copies of
        # {1} plus k copies of the full primitive orbit
        traces = {_integer((size - 4 * k) * one + k * orbit_sum, "a Galois-stable trace") for k in range(size // 4 + 1)}
        return tuple(sorted(traces))

    traces_small = stable_traces(blocks[0])
    traces_large = stable_traces(blocks[1])
    totals = tuple(sorted({a + b for a in traces_small for b in traces_large}))

    # required trace: the degree-9 character on the order-5 classes
    rows = _degree_rows(table)
    required = {_integer(rows[5][i], "a degree-9 value") for i, c in enumerate(table.classes) if c.element_order == 5}
    require(len(required) == 1, "the degree-9 character takes two values on the order-5 classes")
    (required_total,) = required

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
        axioms_used=("A1",),
    )


def argument_free_c4(euler_number: int) -> ArgumentOutcome:
    """A free order-4 action would force 4 | euler_number."""
    status = CONTRADICTION if euler_number % 4 != 0 else NO_CONTRADICTION
    return ArgumentOutcome(
        "free_order4_divisibility",
        None,
        _empty_locus_case(),
        status,
        {"euler_number": euler_number, "mod_4": euler_number % 4},
    )


class ExclusionReport(namedtuple("ExclusionReport", "outcomes notes")):
    """Per-kind, per-sign-case outcomes of the exclusion pipeline."""

    __slots__ = ()

    @property
    def verdict(self) -> str | None:
        """The unique kind not excluded in every sign case, else None."""
        survivors = {o.kind for o in self.outcomes if o.status != CONTRADICTION}
        return survivors.pop() if len(survivors) == 1 else None


def run_exclusion(candidates, table: CharacterTable, nikulin: NikulinTable) -> ExclusionReport:
    """Run the sign-case exclusion over all four candidates.

    For each of A6_4, S6_2 and PGL29_2 the square of gtilde acts trivially
    on the distinguished A6, which makes it an antisymplectic involution
    commuting with the whole symplectic part; every allowed sign case then
    ends in a contradiction.  For M10_2 that structural premise fails, so
    no argument applies and the kind survives.  Outcomes are recorded as
    found, in sign-case order; the verdict is derived from them.
    """
    by_kind = {c.kind: c for c in candidates}
    if set(by_kind) != set(KINDS):
        raise ValueError("need exactly the four candidate kinds")
    for kind, cand in by_kind.items():
        if identify(cand) != kind:
            raise ValueError(f"candidate labeled {kind} identifies differently")

    cases = nonpositive_sign_cases()
    mv = picard_multiplicities(table, nikulin)
    # the trace argument reads only the sign case, the integrality argument
    # only the order-3 fusion: each runs once for all kinds that share them.
    # The trace argument takes the mixed cases, eps2 != eps3
    traces = [argument_3class_trace(c, table, mv) for c in cases if c.eps2 != c.eps3]
    euler = {s: argument_nonintegral(swap23=s) for s in {c.fusion.swaps_3 for c in by_kind.values()}}
    outcomes = []
    for kind in KINDS:
        cand = by_kind[kind]
        if cand.gtilde * cand.gtilde not in centralizer_of_subgroup(cand.group, cand.a6):
            reason = {"reason": "gtilde^2 acts on A6 by a nontrivial inner automorphism"}
            outcomes += [ArgumentOutcome("central_square_premise", kind, c, NOT_APPLICABLE, reason) for c in cases]
            continue
        empty = argument_order5_blocks(cand, table) if kind == "PGL29_2" else argument_pigeonhole(kind, cand)
        found = [*traces, euler[cand.fusion.swaps_3], empty]
        outcomes += sorted((o._replace(kind=kind) for o in found), key=lambda o: o.sign_case)
    order = [(o.kind, o.sign_case) for o in outcomes]
    require(order == list(product(KINDS, cases)), "an exclusion outcome is missing")

    return ExclusionReport(
        outcomes=tuple(outcomes),
        notes=(
            "invariant cohomology accounting: rank 5 over the full cohomology "
            "= 3 (invariant part of H^2) + 2 (the degree-0 and degree-4 summands)",
            "fixed-point counts for element orders "
            + ", ".join(str(o) for o in nikulin.unused_orders({c.element_order for c in table.classes}))
            + " are unused by A6 and kept for fidelity",
        ),
    )


# -- lattice checks -------------------------------------------------------------


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


def _diagonal_blocks(gram) -> list:
    """The diagonal blocks of a symmetric matrix, read off its entries: a
    block ends at the first row where every entry coupling the block's rows
    to the later columns is 0."""
    blocks, start, end = [], 0, 0
    for i, row in enumerate(gram):
        # one past the last nonzero column of the block's rows so far
        end = max(end, next((j for j in range(len(row) - 1, i, -1) if row[j]), i) + 1)
        if end == i + 1:
            blocks.append([r[start:end] for r in gram[start:end]])
            start = end
    return blocks


def _poly_mul(a, b) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _gram_charpoly(gram) -> list[int]:
    """det(x I - gram), leading coefficient first, of a square symmetric
    integer matrix: a real symmetric matrix has only real eigenvalues.  It
    is the product of the polynomials of the diagonal blocks."""
    n = len(gram)
    require(all(len(row) == n for row in gram), "matrix not square")
    require(all(gram[i][j] == gram[j][i] for i in range(n) for j in range(i)), "matrix not symmetric")
    return reduce(_poly_mul, (_charpoly(block, 0) for block in _diagonal_blocks(gram)), [1])


def _determinant(poly) -> int:
    # det(gram) = (-1)^n c_n, with c_n the constant term of det(x I - gram)
    return (-1) ** (len(poly) - 1) * poly[-1]


def _sign_variations(coeffs) -> int:
    signs = [c > 0 for c in coeffs if c]
    return sum(map(ne, signs, signs[1:]))


def _signature(poly) -> tuple[int, int]:
    # every root is real, so Descartes' rule of signs counts them exactly: the
    # positive roots of p(x) and of p(-x); zero roots are the trailing zero
    # coefficients, which the count skips
    return _sign_variations(poly), _sign_variations([(-1) ** i * c for i, c in enumerate(poly)])


def gram_determinant(gram) -> int:
    """Determinant of a symmetric matrix, read off its characteristic polynomial."""
    return _determinant(_gram_charpoly(gram))


def gram_signature(gram) -> tuple[int, int]:
    """Signature (positive, negative) of a symmetric matrix."""
    return _signature(_gram_charpoly(gram))


def gram_is_even(gram) -> bool:
    return all(gram[i][i] % 2 == 0 for i in range(len(gram)))


class LatticeFacts(namedtuple("LatticeFacts", "name rank determinant even signature")):
    """Rank, determinant, parity and (positive, negative) signature of one lattice."""

    __slots__ = ()


def lattice_checks() -> tuple[LatticeFacts, ...]:
    """Rank, determinant, parity and signature of the fixed lattice forms."""
    forms = (
        ("U", gram_hyperbolic()),
        ("E8", gram_e8()),
        ("U^3 + E8^2", gram_k3()),
        ("T(F)", gram_transcendental()),
    )
    entries = []
    for name, gram in forms:
        # one characteristic polynomial gives both the determinant and the signature
        poly = _gram_charpoly(gram)
        entries.append(LatticeFacts(name, len(gram), _determinant(poly), gram_is_even(gram), _signature(poly)))
    return tuple(entries)
