"""The four groups of shape A6.mu4, built as explicit permutation groups.

Each candidate lives inside N x mu4 for one of the four overgroups
N in {A6, S6, PGL(2,9), M10} of A6 inside Aut(A6): the group is generated
by A6 x {1} together with gtilde = (g, zeta4), with g as dictated by the
choice of N.  mu4 is realized as a 4-cycle on four fresh points appended
after N's points, so the candidates act on 6 + 4 = 10 or 10 + 4 = 14
points.  Nothing else reads these positions: `assemble_candidate` derives
a candidate's data from its group, a6 and gtilde in any presentation, and
identify() recovers the kind from the bare group by invariants alone.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache

from .permgrp import (
    Perm,
    PermGroup,
    FusionType,
    _cosets,
    centralizer_of_subgroup,
    class_fusion,
    closure,
    derived_subgroup,
    element_orders,
    fingerprint,
    group_cache,
    is_a6_certified,
    require,
)
from .pgl9 import _FUSIONS, build_pgl29, build_psl29, classify_overgroups

KINDS = ("A6_4", "S6_2", "PGL29_2", "M10_2")

# The kind of a candidate whose conjugation image on A6 has order 720, by the
# class pairs that image swaps: those its overgroup of A6 swaps.
_KIND_BY_FUSION = dict(zip(_FUSIONS, ("S6_2", "PGL29_2", "M10_2")))

__all__ = [
    "KINDS",
    "ExtensionCandidate",
    "StructureReport",
    "alternating6",
    "mu4_cycle",
    "assemble_candidate",
    "build_candidate",
    "build_all_candidates",
    "verify_extension_structure",
    "identify",
    "pairwise_nonisomorphic",
]


@cache
def alternating6() -> PermGroup:
    """A6 in its natural action on 6 points."""
    G = closure(
        [Perm.from_cycles([(0, 1, 2)], 6), Perm.from_cycles([(1, 2, 3, 4, 5)], 6)]
    )
    require(is_a6_certified(G), "A6 fails its certificate")
    return G


@group_cache
def _embedded_a6(N: PermGroup) -> PermGroup:
    """N on N.degree + 4 points, certified once; the `a6` of every candidate over N."""
    total = N.degree + 4
    a6 = closure(p.embedded(total) for p in N.generators)
    require(is_a6_certified(a6), "the embedded A6 fails its certificate")
    return a6


def mu4_cycle(total_degree: int) -> Perm:
    """The 4-cycle on the last four of total_degree points, representing zeta4."""
    d = total_degree - 4
    return Perm.from_cycles([(d, d + 1, d + 2, d + 3)], total_degree)


class ExtensionCandidate:
    """One concrete group of shape A6.mu4 with its distinguished data.

    alpha maps each element to the k with it in the a6-coset of gtilde^k (a
    `CosetExponents`): a homomorphism onto mu4 with kernel a6.
    """

    def __init__(self, kind: str, group: PermGroup, a6: PermGroup, gtilde: Perm, alpha: CosetExponents,
                 conj_image_order: int, fusion: FusionType):
        self.kind, self.group, self.a6, self.gtilde = kind, group, a6, gtilde
        self.alpha, self.conj_image_order, self.fusion = alpha, conj_image_order, fusion


class CosetExponents:
    """alpha[x] is the k with the Perm x in cosets[k], the a6-coset of
    gtilde^k as ascending stored images."""

    def __init__(self, cosets: tuple[tuple, ...]):
        self.cosets = cosets
        self._exponent = {x: k for k, c in enumerate(cosets) for x in c}

    def __getitem__(self, x: Perm) -> int:
        return self._exponent[x.images]


def _coset_exponents(group: PermGroup, a6: PermGroup, gtilde: Perm) -> CosetExponents:
    """alpha of the group: its a6-cosets renumbered by gtilde's powers, after
    a check that gtilde's coset generates group/a6 as a cyclic group of order 4."""
    by_position = CosetExponents(_cosets(group, a6))  # a6 itself is coset 0
    square = gtilde * gtilde
    # the positions of the cosets of gtilde^0, ..., gtilde^3
    positions = [0] + [by_position[p] for p in (gtilde, square, square * gtilde)]
    require(sorted(positions) == list(range(len(by_position.cosets))) == [0, 1, 2, 3],
            "gtilde's coset does not generate the quotient by a6 as mu4")
    return CosetExponents(tuple(by_position.cosets[i] for i in positions))


def assemble_candidate(kind: str, group: PermGroup, a6: PermGroup, gtilde: Perm) -> ExtensionCandidate:
    """The candidate of the given kind on group, in any presentation: a6 must
    be its derived subgroup, and alpha, the order of the conjugation image
    and the class fusion are read off group, a6 and gtilde."""
    require(len(group) == 1440, f"{kind} has order {len(group)}, not 1440")
    require(derived_subgroup(group) == a6, f"the derived subgroup of {kind} is not its a6")
    # the conjugation kernel is the centralizer
    image_order = len(group) // len(centralizer_of_subgroup(group, a6))
    alpha = _coset_exponents(group, a6, gtilde)
    return ExtensionCandidate(kind, group, a6, gtilde, alpha, image_order, class_fusion(group, a6))


@cache
def build_candidate(kind: str) -> ExtensionCandidate:
    """Build one of the four candidates in its canonical presentation, with
    zeta4 on the four points after its base group's."""
    if kind not in KINDS:
        raise ValueError(f"unknown kind {kind!r}")
    if kind == "A6_4":
        N_act = alternating6()
        g = Perm.identity(6)
    elif kind == "S6_2":
        N_act = alternating6()
        g = Perm.from_cycles([(0, 1)], 6)
    elif kind == "PGL29_2":
        N_act = build_psl29()
        pgl = build_pgl29()
        h = Perm(pgl.images[element_orders(pgl).index(10)])  # the least of order 10
        g = h ** 5
        require(g.order() == 2 and g not in N_act, "h^5 is not an outer involution")
    else:  # M10_2
        N_act = build_psl29()
        m10 = classify_overgroups().m10
        # the least element of order 4 in M10's coset outside PSL(2,9)
        g = next(Perm(x) for x, o in zip(m10.images, element_orders(m10)) if o == 4 and not N_act.has_images(x))

    a6 = _embedded_a6(N_act)
    gtilde = g.embedded(a6.degree) * mu4_cycle(a6.degree)
    return assemble_candidate(kind, closure(a6.generators + (gtilde,)), a6, gtilde)


def build_all_candidates() -> dict[str, ExtensionCandidate]:
    return {kind: build_candidate(kind) for kind in KINDS}


class StructureReport(
    namedtuple(
        "StructureReport",
        "kind injective central_involution half_kernel_is_product outer_alpha_odd split_witnessed",
    )
):
    """Structural facts every group of shape A6.mu4 must satisfy.

    injective: (conjugation, alpha) separates elements.
    central_involution: f with trivial conjugation action, alpha = 2.
    half_kernel_is_product: alpha^-1({0,2}) = a6 x <f>.
    outer_alpha_odd: a non-inner conjugation action forces alpha = +-1.
    split_witnessed: <gtilde> has order 4 and meets a6 trivially.
    """

    __slots__ = ()

    @property
    def passed(self) -> bool:
        return (
            self.injective
            and self.half_kernel_is_product
            and self.outer_alpha_odd
            and self.split_witnessed
        )


def verify_extension_structure(cand: ExtensionCandidate) -> StructureReport:
    """Check the structural facts shared by all four candidates."""
    G = cand.group
    if len(G) != 1440:
        raise ValueError(f"candidate group must have order 1440, got {len(G)}")
    a6, alpha, ident = cand.a6, cand.alpha, G.identity

    cent = centralizer_of_subgroup(G, a6)
    # (conjugation, alpha) is injective iff its kernel Cent_G(a6) & ker(alpha)
    # is trivial
    injective = all(x == ident or alpha[x] != 0 for x in cent.elements)

    f_candidates = sorted(
        x for x in cent.elements if alpha[x] == 2 and (x * x) == ident
    )
    require(f_candidates, "no central involution with alpha = -1 found")
    f = f_candidates[0]
    # alpha is constant on the a6-cosets, so alpha^-1({0, 2}) is a6 and the
    # coset of f: a6 x <f>, as f is central of order 2, once f is outside a6
    half_is_product = f not in a6

    # the cosets of a6 * Cent_G(a6), whose elements act by inner automorphisms
    inner_acting = {alpha[z] for z in cent.elements}
    outer_ok = all(k % 2 for k in range(len(alpha.cosets)) if k not in inner_acting)

    gtilde = cand.gtilde
    square = gtilde * gtilde
    split = gtilde.order() == 4 and all(p not in a6 for p in (gtilde, square, square * gtilde))

    return StructureReport(
        kind=cand.kind,
        injective=injective,
        central_involution=f,
        half_kernel_is_product=half_is_product,
        outer_alpha_odd=outer_ok,
        split_witnessed=split,
    )


def identify(obj) -> str:
    """Recover the kind of a candidate from isomorphism-invariant data only.

    Accepts an ExtensionCandidate or a bare PermGroup (possibly rebuilt from
    conjugated generators on shuffled points).  Uses the order of the
    conjugation image (360 vs 720) and, in the 720 case, the fusion pattern
    of that image on the order-3 / order-5 classes of the derived subgroup.
    """
    G = obj.group if isinstance(obj, ExtensionCandidate) else obj
    if len(G) != 1440:
        raise ValueError(f"expected a group of order 1440, got {len(G)}")
    # build_candidate checked that a candidate's a6 is the derived subgroup
    a6 = obj.a6 if isinstance(obj, ExtensionCandidate) else derived_subgroup(G)
    if not is_a6_certified(a6):
        raise ValueError("derived subgroup does not carry the A6 certificate")
    cent = centralizer_of_subgroup(G, a6)
    image_order = len(G) // len(cent)  # conjugation kernel = centralizer
    if image_order == 360:
        return "A6_4"
    if image_order != 720:
        raise ValueError(f"unexpected conjugation image order {image_order}")
    kind = _KIND_BY_FUSION.get(class_fusion(G, a6))
    require(kind is not None, "conjugation image of order 720 fixes all classes")
    return kind


def pairwise_nonisomorphic(candidates) -> bool:
    """True iff the fingerprints are pairwise distinct and identify() agrees."""
    cands = list(candidates)
    prints = [fingerprint(c.group) for c in cands]
    for i in range(len(prints)):
        for j in range(i + 1, len(prints)):
            if prints[i] == prints[j]:
                return False
    return all(identify(c) == c.kind for c in cands)
