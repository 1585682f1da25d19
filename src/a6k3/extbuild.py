"""The four groups of shape A6.mu4, built as explicit permutation groups.

Each candidate lives inside N x mu4 for one of the four overgroups
N in {A6, S6, PGL(2,9), M10} of A6 inside Aut(A6): the group is generated
by A6 x {1} together with gtilde = (g, zeta4), with g as dictated by the
choice of N.  mu4 is realized as a 4-cycle on four fresh points appended
after N's points, so the candidates act on 6 + 4 = 10 or 10 + 4 = 14
points.  identify() recovers the construction from the bare group using
only isomorphism-invariant data.
"""

from __future__ import annotations

from functools import cache

from .permgrp import (
    Perm,
    PermGroup,
    FusionType,
    centralizer_of_subgroup,
    class_fusion,
    closure,
    cosets,
    derived_subgroup,
    element_orders,
    fingerprint,
    group_cache,
    is_a6_certified,
    require,
)
from .pgl9 import build_pgl29, build_psl29, classify_overgroups

KINDS = ("A6_4", "S6_2", "PGL29_2", "M10_2")

# The kind of a candidate whose conjugation image on A6 has order 720, by the
# class pairs that image swaps.
_KIND_BY_FUSION = {
    FusionType(swaps_3=False, swaps_5=True): "S6_2",
    FusionType(swaps_3=True, swaps_5=False): "PGL29_2",
    FusionType(swaps_3=True, swaps_5=True): "M10_2",
}

__all__ = [
    "KINDS",
    "ExtensionCandidate",
    "StructureReport",
    "alternating6",
    "mu4_cycle",
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

    alpha maps each element to its mu4 exponent in 0..3; it is a homomorphism
    with kernel a6.
    """

    def __init__(self, kind: str, group: PermGroup, a6: PermGroup, gtilde: Perm, alpha: dict,
                 conj_image_order: int, fusion: FusionType):
        self.kind, self.group, self.a6, self.gtilde = kind, group, a6, gtilde
        self.alpha, self.conj_image_order, self.fusion = alpha, conj_image_order, fusion

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "degree": self.group.degree,
            "generators": [g.cycle_string() for g in self.group.generators],
            "gtilde": self.gtilde.cycle_string(),
            "conj_image_order": self.conj_image_order,
            "fusion": {"swaps_3": self.fusion.swaps_3, "swaps_5": self.fusion.swaps_5},
            "fingerprint": fingerprint(self.group).to_json(),
        }


def _tail_exponents(G: PermGroup, base: int) -> dict:
    """x -> k for each x in G acting on the points base.. as the k-th power
    of the 4-cycle there; every element must act as one."""
    # the k-th power sends base + j to base + (j + k) % 4; built here, not
    # from mu4_cycle, which a fault check replaces
    rotations = {Perm([*range(base), *(base + (j + k) % 4 for j in range(4))]).images[base:]: k for k in range(4)}
    ks = [rotations.get(x.images[base:]) for x in G.elements]
    require(None not in ks, "element does not act as a mu4 power on the tail")
    return dict(zip(G.elements, ks))


@cache
def build_candidate(kind: str, coset_choice: int = 0) -> ExtensionCandidate:
    """Build one of the four candidates.

    coset_choice selects among the canonical order-4 coset elements for
    M10_2 (0 = least); the resulting group is the same up to isomorphism.
    """
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
        h = min(x for x, o in zip(pgl.elements, element_orders(pgl)) if o == 10)
        g = h ** 5
        require(g.order() == 2 and g not in N_act, "h^5 is not an outer involution")
    else:  # M10_2
        N_act = build_psl29()
        split = classify_overgroups()
        m10 = split.m10
        quads = sorted(x for x, o in zip(m10.elements, element_orders(m10)) if o == 4 and x not in N_act)
        g = quads[coset_choice]
    if kind != "M10_2" and coset_choice != 0:
        raise ValueError("coset_choice only varies the M10_2 construction")

    a6 = _embedded_a6(N_act)
    total = a6.degree
    gtilde = g.embedded(total) * mu4_cycle(total)
    group = closure(a6.generators + (gtilde,))
    require(len(group) == 1440, f"{kind} has order {len(group)}, not 1440")
    require(derived_subgroup(group) == a6, f"the derived subgroup of {kind} is not the embedded A6")

    alpha = _tail_exponents(group, N_act.degree)
    require(alpha[gtilde] == 1, "gtilde does not map to zeta4")
    return ExtensionCandidate(
        kind=kind,
        group=group,
        a6=a6,
        gtilde=gtilde,
        alpha=alpha,
        # the conjugation kernel is the centralizer
        conj_image_order=len(group) // len(centralizer_of_subgroup(group, a6)),
        fusion=class_fusion(group, a6),
    )


def build_all_candidates() -> dict[str, ExtensionCandidate]:
    return {kind: build_candidate(kind) for kind in KINDS}


class StructureReport:
    """Structural facts every group of shape A6.mu4 must satisfy.

    injective: (conjugation, alpha) separates elements.
    central_involution: f with trivial conjugation action, alpha = 2.
    half_kernel_is_product: alpha^-1({0,2}) = a6 x <f>.
    outer_alpha_odd: a non-inner conjugation action forces alpha = +-1.
    split_witnessed: <gtilde> has order 4 and meets a6 trivially.
    """

    def __init__(self, kind: str, injective: bool, central_involution: Perm, half_kernel_is_product: bool,
                 outer_alpha_odd: bool, split_witnessed: bool):
        self.kind, self.injective, self.central_involution = kind, injective, central_involution
        self.half_kernel_is_product, self.outer_alpha_odd = half_kernel_is_product, outer_alpha_odd
        self.split_witnessed = split_witnessed

    @property
    def passed(self) -> bool:
        return (
            self.injective
            and self.half_kernel_is_product
            and self.outer_alpha_odd
            and self.split_witnessed
        )

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "injective": self.injective,
            "central_involution": self.central_involution.cycle_string(),
            "half_kernel_is_product": self.half_kernel_is_product,
            "outer_alpha_odd": self.outer_alpha_odd,
            "split_witnessed": self.split_witnessed,
            "passed": self.passed,
        }


def verify_extension_structure(cand: ExtensionCandidate) -> StructureReport:
    """Check the structural facts shared by all four candidates."""
    G = cand.group
    if len(G) != 1440:
        raise ValueError(f"candidate group must have order 1440, got {len(G)}")
    a6 = cand.a6
    alpha = cand.alpha
    ident = G.identity

    cent = centralizer_of_subgroup(G, a6)
    # (conjugation, alpha) is injective iff its kernel Cent_G(a6) & ker(alpha)
    # is trivial
    injective = all(x == ident or alpha[x] != 0 for x in cent.elements)

    f_candidates = sorted(
        x for x in cent.elements if alpha[x] == 2 and (x * x) == ident
    )
    require(f_candidates, "no central involution with alpha = -1 found")
    f = f_candidates[0]
    # the right cosets a6 * x, a6 first, and the parities of alpha on each
    parts = cosets(G, a6)
    coset_of = {x: k for k, c in enumerate(parts) for x in c}
    parities = [{alpha[x] % 2 for x in c} for c in parts]
    even = {0, coset_of[f]}
    half_is_product = (f not in a6) and all(p == ({0} if k in even else {1}) for k, p in enumerate(parities))

    inner_acting = {coset_of[z] for z in cent.elements}
    outer_ok = all(p == {1} for k, p in enumerate(parities) if k not in inner_acting)

    powers = [cand.gtilde ** k for k in range(1, 4)]
    split = cand.gtilde.order() == 4 and all(p not in a6 for p in powers)

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
