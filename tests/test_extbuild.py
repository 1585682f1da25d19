"""The four A6.mu4 candidates: construction, structure, identification."""

import random
import weakref

import pytest

from a6k3 import permgrp
from a6k3.permgrp import (
    Perm,
    PermGroup,
    VerificationError,
    center,
    centralizer_of_subgroup,
    closure,
    conjugate_group,
    conjugation_image,
    derived_subgroup,
    element_orders,
    fingerprint,
    fusion_type,
    is_a6_certified,
)
from a6k3.extbuild import (
    KINDS,
    ExtensionCandidate,
    alternating6,
    assemble_candidate,
    build_all_candidates,
    build_candidate,
    identify,
    mu4_cycle,
    pairwise_nonisomorphic,
    verify_extension_structure,
)
from a6k3.chartab import character_table
from a6k3.pgl9 import build_psl29, classify_overgroups


def relabeled_copy(cand: ExtensionCandidate, rng: random.Random) -> PermGroup:
    degree = cand.group.degree
    imgs = list(range(degree))
    rng.shuffle(imgs)
    t = Perm(imgs)
    return closure(tuple(t * g * t.inverse() for g in cand.group.generators))


def test_candidates_share_their_base_groups_a6():
    assert build_candidate("A6_4").a6 is build_candidate("S6_2").a6
    assert build_candidate("PGL29_2").a6 is build_candidate("M10_2").a6


def test_every_kind_has_order_1440():
    for kind in KINDS:
        cand = build_candidate(kind)
        assert len(cand.group) == 1440
        assert cand.kind == kind
        assert cand.gtilde.order() == 4


def test_degrees():
    assert build_candidate("A6_4").group.degree == 10
    assert build_candidate("S6_2").group.degree == 10
    assert build_candidate("PGL29_2").group.degree == 14
    assert build_candidate("M10_2").group.degree == 14


def test_a6_4_is_direct_product():
    cand = build_candidate("A6_4")
    assert len(center(cand.group)) == 4
    assert all(cand.gtilde * a == a * cand.gtilde for a in cand.a6.generators)
    assert cand.conj_image_order == 360


def test_center_orders():
    assert len(center(build_candidate("A6_4").group)) == 4
    for kind in ("S6_2", "PGL29_2", "M10_2"):
        assert len(center(build_candidate(kind).group)) == 2


def test_distinguished_a6():
    for kind in KINDS:
        cand = build_candidate(kind)
        assert cand.a6 == derived_subgroup(cand.group)
        assert is_a6_certified(cand.a6)
        # normality re-verified by explicit conjugation of generators
        for g in cand.group.generators:
            gi = g.inverse()
            assert all(g * a * gi in cand.a6 for a in cand.a6.generators)


def test_conjugation_image_orders_and_kernels():
    for kind, expect in (("A6_4", 360), ("S6_2", 720), ("PGL29_2", 720), ("M10_2", 720)):
        cand = build_candidate(kind)
        image, mapping = conjugation_image(cand.group, cand.a6)
        assert len(image) == expect == cand.conj_image_order
        assert cand.fusion == fusion_type(image)
        ident = image.identity
        kernel = {g for g, img in mapping.items() if img == ident}
        assert kernel == set(centralizer_of_subgroup(cand.group, cand.a6).elements)


def test_centralizer_of_a6():
    assert len(centralizer_of_subgroup(build_candidate("A6_4").group, build_candidate("A6_4").a6)) == 4
    cand = build_candidate("M10_2")
    assert len(centralizer_of_subgroup(cand.group, cand.a6)) == 2


def test_fusion_patterns():
    expect = {
        "A6_4": (False, False),
        "S6_2": (False, True),
        "PGL29_2": (True, False),
        "M10_2": (True, True),
    }
    for kind, pat in expect.items():
        cand = build_candidate(kind)
        assert (cand.fusion.swaps_3, cand.fusion.swaps_5) == pat


def test_alpha_is_a_homomorphism_with_kernel_a6():
    rng = random.Random(41)
    for kind in KINDS:
        cand = build_candidate(kind)
        alpha = cand.alpha
        assert alpha[cand.gtilde] == 1  # the chosen sign: alpha(gtilde) = +zeta4
        assert {x for x in cand.group.elements if alpha[x] == 0} == set(cand.a6.elements)
        els = cand.group.elements
        for _ in range(50):
            x = rng.choice(els)
            y = rng.choice(els)
            assert alpha[x * y] == (alpha[x] + alpha[y]) % 4
        # alpha depends only on the coset modulo a6
        for _ in range(20):
            x = rng.choice(els)
            a = rng.choice(cand.a6.elements)
            assert alpha[x * a] == alpha[x]


def test_alpha_is_the_exponent_of_the_tail():
    # oracle: the power of the 4-cycle that agrees with x on the tail points
    for kind in KINDS:
        cand = build_candidate(kind)
        base = cand.a6.degree - 4
        powers = [mu4_cycle(cand.a6.degree) ** k for k in range(4)]
        for x in cand.group.elements:
            (k,) = [k for k, p in enumerate(powers) if p.images[base:] == x.images[base:]]
            assert cand.alpha[x] == k


def test_quotient_is_cyclic_of_order_4():
    for kind in KINDS:
        cand = build_candidate(kind)
        values = {cand.alpha[x] for x in cand.group.elements}
        assert values == {0, 1, 2, 3}


def test_central_square_dichotomy():
    # gtilde^2 centralizes a6 for the three split-over-involution kinds,
    # but not for M10_2, whose gtilde has an order-4 image in M10
    for kind in ("A6_4", "S6_2", "PGL29_2"):
        cand = build_candidate(kind)
        iota = cand.gtilde * cand.gtilde
        assert all(iota * a == a * iota for a in cand.a6.generators)
    cand = build_candidate("M10_2")
    iota = cand.gtilde * cand.gtilde
    assert not all(iota * a == a * iota for a in cand.a6.generators)
    assert iota not in centralizer_of_subgroup(cand.group, cand.a6)


def test_verify_extension_structure_passes_for_all():
    for kind in KINDS:
        cand = build_candidate(kind)
        report = verify_extension_structure(cand)
        assert report.passed, (kind, report)
        f = report.central_involution
        # (conjugation, alpha)(f) = (1, -1)
        assert f.order() == 2
        assert cand.alpha[f] == 2
        assert all(f * a == a * f for a in cand.a6.generators)
        assert f not in cand.a6


def test_verify_extension_structure_rejects_wrong_order():
    a6 = alternating6()
    f = Perm.from_cycles([(6, 7)], 8)
    gens = tuple(g.embedded(8) for g in a6.generators) + (f,)
    group = closure(gens)
    assert len(group) == 720
    fake = ExtensionCandidate(
        kind="A6_4",
        group=group,
        a6=derived_subgroup(group),
        gtilde=f,
        alpha={},
        conj_image_order=360,
        fusion=build_candidate("A6_4").fusion,
    )
    with pytest.raises(ValueError):
        verify_extension_structure(fake)


def test_pairwise_nonisomorphic():
    cands = build_all_candidates()
    assert pairwise_nonisomorphic(cands.values())
    prints = [fingerprint(c.group) for c in cands.values()]
    assert len({p for p in prints}) == 4
    assert fingerprint(cands["A6_4"].group).center_order == 4
    assert fingerprint(cands["S6_2"].group).center_order == 2


def test_identify_roundtrip():
    for kind in KINDS:
        assert identify(build_candidate(kind)) == kind


def test_identify_under_relabeling():
    rng = random.Random(4242)
    for kind in KINDS:
        cand = build_candidate(kind)
        for _ in range(3):
            assert identify(relabeled_copy(cand, rng)) == kind


def test_relabeled_identify_tabulates_only_the_a6(monkeypatch):
    # identify reads the facts about a6 inside G off images: only groups of
    # order at most 360 are numbered by index, and G is never wrapped
    cands = [build_candidate(kind) for kind in KINDS]
    orders, index = [], permgrp._index

    def counting(G):
        orders.append(len(G))
        return index(G)

    monkeypatch.setattr(permgrp, "_index", counting)
    rng = random.Random(4246)
    for cand in cands:
        G = relabeled_copy(cand, rng)
        assert identify(G) == cand.kind
        assert "elements" not in vars(G)
    assert orders and max(orders) <= 360


def test_identify_under_regenerated_generating_set():
    rng = random.Random(4243)
    for kind in KINDS:
        cand = build_candidate(kind)
        els = cand.group.elements
        while True:
            gens = [rng.choice(els) for _ in range(3)]
            G = closure(gens)
            if len(G) == 1440:
                break
        assert G == cand.group
        assert derived_subgroup(G) is not derived_subgroup(cand.group)
        assert identify(G) == kind


def test_identify_rejects_wrong_order():
    with pytest.raises(ValueError):
        identify(build_psl29())


def test_m10_variant_with_other_coset_element():
    # another order-4 element of M10 outside PSL(2,9) gives an isomorphic candidate
    base = build_candidate("M10_2")
    m10, psl = classify_overgroups().m10, build_psl29()
    quads = [x for x, o in zip(m10.elements, element_orders(m10)) if o == 4 and x not in psl]
    a6 = base.a6
    gtilde = quads[7].embedded(a6.degree) * mu4_cycle(a6.degree)
    variant = assemble_candidate("M10_2", closure(a6.generators + (gtilde,)), a6, gtilde)
    assert variant.gtilde != base.gtilde
    assert fingerprint(variant.group) == fingerprint(base.group)
    assert fingerprint(variant.group) is not fingerprint(base.group)
    assert identify(variant) == "M10_2"
    assert verify_extension_structure(variant).passed


def test_alpha_needs_gtilde_to_generate_the_quotient():
    # gtilde^2 generates only the index-2 subgroup of G/a6
    cand = build_candidate("S6_2")
    square = cand.gtilde * cand.gtilde
    with pytest.raises(VerificationError, match="does not generate the quotient"):
        assemble_candidate("S6_2", cand.group, cand.a6, square)
    # gtilde^-1 generates it too, and alpha counts its powers
    inverse = assemble_candidate("S6_2", cand.group, cand.a6, cand.gtilde.inverse())
    assert all(inverse.alpha[x] == -cand.alpha[x] % 4 for x in cand.group.elements)


def test_derived_data_is_freed_with_its_group():
    def identified_copy():
        G = relabeled_copy(build_candidate("PGL29_2"), random.Random(4244))
        assert identify(G) == "PGL29_2"
        assert fingerprint(G).center_order == 2
        return weakref.ref(G)

    def tabulated_copy():
        m10 = classify_overgroups().m10
        G = conjugate_group(m10, Perm.from_cycles([(0, 3, 7)], m10.degree))
        assert len(character_table(G).classes) == 8
        return weakref.ref(G)

    refs = [identified_copy(), tabulated_copy()]
    # no memo entry refers to its own group, so reference counting alone
    # frees each group with everything memoized on it
    assert [r() for r in refs] == [None, None]


def test_mu4_cycle():
    c = mu4_cycle(10)
    assert c.order() == 4
    assert c.cycle_string() == "(7 8 9 10)"

