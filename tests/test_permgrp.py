"""Permutation group machinery against brute-force oracles."""

import random
import re
from collections import Counter
from pathlib import Path

import pytest

import a6k3
from a6k3 import permgrp
from a6k3.permgrp import (
    A6_CLASS_SHAPE,
    ConjugationImage,
    FusionType,
    Perm,
    PermGroup,
    VerificationError,
    _abelian_invariants,
    _classes,
    _commuting,
    _cosets,
    _index,
    _invert,
    _normal_action,
    _orbits,
    _pack,
    _right_products,
    _simple_by_class_equation,
    _subgroup,
    center,
    centralizer_of_subgroup,
    class_fusion,
    closure,
    commuting_images,
    conjugacy_classes,
    conjugate_group,
    conjugation_image,
    derived_subgroup,
    element_orders,
    fingerprint,
    fusion_type,
    index2_overgroups,
    is_a6_certified,
)
from a6k3.pgl9 import build_pgammal29, build_pgl29, build_psl29, classify_overgroups
from a6k3.extbuild import KINDS, alternating6, build_candidate, identify


def naive_closure(gens):
    # independent oracle: multiply everything by every generator until stable
    els = {Perm.identity(gens[0].degree)}
    while True:
        new = {a * g for a in els for g in gens} - els
        if not new:
            return els
        els |= new


def naive_derived(G):
    # independent oracle: close up the commutators [a, b] = a * (b a^-1 b^-1)
    # of all element pairs; b a^-1 b^-1 runs through the class of a^-1
    class_of = {x: cls for cls in naive_classes(G) for x in cls}
    comms = {a * c for a in G.elements for c in class_of[a.inverse()]}
    return naive_closure(sorted(comms))


def naive_fusion(G, A):
    # independent oracle: the A-classes that conjugation by a generator of G
    # moves; only the order-3 and order-5 classes of A6 come in pairs
    classes = naive_classes(A)
    moved = set()
    for s in G.generators:
        for cls in classes:
            x = min(cls)
            if s.inverse() * x * s not in cls:
                moved.add(x.order())
    return FusionType(swaps_3=3 in moved, swaps_5=5 in moved)


def class_of(G, x):
    # independent oracle: the conjugates of x by the whole group
    return frozenset(g * x * g.inverse() for g in G.elements)


def naive_classes(G):
    remaining = set(G.elements)
    classes = []
    while remaining:
        cls = class_of(G, min(remaining))
        classes.append(cls)
        remaining -= cls
    return classes


def test_perm_basics():
    p = Perm.from_cycles([(0, 1), (2, 3, 4)], 6)
    assert p.order() == 6
    assert p.inverse() * p == Perm.identity(6)
    assert p ** 6 == Perm.identity(6)
    assert p.cycle_string() == "(1 2)(3 4 5)"
    with pytest.raises(ValueError):
        Perm((0, 0, 1))
    with pytest.raises(ValueError):
        Perm.identity(3) * Perm.identity(4)


def test_closure_s3():
    G = closure([Perm.from_cycles([(0, 1)], 3), Perm.from_cycles([(0, 1, 2)], 3)])
    assert len(G) == 6
    assert set(G.elements) == naive_closure(list(G.generators))
    # canonical element order is lexicographic on image tuples
    assert list(G.elements) == sorted(G.elements)


def relabeled_closure(G, seed):
    """A fresh closure of G's generators conjugated by a seeded relabeling."""
    imgs = list(range(G.degree))
    random.Random(seed).shuffle(imgs)
    t = Perm(imgs)
    return closure(t * g * t.inverse() for g in G.generators)


def membership_answers(H, probes, others):
    return (
        len(H),
        [H.has_images(x) for x in probes],
        [Perm._raw(x) in H for x in probes],
        [A.is_subgroup_of(H) for A in others],
        [H.is_subgroup_of(A) for A in others],
    )


def test_members_answer_until_the_images_are_read():
    # a closure keeps its members unsorted until its images are read, and
    # answers the same before and after
    G = build_candidate("M10_2").group
    H, twin = relabeled_closure(G, 36), relabeled_closure(G, 36)
    rng = random.Random(37)
    strangers = [bytes(rng.sample(range(G.degree), G.degree)) for _ in range(50)]
    probes = [*twin.images, *strangers, bytes(range(G.degree - 1))]
    others = [twin, derived_subgroup(twin), G]
    before = membership_answers(H, probes, others)
    assert "images" not in vars(H)
    members = set(twin.images)
    assert before[0] == 1440 and before[1] == before[2] == [x in members for x in probes]
    assert before[3:] == ([True, True, False], [True, False, False])
    assert (H == twin, hash(H) == hash(twin), H == G) == (True, True, False)
    assert "images" in vars(H)
    assert membership_answers(H, probes, others) == before


def test_images_are_the_sorted_members():
    H = relabeled_closure(build_candidate("M10_2").group, 38)
    members = H._members
    assert H.images == tuple(sorted(members)) and H.images[0] == H.identity.images
    assert all(x < y for x, y in zip(H.images, H.images[1:]))
    assert H._members is None  # sorting drops the set


def test_identify_leaves_the_canonical_order_unread():
    # identify reads a closure's order, members and generators only
    H = relabeled_closure(build_candidate("M10_2").group, 39)
    assert identify(H) == "M10_2"
    assert "images" not in vars(H)


def test_closure_psl_and_pgammal():
    psl = build_psl29()
    assert len(closure(psl.generators)) == 360
    gam = build_pgammal29()
    assert len(closure(gam.generators)) == 1440


def test_closure_guards(monkeypatch):
    with pytest.raises(ValueError):
        closure([Perm.identity(3), Perm.identity(4)])
    monkeypatch.setattr(permgrp, "MAX_GROUP_ORDER", 30)
    with pytest.raises(ValueError, match="order guard 30"):
        closure([Perm.from_cycles([(0, 1)], 5), Perm.from_cycles([(0, 1, 2, 3, 4)], 5)])


def test_conjugacy_classes_a6():
    G = alternating6()
    cls = conjugacy_classes(G)
    assert tuple((c.element_order, c.size) for c in cls) == A6_CLASS_SHAPE
    assert sum(c.size for c in cls) == 360
    for c in cls:
        assert 360 % c.size == 0
        assert c.representative == min(class_of(G, c.representative))
        assert len(c.power_map) == 60  # group exponent
        assert c.power_map[0] == 0  # rep^0 is the identity class


def test_conjugacy_classes_s3():
    G = closure([Perm.from_cycles([(0, 1)], 3), Perm.from_cycles([(0, 1, 2)], 3)])
    assert tuple(c.size for c in conjugacy_classes(G)) == (1, 3, 2)


def test_conjugacy_classes_m10_against_oracle():
    m10 = classify_overgroups().m10
    # each class is rebuilt from its representative, with its size
    got = {(class_of(m10, c.representative), c.size) for c in conjugacy_classes(m10)}
    want = {(c, len(c)) for c in naive_classes(m10)}
    assert got == want and len(got) == len(conjugacy_classes(m10))
    assert sum(size for _, size in got) == 720


def test_center():
    C4 = closure([Perm.from_cycles([(0, 1, 2, 3)], 4)])
    assert center(C4) == C4
    assert len(center(alternating6())) == 1


def test_derived_subgroup():
    C4 = closure([Perm.from_cycles([(0, 1, 2, 3)], 4)])
    assert len(derived_subgroup(C4)) == 1
    A6 = alternating6()
    assert derived_subgroup(A6) == A6  # perfect
    S3 = closure([Perm.from_cycles([(0, 1)], 3), Perm.from_cycles([(0, 1, 2)], 3)])
    D = derived_subgroup(S3)
    assert len(D) == 3


def test_derived_subgroup_is_the_closure_of_all_commutators():
    # brute force over all pairs of elements; in S4, A4 and S5 the generator
    # commutators close to a subgroup that is not normal, so the derived
    # subgroup needs the normal-closure step of _dimino
    S4 = [Perm.from_cycles([(0, 1)], 4), Perm.from_cycles([(0, 1, 2, 3)], 4)]
    A4 = [Perm.from_cycles([(0, 1, 2)], 4), Perm.from_cycles([(1, 2, 3)], 4)]
    D8 = [Perm.from_cycles([(0, 1, 2, 3)], 4), Perm.from_cycles([(0, 2)], 4)]
    S5 = [Perm.from_cycles([(0, 1)], 5), Perm.from_cycles([(0, 1, 2, 3, 4)], 5)]
    grown = []
    for gens in (S4, A4, D8, S5):
        G = closure(gens)
        commutators = {x.inverse() * y.inverse() * x * y for x in G for y in G}
        assert set(derived_subgroup(G).images) == {c.images for c in naive_closure(sorted(commutators))}
        seeds = naive_closure(sorted({a.inverse() * b.inverse() * a * b for a in gens for b in gens}))
        grown.append(any(s.inverse() * c * s not in seeds for s in gens for c in seeds))
    assert grown == [True, True, False, True]


def test_centralizer():
    A6 = alternating6()
    triv = closure([Perm.identity(6)])
    assert centralizer_of_subgroup(A6, triv) == A6
    with pytest.raises(ValueError):
        centralizer_of_subgroup(triv, A6)  # A6 is not a subgroup of the trivial group


def test_conjugation_image_kernel_is_centralizer():
    gam = build_pgammal29()
    psl = build_psl29()
    image, mapping = conjugation_image(gam, psl)
    ident = image.identity
    kernel = {g for g, img in mapping.items() if img == ident}
    assert kernel == set(centralizer_of_subgroup(gam, psl).elements)
    assert len(image) == len(gam) // len(kernel)


def test_conjugation_image_maps_each_element_to_its_conjugation():
    # mapping[g] sends the label of a to the label of g a g^-1: for every g on
    # A's generators, and on every label for every 37th g.  The M10 candidate
    # has generators that are not involutions, so a walk that steps by the
    # inverse of a generator's image goes wrong
    cand = build_candidate("M10_2")
    G, A = cand.group, cand.a6
    assert any(s != s.inverse() for s in G.generators)
    image, mapping = conjugation_image(G, A)
    label = {a: i for i, a in enumerate(A.elements)}
    for k, g in enumerate(G.elements):
        gi = g.inverse()
        for a in A.elements if k % 37 == 0 else A.generators:
            assert mapping[g][label[a]] == label[g * a * gi]
    assert set(mapping.values()) == set(image.elements)


def test_conjugation_image_requires_normal():
    A6 = alternating6()
    C3 = closure([Perm.from_cycles([(0, 1, 2)], 6)])
    assert len(C3) == 3
    with pytest.raises(ValueError):
        conjugation_image(A6, C3)  # A6 is simple, so C3 is not normal


def test_conjugation_image_requires_generators_of_all_elements():
    # a group that holds A6's elements but only one of its generators: the
    # walk from the identity stops at that generator's powers
    A6 = alternating6()
    s = A6.generators[0]
    short = PermGroup((s,), 6, A6.images)
    assert A6.is_subgroup_of(short) and len(closure([s])) < len(short)
    with pytest.raises(VerificationError, match="do not generate its elements"):
        conjugation_image(short, A6)


def test_fusion_type_requires_the_inner_automorphisms():
    # an image with G's generators but without the inner automorphisms of A
    split, psl = classify_overgroups(), build_psl29()
    image, _ = conjugation_image(split.m10, psl)
    assert fusion_type(ConjugationImage(psl, image.generators, image.elements)) == fusion_type(image)
    for elements in (frozenset([image.identity]), frozenset(image.generators) | {image.identity}):
        with pytest.raises(ValueError, match="inner automorphisms"):
            fusion_type(ConjugationImage(psl, image.generators, elements))


def test_degree_above_256_is_refused():
    # images are bytes, so a permutation acts on at most 256 points
    assert Perm.identity(256).degree == Perm(range(256)).degree == Perm.identity(6).embedded(256).degree == 256
    for build in (lambda: Perm(range(257)), lambda: Perm.identity(257), lambda: Perm.identity(6).embedded(257)):
        with pytest.raises(ValueError, match="exceeds 256"):
            build()


def test_fusion_type_invariant_under_renaming():
    rng = random.Random(99)
    gam = build_pgammal29()
    psl = build_psl29()
    split = classify_overgroups()
    for H, expect in (
        (split.s6, (False, True)),
        (split.pgl, (True, False)),
        (split.m10, (True, True)),
    ):
        image, _ = conjugation_image(H, psl)
        ft = fusion_type(image)
        assert (ft.swaps_3, ft.swaps_5) == expect
        assert class_fusion(H, psl) == ft
        imgs = list(range(10))
        rng.shuffle(imgs)
        t = Perm(imgs)
        H2 = conjugate_group(H, t)
        psl2 = conjugate_group(psl, t)
        image2, _ = conjugation_image(H2, psl2)
        ft2 = fusion_type(image2)
        assert (ft2.swaps_3, ft2.swaps_5) == expect
        assert class_fusion(H2, psl2) == ft2


def test_index2_overgroups():
    gam = build_pgammal29()
    psl = build_psl29()
    subs = index2_overgroups(gam, psl)
    assert len(subs) == 3
    assert all(len(H) == 720 for H in subs)
    assert len({H.elements for H in subs}) == 3
    pgl = build_pgl29()
    with pytest.raises(ValueError):
        index2_overgroups(pgl, psl)  # index 2, not 4
    cand = build_candidate("M10_2")
    with pytest.raises(ValueError, match="not C2 x C2"):
        index2_overgroups(cand.group, cand.a6)  # the quotient is mu4
    S4 = closure([Perm.from_cycles([(0, 1)], 4), Perm.from_cycles([(0, 1, 2, 3)], 4)])
    S3 = closure([Perm.from_cycles([(0, 1)], 4), Perm.from_cycles([(0, 1, 2)], 4)])
    with pytest.raises(ValueError, match="not normal"):
        index2_overgroups(S4, S3)  # index 4, a point stabilizer


def test_fingerprint_examples():
    A6 = alternating6()
    fp = fingerprint(A6)
    assert fp.order == 360 and fp.center_order == 1
    assert fp.abelianization == ()
    assert fp.order_histogram == ((1, 1), (2, 45), (3, 80), (4, 90), (5, 144))
    C4 = closure([Perm.from_cycles([(0, 1, 2, 3)], 4)])
    fp4 = fingerprint(C4)
    assert fp4 == fingerprint(C4)
    assert (fp4.order, fp4.center_order, fp4.abelianization) == (4, 4, (4,))
    assert fp4.order_histogram == ((1, 1), (2, 1), (4, 2))


def test_fingerprint_invariant_under_conjugation():
    rng = random.Random(5)
    for G in (alternating6(), build_pgl29()):
        fp = fingerprint(G)
        imgs = list(range(G.degree))
        rng.shuffle(imgs)
        t = Perm(imgs)
        assert fingerprint(conjugate_group(G, t)) == fp


def test_abelianization_klein_four():
    V4 = closure(
        [Perm.from_cycles([(0, 1)], 4), Perm.from_cycles([(2, 3)], 4)]
    )
    assert fingerprint(V4).abelianization == (2, 2)
    C6 = closure([Perm.from_cycles([(0, 1, 2), (3, 4)], 5)])
    assert fingerprint(C6).abelianization == (6,)
    # two groups of order 16 and exponent 4, told apart by how many elements
    # have order dividing 2
    C4xC4 = closure([Perm.from_cycles([(0, 1, 2, 3)], 8), Perm.from_cycles([(4, 5, 6, 7)], 8)])
    assert fingerprint(C4xC4).abelianization == (4, 4)
    C4xC2xC2 = closure([Perm.from_cycles(c, 8) for c in ([(0, 1, 2, 3)], [(4, 5)], [(6, 7)])])
    assert fingerprint(C4xC2xC2).abelianization == (4, 2, 2)


def test_class_equation_randomized():
    rng = random.Random(1202)
    for _ in range(100):
        degree = rng.randint(3, 6)
        gens = []
        for _ in range(rng.randint(1, 2)):
            imgs = list(range(degree))
            rng.shuffle(imgs)
            gens.append(Perm(imgs))
        G = closure(gens)
        assert set(G.elements) == naive_closure(gens)
        cls = conjugacy_classes(G)
        assert sum(c.size for c in cls) == len(G)
        assert all(len(G) % c.size == 0 for c in cls)
        assert {(class_of(G, c.representative), c.size) for c in cls} == {(k, len(k)) for k in naive_classes(G)}


def test_subgroup_facts_randomized():
    rng = random.Random(1203)
    for _ in range(30):
        degree = rng.randint(3, 6)
        imgs = list(range(degree))
        rng.shuffle(imgs)
        g1 = Perm(imgs)
        rng.shuffle(imgs)
        g2 = Perm(imgs)
        G = closure([g1, g2])
        D = derived_subgroup(G)
        Z = center(G)
        assert len(G) % len(D) == 0 and len(G) % len(Z) == 0
        assert set(D.elements) == naive_derived(G)
        g = rng.choice(G.elements)
        assert all(g * z == z * g for z in Z.elements)
        # derived subgroup is normal: conjugation by every element of G
        # keeps each generator of D inside D
        for g in G.elements:
            gi = g.inverse()
            assert all(g * d * gi in D for d in D.generators)


def test_is_a6_certified(monkeypatch):
    assert is_a6_certified(alternating6())
    assert is_a6_certified(build_psl29())
    assert not is_a6_certified(build_pgl29())
    # the certificate reads element orders as well as sizes: an order stated
    # wrong fails it though every size still matches
    monkeypatch.setattr(permgrp, "A6_CLASS_SHAPE", (*A6_CLASS_SHAPE[:-1], (6, 72)))
    assert not is_a6_certified(alternating6())


def test_class_equation_certifies_simplicity():
    assert _simple_by_class_equation([size for _, size in A6_CLASS_SHAPE])
    # S5 x C3 also has order 360, and its normal subgroups C3, A5 and A5 x C3
    # are unions of classes through 1 whose orders divide 360
    s5_c3 = closure([Perm.from_cycles(c, 8) for c in ([(0, 1)], [(0, 1, 2, 3, 4)], [(5, 6, 7)])])
    sizes = list(map(len, _classes(s5_c3)[0]))
    assert len(s5_c3) == 360 and len(sizes) == 21
    assert not _simple_by_class_equation(sizes)
    assert not is_a6_certified(s5_c3)


def test_certified_groups_are_perfect():
    # the old certificate, derived_subgroup(H) == H, as an oracle on every
    # group the report certifies
    certified = [alternating6(), build_psl29(), *(build_candidate(kind).a6 for kind in KINDS)]
    for H in certified:
        assert is_a6_certified(H)
        assert derived_subgroup(H) == H


@pytest.mark.parametrize("degree", [14, 256])
def test_invert_both_image_formats(degree):
    rng = random.Random(degree)
    one = Perm.identity(degree)
    for _ in range(5):
        images = list(range(degree))
        rng.shuffle(images)
        x = Perm(images)
        inv = _invert(x.images)
        assert type(inv) is type(_pack(images))
        assert x * Perm._raw(inv) == one == Perm._raw(inv) * x
        assert x.inverse().images == inv


@pytest.mark.parametrize("degree", [14, 256])
def test_negative_powers_are_powers_of_the_inverse(degree):
    rng = random.Random(degree + 1)
    images = list(range(degree))
    rng.shuffle(images)
    p = Perm(images)
    power = Perm.identity(degree)
    for k in range(13):
        # p^k as k products, the oracle for the square-and-multiply loop
        assert p**k == power
        assert p ** -k == p.inverse() ** k
        power = power * p


def index_table_groups():
    split = classify_overgroups()
    yield from (build_psl29(), split.s6, split.pgl, split.m10, build_pgammal29())
    yield from (build_candidate(kind).group for kind in KINDS)
    rng = random.Random(1204)
    for _ in range(30):
        degree = rng.randint(3, 6)
        gens = []
        for _ in range(rng.randint(1, 3)):
            imgs = list(range(degree))
            rng.shuffle(imgs)
            gens.append(Perm(imgs))
        yield closure(gens)


def assert_tables_match_perm_arithmetic(G):
    els = G.elements
    # the index order is the canonical order, with the identity first
    assert list(els) == sorted(els) and els[0] == G.identity
    assert _index(G) == {x.images: i for i, x in enumerate(els)}
    action = _normal_action(G, G)
    assert len(action) == len(G.generators)
    for s, conj in zip(G.generators, action):
        assert [els[i] for i in conj] == [s.inverse() * x * s for x in els]
    # right multiplication by several elements, one pass over the images
    # each, on all of G and on every other element
    rights = (els[-1], els[len(els) // 2]) + G.generators
    for xs in (els, els[1::2]):
        products = _right_products([x.images for x in xs], G.degree, rights)
        assert len(products) == len(rights)
        for a, images in zip(rights, products):
            assert list(map(Perm, images)) == [x * a for x in xs]


def test_index_tables_against_perm_arithmetic():
    for G in index_table_groups():
        assert_tables_match_perm_arithmetic(G)


@pytest.mark.parametrize("degree", [1, 2, 14, 256])
def test_image_format_boundary(degree):
    # images are bytes, up to the full 256-entry table; every degree must
    # give the same group arithmetic, with points near the top moved
    if degree == 1:
        gens = [Perm.identity(1)]
    else:
        pts = sorted({0, degree // 2, degree - 2, degree - 1})
        gens = [Perm.from_cycles([pts], degree), Perm.from_cycles([pts[-2:]], degree)]
    for p in gens:
        assert type(p.images) is bytes
        assert Perm(p.images) == Perm(tuple(p.images)) == Perm(list(p.images)) == p
    G = closure(gens)
    assert set(G.elements) == naive_closure(gens)
    assert len(G) == (1 if degree == 1 else 2 if degree == 2 else 24)
    # a Perm hashes as its stored images, however it was given
    index = {x: i for i, x in enumerate(G.elements)}
    for i, x in enumerate(G.elements):
        assert index[Perm(x.images)] == index[Perm(tuple(x.images))] == index[Perm(list(x.images))] == i
    assert_tables_match_perm_arithmetic(G)
    imgs = list(range(degree))
    random.Random(degree).shuffle(imgs)
    t = Perm(imgs)
    H = conjugate_group(G, t)
    assert H.elements == tuple(sorted(t * g * t.inverse() for g in G.elements))
    assert H.generators == tuple(sorted(t * g * t.inverse() for g in G.generators))
    for p in G.elements:
        for q in gens:
            assert p.embedded(256) * q.embedded(256) == (p * q).embedded(256)
    # the subgroup facts are passes over images; they must agree with Perm
    # arithmetic at every degree
    assert set(derived_subgroup(G).elements) == naive_derived(G)
    for A in (G, closure(gens[:1])):
        commuting = {x for x in G.elements if all(x * a == a * x for a in A.elements)}
        assert set(centralizer_of_subgroup(G, A).elements) == commuting
    assert center(G) == centralizer_of_subgroup(G, G)
    # by the derived subgroup, and above degree 2 by a cyclic subgroup that is
    # not normal
    for H in (derived_subgroup(G), closure(gens[:1])):
        assert_cosets_match_perm_arithmetic(G, H)
    if degree >= 10:
        # the overgroups of PSL(2,9) on the top ten points
        def top(H):
            shift = degree - 10
            return closure([Perm([*range(shift), *(shift + j for j in g.images)]) for g in H.generators])

        psl, split = top(build_psl29()), classify_overgroups()
        for H in (split.s6, split.pgl, split.m10):
            H = top(H)
            assert derived_subgroup(H) == psl
            assert class_fusion(H, psl) == naive_fusion(H, psl)


@pytest.mark.parametrize("degree", [14, 256])
def test_conjugation_over_padded_images(degree):
    # one pad per image serves every conjugating element
    rng = random.Random(degree)

    def shuffled():
        imgs = list(range(degree))
        rng.shuffle(imgs)
        return Perm(imgs)

    xs = [Perm.identity(degree)] + [shuffled() for _ in range(6)]
    pads = list(permgrp._pads([x.images for x in xs], degree))
    for s in [shuffled() for _ in range(3)] + [xs[1]]:
        conj = permgrp._conjugation(s)
        for _ in range(2):  # the pads are read, never consumed
            assert list(map(Perm._raw, conj(pads))) == [s.inverse() * x * s for x in xs]
    # the commuting filter, inside a group and from outside it
    pts = sorted({0, degree // 2, degree - 2, degree - 1})
    G = closure([Perm.from_cycles([pts], degree), Perm.from_cycles([pts[-2:]], degree)])
    for g in (*G.generators, G.elements[5], xs[2], Perm.from_cycles([pts[:2]], degree)):
        assert commuting_images(G, g) == [x.images for x in G.elements if x * g == g * x]
    with pytest.raises(ValueError, match="degree mismatch"):
        commuting_images(G, Perm.identity(degree - 1))


@pytest.mark.parametrize("degree", [1, 2, 14, 256])
def test_commuting_by_columns_against_perm_arithmetic(degree):
    # seeded member lists that are no group, with repeats, against x a == a x
    rng = random.Random(3950 + degree)

    def shuffled(points):
        # a random permutation of the given points that fixes the others
        imgs, targets = list(range(degree)), list(points)
        rng.shuffle(targets)
        for p, q in zip(points, targets):
            imgs[p] = q
        return Perm(imgs)

    low, high = range(degree // 2), range(degree // 2, degree)
    one = Perm.identity(degree)
    # the identity, a random a, and two that fix point 0
    for a in (one, shuffled(range(degree)), shuffled(high), shuffled(range(1, degree))):
        xs = [shuffled(range(degree)) for _ in range(12)] + [shuffled(low) for _ in range(4)]
        xs += [a**k for k in range(3)] + [a * x for x in xs[-6:]]
        rng.shuffle(xs)
        xs += xs[:3]
        for members in ([], [one.images], [x.images for x in xs]):
            expected = [x for x in members if Perm._raw(x) * a == a * Perm._raw(x)]
            assert _commuting(members, degree, a) == expected
            # the members in a set's order, as the centralizer filter reads them
            assert _commuting(set(members), degree, a) == [x for x in set(members) if x in expected]
        if degree >= 14 and a != one:
            assert 0 < len(expected) < len(members)  # the filter keeps some and drops some


def test_commuting_on_candidates_against_perm_arithmetic():
    # each candidate's members against its A6 generators and the identity
    cases = [(c.group, c.a6.generators) for c in map(build_candidate, KINDS)]
    for G, gens in cases:
        for a in (*gens, Perm.identity(G.degree)):
            expected = [x.images for x in G.elements if x * a == a * x]
            assert _commuting(G.images, G.degree, a) == expected


def test_commuting_needs_no_conjugation(monkeypatch):
    # the centralizer filter is the column test alone: with no conjugation
    # map it still finds C_G(A6) and what commutes with gtilde
    cand = build_candidate("M10_2")
    G, A, g = cand.group, cand.a6, cand.gtilde
    kept = sorted(x.images for x in G.elements if all(x * a == a * x for a in A.generators))
    commuting = [x.images for x in G.elements if x * g == g * x]

    def refused(s):
        raise AssertionError("the commuting filter conjugated")

    monkeypatch.setattr(permgrp, "_conjugation", refused)
    fresh = PermGroup(G.generators, G.degree, set(G.images))
    assert G.degree == 14 and len(kept) == 2
    assert centralizer_of_subgroup(fresh, A).images == tuple(kept)
    assert commuting_images(G, g) == commuting


def test_class_fusion_reads_the_outer_generators():
    # a generator inside A maps every class of A to itself: generators of A
    # added to G's change no fusion, and conjugation_image, which acts by
    # all of G's generators, agrees
    psl, split = build_psl29(), classify_overgroups()
    pairs = [(H, psl) for H in (split.s6, split.pgl, split.m10)]
    pairs += [(c.group, c.a6) for c in map(build_candidate, KINDS)]
    rng = random.Random(23)
    for H, A in pairs:
        ft = class_fusion(H, A)
        assert ft == fusion_type(conjugation_image(H, A)[0])
        for extra in (A.generators, rng.sample(A.elements, 3)):
            more = PermGroup(H.generators + tuple(extra), H.degree, H.images)
            assert class_fusion(more, A) == ft
        assert class_fusion(A, A) == FusionType(swaps_3=False, swaps_5=False)
    # skipping the generators inside A skips no failing normality test
    S4 = closure([Perm.from_cycles([(0, 1)], 4), Perm.from_cycles([(0, 1, 2, 3)], 4)])
    A = closure([Perm.from_cycles([(0, 1)], 4)])
    assert A.generators[0] in S4.generators
    with pytest.raises(ValueError, match="A is not normal in G"):
        class_fusion(S4, A)
    cand = build_candidate("M10_2")
    for G in (cand.group, PermGroup(cand.group.generators + cand.a6.generators, cand.group.degree, cand.group.images)):
        with pytest.raises(ValueError, match="A is not normal in G"):
            class_fusion(G, closure(cand.a6.generators[:1]))


def test_subgroup_generators_close_to_the_members():
    # center and centralizer_of_subgroup name only the members; the derived
    # generators are not redundant, so each one at least doubles the order
    A6 = alternating6()
    triv = closure([Perm.identity(6)])
    groups = [centralizer_of_subgroup(A6, triv), center(A6)]
    for G in index_table_groups():
        groups += [center(G), centralizer_of_subgroup(G, closure(G.generators[:1]))]
    for H in groups:
        assert 2 ** len(H.generators) <= len(H)
        if len(H) > 1:
            assert closure(H.generators).elements == H.elements
        else:
            assert H.generators == ()
    assert len(groups[0].generators) < 9
    # a member set that is not closed fails the closure check
    x = next(x for x in A6.elements if x.order() == 3)
    with pytest.raises(VerificationError, match="not the closure"):
        _subgroup(A6, [A6.identity.images, x.images])


def test_subgroup_generators_must_generate_the_members():
    # given generators are checked at construction: a 3-cycle does not
    # generate A6, and A6 is not the closure of any generator with one missing
    A6 = alternating6()
    x = next(x for x in A6.elements if x.order() == 3)
    with pytest.raises(VerificationError, match="not the closure"):
        _subgroup(A6, A6.images, [x.images])
    gens = [g.images for g in A6.generators]
    with pytest.raises(VerificationError, match="not the closure"):
        _subgroup(A6, A6.images, gens[1:])
    assert _subgroup(A6, A6.images, gens) == A6
    assert _subgroup(A6, seeds=gens) == A6


def test_element_orders_against_perm_orders():
    for G in index_table_groups():
        assert element_orders(G) == tuple(x.order() for x in G.elements)
    # the fingerprint reads orders and the center off the class partition;
    # check it on the four candidates, M10 and PGammaL(2,9) against
    # per-element orders and the brute-force set of commuting elements
    for G in (*(build_candidate(kind).group for kind in KINDS), classify_overgroups().m10, build_pgammal29()):
        fp = fingerprint(G)
        assert fp.order_histogram == tuple(sorted(Counter(x.order() for x in G.elements).items()))
        assert fp.center_order == sum(all(x * s == s * x for s in G.generators) for x in G.elements)


def assert_cosets_match_perm_arithmetic(G, H):
    parts = tuple(tuple(map(Perm, part)) for part in _cosets(G, H))
    # the cosets partition G, ordered by least member, H first
    assert parts[0] == H.elements
    assert sorted(x for c in parts for x in c) == list(G.elements)
    assert [c[0] for c in parts] == sorted(c[0] for c in parts)
    for c in parts:
        assert list(c) == sorted(c) and set(c) == {h * c[0] for h in H.elements}


def test_cosets_against_perm_arithmetic():
    for G in index_table_groups():
        for H in (derived_subgroup(G), center(G), closure(G.generators[:1])):
            assert_cosets_match_perm_arithmetic(G, H)


def test_cosets_build_no_index_tables(monkeypatch):
    # the cosets are composition passes over images: neither G nor H is
    # numbered by index
    cand = build_candidate("M10_2")
    G, A = closure(cand.group.generators), closure(cand.a6.generators)
    indexed, index = [], permgrp._index

    def recording(G):
        indexed.append(len(G))
        return index(G)

    monkeypatch.setattr(permgrp, "_index", recording)
    assert len(_cosets(G, A)) == 4
    assert indexed == []


def naive_orbits(n, tables):
    # independent oracle: close each point under the tables until nothing
    # new appears, then keep one copy of each closure
    orbits = set()
    for x in range(n):
        orbit = {x}
        while (grown := orbit | {T[y] for T in tables for y in orbit}) != orbit:
            orbit = grown
        orbits.add(frozenset(orbit))
    return sorted(sorted(o) for o in orbits)


def test_orbits_of_hand_made_tables():
    assert _orbits(4, []) == [[0], [1], [2], [3]]
    assert _orbits(4, [[0, 1, 2, 3]]) == [[0], [1], [2], [3]]
    # (0 3)(1 4 2) and the fixed point 5
    assert _orbits(6, [[3, 4, 1, 0, 2, 5]]) == [[0, 3], [1, 2, 4], [5]]
    # (0 1)(2 3) and (1 2) merge into one orbit; 4 stays alone
    assert _orbits(5, [[1, 0, 3, 2, 4], [0, 2, 1, 3, 4]]) == [[0, 1, 2, 3], [4]]


def test_orbits_against_closure_oracle():
    rng = random.Random(3401)
    for _ in range(50):
        n = rng.randint(1, 40)
        tables = [rng.sample(range(n), n) for _ in range(rng.randint(0, 3))]
        # the oracle's orbits are ascending lists ordered by least member,
        # so equality pins the order as well as the partition
        assert _orbits(n, tables) == naive_orbits(n, tables)


def test_orbits_walk_a_long_cycle_without_recursion():
    n = 5000
    assert _orbits(n, [[(i + 1) % n for i in range(n)]]) == [list(range(n))]


def test_image_format_stays_in_permgrp():
    # only _pack, _pad, _pads, _rmul, _invert, _conjugation and _commuting know
    # how images are stored, and no other module composes raw images itself
    src = Path(a6k3.__file__).parent
    pattern = re.compile(r"\b(_pack|_pad|_pads|_rmul|_invert|_conjugation|_commuting|translate|maketrans)\b")
    leaks = [p.name for p in sorted(src.glob("*.py")) if p.name != "permgrp.py" and pattern.search(p.read_text())]
    assert leaks == []


def test_walks_over_corrupted_images_are_bounded():
    # images that are no permutation: the walk from 2 enters the cycle of
    # points 0 and 1 and never returns to 2
    bad = bytes([1, 0, 0])
    with pytest.raises(VerificationError, match="do not form a permutation"):
        Perm._raw(bad).cycles()
    # a "group" holding that map: its powers never reach the trivial coset,
    # so the walk stops at the index
    one = bytes([0, 1, 2])
    with pytest.raises(VerificationError, match="exceeds the index"):
        _abelian_invariants(PermGroup((), 3, (one, bad)), PermGroup((), 3, (one,)))
    # Dimino's closure stops at the first coset that meets the closed set
    with pytest.raises(VerificationError, match="a new coset meets the closed set"):
        closure([Perm._raw(bad), Perm.from_cycles([(1, 2)], 3)])
