"""The projective line over GF(9) and the groups acting on it.

GF(9) is fixed as F3[i] with i^2 = -1 (-1 is a non-square mod 3).  The ten
points of the projective line are ordered [1:0] first, then [x:1] with x
running through the fixed field enumeration; every golden output in the
package relies on that point order.  On top of the Moebius action this
module builds the tower PSL(2,9) < {S6, PGL(2,9), M10} < PGammaL(2,9) and
labels the middle layer by conjugacy-class fusion.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cache

from .permgrp import (
    FusionType,
    Perm,
    PermGroup,
    _classes,
    class_fusion,
    closure,
    derived_subgroup,
    element_orders,
    index2_overgroups,
    is_a6_certified,
    require,
)

__all__ = [
    "F9",
    "moebius_perm",
    "frobenius_perm",
    "build_pgl29",
    "build_pgammal29",
    "build_psl29",
    "classify_overgroups",
    "OvergroupSplit",
    "m10_order4_class_check",
    "M10CosetFacts",
]


class F9:
    """An element a + b*i of GF(9) = F3[i], residues mod 3."""

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int = 0):
        object.__setattr__(self, "a", a % 3)
        object.__setattr__(self, "b", b % 3)

    def __setattr__(self, name, value):
        raise AttributeError("F9 is immutable")

    def __add__(self, other):
        return F9(self.a + other.a, self.b + other.b)

    def __sub__(self, other):
        return F9(self.a - other.a, self.b - other.b)

    def __neg__(self):
        return F9(-self.a, -self.b)

    def __mul__(self, other):
        # (a + bi)(c + di) with i^2 = -1
        return F9(self.a * other.a - self.b * other.b, self.a * other.b + self.b * other.a)

    def inverse(self) -> "F9":
        if self.is_zero():
            raise ZeroDivisionError("0 has no inverse in GF(9)")
        norm = (self.a * self.a + self.b * self.b) % 3  # (a+bi)(a-bi)
        inv_norm = norm  # 1^-1 = 1, 2^-1 = 2 mod 3
        return F9(self.a * inv_norm, -self.b * inv_norm)

    def __truediv__(self, other):
        return self * other.inverse()

    def __pow__(self, k: int) -> "F9":
        out, base = F9(1), self if k >= 0 else self.inverse()
        for bit in reversed(f"{abs(k):b}"):  # one step per bit of |k|
            if bit == "1":
                out = out * base
            base = base * base
        return out

    def frobenius(self) -> "F9":
        return self ** 3

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def __eq__(self, other):
        return isinstance(other, F9) and self.a == other.a and self.b == other.b

    def __hash__(self):
        return hash((self.a, self.b))

    def __repr__(self):
        return f"F9({self.a},{self.b})"


@cache
def f9_elements() -> tuple[F9, ...]:
    """Fixed enumeration of GF(9): (a, b) lexicographic."""
    return tuple(F9(a, b) for a in range(3) for b in range(3))


# Projective points indexed 0..9: index 0 is [1:0], index 1 + k is [x_k : 1].
INFINITY = 0


def _point_of(x: F9, y: F9) -> int:
    if y.is_zero():
        if x.is_zero():
            raise ValueError("[0:0] is not a projective point")
        return INFINITY
    value = x / y
    return 1 + f9_elements().index(value)


def moebius_perm(a: F9, b: F9, c: F9, d: F9) -> Perm:
    """The permutation of the 10 points induced by [x:y] |-> [ax+by : cx+dy]."""
    det = a * d - b * c
    if det.is_zero():
        raise ValueError("matrix is singular over GF(9)")
    images = [0] * 10
    images[INFINITY] = _point_of(a, c)
    for k, x in enumerate(f9_elements()):
        images[1 + k] = _point_of(a * x + b, c * x + d)
    return Perm(images)


@cache
def frobenius_perm() -> Perm:
    """Coordinate-wise x |-> x^3 on the projective line."""
    images = [INFINITY]
    for x in f9_elements():
        images.append(1 + f9_elements().index(x.frobenius()))
    return Perm(images)


@cache
def build_pgl29() -> PermGroup:
    """PGL(2,9) on the 10 projective points, order 720."""
    one = F9(1)
    zero = F9(0)
    gen = F9(1, 1)  # multiplicative generator of GF(9)^x, order 8
    require(all((gen ** k) != one for k in range(1, 8)) and gen ** 8 == one, "1+i does not have order 8")
    gens = [
        moebius_perm(one, one, zero, one),   # x |-> x + 1
        moebius_perm(gen, zero, zero, one),  # x |-> g*x
        moebius_perm(zero, one, one, zero),  # x |-> 1/x
    ]
    G = closure(gens)
    require(len(G) == 720, f"PGL(2,9) has order {len(G)}, not 720")
    return G


@cache
def build_pgammal29() -> PermGroup:
    """PGammaL(2,9) = <PGL(2,9), Frobenius>, order 1440."""
    G = closure(build_pgl29().generators + (frobenius_perm(),))
    require(len(G) == 1440, f"PGammaL(2,9) has order {len(G)}, not 1440")
    return G


@cache
def build_psl29() -> PermGroup:
    """PSL(2,9), obtained as the derived subgroup of PGL(2,9); certified A6."""
    H = derived_subgroup(build_pgl29())
    require(is_a6_certified(H), "PSL(2,9) fails the A6 certificate")
    return H


class OvergroupSplit(namedtuple("OvergroupSplit", "s6 pgl m10")):
    """The three index-2 overgroups of PSL(2,9), labeled by class fusion."""

    __slots__ = ()


# the class pairs of PSL(2,9) that each overgroup swaps: S6 the 5s, PGL(2,9)
# the 3s, M10 both
_FUSIONS = OvergroupSplit(
    s6=FusionType(swaps_3=False, swaps_5=True),
    pgl=FusionType(swaps_3=True, swaps_5=False),
    m10=FusionType(swaps_3=True, swaps_5=True),
)


def _split_overgroups(gam: PermGroup, psl: PermGroup) -> OvergroupSplit:
    subs = index2_overgroups(gam, psl)
    fusions = [class_fusion(H, psl) for H in subs]
    require(sorted(fusions) == sorted(_FUSIONS), "the overgroups do not show the three fusion patterns")
    return OvergroupSplit(*(subs[fusions.index(f)] for f in _FUSIONS))


@cache
def classify_overgroups() -> OvergroupSplit:
    """Label the overgroups of PSL(2,9) inside PGammaL(2,9) by fusion pattern."""
    split = _split_overgroups(build_pgammal29(), build_psl29())
    # the fusion label "pgl" must recover the Moebius group as an element set
    require(split.pgl == build_pgl29(), "fusion labeling disagrees with the Moebius group")
    return split


class M10CosetFacts(namedtuple("M10CosetFacts", "involutions_outside order4_outside_one_class order4_count")):
    """Element-order facts about the nontrivial coset of PSL(2,9) in M10."""

    __slots__ = ()


def m10_order4_class_check(m10: PermGroup, psl: PermGroup) -> M10CosetFacts:
    """Element-order facts about the nontrivial coset of PSL(2,9) in M10."""
    if not psl.is_subgroup_of(m10) or len(m10) != 2 * len(psl):
        raise ValueError("psl must have index 2 in m10")
    # element indices of the coset; classes are ascending index lists
    coset = [(i, o) for i, (x, o) in enumerate(zip(m10.images, element_orders(m10))) if not psl.has_images(x)]
    quads = [i for i, o in coset if o == 4]
    return M10CosetFacts(
        involutions_outside=sum(o == 2 for i, o in coset),
        order4_outside_one_class=quads in _classes(m10)[0],
        order4_count=len(quads),
    )
