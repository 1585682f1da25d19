"""Small-degree permutation groups by full enumeration.

Groups at this scale (a few thousand elements at most) are materialized
completely; no stabilizer chains.  Canonical element order is lexicographic
on image sequences, and every deterministic-output contract in the package
refers to that order.  Subgroup-producing operations re-verify Lagrange and
normality facts instead of trusting the caller.

A permutation's images are stored as bytes up to degree 256 and as a tuple
above; only `_pack`, `_pad`, `_pads`, `_rmul`, `_lmul`, `_invert`,
`_conjugation`, `_commuting` and `_right_products` know which.  Bytes cache
their hash and sort like tuples of ints; a product is one `translate` call.
`_conjugation` takes images padded by `_pads`, two C calls per element, so a
pass that conjugates the same images by several elements pads them once;
the pads are transient and never memoized on a group.  A group holds all
of its images, and nothing is enumerated lazily: `closure` runs `_dimino`,
Dimino's algorithm (G. Butler, *Fundamental Algorithms for Permutation
Groups*, LNCS 559, 1991), which checks that each new coset is disjoint from
the closed set, and hands over its set of images unsorted.  The ascending
tuple `G.images`, the canonical order, is sorted from that set when first
read, which drops the set, so a group that nobody reads in order is never
sorted; `G.elements` wraps the images in `Perm`s when first read.
Membership is the set while it is kept, then a bisection of `G.images`; the
order, membership and generators need no sort.  Facts about a subgroup A
of G are C passes over images: the derived subgroup, centralizers, the
right cosets (`_cosets`) and `_normal_action`, the one conjugation action
of G on A's element indices, which `_index(A)` numbers.  The classes of G
are the orbits of `_normal_action(G, G)`; class fusion and the normality
of an overgroup's subgroup read it only by the generators outside the
subgroup, since one inside maps every class to itself.  `_dimino` is the
one closure, plain or normal; `_orbits` the one orbit partition, one
labelling pass that returns ascending lists, and `_fusion` the one
class-fusion routine; only `conjugation_image` walks the Cayley graph of G,
from the identity.

One cache policy: data derived from a group is memoized on that group by
`group_cache`, so it is freed with the group and never answers for another
group with the same elements.  `functools.cache` is only for module-level
builders of fixed objects, so that one scan of the package's modules finds
every memo and `cache_clear` resets it; rebuilt groups start with empty
memos of their own.

One way to fail a check: a fact the package verifies and finds false raises
`VerificationError` through `require`, which `python -O` does not strip.
Bad caller input raises `ValueError`.

One record idiom across the package: a value (`ConjClassData`, `FusionType`,
`Fingerprint`) is a `collections.namedtuple` subclass with `__slots__ = ()`,
equal and hashed by its fields and immutable; a computed result that holds
groups or tables is a plain class, equal only to itself.  No record
serializes itself: `cli` alone writes the report.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter, namedtuple
from functools import cached_property, reduce, wraps
from itertools import chain, compress, repeat
from math import gcd, lcm, prod
from operator import add, attrgetter, eq, itemgetter

MAX_GROUP_ORDER = 10**6

__all__ = [
    "MAX_GROUP_ORDER",
    "VerificationError",
    "require",
    "Perm",
    "PermGroup",
    "ConjClassData",
    "FusionType",
    "Fingerprint",
    "group_cache",
    "closure",
    "conjugacy_classes",
    "element_orders",
    "center",
    "derived_subgroup",
    "centralizer_of_subgroup",
    "commuting_images",
    "conjugation_image",
    "class_fusion",
    "fusion_type",
    "index2_overgroups",
    "fingerprint",
    "conjugate_group",
    "is_a6_certified",
    "A6_CLASS_SHAPE",
]

# The classes of A6 in canonical class order, as (element order, size) pairs
A6_CLASS_SHAPE = ((1, 1), (2, 45), (3, 40), (3, 40), (4, 90), (5, 72), (5, 72))


class VerificationError(Exception):
    """A fact the package checks turned out to be false."""


def require(condition, message: str) -> None:
    """Raise VerificationError(message) unless condition holds."""
    if not condition:
        raise VerificationError(message)


class Perm:
    """A permutation of {0, ..., degree-1}, stored as its images in the
    format of `_pack`: bytes up to degree 256, a tuple of ints above."""

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a bijection of 0..{len(images)-1}: {images}")
        self.images = _pack(images)

    @classmethod
    def _raw(cls, images) -> "Perm":
        # Internal fast path: caller guarantees images is valid and packed.
        p = object.__new__(cls)
        p.images = images
        return p

    @classmethod
    def identity(cls, degree: int) -> "Perm":
        return cls._raw(_pack(range(degree)))

    @property
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Perm") -> "Perm":
        # (p * q)(x) = p(q(x)): apply q first.
        a = self.images
        b = other.images
        if len(a) != len(b):
            raise ValueError("degree mismatch")
        return Perm._raw(_rmul(b)(_pad(a)))

    def inverse(self) -> "Perm":
        return Perm._raw(_invert(self.images))

    def __pow__(self, k: int) -> "Perm":
        out, base = Perm.identity(self.degree), self if k >= 0 else self.inverse()
        for bit in reversed(f"{abs(k):b}"):  # one step per bit of |k|
            if bit == "1":
                out = out * base
            base = base * base
        return out

    def order(self) -> int:
        cyc = self.cycles()
        return lcm(*(len(c) for c in cyc)) if cyc else 1

    def cycles(self) -> tuple[tuple[int, ...], ...]:
        """Nontrivial cycles, each starting at its least point, sorted."""
        seen = [False] * len(self.images)
        out = []
        for start in range(len(self.images)):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            p = self.images[start]
            # a cycle has at most degree points; images that are no permutation may never close it
            while p != start and len(cyc) < len(seen):
                cyc.append(p)
                seen[p] = True
                p = self.images[p]
            require(p == start, "the images do not form a permutation")
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return tuple(out)

    def cycle_string(self) -> str:
        """Cycle notation, 1-based points, "()" for the identity."""
        cyc = self.cycles()
        if not cyc:
            return "()"
        return "".join("(" + " ".join(str(p + 1) for p in c) + ")" for c in cyc)

    @classmethod
    def from_cycles(cls, cycles, degree: int) -> "Perm":
        images = list(range(degree))
        for cyc in cycles:
            for i, p in enumerate(cyc):
                images[p] = cyc[(i + 1) % len(cyc)]
        return cls(images)

    def embedded(self, degree: int) -> "Perm":
        """The same permutation acting on a larger set, fixed elsewhere."""
        if self.degree > degree:
            raise ValueError("embedding does not fit")
        return Perm._raw(_pack([*self.images, *range(self.degree, degree)]))

    def __eq__(self, other):
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self):
        # bytes cache their own hash
        return hash(self.images)

    def __lt__(self, other):
        return self.images < other.images

    def __repr__(self):
        return f"Perm[{self.cycle_string()}]"


# Only these helpers know the image format.  Up to degree 256 images are
# bytes: they hash once and compare like tuples of ints, x * s is
# s.translate(x padded to 256 entries) (`_rmul`) and s * x is
# x.translate(s padded) (`_lmul`), one C call each, so s^-1 x s is two from
# a padded x (`_conjugation`); x^-1 is one `maketrans` (`_invert`).  Above,
# they are tuples composed by itemgetter; conjugation_image acts on 360 points.
# `_commuting` pads no member: it maps columns of the members' joined images.
# _TAILS[n]: the points n..255, which an n-point image fixes as a table
_TAILS = [bytes(range(256))[n:] for n in range(257)]


def _pack(images):
    """The stored images of a permutation given by a sized sequence of ints."""
    return bytes(images) if len(images) <= 256 else tuple(images)


def _pad(x):
    """x as the argument of `_rmul(s)`: bytes grow to a 256-entry translation
    table by the points it fixes; tuples stay."""
    return x + _TAILS[len(x)] if type(x) is bytes else x


def _pads(xs, degree: int):
    """map(_pad, xs) for stored images of the given degree, one C pass."""
    return map(add, xs, repeat(_TAILS[degree])) if degree <= 256 else xs


def _rmul(s):
    """The map _pad(x) |-> x * s on stored images, one C call per x."""
    return s.translate if type(s) is bytes else itemgetter(*s)


def _lmul(a):
    """The map xs |-> (a * x for x in xs) on stored images, one C call per x."""
    t = _pad(a)
    if type(t) is bytes:
        return lambda xs: map(bytes.translate, xs, repeat(t))
    return lambda xs: (itemgetter(*x)(t) for x in xs)


def _invert(x):
    """The stored images of x^-1: the table that maps x to the identity."""
    if type(x) is bytes:
        return bytes.maketrans(x, _TAILS[0][: len(x)])[: len(x)]
    return tuple(sorted(range(len(x)), key=x.__getitem__))


def _conjugation(s: Perm):
    """The map pads |-> (s^-1 x s for x in the images padded by `_pads`):
    x * s and then s^-1 * (x * s), two C calls per x.  A pass that conjugates
    the same images by several elements pads them once."""
    left, right = _lmul(_invert(s.images)), _rmul(s.images)
    return lambda pads: left(map(right, pads))


def _commuting(members, degree: int, a: Perm) -> list:
    """The members x with x a = a x, in their order: x(a(p)) = a(x(p)) at each
    point p that a moves, column p of the survivors' joined images mapped by
    a against column a(p).  The moved points decide: there a(x(p)) = x(a(p))
    differs from x(p), so x maps Mov(a) into, hence onto, itself, and Fix(a)
    onto itself, where both sides are x(p).  For a = 1 every member passes."""
    table, members = _pad(a.images), list(members)
    join = b"".join if type(table) is bytes else lambda xs: tuple(chain.from_iterable(xs))
    for p in [p for p in range(degree) if table[p] != p]:
        flat = join(members)
        column = flat[p::degree]
        mapped = column.translate(table) if type(column) is bytes else map(table.__getitem__, column)
        members = list(compress(members, map(eq, mapped, flat[table[p]::degree])))
    return members


def _right_products(xs, degree: int, rights) -> list:
    """For each a in rights, the stored images of x * a for each stored x in
    xs, in their order: one C call per product, the xs padded once for all."""
    pads = list(_pads(xs, degree))
    return [map(_rmul(a.images), pads) for a in rights]


def _dimino(seeds, degree: int, conjugations=()) -> tuple[set, list]:
    """The stored images of <seeds>, and the seeds that were not redundant.

    Dimino's algorithm: adding x to the closed set <used> makes a union of
    right cosets <used> * r.  A representative times a generator lies in a
    known coset or starts a new one, so each new element costs one
    composition.  Given conjugations, the maps of `_conjugation` for the
    generators of a group G, it returns the normal closure of <seeds> in G:
    when the seeds run out, the conjugates of the new generators that escape
    the closed set are the next seeds, until none escapes.
    """
    one = _pack(range(degree))
    els = {one}
    used = []
    while seeds:
        new = len(used)
        for x in seeds:
            if x in els:
                continue
            base = list(_pads(els, degree))
            used.append(x)
            muls = [_rmul(s) for s in used]
            reps = [one]
            for r in reps:
                r = _pad(r)
                for mul in muls:
                    if (y := mul(r)) not in els:
                        size = len(els) + len(base)
                        els.update(map(_rmul(y), base))
                        # the right cosets of <used> are disjoint and of one size (Lagrange)
                        require(len(els) == size, "a new coset meets the closed set")
                        if size > MAX_GROUP_ORDER:
                            raise ValueError(f"closure exceeds the order guard {MAX_GROUP_ORDER}")
                        reps.append(y)
        pads = list(_pads(used[new:], degree))
        seeds = [y for step in conjugations for y in step(pads) if y not in els]
    return els, used


def _orbits(n: int, tables) -> list[list[int]]:
    """The orbits of range(n) under the int tables as ascending lists,
    ordered by least member: one labelling pass, in which each unseen point
    starts a list that grows while it is walked, so nothing recurses."""
    seen, orbits = [False] * n, []
    for x in range(n):
        if not seen[x]:
            seen[x] = True
            orbit = [x]
            for y in orbit:
                for T in tables:
                    if not seen[z := T[y]]:
                        seen[z] = True
                        orbit.append(z)
            orbit.sort()
            orbits.append(orbit)
    return orbits


def group_cache(fn):
    """Memoize fn(G, *args, **kwargs) in G's own memo, freed with G."""

    @wraps(fn)
    def cached(G, *args, **kwargs):
        key = (fn, args, tuple(kwargs.items()))
        if key not in G._memo:
            G._memo[key] = fn(G, *args, **kwargs)
        return G._memo[key]

    return cached


_images_of = attrgetter("images")


class PermGroup:
    """A finitely generated permutation group with its full element set."""

    def __init__(self, generators, degree: int, images, point_labels=None):
        gens = tuple(sorted(set(generators), key=_images_of))
        if any(g.degree != degree for g in gens):
            raise ValueError("generators act on different degrees")
        self._degree = degree
        self._gens = gens
        # the stored images of the elements: their ascending tuple, or a set
        # of them, kept until `images` is first read
        self._members = images if type(images) is set else None
        if self._members is None:
            self.images = images
        self.point_labels = point_labels
        self._memo = {}

    @property
    def degree(self) -> int:
        return self._degree

    @property
    def generators(self) -> tuple[Perm, ...]:
        return self._gens

    @cached_property
    def images(self) -> tuple:
        """The stored images of the elements, ascending; the identity is first.
        Sorted from the members set on the first read, which drops the set."""
        images, self._members = tuple(sorted(self._members)), None
        return images

    @cached_property
    def elements(self) -> tuple[Perm, ...]:
        """The elements in canonical order, wrapped when first read."""
        return tuple(map(Perm._raw, self.images))

    @property
    def identity(self) -> Perm:
        return Perm.identity(self._degree)

    def __len__(self):
        return len(self._members or self.images)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, perm):
        return self.has_images(perm.images)

    def has_images(self, x) -> bool:
        """Membership of the permutation with stored images x: in the members
        set while the images are unsorted, then by bisection."""
        if self._members is not None:
            return x in self._members
        imgs = self.images  # x >= imgs[0], the identity, so the index is never -1
        return len(x) == self._degree and imgs[bisect_right(imgs, x) - 1] == x

    def is_subgroup_of(self, other: "PermGroup") -> bool:
        return self._degree == other._degree and all(g in other for g in self._gens)

    def __eq__(self, other):
        if not isinstance(other, PermGroup):
            return NotImplemented
        return self._degree == other._degree and self.images == other.images

    @cached_property
    def _hash(self):
        return hash((self._degree, self.images))

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"PermGroup(degree={self._degree}, order={len(self)})"


def closure(generators) -> PermGroup:
    """The group generated by the given permutations, fully enumerated."""
    gens = tuple(generators)
    if not gens:
        raise ValueError("need at least one generator")
    degree = gens[0].degree
    if any(g.degree != degree for g in gens):
        raise ValueError("generators act on different degrees")
    els, _ = _dimino([g.images for g in gens], degree)
    return PermGroup(gens, degree, els)


@group_cache
def _index(G: PermGroup) -> dict:
    """G's stored images -> their indices in canonical order; the identity is 0."""
    return dict(zip(G.images, range(len(G))))


@group_cache
def _classes(G: PermGroup) -> tuple[tuple[list[int], ...], list[int], tuple[int, ...]]:
    """The conjugacy classes as ascending index lists in canonical order
    (element order, size, least element), the class of each index, and the
    element order of each class."""
    imgs = G.images
    orbits = _orbits(len(imgs), _normal_action(G, G))
    orders, _, _, classes = zip(*sorted((Perm._raw(imgs[o[0]]).order(), len(o), o[0], o) for o in orbits))
    require(sum(map(len, classes)) == len(G), "class equation violated")
    class_of = [0] * len(G)
    for k, members in enumerate(classes):
        for x in members:
            class_of[x] = k
    return classes, class_of, orders


class ConjClassData(namedtuple("ConjClassData", "representative size element_order power_map")):
    """One conjugacy class: canonical representative plus bookkeeping;
    power_map[j] is the class index of representative**j."""

    __slots__ = ()


@group_cache
def conjugacy_classes(G: PermGroup) -> tuple[ConjClassData, ...]:
    """Conjugacy classes in canonical order (element order, size, least rep)."""
    classes, class_of, orders = _classes(G)
    imgs, pos = G.images, _index(G)
    exponent = lcm(*orders)
    out = []
    for members, order in zip(classes, orders):
        rep = Perm._raw(imgs[members[0]])
        step, acc, powers = _rmul(rep.images), G.identity.images, []
        for _ in range(order):
            powers.append(class_of[pos[acc]])
            acc = step(_pad(acc))
        power_map = tuple(powers * (exponent // order))
        out.append(ConjClassData(rep, len(members), order, power_map))
    return tuple(out)


@group_cache
def element_orders(G: PermGroup) -> tuple[int, ...]:
    """The order of each element of G, in canonical element order, read
    off its conjugacy class."""
    _, class_of, orders = _classes(G)
    return tuple(map(orders.__getitem__, class_of))


def _subgroup(G: PermGroup, images=None, seeds=None, conjugations=()) -> PermGroup:
    """The subgroup of G generated by the seeds or, without seeds, on the
    given stored images.  Dimino's algorithm over the seeds, or over the
    ascending images, keeps those that are not redundant as generators;
    given images must be exactly their closure.  With conjugations (see
    `_dimino`) it is the normal closure of the seeds."""
    closed, used = _dimino(sorted(images) if seeds is None else seeds, G.degree, conjugations)
    require(images is None or closed == set(images), "the members are not the closure of the generators")
    H = PermGroup(map(Perm._raw, used), G.degree, tuple(sorted(closed)))
    require(len(G) % len(H) == 0, "Lagrange check failed")
    return H


@group_cache
def derived_subgroup(G: PermGroup) -> PermGroup:
    """Normal closure of all generator-pair commutators, verified normal."""
    pairs = [(g.images, g.inverse().images) for g in G.generators]
    # the commutators a * b * a^-1 * b^-1 of generator pairs
    seeds = {reduce(lambda x, s: _rmul(s)(_pad(x)), (a, b, ai, bi)) for a, ai in pairs for b, bi in pairs}
    steps = [_conjugation(s) for s in G.generators]
    H = _subgroup(G, seeds=sorted(seeds), conjugations=steps)
    # s^-1 H s has the order of H, so conjugating its generators is enough
    pads = list(_pads((h.images for h in H.generators), G.degree))
    require(all(H.has_images(y) for step in steps for y in step(pads)), "derived subgroup not normal")
    return H


def _normal_action(G: PermGroup, A: PermGroup, outer: bool = False) -> list[list[int]]:
    """Per generator s of G the map a |-> s^-1 a s on A's element indices,
    with outer only per generator outside A; ValueError unless A is a normal
    subgroup of G.  A generator inside A maps A onto itself, so the
    generators outside A decide normality."""
    if not A.is_subgroup_of(G):
        raise ValueError("A is not a subgroup of G")
    gens = [s for s in G.generators if not (outer and s in A)]
    pos, pads = _index(A), list(_pads(A.images, G.degree))
    try:
        return [list(map(pos.__getitem__, _conjugation(s)(pads))) for s in gens]
    except KeyError:
        raise ValueError("A is not normal in G") from None


@group_cache
def centralizer_of_subgroup(G: PermGroup, A: PermGroup) -> PermGroup:
    """{g in G : ga = ag for all a in A}: G's images filtered by each
    generator a of A in turn, by columns (`_commuting`).  The filter reads
    them in any order, since `_subgroup` sorts what it keeps, so G is not
    sorted for it."""
    if not A.is_subgroup_of(G):
        raise ValueError("A is not a subgroup of G")
    members = G._members or G.images
    for a in A.generators:
        members = _commuting(members, G.degree, a)
    return _subgroup(G, members)


def commuting_images(G: PermGroup, g: Perm) -> list:
    """The stored images of the x in G with xg = gx, ascending: the column
    filter of `centralizer_of_subgroup` by g."""
    if g.degree != G.degree:
        raise ValueError("degree mismatch")
    return _commuting(G.images, G.degree, g)


@group_cache
def center(G: PermGroup) -> PermGroup:
    """The elements that form a conjugacy class on their own."""
    return _subgroup(G, [G.images[c[0]] for c in _classes(G)[0] if len(c) == 1])


@group_cache
def _cosets(G: PermGroup, H: PermGroup) -> tuple[tuple, ...]:
    """The right cosets H x of a subgroup H of G as ascending tuples of stored
    images, ordered by least member with H first: H's images times each x of G
    that no earlier coset holds, which is then the least member of its coset."""
    if not H.is_subgroup_of(G):
        raise ValueError("H is not a subgroup of G")
    hs, seen, parts = list(_pads(H.images, G.degree)), set(), []
    for x in G.images:
        if x not in seen:
            parts.append(tuple(sorted(map(_rmul(x), hs))))
            seen.update(parts[-1])
    require(len(seen) == len(G) == len(parts) * len(H), "cosets do not partition the group")
    return tuple(parts)


@group_cache
def conjugation_image(G: PermGroup, A: PermGroup):
    """The conjugation action of G on A's element list.

    Returns (image, mapping): image is a PermGroup on |A| points whose labels
    are A's canonically ordered elements, and mapping sends each g in G to
    the permutation a |-> g a g^-1 of those labels.
    """
    # the action tables conjugate by s^-1, so s acts by their inverses
    gen_imgs = [Perm._raw(_pack(C)).inverse() for C in _normal_action(G, A)]
    steps = [(_rmul(s.images), _rmul(f.images)) for s, f in zip(G.generators, gen_imgs)]
    # g |-> (a |-> g a g^-1) is a homomorphism: x s maps to image(x) * image(s),
    # so a breadth-first search from the identity reaches every image
    queue = [G.images[0]]
    found = {queue[0]: _pack(range(len(A)))}
    for x in queue:
        x_pad, f_pad = _pad(x), _pad(found[x])
        for right, act in steps:
            if (y := right(x_pad)) not in found:
                found[y] = act(f_pad)
                queue.append(y)
    require(len(found) == len(G), "the generators of G do not generate its elements")
    mapping = {g: Perm._raw(found[g.images]) for g in G.elements}
    image = PermGroup(gen_imgs, len(A), set(found.values()), point_labels=A)
    return image, mapping


class FusionType(namedtuple("FusionType", "swaps_3 swaps_5")):
    """Whether an automorphism action merges the order-3 / order-5 class pairs."""

    __slots__ = ()


def _fusion(A: PermGroup, automorphisms) -> FusionType:
    """Which order-3 / order-5 class pairs of A the automorphisms swap.  Each
    is a sequence permuting A's element indices and must map classes onto classes."""
    classes, class_of, orders = _classes(A)
    pairs = {o: [k for k, order in enumerate(orders) if order == o] for o in (3, 5)}
    if any(len(pair) != 2 for pair in pairs.values()):
        raise ValueError("acted-on group does not have two order-3 and two order-5 classes")
    swapped = set()
    for phi in automorphisms:
        moved = []
        for members in classes:
            # a bijection maps a class onto a class iff into one of its size
            hit = {class_of[phi[x]] for x in members}
            if len(hit) != 1 or len(classes[min(hit)]) != len(members):
                raise ValueError("action does not normalize the class partition")
            moved.append(hit.pop())
        swapped |= {o for o, (i, j) in pairs.items() if moved[i] == j}
    return FusionType(swaps_3=3 in swapped, swaps_5=5 in swapped)


@group_cache
def class_fusion(G: PermGroup, A: PermGroup) -> FusionType:
    """Class-fusion pattern of G acting on its normal subgroup A by
    conjugation, read off the generators of G outside A: one inside A maps
    every class of A to itself."""
    # conjugating by s^-1 instead of s inverts the class permutation, which
    # swaps a class pair exactly when the one of s does
    return _fusion(A, _normal_action(G, A, outer=True))


def fusion_type(image: PermGroup) -> FusionType:
    """Class-fusion pattern of a group of automorphisms acting on A6's elements.

    The image must come from conjugation_image (it carries the acted-on group
    as point_labels) and must contain that group's inner automorphisms.
    """
    A = image.point_labels
    if not isinstance(A, PermGroup):
        raise ValueError("image does not carry its acted-on group")
    # precondition: the inner automorphisms (by the inverse generators) lie in the image
    if any(Perm._raw(_pack(C)) not in image for C in _normal_action(A, A)):
        raise ValueError("image does not contain the inner automorphisms")
    return _fusion(A, [sigma.images for sigma in image.generators])


def index2_overgroups(G: PermGroup, A: PermGroup) -> tuple[PermGroup, ...]:
    """The three H with A < H < G when G/A is the Klein four-group."""
    _normal_action(G, A, outer=True)
    if len(G) != 4 * len(A):
        raise ValueError("index of A in G is not 4")
    if _abelian_invariants(G, A) != (2, 2):
        raise ValueError("quotient is not C2 x C2")
    A_imgs, *others = _cosets(G, A)
    out = [_subgroup(G, A_imgs + c, [a.images for a in A.generators] + [c[0]]) for c in others]
    return tuple(sorted(out, key=_images_of))


class Fingerprint(namedtuple("Fingerprint", "order center_order abelianization order_histogram")):
    """Cheap isomorphism invariants used to separate groups across degrees."""

    __slots__ = ()


def _divisor_chains(n: int, head: int):
    # Non-increasing divisor chains d1 | d0, d2 | d1, ... with product n, d0 = head.
    if n == 1:
        yield ()
        return
    for d in range(head, 1, -1):
        if head % d == 0 and n % d == 0:
            for rest in _divisor_chains(n // d, d):
                yield (d,) + rest


def _abelian_invariants(G: PermGroup, H: PermGroup) -> tuple[int, ...]:
    # Invariant factors of the abelian quotient G/H of normal H, from
    # order-dividing counts; the trivial quotient has the empty chain.
    parts = _cosets(G, H)
    inside = set(parts[0])
    orders = []
    for r in map(itemgetter(0), parts):
        # the order of the coset of r: the least k with r^k in H, at most the index
        step, acc, k = _rmul(r), r, 1
        while acc not in inside and k < len(parts):
            acc, k = step(_pad(acc)), k + 1
        require(acc in inside, "a coset's order exceeds the index")
        orders.append(k)
    exponent = max(orders)
    require(lcm(*orders) == exponent, "quotient is not abelian")
    divisors = [k for k in range(1, exponent + 1) if exponent % k == 0]
    # counts[k] = #{q : q^k = e} = #{q : ord(q) | k}; these determine the type
    counts = {k: sum(1 for o in orders if k % o == 0) for k in divisors}
    for chain in _divisor_chains(len(parts), exponent):
        if chain and chain[0] != exponent:
            continue
        if all(counts[k] == prod(gcd(d, k) for d in chain) for k in divisors):
            return chain
    raise VerificationError("no abelian type matches the quotient")


@group_cache
def fingerprint(G: PermGroup) -> Fingerprint:
    """Order, center order, abelianization and element-order histogram."""
    return Fingerprint(
        order=len(G),
        center_order=len(center(G)),
        abelianization=_abelian_invariants(G, derived_subgroup(G)),
        order_histogram=tuple(sorted(Counter(element_orders(G)).items())),
    )


def conjugate_group(G: PermGroup, t: Perm) -> PermGroup:
    """The conjugate group t G t^-1 on the same points."""
    if t.degree != G.degree:
        raise ValueError("degree mismatch")
    conj = _conjugation(t.inverse())
    gens = map(Perm._raw, conj(_pads((g.images for g in G.generators), G.degree)))
    return PermGroup(gens, G.degree, tuple(sorted(conj(_pads(G.images, G.degree)))))


def _simple_by_class_equation(sizes) -> bool:
    """For the class sizes of a group G, the identity's first: True when no
    union of classes through 1 but {1} and G has an order dividing |G|."""
    n, orders = sum(sizes), {1}  # the orders of the unions through the identity
    for size in sizes[1:]:
        orders |= {m + size for m in orders}
    return all(n % m for m in orders - {1, n})


def is_a6_certified(G: PermGroup) -> bool:
    """Certificate for "isomorphic to A6": order 360, A6's class orders and
    sizes, and no union of classes through 1 but {1} and G of an order that
    divides 360.  A normal subgroup is such a union, so G is simple; it is
    not abelian, so perfect; and a simple group of order 360 is A6."""
    if len(G) != 360:
        return False
    classes, _, orders = _classes(G)
    sizes = tuple(map(len, classes))
    return tuple(zip(orders, sizes)) == A6_CLASS_SHAPE and _simple_by_class_equation(sizes)
