"""Small-degree permutation groups by full enumeration.

Groups at this scale (a few thousand elements at most) are materialized
completely; no stabilizer chains.  Canonical element order is lexicographic
on image sequences, and every deterministic-output contract in the package
refers to that order.  Subgroup-producing operations re-verify Lagrange and
normality facts instead of trusting the caller.

A permutation's images are stored as bytes up to degree 256 and as a tuple
above; only `_pack`, `_pad`, `_pads`, `_rmul` and `_conjugation` know which.
Bytes cache their hash and sort like tuples of ints, and a composition is
one `bytes.translate` call.  A group is the ascending tuple of its images,
`G.images`, which every constructor is given: `closure` runs `_dimino`,
Dimino's algorithm (G. Butler, *Fundamental Algorithms for Permutation
Groups*, LNCS 559, 1991), and nothing is enumerated lazily; `G.elements` wraps
the images in `Perm`s when first read.  Membership is a bisection, and facts
about a subgroup A of G are C passes over images: the derived subgroup,
centralizers (a filter of G's images), the action of G on A (through A's
index) and the right cosets (composition passes of A's images with G's).
`_tables(G)`, for work on every element of G by index (conjugacy classes,
structure constants, `conjugation_image`), holds int tables for right
multiplication and conjugation by each generator, and a spanning tree of the
Cayley graph along which a table for any element takes one pass.  `_orbit` is
the one breadth-first search, `_orbits` the one partition into orbits, and
`_fusion` the one class-fusion routine; the tree has its own search.

One cache policy: data derived from a group is memoized on that group by
`group_cache`, so it is freed with the group and never answers for another
group with the same elements.  `functools.cache` is only for builders of
fixed objects.

One way to fail a check: a fact the package verifies and finds false raises
`VerificationError` through `require`, which `python -O` does not strip.
Bad caller input raises `ValueError`.

One record idiom across the package: a value (`ConjClassData`, `FusionType`,
`Fingerprint`) is a `collections.namedtuple` subclass with `__slots__ = ()`,
equal and hashed by its fields and immutable; a computed result that holds
groups or tables is a plain class, equal only to itself.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import Counter, namedtuple
from functools import cached_property, partial, wraps
from itertools import compress, repeat
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
    "cosets",
    "conjugation_image",
    "class_fusion",
    "fusion_type",
    "index2_overgroups",
    "fingerprint",
    "conjugate_group",
    "is_a6_certified",
    "A6_CLASS_SIZES",
]

# Class-size certificate for A6 in canonical class order
# (order, size): (1,1) (2,45) (3,40) (3,40) (4,90) (5,72) (5,72).
A6_CLASS_SIZES = (1, 45, 40, 40, 90, 72, 72)


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
        return Perm._raw(_pack(sorted(range(len(self.images)), key=self.images.__getitem__)))

    def __pow__(self, k: int) -> "Perm":
        if k < 0:
            return self.inverse() ** (-k)
        out = Perm.identity(self.degree)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
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
            while p != start:
                cyc.append(p)
                seen[p] = True
                p = self.images[p]
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

    def embedded(self, degree: int, offset: int = 0) -> "Perm":
        """The same permutation acting on a larger set, fixed elsewhere."""
        if offset + self.degree > degree:
            raise ValueError("embedding does not fit")
        images = list(range(degree))
        for i, j in enumerate(self.images):
            images[offset + i] = offset + j
        return Perm._raw(_pack(images))

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
# s.translate(x padded to 256 entries) and s * x is x.translate(s padded),
# one C call each.  Above, they are tuples composed by itemgetter;
# conjugation_image acts on 360 points.
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


def _conjugation(s: Perm, degree: int):
    """The map xs |-> (s^-1 x s for x in xs) on stored images, in C passes."""
    t, right = _pad(s.inverse().images), _rmul(s.images)
    # left(xs, repeat(t)): s^-1 * x for each x in xs
    left = partial(map, bytes.translate) if type(t) is bytes else partial(map, lambda x, t: itemgetter(*x)(t))
    return lambda xs: map(right, _pads(left(xs, repeat(t)), degree))


def _dimino(gens, degree: int, max_order: int) -> tuple[set, list]:
    """The stored images of <gens>, and the generators that were not redundant.

    Dimino's algorithm: adding x to the closed set <used> makes a union of
    right cosets <used> * r.  A representative times a generator lies in a
    known coset or starts a new one, so each new element costs one
    composition.
    """
    one = _pack(range(degree))
    els = {one}
    used = []
    for x in gens:
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
                    els.update(map(_rmul(y), base))
                    if len(els) > max_order:
                        raise ValueError(f"closure exceeds the order guard {max_order}")
                    reps.append(y)
    return els, used


def _orbit(seeds, step) -> set:
    """Every point reachable from seeds; step(points) is the set of their images."""
    orbit = frontier = set(seeds)
    while frontier:
        frontier = step(frontier) - orbit
        orbit |= frontier
    return orbit


def _orbits(n: int, tables) -> list[set]:
    """The orbits of range(n) under the int tables, ordered by least member."""
    seen, orbits = set(), []
    for x in range(n):
        if x not in seen:
            orbits.append(_orbit((x,), lambda xs: {T[y] for T in tables for y in xs}))
            seen |= orbits[-1]
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

    def __init__(self, generators, degree: int, images, _elements=None, point_labels=None):
        gens = tuple(sorted(set(generators), key=_images_of))
        if any(g.degree != degree for g in gens):
            raise ValueError("generators act on different degrees")
        self._degree = degree
        self._gens = gens
        # the stored images of the elements, ascending; the identity is first
        self.images = images
        self._elements = _elements
        self.point_labels = point_labels
        self._memo = {}

    @property
    def degree(self) -> int:
        return self._degree

    @property
    def generators(self) -> tuple[Perm, ...]:
        return self._gens

    @property
    def elements(self) -> tuple[Perm, ...]:
        """The elements in canonical order, wrapped when first read."""
        if self._elements is None:
            self._elements = tuple(map(Perm._raw, self.images))
        return self._elements

    @property
    def identity(self) -> Perm:
        return Perm.identity(self._degree)

    def __len__(self):
        return len(self.images)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, perm):
        # x >= imgs[0], the identity, so the index is never -1
        imgs, x = self.images, perm.images
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


def closure(generators, *, max_order: int = MAX_GROUP_ORDER) -> PermGroup:
    """The group generated by the given permutations, fully enumerated."""
    gens = tuple(generators)
    if not gens:
        raise ValueError("need at least one generator")
    degree = gens[0].degree
    if any(g.degree != degree for g in gens):
        raise ValueError("generators act on different degrees")
    els, _ = _dimino([g.images for g in gens], degree, max_order)
    return PermGroup(gens, degree, tuple(sorted(els)))


class _Tables:
    """The index core of G, built on first use by `_tables` and memoized on
    G: element i is G.images[i], the identity is 0, and tables hold indices."""

    def __init__(self, G: PermGroup):
        imgs = G.images
        self.pos = dict(zip(imgs, range(len(imgs))))
        padded = list(_pads(imgs, G.degree))
        try:
            # per generator s: x -> x * s, one pass of compositions
            self.right = right = [list(map(self.pos.__getitem__, map(_rmul(s.images), padded))) for s in G.generators]
        except KeyError:
            raise VerificationError("the elements are not closed under the generators") from None
        # a spanning tree of the Cayley graph: x = p * (generator k), parents first
        self.tree = tree = []
        order, seen = [0], {0}
        for p in order:
            for k, R in enumerate(right):
                if (x := R[p]) not in seen:
                    seen.add(x)
                    order.append(x)
                    tree.append((x, p, k))
        if len(order) != len(imgs):
            raise ValueError("the generators of G do not generate its elements")
        # per generator s: x -> s^-1 x s
        self.conj = [[R[y] for y in self.left(s.inverse().images)] for s, R in zip(G.generators, right)]

    def along(self, tables, start: int) -> list[int]:
        """The map f with f(1) = start and f(p * s_k) = tables[k][f(p)]."""
        out = [start] * (len(self.tree) + 1)
        for x, p, k in self.tree:
            out[x] = tables[k][out[p]]
        return out

    def left(self, a) -> list[int]:
        """x -> a * x, for a given by its images: a p s = (a p) s."""
        return self.along(self.right, self.pos[a])


_tables = group_cache(_Tables)


@group_cache
def _classes(G: PermGroup) -> tuple[list[list[int]], list[int]]:
    """The conjugacy classes as ascending index lists in canonical order
    (element order, size, least element), and the class of each index."""
    imgs = G.images
    classes = [sorted(orbit) for orbit in _orbits(len(imgs), _tables(G).conj)]
    classes.sort(key=lambda members: (Perm._raw(imgs[members[0]]).order(), len(members), members[0]))
    require(sum(map(len, classes)) == len(G), "class equation violated")
    class_of = [0] * len(G)
    for k, members in enumerate(classes):
        for x in members:
            class_of[x] = k
    return classes, class_of


class ConjClassData(namedtuple("ConjClassData", "representative size element_order power_map members")):
    """One conjugacy class: canonical representative plus bookkeeping;
    power_map[j] is the class index of representative**j."""

    __slots__ = ()


@group_cache
def conjugacy_classes(G: PermGroup) -> tuple[ConjClassData, ...]:
    """Conjugacy classes in canonical order (element order, size, least rep)."""
    classes, class_of = _classes(G)
    els, pos = G.elements, _tables(G).pos
    exponent = lcm(*(els[members[0]].order() for members in classes))
    out = []
    for members in classes:
        rep = els[members[0]]
        order = rep.order()
        step, acc, powers = _rmul(rep.images), G.identity.images, []
        for _ in range(order):
            powers.append(class_of[pos[acc]])
            acc = step(_pad(acc))
        power_map = tuple(powers * (exponent // order))
        out.append(ConjClassData(rep, len(members), order, power_map, tuple(map(els.__getitem__, members))))
    return tuple(out)


@group_cache
def element_orders(G: PermGroup) -> tuple[int, ...]:
    """The order of each element of G, in canonical element order, read
    off its conjugacy class."""
    orders = [c.element_order for c in conjugacy_classes(G)]
    return tuple(map(orders.__getitem__, _classes(G)[1]))


def _subgroup(G: PermGroup, images, generators=None) -> PermGroup:
    """The subgroup of G on the given stored images.  Without generators,
    Dimino's algorithm over the members keeps those that are not redundant,
    and their closure must be exactly the member set.  If G has wrapped its
    elements, the subgroup shares those Perms."""
    imgs = tuple(sorted(images))
    if generators is None:
        closed, used = _dimino(imgs, G.degree, MAX_GROUP_ORDER)
        require(closed == set(imgs), "the members are not closed under multiplication")
        generators = map(Perm._raw, used)
    els = G._elements and tuple(map(G._elements.__getitem__, map(partial(bisect_left, G.images), imgs)))
    H = PermGroup(generators, G.degree, imgs, els)
    require(len(G) % len(H) == 0, "Lagrange check failed")
    return H


@group_cache
def derived_subgroup(G: PermGroup) -> PermGroup:
    """Normal closure of all generator-pair commutators, verified normal."""
    pairs = [(g.images, g.inverse().images) for g in G.generators]
    seeds = set()
    for a, ai in pairs:
        for b, bi in pairs:
            x = a
            for s in (b, ai, bi):
                x = _rmul(s)(_pad(x))
            seeds.add(x)
    # the normal closure is generated by the conjugates of the seeds
    steps = [_conjugation(s, G.degree) for s in G.generators]
    conjugates = _orbit(seeds, lambda xs: set().union(*(step(xs) for step in steps)))
    sub, used = _dimino(sorted(conjugates), G.degree, MAX_GROUP_ORDER)
    # s^-1 <used> s has the order of H, so conjugating used is enough
    require(all(sub.issuperset(step(used)) for step in steps), "derived subgroup not normal")
    return _subgroup(G, sub, map(Perm._raw, used))


def _normal_action(G: PermGroup, A: PermGroup) -> list[list[int]]:
    """Per generator s of G the map a |-> s^-1 a s on A's element indices;
    ValueError unless A is a normal subgroup of G."""
    if not A.is_subgroup_of(G):
        raise ValueError("A is not a subgroup of G")
    pos = _tables(A).pos
    try:
        return [list(map(pos.__getitem__, _conjugation(s, G.degree)(A.images))) for s in G.generators]
    except KeyError:
        raise ValueError("A is not normal in G") from None


@group_cache
def centralizer_of_subgroup(G: PermGroup, A: PermGroup) -> PermGroup:
    """{g in G : ga = ag for all a in A}: G's images filtered by each
    generator a of A in turn, keeping the x with a^-1 x a = x."""
    if not A.is_subgroup_of(G):
        raise ValueError("A is not a subgroup of G")
    members = G.images
    for a in A.generators:
        members = list(compress(members, map(eq, _conjugation(a, G.degree)(members), members)))
    return _subgroup(G, members)


@group_cache
def center(G: PermGroup) -> PermGroup:
    """The elements that form a conjugacy class on their own."""
    return _subgroup(G, [G.images[c[0]] for c in _classes(G)[0] if len(c) == 1])


@group_cache
def cosets(G: PermGroup, H: PermGroup) -> tuple[tuple[Perm, ...], ...]:
    """The right cosets H x of a subgroup H of G, each ascending, ordered by least
    member with H first: H's images times each x of G that no earlier coset holds,
    which is then the least member of its coset."""
    if not H.is_subgroup_of(G):
        raise ValueError("H is not a subgroup of G")
    hs, seen, parts = list(_pads(H.images, G.degree)), set(), []
    for x in G.images:
        if x not in seen:
            parts.append(sorted(map(_rmul(x), hs)))
            seen.update(parts[-1])
    require(len(seen) == len(G) == len(parts) * len(H), "cosets do not partition the group")
    index = partial(bisect_left, G.images)
    return tuple(tuple(map(G.elements.__getitem__, map(index, part))) for part in parts)


@group_cache
def conjugation_image(G: PermGroup, A: PermGroup):
    """The conjugation action of G on A's element list.

    Returns (image, mapping): image is a PermGroup on |A| points whose labels
    are A's canonically ordered elements, and mapping sends each g in G to
    the permutation a |-> g a g^-1 of those labels.
    """
    # the tables act by s^-1, so s acts by their inverses
    gen_imgs = [Perm._raw(_pack(C)).inverse() for C in _normal_action(G, A)]
    steps = [_rmul(f.images) for f in gen_imgs]
    # g |-> (a |-> g a g^-1) is a homomorphism: p s maps to image(p) * image(s)
    imgs = [_pack(range(len(A)))] * len(G)
    for x, p, k in _tables(G).tree:
        imgs[x] = steps[k](_pad(imgs[p]))
    interned = {f: Perm._raw(f) for f in imgs}
    mapping = {g: interned[f] for g, f in zip(G.elements, imgs)}
    keys = tuple(sorted(interned))
    image = PermGroup(gen_imgs, len(A), keys, tuple(map(interned.__getitem__, keys)), point_labels=A)
    return image, mapping


class FusionType(namedtuple("FusionType", "swaps_3 swaps_5")):
    """Whether an automorphism action merges the order-3 / order-5 class pairs."""

    __slots__ = ()


def _fusion(A: PermGroup, automorphisms) -> FusionType:
    """Which order-3 / order-5 class pairs of A the automorphisms swap.  Each
    is a sequence permuting A's element indices and must map classes onto classes."""
    classes, class_of = _classes(A)
    orders = [Perm._raw(A.images[members[0]]).order() for members in classes]
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
    """Class-fusion pattern of G acting on its normal subgroup A by conjugation."""
    # conjugating by s^-1 instead of s inverts the class permutation, which
    # swaps a class pair exactly when the one of s does
    return _fusion(A, _normal_action(G, A))


def fusion_type(image: PermGroup) -> FusionType:
    """Class-fusion pattern of a group of automorphisms acting on A6's elements.

    The image must come from conjugation_image (it carries the acted-on group
    as point_labels) and must contain that group's inner automorphisms.
    """
    A = image.point_labels
    if not isinstance(A, PermGroup):
        raise ValueError("image does not carry its acted-on group")
    # precondition: the inner automorphisms (by the inverse generators) lie in the image
    if any(Perm._raw(_pack(C)) not in image for C in _tables(A).conj):
        raise ValueError("image does not contain the inner automorphisms")
    return _fusion(A, [sigma.images for sigma in image.generators])


def index2_overgroups(G: PermGroup, A: PermGroup) -> tuple[PermGroup, ...]:
    """The three H with A < H < G when G/A is the Klein four-group."""
    _normal_action(G, A)
    if len(G) != 4 * len(A):
        raise ValueError("index of A in G is not 4")
    if _abelian_invariants(G, A) != (2, 2):
        raise ValueError("quotient is not C2 x C2")
    A_els, *others = cosets(G, A)
    out = [_subgroup(G, (x.images for x in A_els + c), A.generators + (c[0],)) for c in others]
    return tuple(sorted(out, key=_images_of))


class Fingerprint(namedtuple("Fingerprint", "order center_order abelianization order_histogram")):
    """Cheap isomorphism invariants used to separate groups across degrees."""

    __slots__ = ()

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "center_order": self.center_order,
            "abelianization": list(self.abelianization),
            "order_histogram": {str(o): n for o, n in self.order_histogram},
        }


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
    parts = cosets(G, H)
    inside = {x.images for x in parts[0]}
    orders = []
    for coset in parts:
        # the order of the coset of r: the least k with r^k in H
        step = _rmul(coset[0].images)
        acc, k = step(_pad(G.identity.images)), 1
        while acc not in inside:
            acc, k = step(_pad(acc)), k + 1
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
    hist = Counter()
    for c in conjugacy_classes(G):
        hist[c.element_order] += c.size
    return Fingerprint(
        order=len(G),
        center_order=len(center(G)),
        abelianization=_abelian_invariants(G, derived_subgroup(G)),
        order_histogram=tuple(sorted(hist.items())),
    )


def conjugate_group(G: PermGroup, t: Perm) -> PermGroup:
    """The conjugate group t G t^-1 on the same points."""
    if t.degree != G.degree:
        raise ValueError("degree mismatch")
    conj = _conjugation(t.inverse(), G.degree)
    gens = map(Perm._raw, conj(g.images for g in G.generators))
    return PermGroup(gens, G.degree, tuple(sorted(conj(G.images))))


def is_a6_certified(G: PermGroup) -> bool:
    """Certificate for "isomorphic to A6": perfect, order 360, A6 class sizes."""
    return (
        len(G) == 360
        and derived_subgroup(G) == G
        and tuple(map(len, _classes(G)[0])) == A6_CLASS_SIZES
    )
