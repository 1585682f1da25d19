"""Small-degree permutation groups by full enumeration.

Groups at this scale (a few thousand elements at most) are materialized
completely; no stabilizer chains.  Canonical element order is lexicographic
on image tuples, and every deterministic-output contract in the package
refers to that order.  Subgroup-producing operations re-verify Lagrange and
normality facts instead of trusting the caller.

Three primitives carry the group work: `_orbit`, the one breadth-first
search (conjugacy classes, normal closures, conjugation actions); `_extend`,
one step of Dimino's algorithm (G. Butler, *Fundamental Algorithms for
Permutation Groups*, LNCS 559, 1991), through which every element set is
built; and `_fusion`, the one class-fusion routine, behind `class_fusion`
and `fusion_type`.

One cache policy: data derived from a group is memoized on that group by
`group_cache`, so it is freed with the group and never answers for another
group with the same elements.  `functools.cache` is only for builders of
fixed objects.

One way to fail a check: a fact the package verifies and finds false raises
`VerificationError` through `require`, which `python -O` does not strip.
Bad caller input raises `ValueError`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property, wraps
from math import gcd, lcm, prod

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
    "center",
    "derived_subgroup",
    "centralizer_of_subgroup",
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
    """A permutation of {0, ..., degree-1}, stored as its image tuple."""

    __slots__ = ("images", "_hash")

    def __init__(self, images):
        images = tuple(images)
        if sorted(images) != list(range(len(images))):
            raise ValueError(f"not a bijection of 0..{len(images)-1}: {images}")
        self.images = images
        self._hash = hash(images)

    @classmethod
    def _raw(cls, images: tuple) -> "Perm":
        # Internal fast path: caller guarantees images is a valid tuple.
        p = object.__new__(cls)
        p.images = images
        p._hash = hash(images)
        return p

    @classmethod
    def identity(cls, degree: int) -> "Perm":
        return cls._raw(tuple(range(degree)))

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
        return Perm._raw(tuple(a[i] for i in b))

    def inverse(self) -> "Perm":
        inv = [0] * len(self.images)
        for i, j in enumerate(self.images):
            inv[j] = i
        return Perm._raw(tuple(inv))

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

    def is_identity(self) -> bool:
        return all(i == j for i, j in enumerate(self.images))

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

    @classmethod
    def parse(cls, text: str, degree: int) -> "Perm":
        """Parse 1-based cycle notation like "(1 2)(3 4 5)"."""
        text = text.strip()
        if text in ("", "()", "e"):
            return cls.identity(degree)
        if text.count("(") != text.count(")"):
            raise ValueError(f"unbalanced cycle notation: {text!r}")
        cycles = []
        for chunk in text.replace(")", ")|").split("|"):
            chunk = chunk.strip()
            if not chunk:
                continue
            if not (chunk.startswith("(") and chunk.endswith(")")):
                raise ValueError(f"bad cycle chunk: {chunk!r}")
            body = chunk[1:-1].replace(",", " ").split()
            pts = [int(tok) - 1 for tok in body]
            if any(p < 0 or p >= degree for p in pts):
                raise ValueError(f"point out of range in {chunk!r}")
            if len(set(pts)) != len(pts):
                raise ValueError(f"repeated point in {chunk!r}")
            cycles.append(tuple(pts))
        return cls.from_cycles(cycles, degree)

    def embedded(self, degree: int, offset: int = 0) -> "Perm":
        """The same permutation acting on a larger set, fixed elsewhere."""
        if offset + self.degree > degree:
            raise ValueError("embedding does not fit")
        images = list(range(degree))
        for i, j in enumerate(self.images):
            images[offset + i] = offset + j
        return Perm._raw(tuple(images))

    def __eq__(self, other):
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self):
        return self._hash

    def __lt__(self, other):
        return self.images < other.images

    def __le__(self, other):
        return self.images <= other.images

    def __repr__(self):
        return f"Perm[{self.cycle_string()}]"


def _orbit(seeds, gens, act) -> set:
    """Every point reachable from seeds by act(point, g) with g in gens."""
    orbit = set(seeds)
    frontier = list(orbit)
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = act(x, g)
                if y not in orbit:
                    orbit.add(y)
                    new.append(y)
        frontier = new
    return orbit


def _with_inverses(gens) -> tuple[tuple[Perm, Perm], ...]:
    """Each generator paired with its inverse, for `_orbit(..., _conjugate)`."""
    return tuple((g, g.inverse()) for g in gens)


def _conjugate(x: Perm, pair: tuple[Perm, Perm]) -> Perm:
    g, gi = pair
    return g * x * gi


def _extend(els: set, gens, x: Perm, max_order: int) -> None:
    """Dimino step: grow the closed set els = <gens> in place to <gens, x>.

    The new group is a union of right cosets <gens> * r.  A representative
    times a generator lies in a known coset or starts a new one, so each new
    element costs one product.
    """
    base = tuple(els)
    gens = tuple(gens) + (x,)
    reps = [Perm.identity(x.degree)]
    for r in reps:
        for s in gens:
            y = r * s
            if y not in els:
                els.update(h * y for h in base)
                if len(els) > max_order:
                    raise ValueError(f"closure exceeds the order guard {max_order}")
                reps.append(y)


def _dimino(gens, degree: int, max_order: int) -> tuple[set, list]:
    """The elements of <gens>, and the generators that were not redundant."""
    els = {Perm.identity(degree)}
    used = []
    for x in gens:
        if x not in els:
            _extend(els, used, x, max_order)
            used.append(x)
    return els, used


def group_cache(fn):
    """Memoize fn(G, *args, **kwargs) in G's own memo, freed with G."""

    @wraps(fn)
    def cached(G, *args, **kwargs):
        key = (fn, args, tuple(kwargs.items()))
        if key not in G._memo:
            G._memo[key] = fn(G, *args, **kwargs)
        return G._memo[key]

    return cached


class PermGroup:
    """A finitely generated permutation group with its full element set."""

    def __init__(self, generators, degree=None, _elements=None, point_labels=None):
        gens = tuple(sorted(set(generators)))
        if degree is None:
            if not gens:
                raise ValueError("need generators or an explicit degree")
            degree = gens[0].degree
        if any(g.degree != degree for g in gens):
            raise ValueError("generators act on different degrees")
        self._degree = degree
        self._gens = gens
        self._elements = _elements
        self.point_labels = point_labels
        self._memo = {}

    @classmethod
    def from_elements(cls, elements, generators=None, point_labels=None) -> "PermGroup":
        elements = tuple(sorted(set(elements)))
        degree = elements[0].degree
        ident = Perm.identity(degree)
        if ident not in elements:
            raise ValueError("element set lacks the identity")
        gens = tuple(generators) if generators is not None else elements
        return cls(gens, degree=degree, _elements=elements, point_labels=point_labels)

    @property
    def degree(self) -> int:
        return self._degree

    @property
    def generators(self) -> tuple[Perm, ...]:
        return self._gens

    @cached_property
    def elements(self) -> tuple[Perm, ...]:
        if self._elements is not None:
            return self._elements
        els, _ = _dimino(self._gens, self._degree, MAX_GROUP_ORDER)
        return tuple(sorted(els))

    @cached_property
    def element_set(self) -> frozenset:
        return frozenset(self.elements)

    @property
    def identity(self) -> Perm:
        return Perm.identity(self._degree)

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, perm):
        return perm in self.element_set

    def is_subgroup_of(self, other: "PermGroup") -> bool:
        return self._degree == other._degree and self.element_set <= other.element_set

    def __eq__(self, other):
        if not isinstance(other, PermGroup):
            return NotImplemented
        return self._degree == other._degree and self.elements == other.elements

    @cached_property
    def _hash(self):
        return hash((self._degree, self.elements))

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
    els, _ = _dimino(gens, degree, max_order)
    return PermGroup(gens, degree=degree, _elements=tuple(sorted(els)))


@dataclass(frozen=True)
class ConjClassData:
    """One conjugacy class: canonical representative plus bookkeeping."""

    representative: Perm
    size: int
    element_order: int
    power_map: tuple[int, ...]  # power_map[j] = class index of representative**j
    members: tuple[Perm, ...]


@group_cache
def conjugacy_classes(G: PermGroup) -> tuple[ConjClassData, ...]:
    """Conjugacy classes in canonical order (element order, size, least rep)."""
    seen = set()
    raw = []
    pairs = _with_inverses(G.generators)
    for x in G.elements:
        if x in seen:
            continue
        orbit = _orbit((x,), pairs, _conjugate)
        seen |= orbit
        raw.append(tuple(sorted(orbit)))
    raw.sort(key=lambda members: (members[0].order(), len(members), members[0].images))
    require(sum(len(m) for m in raw) == len(G), "class equation violated")
    exponent = lcm(*(m[0].order() for m in raw))
    class_of = {x: k for k, members in enumerate(raw) for x in members}
    out = []
    for members in raw:
        rep = members[0]
        order = rep.order()
        acc = G.identity
        powers = []
        for _ in range(order):
            powers.append(class_of[acc])
            acc = acc * rep
        out.append(
            ConjClassData(
                representative=rep,
                size=len(members),
                element_order=order,
                power_map=tuple(powers * (exponent // order)),
                members=members,
            )
        )
    return tuple(out)


def _subgroup(G: PermGroup, elements, generators=None) -> PermGroup:
    H = PermGroup.from_elements(tuple(elements), generators=generators)
    require(len(G) % len(H) == 0, "Lagrange check failed")
    return H


def center(G: PermGroup) -> PermGroup:
    """The elements commuting with all of G, searched inside C_G(G')."""
    inside = centralizer_of_subgroup(G, derived_subgroup(G)).elements
    return _subgroup(G, [x for x in inside if all(x * g == g * x for g in G.generators)])


@group_cache
def derived_subgroup(G: PermGroup) -> PermGroup:
    """Normal closure of all generator-pair commutators, verified normal."""
    gens = G.generators
    seeds = {a * b * a.inverse() * b.inverse() for a in gens for b in gens}
    # the normal closure is generated by the conjugates of the seeds
    conjugates = _orbit(seeds, _with_inverses(gens), _conjugate)
    els, used = _dimino(sorted(conjugates), G.degree, MAX_GROUP_ORDER)
    H = _subgroup(G, els, used)
    # g<used>g^-1 has the order of H, so conjugating used is enough
    for g in gens:
        gi = g.inverse()
        require(all(g * h * gi in H for h in used), "derived subgroup not normal")
    return H


@group_cache
def centralizer_of_subgroup(G: PermGroup, A: PermGroup) -> PermGroup:
    """{g in G : ga = ag for all a in A}."""
    if not A.is_subgroup_of(G):
        raise ValueError("A is not a subgroup of G")
    gens = A.generators
    members = [x for x in G.elements if all(x * a == a * x for a in gens)]
    return _subgroup(G, members)


def _check_normal(G: PermGroup, A: PermGroup):
    if not A.is_subgroup_of(G):
        raise ValueError("A is not a subgroup of G")
    aset = A.element_set
    for g in G.generators:
        gi = g.inverse()
        if any(g * a * gi not in aset for a in A.generators):
            raise ValueError("A is not normal in G")
        # generator conjugates generate the conjugate subgroup; size forces equality


@group_cache
def conjugation_image(G: PermGroup, A: PermGroup):
    """The conjugation action of G on A's element list.

    Returns (image, mapping): image is a PermGroup on |A| points whose labels
    are A's canonically ordered elements, and mapping sends each g in G to
    the permutation a |-> g a g^-1 of those labels.
    """
    _check_normal(G, A)
    labels = A.elements
    index = {a: i for i, a in enumerate(labels)}
    gens = G.generators

    def conj_perm(g: Perm) -> Perm:
        gi = g.inverse()
        return Perm._raw(tuple(index[g * a * gi] for a in labels))

    gen_imgs = [conj_perm(g) for g in gens]
    ident_img = Perm.identity(len(labels))
    # the graph of g |-> conj_perm(g) is the orbit of (1, 1) under the
    # generator pairs; it has |G| points exactly when gens generate G
    pairs = _orbit(
        ((G.identity, ident_img),),
        tuple(zip(gens, gen_imgs)),
        lambda p, s: (p[0] * s[0], p[1] * s[1]),
    )
    if len(pairs) != len(G):
        raise ValueError("the generators of G do not generate its elements")
    interned = {}
    mapping = {g: interned.setdefault(f, f) for g, f in pairs}
    image = PermGroup.from_elements(
        set(mapping.values()), generators=tuple(sorted(set(gen_imgs))), point_labels=A
    )
    return image, mapping


@dataclass(frozen=True)
class FusionType:
    """Whether an automorphism action merges the order-3 / order-5 class pairs."""

    swaps_3: bool
    swaps_5: bool


def _fusion(A: PermGroup, automorphisms) -> FusionType:
    """Which order-3 / order-5 class pairs of A the automorphisms swap.

    Each automorphism is a function on A's elements and must map every
    conjugacy class of A onto exactly one class.
    """
    classes = conjugacy_classes(A)
    class_index = {frozenset(c.members): k for k, c in enumerate(classes)}
    idx3 = [k for k, c in enumerate(classes) if c.element_order == 3]
    idx5 = [k for k, c in enumerate(classes) if c.element_order == 5]
    if len(idx3) != 2 or len(idx5) != 2:
        raise ValueError("acted-on group does not have two order-3 and two order-5 classes")
    swaps_3 = False
    swaps_5 = False
    for phi in automorphisms:
        moved = [class_index.get(frozenset(map(phi, c.members))) for c in classes]
        if None in moved:
            raise ValueError("action does not normalize the class partition")
        if moved[idx3[0]] == idx3[1]:
            swaps_3 = True
        if moved[idx5[0]] == idx5[1]:
            swaps_5 = True
    return FusionType(swaps_3=swaps_3, swaps_5=swaps_5)


@group_cache
def class_fusion(G: PermGroup, A: PermGroup) -> FusionType:
    """Class-fusion pattern of G acting on its normal subgroup A by conjugation."""
    _check_normal(G, A)
    return _fusion(A, [lambda a, g=g, gi=g.inverse(): g * a * gi for g in G.generators])


def fusion_type(image: PermGroup) -> FusionType:
    """Class-fusion pattern of a group of automorphisms acting on A6's elements.

    The image must come from conjugation_image (it carries the acted-on group
    as point_labels) and must contain that group's inner automorphisms.
    """
    A = image.point_labels
    if not isinstance(A, PermGroup):
        raise ValueError("image does not carry its acted-on group")
    labels = A.elements
    pos = {a: i for i, a in enumerate(labels)}
    # precondition: the inner automorphisms sit inside the image
    for a in A.generators:
        ai = a.inverse()
        inner = Perm._raw(tuple(pos[a * x * ai] for x in labels))
        if inner not in image:
            raise ValueError("image does not contain the inner automorphisms")
    return _fusion(A, [lambda x, s=sigma: labels[s(pos[x])] for sigma in image.generators])


def index2_overgroups(G: PermGroup, A: PermGroup) -> tuple[PermGroup, ...]:
    """The three H with A < H < G when G/A is the Klein four-group."""
    _check_normal(G, A)
    if len(G) != 4 * len(A):
        raise ValueError("index of A in G is not 4")
    aset = A.element_set
    if any(g * g not in aset for g in G.elements):
        raise ValueError("quotient is not C2 x C2")
    cosets = []
    covered = set(aset)
    for g in G.elements:
        if g in covered:
            continue
        coset = {g * a for a in A.elements}
        covered |= coset
        cosets.append((g, coset))
    require(len(cosets) == 3, "A has other than three nontrivial cosets in G")
    out = []
    for rep, coset in cosets:
        members = tuple(sorted(set(A.elements) | coset))
        out.append(_subgroup(G, members, generators=A.generators + (min(coset),)))
    out.sort(key=lambda H: H.elements)
    return tuple(out)


@dataclass(frozen=True)
class Fingerprint:
    """Cheap isomorphism invariants used to separate groups across degrees."""

    order: int
    center_order: int
    abelianization: tuple[int, ...]
    order_histogram: tuple[tuple[int, int], ...]

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "center_order": self.center_order,
            "abelianization": list(self.abelianization),
            "order_histogram": {str(o): n for o, n in self.order_histogram},
        }


def _coset_table(G: PermGroup, H: PermGroup):
    # Cosets of normal H in G, keyed by canonical (least) representative.
    rep_of = {}
    reps = []
    for g in G.elements:
        if g in rep_of:
            continue
        coset = sorted(g * h for h in H.elements)
        lead = coset[0]
        reps.append(lead)
        for x in coset:
            rep_of[x] = lead
    require(len(reps) * len(H) == len(G), "cosets do not partition the group")
    return reps, rep_of


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
    # Invariant factors of the abelian quotient G/H, from order-dividing counts.
    reps, rep_of = _coset_table(G, H)
    n = len(reps)
    if n == 1:
        return ()

    def q_mul(a, b):
        return rep_of[a * b]

    ident = rep_of[G.identity]
    orders = {}
    for r in reps:
        k = 1
        acc = r
        while acc != ident:
            acc = q_mul(acc, r)
            k += 1
        orders[r] = k
    exponent = max(orders.values())
    require(lcm(*orders.values()) == exponent, "quotient is not abelian")
    divisors = [k for k in range(1, exponent + 1) if exponent % k == 0]
    # counts[k] = #{q : q^k = e} = #{q : ord(q) | k}; these determine the type
    counts = {k: sum(1 for r in reps if k % orders[r] == 0) for k in divisors}
    for chain in _divisor_chains(n, exponent):
        if chain and chain[0] != exponent:
            continue
        if all(counts[k] == prod(gcd(d, k) for d in chain) for k in divisors):
            return chain
    raise VerificationError("no abelian type matches the quotient")


@group_cache
def fingerprint(G: PermGroup) -> Fingerprint:
    """Order, center order, abelianization and element-order histogram."""
    hist = Counter(x.order() for x in G.elements)
    return Fingerprint(
        order=len(G),
        center_order=len(center(G)),
        abelianization=_abelian_invariants(G, derived_subgroup(G)),
        order_histogram=tuple(sorted(hist.items())),
    )


def conjugate_group(G: PermGroup, t: Perm) -> PermGroup:
    """The conjugate group t G t^-1 on the same points."""
    ti = t.inverse()
    els = tuple(sorted(t * g * ti for g in G.elements))
    gens = tuple(t * g * ti for g in G.generators)
    return PermGroup.from_elements(els, generators=gens)


def is_a6_certified(G: PermGroup) -> bool:
    """Certificate for "isomorphic to A6": perfect, order 360, A6 class sizes."""
    if len(G) != 360:
        return False
    if derived_subgroup(G) != G:
        return False
    sizes = tuple(c.size for c in conjugacy_classes(G))
    return sizes == A6_CLASS_SIZES
