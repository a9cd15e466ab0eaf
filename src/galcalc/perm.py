"""Exact arithmetic for finite permutation groups.

Elements are permutations of {0, ..., degree-1}, each a ``Perm``: a
tuple subclass that is its own image tuple, so hashing, equality and the
lexicographic order are tuple's, in C, and a product is one
``operator.itemgetter`` call: a whole right coset H * s is one ``map``
in C (``_right_coset``).  A whole group is enumerated once by
breadth-first closure over its generators, each level's products by a
generator in one such map; the closure records the Cayley table, each
edge p * gen gi = q in BFS order, and ``extend_generator_map``, the one
routine that builds and verifies homomorphisms and G-set actions, walks
those edges once, at one codomain product each.  Generated subgroups
(elementary abelian and Sylow subgroups, generating sets, the generation
tests of the isomorphism search) are closed by Dimino's algorithm, a
coset per map.  Element orders walk each cyclic subgroup once.  A normal
closure is that closure of its seed, grown by the conjugates of its own
generators by the group's generators; a closure that holds every
generator hands the group its element list, so no second closure lists
it.  A subgroup's conjugacy class is walked once by the generators from
the subgroup, with a conjugating element per conjugate: the normalizer
is the closure of the walk's Schreier generators, stopped at |G| /
|class|, and the center is read off the generators' conjugation tables.
Elementary abelian p-subgroups are found by cyclic extension of one
representative per class, the root of its walk.  Centralizers test one
element per right coset of the part found so far.  Hom(G, H) is
searched once per pair and kept on G while H lives; each conjugacy class
of homomorphisms and the centralizer of its representative's image come
from one conjugation sweep, two C calls per generator image and
conjugator, certified by |class| * |centralizer| = |H|.  A quotient G/N is
first the action on the N-orbits, then, when that fails, the action on
the left cosets of N (``Subgroup.cosets``, the one left-coset routine):
either way the one check |G/N| * |N| = |G| proves both that N is normal
and that the kernel is N.  Every element list is sorted
lexicographically by image tuple, so all derived output (subgroups,
quotients, homomorphism lists) is stable across runs.  A subgroup is a
bitset over its parent's sorted element list, so containment,
intersection, equality and hashing are integer operations, and
conjugation maps bits through a per-element table of the parent.
``search_generator_images`` is the one search for generator images,
behind isomorphisms and surjections; presentations are named through
``find_isomorphism`` too, from their coset-table representation.
Values are immutable after construction and safe to share across
threads; lazy caches are filled at most once.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import math
import re
import weakref
from collections import Counter
from math import gcd
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .errors import CertificateError, NotNormal, SizeError

DEFAULT_MAX_ORDER = 20000
HOM_SEARCH_BOUND = 10**7
MAX_ELEMENTARY_ABELIAN = 4096  # subgroups stored by the elementary abelian search
_ONE = re.compile("1")
_SPARSE_BITS = 25  # below this many members, _bit_positions skips the regex


class Perm(tuple):
    """A permutation of {0, ..., degree-1}: the tuple of its images.

    Hashing, equality and order are tuple's: ``hash(p) == hash(tuple(p))``
    and a Perm equals the plain tuple of its images.  ``len(p)`` is the
    degree, a degree-0 Perm is falsy, and ``+`` and ``int * p`` are tuple's;
    ``p * q`` is the product, q first.  ``images`` returns the Perm itself,
    kept for readers outside this package."""

    __slots__ = ()

    def __new__(cls, images: Iterable[int]) -> "Perm":
        p = tuple.__new__(cls, images)
        if sorted(p) != list(range(len(p))):
            raise ValueError(f"not a permutation of 0..{len(p) - 1}: {tuple(p)!r}")
        return p

    @classmethod
    def identity(cls, degree: int) -> "Perm":
        return tuple.__new__(cls, range(degree))

    @classmethod
    def from_cycles(cls, degree: int, cycles: Sequence[Sequence[int]]) -> "Perm":
        """Build a permutation from disjoint cycles of 0-based points."""
        imgs = list(range(degree))
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + type(cyc)([cyc[0]])):
                if not (0 <= a < degree):
                    raise ValueError(f"point {a} out of range for degree {degree}")
                imgs[a] = b
        return cls(imgs)

    @property
    def images(self) -> "Perm":
        return self

    @property
    def degree(self) -> int:
        return len(self)

    __call__ = tuple.__getitem__

    def __mul__(self, other: "Perm") -> "Perm":
        # (self * other)(x) = self(other(x)): apply other first.  itemgetter
        # needs two indices or more to return a tuple.
        if len(other) > 1:
            return tuple.__new__(Perm, itemgetter(*other)(self))
        return tuple.__new__(Perm, [self[b] for b in other])

    def inverse(self) -> "Perm":
        return tuple.__new__(Perm, sorted(range(len(self)), key=self.__getitem__))

    def __pow__(self, n: int) -> "Perm":
        if n < 0:
            return self.inverse() ** (-n)
        result = Perm.identity(len(self))
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def is_identity(self) -> bool:
        return self == tuple(range(len(self)))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each rotated to start at its least point."""
        seen = [False] * len(self)
        out = []
        for start in range(len(self)):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            x = self[start]
            while x != start:
                seen[x] = True
                cyc.append(x)
                x = self[x]
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def cycle_type(self) -> tuple[int, ...]:
        """Multiset of cycle lengths including fixed points, descending."""
        lengths = [len(c) for c in self.cycles()]
        fixed = len(self) - sum(lengths)
        return tuple(sorted(lengths, reverse=True) + [1] * fixed)

    def order(self) -> int:
        n = 1
        for c in self.cycles():
            n = n * len(c) // gcd(n, len(c))
        return n

    def __repr__(self) -> str:
        cyc = self.cycles()
        if not cyc:
            return f"Perm(id/{len(self)})"
        return "".join("(" + " ".join(str(x) for x in c) + ")" for c in cyc)


# The product, bound at import: the products in normal_closure, normalizer,
# sylow_subgroup and class_walk stay unseen by a rebinding of Perm.__mul__
# (galbench's count), and so do the bulk products through ``_right_mul``
# (whole cosets, BFS levels, conjugation_table, extend_generator_map), which
# never call Perm.__mul__.
_compose = Perm.__mul__
_as_perm = functools.partial(tuple.__new__, Perm)


def _right_mul(s: Perm) -> Callable[[Sequence[int]], tuple[int, ...]]:
    """x -> the image tuple of x * s, in C.  Below degree 2, where
    itemgetter would return a scalar, s is the identity and x * s is x."""
    return itemgetter(*s) if len(s) > 1 else tuple


def _right_coset(H: Iterable[Perm], s: Perm) -> Iterator[Perm]:
    """h * s for each h in H: one map in C, for the whole coset H * s."""
    return map(_as_perm, map(_right_mul(s), H))


class PermGroup:
    """Finite permutation group generated by a list of Perms.

    The element list is computed lazily by breadth-first closure over the
    generators, or taken from a normal closure that holds every generator,
    and kept in sorted order.  Closure raises SizeError past
    ``max_order``.  An empty generator list denotes the trivial group.
    """

    def __init__(
        self,
        degree: int,
        generators: Iterable[Perm],
        name: Optional[str] = None,
        max_order: int = DEFAULT_MAX_ORDER,
    ):
        self.degree = degree
        gens = []
        for g in generators:
            if g.degree != degree:
                raise ValueError(f"generator degree {g.degree} != {degree}")
            if not g.is_identity() and g not in gens:
                gens.append(g)
        self.generators: tuple[Perm, ...] = tuple(gens)
        self.name = name
        self.max_order = max_order
        self._elements: Optional[tuple[Perm, ...]] = None
        self._cayley: Optional[tuple[tuple[Perm, ...], list[int]]] = None
        self._orders: Optional[tuple[int, ...]] = None
        self._index: Optional[dict[Perm, int]] = None
        self._conj_tables: dict[Perm, tuple[int, ...]] = {}
        self._small_gens: Optional[tuple[Perm, ...]] = None
        self._walks: dict[int, tuple[list, list[Perm], list]] = {}
        self._normalizers: dict["Subgroup", "Subgroup"] = {}
        # Hom(self, H) per live target H, as (images, map) pairs, which hold
        # no reference back to either group; made on the first search
        self._homs: Optional[weakref.WeakKeyDictionary] = None

    def __repr__(self) -> str:
        label = self.name or f"degree {self.degree}, {len(self.generators)} gens"
        if self._elements is not None:
            label += f", order {len(self._elements)}"
        return f"PermGroup({label})"

    @property
    def identity(self) -> Perm:
        return Perm.identity(self.degree)

    def _enumerate(self) -> None:
        # the Cayley table always; the sorted element list unless a normal
        # closure that holds every generator has handed it over already.  A
        # BFS level is a slice of the definition order, from ``start`` on.
        defined = [self.identity]
        position = {defined[0]: 0}
        targets: list[int] = []
        steps = [_right_mul(gen) for gen in self.generators]
        start = 0
        while start < len(defined):
            level = defined[start:]
            # a level's products: one map per generator; new ones become Perms
            for row in zip(*[map(f, level) for f in steps]):
                for x in row:
                    q = position.setdefault(x, len(defined))
                    if q == len(defined):
                        defined.append(_as_perm(x))
                    targets.append(q)
            if len(defined) > self.max_order:
                raise SizeError(f"group order exceeds bound {self.max_order}")
            start += len(level)
        self._cayley = (tuple(defined), targets)
        if self._elements is None:
            self._elements = tuple(sorted(defined))

    @property
    def elements(self) -> tuple[Perm, ...]:
        if self._elements is None:
            self._enumerate()
        assert self._elements is not None
        return self._elements

    @property
    def order(self) -> int:
        return len(self.elements)

    @property
    def element_index(self) -> dict[Perm, int]:
        """Position of each element in the sorted element list."""
        if self._index is None:
            self._index = {g: i for i, g in enumerate(self.elements)}
        return self._index

    def conjugation_table(self, g: Perm) -> tuple[int, ...]:
        """Position of g * x * g^-1 for the element x at each position."""
        if g not in self._conj_tables:
            index, at = self.element_index, g.__getitem__
            step = _right_mul(g.inverse())  # step(x) is x * g^-1
            self._conj_tables[g] = tuple(
                index[tuple(map(at, step(x)))] for x in self.elements
            )
        return self._conj_tables[g]

    def __contains__(self, g: Perm) -> bool:
        return g in self.element_index

    def __iter__(self) -> Iterator[Perm]:
        return iter(self.elements)

    def cayley_table(self) -> tuple[tuple[Perm, ...], list[int]]:
        """The breadth-first Cayley record: the elements in definition order,
        and the position q of element p times generator gi at p * k + gi,
        for k generators.  Read in order, it lists every Cayley edge
        (p, gi, q) in BFS order; an edge is a tree edge iff it defines q."""
        if self._cayley is None:
            self._enumerate()
        assert self._cayley is not None
        return self._cayley

    def same_group(self, other: "PermGroup") -> bool:
        return self.degree == other.degree and set(self.elements) == set(
            other.elements
        )

    @property
    def element_orders(self) -> tuple[int, ...]:
        """The order of the element at each position of the sorted list: each
        cyclic <g> is walked once, and g^k has order n / gcd(n, k), n = |<g>|."""
        if self._orders is None:
            index, ident, orders = self.element_index, self.identity, [0] * self.order
            for i, g in enumerate(self.elements):
                if not orders[i]:
                    powers, step, x = [g], _right_mul(g), g
                    while x != ident:
                        x = step(x)
                        powers.append(x)
                    n = len(powers)
                    for k, x in enumerate(powers, 1):
                        orders[index[x]] = n // gcd(n, k)
            self._orders = tuple(orders)
        return self._orders

    def order_profile(self) -> dict[int, int]:
        """Map element order -> count; an isomorphism invariant."""
        return dict(Counter(self.element_orders))

    def small_generating_set(self) -> tuple[Perm, ...]:
        """Greedy generating set, scanning elements in sorted order; found
        once per group."""
        if self._small_gens is None:
            self._small_gens = self.full_subgroup().generating_set()
        return self._small_gens

    # -- subgroup machinery -------------------------------------------------

    def bits_of(self, members: Iterable[Perm]) -> int:
        """The bitset of some elements: bit i for the element at position i."""
        buf = bytearray(self.order // 8 + 1)
        for i in map(self.element_index.__getitem__, members):
            buf[i >> 3] |= 1 << (i & 7)
        return int.from_bytes(buf, "little")

    def subgroup(self, members: Iterable[Perm]) -> "Subgroup":
        """The subgroup with these members, or ValueError unless their closure
        by Dimino's algorithm, stopped past their count, is the members."""
        mset = set(members)
        with contextlib.suppress(SizeError, KeyError):  # outgrew them, or left G
            if _Closure(self.identity, mset, limit=len(mset)).members == mset:
                return Subgroup(self, self.bits_of(mset))
        raise ValueError("member set is not a subgroup")

    def subgroup_from_generators(self, gens: Iterable[Perm]) -> "Subgroup":
        return Subgroup(self, self.bits_of(_Closure(self.identity, gens).members))

    def trivial_subgroup(self) -> "Subgroup":
        return Subgroup(self, 1)  # the identity is at position 0

    def full_subgroup(self) -> "Subgroup":
        return Subgroup(self, (1 << self.order) - 1)

    def order_p_elements(self, p: int) -> tuple[Perm, ...]:
        """All elements of order exactly p, in sorted order.

        For p prime these are the g != identity with g^p = identity."""
        return tuple(g for g, o in zip(self.elements, self.element_orders) if o == p)

    def normal_closure(
        self,
        seed: Iterable[Perm],
        more: Optional[Callable[[int], Iterable[Perm]]] = None,
    ) -> "Subgroup":
        """Smallest normal subgroup containing the given elements.

        The seed is closed by Dimino's algorithm, then the conjugate
        x n x^-1 of each generator n of the closure (those added on the way
        included) by each generator x of this group is added.  So the result
        N has x N x^-1 <= N, and x^-1 is a power of x: N is normal, and the
        least such, as all it adds are conjugates (Holt, Eick and O'Brien,
        Handbook of Computational Group Theory).  ``more``, when given, is
        called once with the order of that closure, and the elements it
        returns join the same closure, which is normal-closed again.  An
        element list not known yet is taken from a closure that holds every
        generator, which is this group, or before ``more`` from a copy of a
        proper one grown by them.  It raises SizeError past ``max_order``."""
        N = _Closure(self.identity, seed, limit=self.max_order)
        conj = [(x, x.inverse()) for x in self.generators]

        def close(start: int) -> bool:
            """Normal-close from N.gens[start] on; True when N is this group."""
            for n in itertools.islice(N.gens, start, None):  # gens grows
                for x, xinv in conj:
                    N.add(_compose(_compose(x, n), xinv))
            whole = all(x in N.members for x in self.generators)
            if whole and self._elements is None:
                self._elements = tuple(sorted(N.members))
            return whole

        whole = close(0)
        if more is not None:
            if not whole and self._elements is None:
                self._elements = tuple(sorted(N.extended(*self.generators).members))
            start = len(N.gens)
            for s in more(len(N.members)):
                N.add(s)
            whole = close(start)
        return self.full_subgroup() if whole else Subgroup(self, self.bits_of(N.members))

    def _subgroup_where(self, holds: Callable[[Perm], bool]) -> "Subgroup":
        """The elements g with ``holds(g)``, which must form a subgroup P.  With
        S the part of P found so far, s * g is in P iff g is, for s in S: so
        one element of each right coset S * g is tested, a passing one grows
        S by Dimino's algorithm and a failing one rules out its whole coset."""
        S = _Closure(self.identity)
        ruled_out: set[Perm] = set()
        for g in self.elements:
            if g in S.members or g in ruled_out:
                continue
            if holds(g):
                S.add(g)
            else:
                ruled_out.update(_right_coset(S.members, g))
        return Subgroup(self, self.bits_of(S.members))

    def centralizer(self, elems: Iterable[Perm]) -> "Subgroup":
        targets = list(elems)
        return self._subgroup_where(lambda g: all(g * s == s * g for s in targets))

    def center(self) -> "Subgroup":
        """Z(G): the positions that every generator's conjugation table fixes."""
        bits = (1 << self.order) - 1
        for table in map(self.conjugation_table, self.generators):
            bits &= sum(1 << i for i, j in enumerate(table) if i == j)
        return Subgroup(self, bits)

    def normalizer(self, H: "Subgroup") -> "Subgroup":
        """N(H), kept by this group: H closed by Dimino's algorithm with the
        Schreier generators x_D^-1 g x_C of the non-tree edges of H's class
        walk, each mapping H to H, until it has |G| / |class| elements, the
        stabilizer's order (Holt, Eick and O'Brien, Handbook of
        Computational Group Theory, 4.1), or else CertificateError."""
        if H not in self._normalizers:
            conjugates, x, edges = H.class_walk()
            order = self.order // len(conjugates)
            N = _Closure(self.identity, H.members)
            for c, g, d in edges:
                if len(N.members) == order:
                    break
                N.add(_compose(_compose(x[d].inverse(), g), x[c]))
            if len(N.members) != order:
                raise CertificateError(f"|N(H)| = {len(N.members)}, not {order}")
            self._normalizers[H] = Subgroup(self, self.bits_of(N.members))
        return self._normalizers[H]

    def quotient(self, N: "Subgroup") -> "PermGroup":
        """G/N as the action of G's generators on the N-orbits, else on the
        left cosets of N.

        The image of an action of G has order [G:K] for its kernel K.  When
        every generator maps N-orbits onto N-orbits, G acts on them and N
        lies in the kernel, so |image| * |N| = |G| holds exactly when the
        kernel is N: that one check proves N normal and the image G/N.  For
        N = 1 the image is G in its own degree.  On k orbits the image has at
        most k! elements, so the attempt is skipped when k! < [G:N].
        Otherwise G acts on the left cosets of N, with kernel the core of N,
        the intersection of N's conjugates, which lies in N.  So |G/N| * |N|
        = |G| holds exactly when the core is N, that is when N is normal:
        again one check proves both.  When it fails, NotNormal is raised for
        a non-normal N and CertificateError for a normal one (Holt, Eick and
        O'Brien, Handbook of Computational Group Theory, 4.3-4.4).
        """
        if N.parent is not self and not N.parent.same_group(self):
            raise ValueError("subgroup does not belong to this group")
        index = self.order // N.order
        qname = f"{self.name}/N" if self.name else None
        for degree, gen_images in self._quotient_actions(N, index):
            # a correct answer has [G:N] elements: enumerate no further than that
            Q = PermGroup(degree, gen_images, name=qname, max_order=index)
            with contextlib.suppress(SizeError):
                if Q.order * N.order == self.order:
                    Q.max_order = self.max_order
                    return Q
        if not N.is_normal():
            raise NotNormal("quotient by a non-normal subgroup")
        raise CertificateError("quotient action kernel is not the subgroup")

    def _quotient_actions(
        self, N: "Subgroup", index: int
    ) -> Iterator[tuple[int, list[Perm]]]:
        """Actions of G whose kernel may be N, as (degree, generator images).

        First the action on the k orbits of N, numbered by least point,
        unless k! < index or a generator does not map orbits onto orbits;
        then the action on the left cosets of N: x * rN = (x * r)N."""
        orbit_of, least = [-1] * self.degree, []
        for x in range(self.degree):
            if orbit_of[x] < 0:
                for y in set(map(itemgetter(x), N.members)):
                    orbit_of[y] = len(least)
                least.append(x)
        k = len(least)
        if k >= index or math.factorial(k) >= index:
            spread = _right_mul(orbit_of)  # spread(image)[y] = image[orbit of y]
            gen_images = []
            for g in self.generators:
                moved = _right_mul(g)(orbit_of)  # moved[y] = orbit of g(y)
                image = [moved[x] for x in least]
                if moved != spread(image):  # g splits an orbit
                    break
                gen_images.append(_as_perm(image))
            else:
                yield k, gen_images
        reps, coset = N.cosets()
        yield len(reps), [
            _as_perm([coset[x * r] for r in reps]) for x in self.generators
        ]

    def elementary_abelian_p_subgroups(self, p: int) -> list["Subgroup"]:
        """All subgroups isomorphic to (Z/p)^r, r >= 1, sorted by (order,
        member_key): the class walks of one representative per class, found
        by cyclic extension (Holt, Eick and O'Brien, Handbook of
        Computational Group Theory, on subgroup lattices).  A representative
        H extends to H x <y> by each order-p y outside H commuting with H's
        generators, and every class one order up has such a member.  A y in
        a subgroup K >= H of that order found already gives H x <y> = K, so
        it is skipped: every extension made is a new class, walked once.
        Past ``MAX_ELEMENTARY_ABELIAN`` subgroups stored it raises SizeError."""
        index, els = self.element_index, self.elements
        p_elems = self.order_p_elements(p)
        times = {x: _right_mul(x) for x in p_elems}  # times[x](y) is y * x

        @functools.cache
        def commuting(x: Perm) -> int:  # the bits of the order-p y with xy = yx
            tx = times[x]
            return sum(1 << index[y] for y in p_elems if times[y](x) == tx(y))

        family: dict[int, Subgroup] = {}
        layer = [(_Closure(self.identity), 1)]  # the identity is at position 0
        p_bits = sum(1 << index[x] for x in p_elems)
        while layer:
            nxt: list[tuple[_Closure, int]] = []
            above: list[int] = []  # every member found so far of the next order
            for H, hbits in layer:
                cand = p_bits & ~hbits
                for x in H.gens:
                    cand &= commuting(x)
                for K in above:
                    if K & hbits == hbits:
                        cand &= ~K
                while cand:
                    E = H.extended(els[(cand & -cand).bit_length() - 1])
                    S = Subgroup(self, self.bits_of(E.members))
                    nxt.append((E, S.bits))
                    for C in S.class_walk()[0]:
                        family[C.bits] = C
                        above.append(C.bits)
                        if C.bits & hbits == hbits:
                            cand &= ~C.bits
                    if len(family) > MAX_ELEMENTARY_ABELIAN:
                        raise SizeError("elementary abelian search blow-up")
            layer = nxt
        return sorted(family.values(), key=lambda s: (s.order, s.member_key()))

    def sylow_subgroup(self, p: int) -> "Subgroup":
        """One Sylow p-subgroup: a p-subgroup H grows by the first y of
        p-power order, in sorted order, outside H with y h y^-1 in H for its
        generators h, so H<y> is a p-group.  Such a y exists until |H| is the
        p-part of |G|: H lies in a Sylow P, and N_P(H) > H in a p-group."""
        pk = _p_part(self.order, p)
        orders = zip(self.elements, self.element_orders)
        ys = [g for g, o in orders if _p_part(o, p) == o > 1]
        H = _Closure(self.identity)
        while len(H.members) < pk:
            for y in ys:
                if y not in H.members:
                    yinv = y.inverse()
                    if all(_compose(_compose(y, h), yinv) in H.members for h in H.gens):
                        H.add(y)
                        break
            else:
                raise CertificateError(f"Sylow search stuck at order {len(H.members)}")
        return Subgroup(self, self.bits_of(H.members))

    def sylow_subgroups(self, p: int) -> list["Subgroup"]:
        """All Sylow p-subgroups: the conjugacy class of one."""
        return sorted(self.sylow_subgroup(p).conjugacy_class(), key=Subgroup.member_key)


def _p_part(n: int, p: int) -> int:
    out = 1
    while n % p == 0:
        out *= p
        n //= p
    return out


def _bit_positions(bits: int) -> list[int]:
    """The set bits' positions, ascending.  A sparse bitset, such as a
    small subgroup of a large group, is read lowest bit first, at a few
    integer operations per member; a dense one through ``bin()`` and a
    regex, whose cost follows the top bit's position."""
    if bits.bit_count() < _SPARSE_BITS:
        out = []
        while bits:
            low = bits & -bits
            out.append(low.bit_length() - 1)
            bits ^= low
        return out
    # bin(bits)[:1:-1] has bit i at index i
    return [m.start() for m in _ONE.finditer(bin(bits)[:1:-1])]


class _Closure:
    """A group of permutations grown one generator at a time (Dimino).

    ``members`` is closed under products at all times and ``gens``
    generates it.  ``add(s)`` does nothing when s is already a member.
    Otherwise, with H the current group, <H, s> is the union of the right
    cosets H * x for x in the closure of {s} under right multiplication by
    the generators; a coset is added only when its representative r * g
    lies outside the group so far.  That costs about |<H, s>| products
    plus one per (new coset, generator) pair, against |<H, s>|^2 for a
    naive closure (Butler, Fundamental Algorithms for Permutation Groups,
    LNCS 559).  Growing past ``limit`` members raises SizeError.
    """

    __slots__ = ("gens", "members", "limit")

    def __init__(
        self, identity: Perm, seed: Iterable[Perm] = (), limit: float = math.inf
    ):
        self.gens: list[Perm] = []
        self.members: set[Perm] = {identity}
        self.limit = limit
        for s in seed:
            self.add(s)

    def add(self, s: Perm) -> bool:
        """Extend the group by s; False when s is already a member."""
        members = self.members
        if s in members:
            return False
        H = tuple(members)
        self.gens.append(s)
        members.update(_right_coset(H, s))
        reps = [s]
        for r in reps:  # reps grows while it is scanned, a rep per coset added
            if len(members) > self.limit:
                raise SizeError(f"group order exceeds bound {self.limit}")
            for g in self.gens:
                x = r * g
                if x not in members:
                    members.update(_right_coset(H, x))
                    reps.append(x)
        return True

    def extended(self, *gens: Perm) -> "_Closure":
        """A copy extended by gens; this closure is left as it is."""
        out = _Closure.__new__(_Closure)
        out.gens, out.limit = list(self.gens), self.limit
        out.members = set(self.members)
        for s in gens:
            out.add(s)
        return out


class Subgroup:
    """A subgroup of a PermGroup, stored as a bitset over the parent's
    sorted element list: bit i is set when the element at position i is
    a member.  ``members`` lists them in that sorted order.  The bits are
    trusted; ``PermGroup.subgroup`` checks a member set."""

    __slots__ = ("parent", "bits", "_members")

    def __init__(self, parent: PermGroup, bits: int):
        self.parent, self.bits, self._members = parent, bits, None

    @property
    def members(self) -> tuple[Perm, ...]:
        if self._members is None:
            at = self.parent.elements.__getitem__
            self._members = tuple(map(at, _bit_positions(self.bits)))
        return self._members

    @property
    def order(self) -> int:
        return self.bits.bit_count()

    def member_key(self) -> tuple[tuple[int, ...], ...]:
        return self.members

    def __contains__(self, g: Perm) -> bool:
        i = self.parent.element_index.get(g)
        return i is not None and (self.bits >> i) & 1 == 1

    def __eq__(self, other: object) -> bool:
        same = isinstance(other, Subgroup) and other.parent is self.parent
        return same and self.bits == other.bits

    def __hash__(self) -> int:
        return hash((id(self.parent), self.bits))

    def _same_parent(self, other: "Subgroup") -> int:
        if other.parent is not self.parent:
            raise ValueError("subgroups of different groups")
        return other.bits

    def __le__(self, other: "Subgroup") -> bool:
        return self.bits & self._same_parent(other) == self.bits

    def __repr__(self) -> str:
        return f"Subgroup(order {self.order} of {self.parent!r})"

    def is_normal(self) -> bool:
        return all(self.conjugate(g) == self for g in self.parent.generators)

    def conjugate(self, g: Perm) -> "Subgroup":
        """g H g^-1, by the parent's conjugation table of g."""
        table = self.parent.conjugation_table(g)
        bits = sum(1 << table[i] for i in _bit_positions(self.bits))
        return Subgroup(self.parent, bits)

    def class_walk(self) -> tuple[list["Subgroup"], list[Perm], list]:
        """The conjugacy class H = C_0, C_1, ... walked once by the parent's
        generators (every element is a positive word in them): the C_c, an
        x_c with C_c = x_c H x_c^-1 for each, and the walk's non-tree edges
        (c, g, d), g C_c g^-1 = C_d.  The parent keeps each walk under its
        root H, and a subgroup with no walk of its own is walked from itself;
        the skeleton's representatives are the roots of the search's walks."""
        G = self.parent
        if self.bits not in G._walks:
            out, x, edges = [self], [G.identity], []
            seen = {self.bits: 0}
            # each conjugate's member positions, carried from its parent's
            # through the conjugation tables rather than read off its bits
            where = [_bit_positions(self.bits)]
            tables = list(zip(G.generators, map(G.conjugation_table, G.generators)))
            for c, members in enumerate(where):  # where grows while it is scanned
                for g, table in tables:
                    moved = [table[i] for i in members]
                    bits = sum(1 << i for i in moved)
                    d = seen.setdefault(bits, len(out))
                    if d == len(out):
                        out.append(Subgroup(G, bits))
                        x.append(_compose(g, x[c]))
                        where.append(moved)
                    else:
                        edges.append((c, g, d))
            G._walks[self.bits] = (out, x, edges)
        return G._walks[self.bits]

    def conjugacy_class(self) -> list["Subgroup"]:
        """Every conjugate g H g^-1, this subgroup first, in walk order."""
        return [self] + self.class_walk()[0][1:]

    def cosets(self) -> tuple[list[Perm], dict[Perm, int]]:
        """The left cosets gH as (reps, index): reps[c] is the least
        element of coset c, numbered in the parent's sorted element order,
        and index maps every parent element to its coset number."""
        index: dict[Perm, int] = {}
        reps: list[Perm] = []
        times = [_right_mul(h) for h in self.members]  # g * h is _right_mul(h)(g)
        for g in self.parent.elements:
            if g not in index:
                c = len(reps)
                for f in times:
                    index[f(g)] = c
                reps.append(g)
        return reps, index

    def intersection(self, other: "Subgroup") -> "Subgroup":
        return Subgroup(self.parent, self.bits & self._same_parent(other))

    def generating_set(self) -> tuple[Perm, ...]:
        """Greedy generators: each member, in sorted order, not yet generated."""
        closure = _Closure(self.parent.identity)
        for g in self.members:
            if len(closure.members) == self.order:
                break
            closure.add(g)
        return tuple(closure.gens)

    def as_group(self, name: Optional[str] = None) -> PermGroup:
        """The subgroup as a standalone PermGroup on the same points, on its
        greedy generating set, handed its members as its sorted element list
        and that set as its own greedy generating set, which it is."""
        gens = self.generating_set()
        group = PermGroup(
            self.parent.degree, gens, name=name, max_order=self.parent.max_order
        )
        group._elements, group._small_gens = self.members, gens
        return group


class GroupHom:
    """A homomorphism between permutation groups, defined on generators.

    The generator images are extended to the whole source by breadth-first
    words; construction fails if an image lies outside the target or the
    extension is inconsistent (i.e. the map is not a homomorphism).
    """

    def __init__(
        self,
        source: PermGroup,
        target: PermGroup,
        gen_images: Sequence[Perm],
        _map: Optional[dict[Perm, Perm]] = None,
    ):
        if len(gen_images) != len(source.generators):
            raise ValueError("need one image per source generator")
        self.source = source
        self.target = target
        self.gen_images = tuple(gen_images)
        if _map is None:
            if not all(map(target.__contains__, self.gen_images)):
                raise ValueError("generator images must lie in the target")
            _map = extend_generator_map(source, self.gen_images, target.identity)
            if _map is None:
                raise ValueError("generator images do not define a homomorphism")
        self._map = _map

    def __call__(self, g: Perm) -> Perm:
        return self._map[g]

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, GroupHom)
            and self.source is other.source
            and self.target is other.target
            and self.gen_images == other.gen_images
        )

    def __hash__(self) -> int:
        return hash((id(self.source), id(self.target), self.gen_images))

    def key(self) -> tuple[tuple[int, ...], ...]:
        return self.gen_images

    def __repr__(self) -> str:
        return f"GroupHom({self.source!r} -> {self.target!r}, {list(self.gen_images)})"

    def is_surjective(self) -> bool:
        return len(set(self._map.values())) == self.target.order

    def is_isomorphism(self) -> bool:
        return self.source.order == self.target.order and self.is_surjective()


def extend_generator_map(
    source: PermGroup, images: Sequence[Perm], identity: Perm
) -> Optional[dict[Perm, Perm]]:
    """Extend generator images to all elements, or None if inconsistent.

    The one routine behind homomorphisms and G-set actions; ``identity``
    is the codomain's.  It walks the source's Cayley edges (p, gi, q) once,
    in BFS order, at one codomain product f(p) * f(gen gi) each, by a map
    bound once per generator image: a tree edge defines f(q) as that
    product, a closing edge must find it equal to f(q), compared as plain
    tuples, and the first that does not returns None.  So f(g * s) =
    f(g) * f(s) holds for every element g and generator s, which proves f
    multiplicative: by induction f(g * w) = f(g) * f(w) for every positive
    word w in the generators, and every element of a finite group is such
    a word.
    """
    defined, targets = source.cayley_table()
    f = [identity]
    steps = [_right_mul(image) for image in images]  # step(x) is x * image
    qs = iter(targets)
    for fp in f:  # f grows on the way: p's edges come after p's definition
        for step, q in zip(steps, qs):
            x = step(fp)
            if q == len(f):
                f.append(_as_perm(x))
            elif x != f[q]:
                return None
    return dict(zip(defined, f))


def homomorphisms(G: PermGroup, H: PermGroup) -> list[GroupHom]:
    """All homomorphisms G -> H, sorted by generator images, by brute-force
    generator assignment.

    Candidate images are pruned by order divisibility; each candidate is
    extended and proved multiplicative by ``extend_generator_map``.  The
    search runs once per pair: G keeps its result per target H, and each
    call returns a fresh list of fresh GroupHoms.
    """
    if G._homs is None:
        G._homs = weakref.WeakKeyDictionary()
    found = G._homs.get(H)
    if found is None:
        cand_lists = []
        total = 1
        for g in G.generators:
            o = g.order()
            cands = [h for h, b in zip(H.elements, H.element_orders) if o % b == 0]
            cand_lists.append(cands)
            total *= len(cands)
        if total > HOM_SEARCH_BOUND:
            raise SizeError(f"homomorphism search space {total} exceeds bound")
        found = []
        for images in itertools.product(*cand_lists):
            fmap = extend_generator_map(G, images, H.identity)
            if fmap is not None:
                found.append((images, fmap))
        G._homs[H] = found  # product order over sorted lists: sorted by images
    return [GroupHom(G, H, images, _map=fmap) for images, fmap in found]


def are_conjugate_homs(f: GroupHom, g: GroupHom) -> bool:
    """True iff some x in the target conjugates f into g pointwise."""
    if f.source is not g.source or f.target is not g.target:
        raise ValueError("homomorphisms must share source and target")
    for x in f.target.elements:
        xi = x.inverse()
        if all(
            x * fi * xi == gi for fi, gi in zip(f.gen_images, g.gen_images)
        ):
            return True
    return False


def _conjugation_sweep(
    images: tuple[Perm, ...], conjugators: Sequence[tuple[Callable, Callable]]
) -> tuple[set[tuple[tuple[int, ...], ...]], list[int]]:
    """The conjugates x f x^-1 of generator images f, one per pair
    (x.__getitem__, _right_mul(x^-1)) in ``conjugators``, at two C calls
    per image: their set, and the positions of the x that give f back."""
    orbit, fixed = set(), []
    for i, (at, step) in enumerate(conjugators):
        key = tuple([tuple(map(at, step(fi))) for fi in images])
        orbit.add(key)
        if key == images:
            fixed.append(i)
    return orbit, fixed


def hom_classes_with_centralizers(
    G: PermGroup, H: PermGroup
) -> list[tuple[list[GroupHom], Subgroup]]:
    """The conjugacy classes of Hom(G, H), each with the centralizer in H of
    its representative's image, read off one conjugation sweep per class.

    The homomorphisms are scanned in sorted order, so the first one not in
    a class yet is the sorted-least of its own, the representative f.  Its
    generator images are conjugated by every x in H: the distinct results
    are f's class, and the x with x f x^-1 = f form C_H(f(G)), the
    stabilizer.  CertificateError unless |class| * |C_H(f(G))| = |H|,
    orbit-stabilizer (Holt, Eick and O'Brien, Handbook of Computational
    Group Theory, 4.1).
    """
    homs = homomorphisms(G, H)
    by_key = {f.key(): f for f in homs}
    conjugators = [(x.__getitem__, _right_mul(x.inverse())) for x in H.elements]
    out: list[tuple[list[GroupHom], Subgroup]] = []
    assigned: set[tuple[tuple[int, ...], ...]] = set()
    for f in homs:
        if f.key() in assigned:
            continue
        orbit, fixed = _conjugation_sweep(f.gen_images, conjugators)
        if len(orbit) * len(fixed) != H.order:
            raise CertificateError(
                f"class of {len(orbit)} homomorphisms with a stabilizer of "
                f"{len(fixed)} in a group of order {H.order}"
            )
        assigned |= orbit
        centralizer = Subgroup(H, sum(1 << i for i in fixed))
        out.append(([by_key[k] for k in sorted(orbit)], centralizer))
    return out


def hom_conjugacy_classes(G: PermGroup, H: PermGroup) -> list[list[GroupHom]]:
    """Conjugacy classes of Hom(G, H); class reps are the sorted-least."""
    return [cls for cls, _ in hom_classes_with_centralizers(G, H)]


def find_isomorphism(
    G: PermGroup, H: PermGroup, gens: Optional[Sequence[Perm]] = None
) -> Optional[GroupHom]:
    """An isomorphism G -> H, or None; order profiles prune the search.

    The search maps ``gens``, elements that generate G (by default
    ``G.small_generating_set()``), to the first images in product order
    over H's sorted elements that define one.  Between groups of equal
    order every surjection is one.  Images keep the orders of generators
    and of pair products."""
    if G.order != H.order or G.order_profile() != H.order_profile():
        return None
    return _first_surjection(G, H, int.__eq__, gens)


def find_surjection(G: PermGroup, H: PermGroup) -> Optional[GroupHom]:
    """A surjective homomorphism G -> H, or None."""
    if G.order % H.order != 0:
        return None
    return _first_surjection(G, H, lambda a, b: a % b == 0)


def _first_surjection(
    G: PermGroup,
    H: PermGroup,
    fits: Callable[[int, int], bool],
    gens: Optional[Sequence[Perm]] = None,
) -> Optional[GroupHom]:
    """The first surjection G -> H that ``extend_generator_map`` accepts,
    among the images ``search_generator_images`` proposes for ``gens`` (by
    default G.small_generating_set()) under ``fits``."""
    gens = G.small_generating_set() if gens is None else tuple(gens)
    presented = G  # G's own Cayley table when G is presented on that set
    if gens != G.generators:
        presented = PermGroup(G.degree, gens, max_order=G.max_order)
    for images in search_generator_images(gens, H, fits):
        fmap = extend_generator_map(presented, images, H.identity)
        if fmap is not None:
            return GroupHom(G, H, [fmap[g] for g in G.generators], _map=fmap)
    return None


def search_generator_images(
    gens: Sequence[Perm], H: PermGroup, fits: Callable[[int, int], bool]
) -> Iterator[tuple[Perm, ...]]:
    """The one search for generator images: the tuples that generate H,
    by backtracking in product order over H's sorted elements (Holt, Eick
    and O'Brien, Handbook of Computational Group Theory, §4).

    The image of g_d in ``gens`` has an order b with ``fits(a, b)``, a the
    order of g_d, and once it is set the image of each pair product
    g_i * g_d (i < d) must fit that product's order the same way.  A
    homomorphism divides every order and an isomorphism keeps it, so under
    divisibility, or equality between groups of one order profile, every
    witness passes and a caller's acceptance test meets the same first
    witness as on an ``itertools.product`` scan.  Pair products are taken
    on positions in H's sorted element list, each computed once.
    """
    els, index, orders = H.elements, H.element_index, H.element_orders
    n, k = len(els), len(gens)
    positions = [
        [i for i, b in enumerate(orders) if fits(a, b)] for a in map(Perm.order, gens)
    ]
    pairs = [[(i, (gens[i] * g).order()) for i in range(d)] for d, g in enumerate(gens)]
    products: dict[int, int] = {}
    slots = [0] * k

    def holds(i: int, d: int, m: int) -> bool:  # the image of g_i * g_d fits m
        key = slots[i] * n + slots[d]
        if key not in products:
            products[key] = index[els[slots[i]] * els[slots[d]]]
        return fits(m, orders[products[key]])

    def walk(d: int) -> Iterator[tuple[Perm, ...]]:
        if d == k:
            images = tuple(els[i] for i in slots)
            if len(_Closure(H.identity, images).members) == n:
                yield images
            return
        for slots[d] in positions[d]:
            if all(holds(i, d, m) for i, m in pairs[d]):
                yield from walk(d + 1)

    return walk(0)
