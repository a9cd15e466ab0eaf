"""Exact arithmetic for finite permutation groups.

Elements are permutations of {0, ..., degree-1} stored as image tuples.
A whole group is enumerated once by breadth-first closure over its
generators, which also records the words that ``extend_generator_map``,
the one routine that builds and verifies homomorphisms and G-set
actions, extends generator images along.  Generated subgroups (normal closures, elementary
abelian and Sylow subgroups, generating sets, the generation tests of
the isomorphism search) are closed by Dimino's algorithm, at about one
product per element of the result.  Every element list is sorted
lexicographically by image tuple, so all derived output (subgroups,
quotients, homomorphism lists) is stable across runs.  Values are
immutable after construction and safe to share across threads; lazy
caches are filled at most once.
"""

from __future__ import annotations

import itertools
from math import gcd
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .errors import NotNormal, SizeError

DEFAULT_MAX_ORDER = 20000
HOM_SEARCH_BOUND = 10**7


class Perm:
    """A permutation of {0, ..., degree-1}, stored as its image tuple."""

    __slots__ = ("images",)

    def __init__(self, images: Iterable[int]):
        imgs = tuple(images)
        if sorted(imgs) != list(range(len(imgs))):
            raise ValueError(f"not a permutation of 0..{len(imgs) - 1}: {imgs!r}")
        self.images = imgs

    @classmethod
    def _raw(cls, images: tuple[int, ...]) -> "Perm":
        # fast path for image tuples already known to be permutations
        p = cls.__new__(cls)
        p.images = images
        return p

    @classmethod
    def identity(cls, degree: int) -> "Perm":
        return cls(range(degree))

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
    def degree(self) -> int:
        return len(self.images)

    def __call__(self, point: int) -> int:
        return self.images[point]

    def __mul__(self, other: "Perm") -> "Perm":
        # (self * other)(x) = self(other(x)): apply other first.
        a = self.images
        return Perm._raw(tuple(a[b] for b in other.images))

    def inverse(self) -> "Perm":
        inv = [0] * len(self.images)
        for x, y in enumerate(self.images):
            inv[y] = x
        return Perm._raw(tuple(inv))

    def __pow__(self, n: int) -> "Perm":
        if n < 0:
            return self.inverse() ** (-n)
        result = Perm.identity(self.degree)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def is_identity(self) -> bool:
        return all(i == x for i, x in enumerate(self.images))

    def cycles(self) -> list[tuple[int, ...]]:
        """Nontrivial cycles, each rotated to start at its least point."""
        seen = [False] * len(self.images)
        out = []
        for start in range(len(self.images)):
            if seen[start]:
                continue
            cyc = [start]
            seen[start] = True
            x = self.images[start]
            while x != start:
                seen[x] = True
                cyc.append(x)
                x = self.images[x]
            if len(cyc) > 1:
                out.append(tuple(cyc))
        return out

    def cycle_type(self) -> tuple[int, ...]:
        """Multiset of cycle lengths including fixed points, descending."""
        lengths = [len(c) for c in self.cycles()]
        fixed = len(self.images) - sum(lengths)
        return tuple(sorted(lengths, reverse=True) + [1] * fixed)

    def order(self) -> int:
        n = 1
        for c in self.cycles():
            n = n * len(c) // gcd(n, len(c))
        return n

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Perm) and self.images == other.images

    def __hash__(self) -> int:
        return hash(self.images)

    def __lt__(self, other: "Perm") -> bool:
        return self.images < other.images

    def __le__(self, other: "Perm") -> bool:
        return self.images <= other.images

    def __repr__(self) -> str:
        cyc = self.cycles()
        if not cyc:
            return f"Perm(id/{self.degree})"
        return "".join("(" + " ".join(str(x) for x in c) + ")" for c in cyc)


class PermGroup:
    """Finite permutation group generated by a list of Perms.

    The element list is computed lazily by breadth-first closure over the
    generators and kept in sorted order.  Closure raises SizeError past
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
        self._defs: Optional[list[tuple[Perm, Optional[Perm], Optional[int]]]] = None
        self._order_profile: Optional[dict[int, int]] = None

    def __repr__(self) -> str:
        label = self.name or f"degree {self.degree}, {len(self.generators)} gens"
        if self._elements is not None:
            label += f", order {len(self._elements)}"
        return f"PermGroup({label})"

    @property
    def identity(self) -> Perm:
        return Perm.identity(self.degree)

    def _enumerate(self) -> None:
        if self._elements is not None:
            return
        ident = self.identity
        seen = {ident}
        defs: list[tuple[Perm, Optional[Perm], Optional[int]]] = [(ident, None, None)]
        queue = [ident]
        while queue:
            nxt = []
            for cur in queue:
                for gi, gen in enumerate(self.generators):
                    new = cur * gen
                    if new not in seen:
                        seen.add(new)
                        defs.append((new, cur, gi))
                        nxt.append(new)
                        if len(seen) > self.max_order:
                            raise SizeError(
                                f"group order exceeds bound {self.max_order}"
                            )
            queue = nxt
        self._defs = defs
        self._elements = tuple(sorted(seen))

    @property
    def elements(self) -> tuple[Perm, ...]:
        self._enumerate()
        assert self._elements is not None
        return self._elements

    @property
    def order(self) -> int:
        return len(self.elements)

    def __contains__(self, g: Perm) -> bool:
        return g in set(self.elements)

    def __iter__(self) -> Iterator[Perm]:
        return iter(self.elements)

    def definition_order(self) -> list[tuple[Perm, Optional[Perm], Optional[int]]]:
        """Elements as (perm, parent, gen index) with perm = parent * gen."""
        self._enumerate()
        assert self._defs is not None
        return self._defs

    def same_group(self, other: "PermGroup") -> bool:
        return self.degree == other.degree and set(self.elements) == set(
            other.elements
        )

    def order_profile(self) -> dict[int, int]:
        """Map element order -> count; an isomorphism invariant."""
        if self._order_profile is None:
            prof: dict[int, int] = {}
            for g in self.elements:
                o = g.order()
                prof[o] = prof.get(o, 0) + 1
            self._order_profile = prof
        return dict(self._order_profile)

    def small_generating_set(self) -> tuple[Perm, ...]:
        """Greedy generating set, scanning elements in sorted order."""
        return self.full_subgroup().generating_set()

    # -- subgroup machinery -------------------------------------------------

    def subgroup(self, members: Iterable[Perm]) -> "Subgroup":
        return Subgroup(self, members)

    def subgroup_from_generators(self, gens: Iterable[Perm]) -> "Subgroup":
        return Subgroup(self, _Closure(self.identity, gens).members, _closed=True)

    def trivial_subgroup(self) -> "Subgroup":
        return Subgroup(self, [self.identity], _closed=True)

    def full_subgroup(self) -> "Subgroup":
        return Subgroup(self, self.elements, _closed=True)

    def order_p_elements(self, p: int) -> tuple[Perm, ...]:
        """All g with g^p = identity and g != identity (order exactly p)."""
        ident = self.identity
        return tuple(g for g in self.elements if g != ident and g ** p == ident)

    def normal_closure(self, seed: Iterable[Perm]) -> "Subgroup":
        """Smallest normal subgroup containing the given elements."""
        conj_closed = set()
        queue = list(seed)
        gens_both = [g for g in self.generators] + [
            g.inverse() for g in self.generators
        ]
        while queue:
            t = queue.pop()
            if t in conj_closed:
                continue
            conj_closed.add(t)
            for g in gens_both:
                c = g * t * g.inverse()
                if c not in conj_closed:
                    queue.append(c)
        return self.subgroup_from_generators(conj_closed)

    def centralizer(self, elems: Iterable[Perm]) -> "Subgroup":
        targets = list(elems)
        members = [
            g for g in self.elements if all(g * s == s * g for s in targets)
        ]
        return Subgroup(self, members, _closed=True)

    def center(self) -> "Subgroup":
        return self.centralizer(self.generators if self.generators else [])

    def normalizer(self, H: "Subgroup") -> "Subgroup":
        hset = set(H.members)
        members = []
        for g in self.elements:
            ginv = g.inverse()
            if all(g * h * ginv in hset for h in H.members):
                members.append(g)
        return Subgroup(self, members, _closed=True)

    def quotient(self, N: "Subgroup") -> tuple["PermGroup", "GroupHom"]:
        """Permutation action on cosets of a normal subgroup.

        Returns the quotient group together with the projection
        homomorphism; raises NotNormal otherwise.
        """
        if N.parent is not self and not N.parent.same_group(self):
            raise ValueError("subgroup does not belong to this group")
        if not N.is_normal():
            raise NotNormal("quotient by a non-normal subgroup")
        nset = sorted(N.members)
        coset_of: dict[Perm, int] = {}
        reps: list[Perm] = []
        for g in self.elements:
            if g in coset_of:
                continue
            idx = len(reps)
            reps.append(g)
            for n in nset:
                coset_of[g * n] = idx
        def coset_perm(x: Perm) -> Perm:
            return Perm(coset_of[x * reps[c]] for c in range(len(reps)))
        gen_images = tuple(coset_perm(g) for g in self.generators)
        qname = f"{self.name}/N" if self.name else None
        Q = PermGroup(len(reps), gen_images, name=qname, max_order=self.max_order)
        proj = GroupHom(self, Q, gen_images)
        return Q, proj

    def elementary_abelian_p_subgroups(
        self, p: int, include_trivial: bool = False
    ) -> list["Subgroup"]:
        """All subgroups isomorphic to (Z/p)^r, r >= 1 (or r >= 0)."""
        ident = self.identity
        p_elems = [g for g in self.elements if g != ident and g ** p == ident]
        found: dict[frozenset[Perm], Subgroup] = {}
        layer: list[_Closure] = []
        for x in p_elems:
            C = _Closure(ident, [x])
            key = frozenset(C.members)
            if key not in found:
                found[key] = Subgroup(self, key, _closed=True)
                layer.append(C)
        while layer:
            nxt: list[_Closure] = []
            for H in layer:
                for y in p_elems:
                    # y of order p outside H and commuting with H's
                    # generators gives H x <y>, of order |H| * p
                    if y in H.members or not all(y * h == h * y for h in H.gens):
                        continue
                    E = H.extended(y)
                    key = frozenset(E.members)
                    if key not in found:
                        found[key] = Subgroup(self, key, _closed=True)
                        nxt.append(E)
                        if len(found) > 4096:
                            raise SizeError("elementary abelian search blow-up")
            layer = nxt
        out = sorted(found.values(), key=lambda s: (s.order, s.member_key()))
        if include_trivial:
            out.insert(0, self.trivial_subgroup())
        return out

    def p_residual(self, p: int) -> "Subgroup":
        """Smallest normal subgroup with p-power index.

        Normal closure of all elements of order coprime to p; the quotient
        is the maximal p-group quotient.
        """
        coprime = [
            g for g in self.elements if not g.is_identity() and g.order() % p != 0
        ]
        return self.normal_closure(coprime)

    def sylow_subgroup(self, p: int) -> "Subgroup":
        """One Sylow p-subgroup, by greedy extension of a p-subgroup."""
        pk = 1
        n = self.order
        while n % p == 0:
            pk *= p
            n //= p
        H = _Closure(self.identity)
        while len(H.members) < pk:
            normalizer = self.normalizer(Subgroup(self, H.members, _closed=True))
            ext = None
            for y in normalizer.members:
                if y in H.members:
                    continue
                if y.order() % p == 0:
                    y = y ** (y.order() // _p_part(y.order(), p))
                    if y in H.members or y.is_identity():
                        continue
                    E = H.extended(y)
                    if _is_p_power(len(E.members), p):
                        ext = E
                        break
            if ext is None:
                raise SizeError("sylow search failed to extend")  # pragma: no cover
            H = ext
        return Subgroup(self, H.members, _closed=True)

    def sylow_subgroups(self, p: int) -> list["Subgroup"]:
        """All Sylow p-subgroups (conjugates of one, deduplicated)."""
        P = self.sylow_subgroup(p)
        seen: dict[frozenset[Perm], Subgroup] = {}
        for g in self.elements:
            Q = P.conjugate(g)
            seen.setdefault(frozenset(Q.members), Q)
        return sorted(seen.values(), key=lambda s: s.member_key())

    def conjugacy_classes(self) -> list[tuple[Perm, ...]]:
        """Conjugacy classes, each sorted, ordered by least member."""
        remaining = set(self.elements)
        classes = []
        for g in self.elements:
            if g not in remaining:
                continue
            cls = {x * g * x.inverse() for x in self.elements}
            remaining -= cls
            classes.append(tuple(sorted(cls)))
        return classes

    def derived_subgroup(self) -> "Subgroup":
        """The commutator subgroup [G, G].

        It is the normal closure of the commutators of the generators.
        """
        gens = self.generators
        return self.normal_closure(
            a * b * a.inverse() * b.inverse() for a in gens for b in gens
        )

    def abelianization_data(self) -> dict[int, tuple[int, int]]:
        """Per-prime (rank, exponent) of the abelianized group G/[G,G].

        rank is the q-rank (dimension of the q-torsion), exponent the
        largest q-power element order; used as a surjection precheck.
        """
        Q, _ = self.quotient(self.derived_subgroup())
        data: dict[int, tuple[int, int]] = {}
        n = Q.order
        q = 2
        while n > 1:
            if n % q == 0:
                torsion = sum(1 for x in Q.elements if (x ** q).is_identity())
                rank = 0
                while torsion > 1:
                    rank += 1
                    torsion //= q
                exponent = max(_p_part(x.order(), q) for x in Q.elements)
                data[q] = (rank, exponent)
                while n % q == 0:
                    n //= q
            q += 1
        return data


def _p_part(n: int, p: int) -> int:
    out = 1
    while n % p == 0:
        out *= p
        n //= p
    return out


def _is_p_power(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n == 1


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
    LNCS 559).
    """

    __slots__ = ("gens", "members")

    def __init__(self, identity: Perm, seed: Iterable[Perm] = ()):
        self.gens: list[Perm] = []
        self.members: set[Perm] = {identity}
        for s in seed:
            self.add(s)

    def add(self, s: Perm) -> bool:
        """Extend the group by s; False when s is already a member."""
        members = self.members
        if s in members:
            return False
        H = tuple(members)
        self.gens.append(s)
        members.update(h * s for h in H)
        reps = [s]
        for r in reps:  # reps grows while it is scanned
            for g in self.gens:
                x = r * g
                if x not in members:
                    members.update(h * x for h in H)
                    reps.append(x)
        return True

    def extended(self, s: Perm) -> "_Closure":
        """A copy extended by s; this closure is left as it is."""
        out = _Closure.__new__(_Closure)
        out.gens = list(self.gens)
        out.members = set(self.members)
        out.add(s)
        return out


class Subgroup:
    """A subgroup of a PermGroup, stored as its sorted member list."""

    def __init__(self, parent: PermGroup, members: Iterable[Perm], _closed: bool = False):
        self.parent = parent
        mems = tuple(sorted(set(members)))
        if not _closed:
            mset = set(mems)
            if parent.identity not in mset:
                raise ValueError("subgroup must contain the identity")
            for a in mems:
                if a.inverse() not in mset:
                    raise ValueError("member set not closed under inverse")
                for b in mems:
                    if a * b not in mset:
                        raise ValueError("member set not closed under product")
        self.members = mems

    @property
    def order(self) -> int:
        return len(self.members)

    def member_key(self) -> tuple[tuple[int, ...], ...]:
        return tuple(m.images for m in self.members)

    def __contains__(self, g: Perm) -> bool:
        return g in set(self.members)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Subgroup)
            and self.parent is other.parent
            and self.members == other.members
        )

    def __hash__(self) -> int:
        return hash((id(self.parent), self.members))

    def __le__(self, other: "Subgroup") -> bool:
        return set(self.members) <= set(other.members)

    def __repr__(self) -> str:
        return f"Subgroup(order {self.order} of {self.parent!r})"

    def is_normal(self) -> bool:
        mset = set(self.members)
        for g in self.parent.generators:
            ginv = g.inverse()
            if any(g * h * ginv not in mset for h in self.members):
                return False
        return True

    def conjugate(self, g: Perm) -> "Subgroup":
        ginv = g.inverse()
        return Subgroup(self.parent, (g * h * ginv for h in self.members), _closed=True)

    def intersection(self, other: "Subgroup") -> "Subgroup":
        common = set(self.members) & set(other.members)
        return Subgroup(self.parent, common, _closed=True)

    def generating_set(self) -> tuple[Perm, ...]:
        """Greedy generators: each member, in sorted order, not yet generated."""
        closure = _Closure(self.parent.identity)
        for g in self.members:
            if len(closure.members) == self.order:
                break
            closure.add(g)
        return tuple(closure.gens)

    def as_group(self, name: Optional[str] = None) -> PermGroup:
        """The subgroup as a standalone PermGroup on the same points."""
        return PermGroup(
            self.parent.degree,
            self.generating_set(),
            name=name,
            max_order=self.parent.max_order,
        )


class GroupHom:
    """A homomorphism between permutation groups, defined on generators.

    The generator images are extended to the whole source by breadth-first
    words; construction fails if the extension is inconsistent (i.e. the
    map is not a homomorphism).
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
        return tuple(p.images for p in self.gen_images)

    def __repr__(self) -> str:
        return f"GroupHom({self.source!r} -> {self.target!r}, {list(self.gen_images)})"

    def kernel(self) -> Subgroup:
        ident = self.target.identity
        return Subgroup(
            self.source,
            (g for g, img in self._map.items() if img == ident),
            _closed=True,
        )

    def is_surjective(self) -> bool:
        return len(set(self._map.values())) == self.target.order

    def is_isomorphism(self) -> bool:
        return self.source.order == self.target.order and self.is_surjective()


def extend_generator_map(
    source: PermGroup, images: Sequence[Perm], identity: Perm
) -> Optional[dict[Perm, Perm]]:
    """Extend generator images to all elements, or None if inconsistent.

    The one routine behind homomorphisms and G-set actions; ``identity``
    is the codomain's.  It assigns f(cur * gen) = f(cur) * f(gen) along
    the BFS words, then verifies f(g * s) = f(g) * f(s) for every element
    g and generator s.  That proves f multiplicative: by induction
    f(g * w) = f(g) * f(w) for every positive word w in the generators,
    and every element of a finite group is such a word.
    """
    fmap: dict[Perm, Perm] = {source.identity: identity}
    defs = source.definition_order()
    for perm, parent, gi in defs[1:]:
        assert parent is not None and gi is not None
        fmap[perm] = fmap[parent] * images[gi]
    for g in source.elements:
        fg = fmap[g]
        for gi, s in enumerate(source.generators):
            if fmap[g * s] != fg * images[gi]:
                return None
    return fmap


def homomorphisms(G: PermGroup, H: PermGroup) -> list[GroupHom]:
    """All homomorphisms G -> H, by brute-force generator assignment.

    Candidate images are pruned by order divisibility; each candidate is
    extended and proved multiplicative by ``extend_generator_map``.
    """
    cand_lists = []
    total = 1
    for g in G.generators:
        o = g.order()
        cands = [h for h in H.elements if o % h.order() == 0]
        cand_lists.append(cands)
        total *= len(cands)
    if total > HOM_SEARCH_BOUND:
        raise SizeError(f"homomorphism search space {total} exceeds bound")
    out = []
    for images in itertools.product(*cand_lists):
        fmap = extend_generator_map(G, images, H.identity)
        if fmap is not None:
            out.append(GroupHom(G, H, images, _map=fmap))
    out.sort(key=lambda f: f.key())
    return out


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


def hom_conjugacy_classes(G: PermGroup, H: PermGroup) -> list[list[GroupHom]]:
    """Conjugacy classes of Hom(G, H); class reps are the sorted-least."""
    homs = homomorphisms(G, H)
    by_key = {f.key(): f for f in homs}
    conjugators = [(x, x.inverse()) for x in H.elements]
    classes: list[list[GroupHom]] = []
    assigned: set[tuple[tuple[int, ...], ...]] = set()
    for f in homs:
        if f.key() in assigned:
            continue
        orbit = {
            tuple((x * fi * xi).images for fi in f.gen_images)
            for x, xi in conjugators
        }
        assigned |= orbit
        classes.append([by_key[k] for k in sorted(orbit)])
    return classes


def find_isomorphism(G: PermGroup, H: PermGroup) -> Optional[GroupHom]:
    """An isomorphism G -> H, or None; order profiles prune the search.

    Between groups of equal order every surjection is an isomorphism.
    """
    if G.order != H.order:
        return None
    if G.order_profile() != H.order_profile():
        return None
    by_order: dict[int, list[Perm]] = {}
    for h in H.elements:
        by_order.setdefault(h.order(), []).append(h)
    return _first_surjection(G, H, lambda g: by_order.get(g.order(), []))


def find_surjection(G: PermGroup, H: PermGroup) -> Optional[GroupHom]:
    """A surjective homomorphism G -> H, or None."""
    if G.order % H.order != 0:
        return None
    return _first_surjection(
        G, H, lambda g: [h for h in H.elements if g.order() % h.order() == 0]
    )


def _first_surjection(
    G: PermGroup, H: PermGroup, candidates: Callable[[Perm], list[Perm]]
) -> Optional[GroupHom]:
    """The first surjection G -> H whose images of the generators of
    G.small_generating_set() are taken from ``candidates(generator)``,
    scanning image tuples in product order."""
    gens = G.small_generating_set()
    presented = PermGroup(G.degree, gens, max_order=G.max_order)
    for images in itertools.product(*(candidates(g) for g in gens)):
        if len(_Closure(H.identity, images).members) != H.order:
            continue
        fmap = extend_generator_map(presented, images, H.identity)
        if fmap is not None:
            return GroupHom(G, H, [fmap[g] for g in G.generators], _map=fmap)
    return None
