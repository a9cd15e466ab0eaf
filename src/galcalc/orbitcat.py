"""Finite categories, orbit categories, and fundamental groups of nerves.

A FinCategory stores its objects, its morphisms and one function that
composes two of them on demand; the table of composites is built, and
each composite checked, only on request.  Orbit categories O_A(G) have
one object G/H per subgroup H in a conjugation- and intersection-closed
family A, with hom(G/H, G/K) = {gK : g^-1 H g <= K}.  Since G/H and G/K
are isomorphic exactly when H and K are conjugate, the skeleton on one
representative per conjugacy class (``conjugacy_class_representatives``)
is equivalent to the full orbit category, and equivalent categories have
homotopy-equivalent nerves; the stable module pipeline builds only the
skeleton.  Its family, the nontrivial elementary abelian p-subgroups,
needs no closure: a conjugate of one is one, and so is a nontrivial
intersection of two, being a subgroup of either.  ``close_family``
closes any other seed.  Each object K's class is walked once
(``Subgroup.class_walk``), and hom(G/H, G/K) is read off the conjugates
of K that hold H, with no product per coset; a composite costs one
product, made only when asked.  The fundamental group of the nerve is
presented on a greedy generating set S of morphisms, each morphism
written as a word in S: one relation per generator s and non-identity
morphism into src(s), and one trivializing relation per edge of a
spanning tree of the generator edges.  It is the same group as the
edge-path presentation with one generator per morphism and one relation
per composable pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Optional, Sequence

from .errors import BadBasepoint, EmptyFamily, SizeError
from .fp import FpGroup, Word, inverse_word
from .perm import PermGroup, Subgroup

MAX_FAMILY = 4096
NOT_TOTAL = "composition not total on composable pairs"


@dataclass(frozen=True)
class Morphism:
    src: int
    dst: int
    label: Hashable


class FinCategory:
    """A finite category, composed on demand.

    Objects are sortable hashable labels; morphisms are indexed, and
    ``compose(g, f)`` returns the index of g o f, f acting first, for
    every pair with dst(f) = src(g); the builders here raise KeyError on
    any other pair.  ``compose_table`` tabulates it only on request
    (groupoids ask at construction, orbit categories never), and that one
    tabulation checks every composite.  ``object_info`` carries optional
    payload data per object (orbit categories store the subgroup there).
    """

    def __init__(
        self,
        objects: Sequence[Hashable],
        morphisms: Sequence[Morphism],
        identity_of: Sequence[int],
        compose: Callable[[int, int], int],
        object_info: Optional[Sequence[object]] = None,
    ):
        self.objects = tuple(objects)
        self.morphisms = tuple(morphisms)
        self.identity_of = tuple(identity_of)
        self.compose = compose
        self._table: Optional[dict[tuple[int, int], int]] = None
        self.object_info = tuple(object_info) if object_info is not None else None
        self._check_basic()

    def _check_basic(self) -> None:
        n = len(self.objects)
        if len(set(self.objects)) != n:
            raise ValueError("duplicate object labels")
        if len(self.identity_of) != n:
            raise ValueError("need one identity per object")
        for o, mi in enumerate(self.identity_of):
            m = self.morphisms[mi]
            if m.src != o or m.dst != o:
                raise ValueError(f"identity of object {o} is not an endomorphism")
        for m in self.morphisms:
            if not (0 <= m.src < n and 0 <= m.dst < n):
                raise ValueError("morphism endpoint out of range")
        try:
            for f, mf in enumerate(self.morphisms):
                if self.compose(self.identity_of[mf.dst], f) != f:
                    raise ValueError("left unit law fails")
                if self.compose(f, self.identity_of[mf.src]) != f:
                    raise ValueError("right unit law fails")
        except LookupError:
            raise ValueError(NOT_TOTAL) from None

    @property
    def compose_table(self) -> dict[tuple[int, int], int]:
        """(g, f) -> g o f on every composable pair, built on first request.

        Raises ValueError when a composable pair has no composite (compose
        raises LookupError) or one out of range or with the wrong ends."""
        if self._table is None:
            ms = self.morphisms
            out_of: list[list[int]] = [[] for _ in self.objects]
            for g, m in enumerate(ms):
                out_of[m.src].append(g)
            table = {}
            for f, mf in enumerate(ms):
                for g in out_of[mf.dst]:
                    try:
                        h = self.compose(g, f)
                    except LookupError:
                        raise ValueError(NOT_TOTAL) from None
                    if h not in range(len(ms)):
                        raise ValueError("composite index out of range")
                    if ms[h].src != mf.src or ms[h].dst != ms[g].dst:
                        raise ValueError("composite violates source/target")
                    table[(g, f)] = h
            self._table = table
        return self._table

    def is_identity_morphism(self, i: int) -> bool:
        return self.identity_of[self.morphisms[i].src] == i

    def hom(self, x: int, y: int) -> list[int]:
        return [i for i, m in enumerate(self.morphisms) if m.src == x and m.dst == y]

    def validate(self) -> None:
        """Check every composite (``compose_table``) and, exhaustively,
        associativity; the unit laws are checked on construction."""
        table, ms = self.compose_table, self.morphisms
        for (g, f), gf in table.items():
            for h, mh in enumerate(ms):
                if mh.src == ms[g].dst and table[(h, gf)] != table[(table[(h, g)], f)]:
                    raise ValueError("associativity fails")

    def to_json(self) -> dict:
        """Schema: objects, morphisms with (src, dst), composition table.

        Orbit categories carry subgroup metadata (order and member images)
        per object.
        """
        out: dict = {
            "schema": 1,
            "objects": list(self.objects),
            "morphisms": [{"src": m.src, "dst": m.dst} for m in self.morphisms],
            "identities": list(self.identity_of),
            "composition": [
                [g, f, h] for (g, f), h in sorted(self.compose_table.items())
            ],
        }
        if self.object_info is not None:
            info = []
            for payload in self.object_info:
                if isinstance(payload, Subgroup):
                    info.append(
                        {
                            "subgroup_order": payload.order,
                            "members": [list(m) for m in payload.members],
                        }
                    )
                else:
                    info.append(None)
            out["object_info"] = info
        return out

    def object_components(self) -> list[list[int]]:
        """Connected components of objects under the morphism graph."""
        n = len(self.objects)
        parent = list(range(n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for m in self.morphisms:
            a, b = find(m.src), find(m.dst)
            if a != b:
                parent[max(a, b)] = min(a, b)
        comps: dict[int, list[int]] = {}
        for o in range(n):
            comps.setdefault(find(o), []).append(o)
        return [sorted(c) for _, c in sorted(comps.items())]


def category_from_poset(
    labels: Sequence[Hashable], leq: Callable[[Hashable, Hashable], bool]
) -> FinCategory:
    """The category of a finite poset: one morphism x -> y iff x <= y."""
    labels = tuple(labels)
    pairs = [
        (i, j)
        for i in range(len(labels))
        for j in range(len(labels))
        if leq(labels[i], labels[j])
    ]
    mindex = {p: k for k, p in enumerate(pairs)}
    morphisms = [Morphism(i, j, (labels[i], labels[j])) for i, j in pairs]
    identity_of = [mindex[(i, i)] for i in range(len(labels))]

    def compose(g: int, f: int) -> int:  # x <= y, then y <= z: x <= z
        (i, j), (k, l) = pairs[f], pairs[g]
        if j != k:
            raise KeyError((g, f))
        return mindex[(i, l)]

    return FinCategory(labels, morphisms, identity_of, compose)


# -- subgroup families ------------------------------------------------------


def close_family(G: PermGroup, seed: Iterable[Subgroup]) -> tuple[Subgroup, ...]:
    """Smallest family containing the seed, closed under conjugation by G
    and pairwise intersection, sorted by (order, member_key).  Every
    element of G is a positive word in the generators, so closing under
    conjugation by the generators closes under conjugation by G."""
    current: dict[int, Subgroup] = {}
    queue = list(seed)
    while queue:
        H = queue.pop()
        if H.bits in current:
            continue
        current[H.bits] = H
        if len(current) > MAX_FAMILY:
            raise SizeError("subgroup family closure blow-up")
        for g in G.generators:
            C = H.conjugate(g)
            if C.bits not in current:
                queue.append(C)
        for other in list(current):
            if H.bits & other not in current:
                queue.append(H.intersection(current[other]))
    return tuple(sorted(current.values(), key=lambda s: (s.order, s.member_key())))


def conjugacy_class_representatives(subs: Sequence[Subgroup]) -> list[Subgroup]:
    """One member per G-conjugacy class of ``subs``: the first member of
    its class in the given order.  Each class is walked once."""
    seen: set[int] = set()
    reps: list[Subgroup] = []
    for H in subs:
        if H.bits not in seen:
            reps.append(H)
            seen.update(C.bits for C in H.conjugacy_class())
    return reps


# -- orbit categories --------------------------------------------------------


def orbit_category(G: PermGroup, subs: Sequence[Subgroup]) -> FinCategory:
    """The orbit category on G/H for H in ``subs``, in the given order.

    One object per member (conjugate members give isomorphic objects, so
    class representatives give the skeleton); hom(G/H, G/K) =
    {gK : g^-1 H g <= K} with composition (gK then g'L) = g g' L and
    identity eH.  g^-1 H g <= K iff H <= g K g^-1 = C, and g K g^-1 = C
    exactly for g in x_C N(K), x_C from K's class walk.  So each conjugate C
    of K gives the cosets x_C n K, n in a transversal of K in N(K), and
    the cosets of the C that hold H (a bit test) are the morphisms G/H ->
    G/K, listed by coset number.  The category composes on demand, one
    product g g' per composite asked for; ``compose_table`` builds the
    whole table only on request.
    """
    subs = tuple(subs)
    if any(H.parent is not G for H in subs):
        raise ValueError("family member from a different group")
    if not subs:
        raise EmptyFamily("orbit category over an empty family")
    coset_reps, coset_index = zip(*(K.cosets() for K in subs))
    classes = []  # per object K: (C.bits, coset numbers of x_C N(K)) per C
    for K, index in zip(subs, coset_index):
        weyl = {index[n]: n for n in G.normalizer(K).members}.values()
        pairs = zip(*K.class_walk()[:2])  # (C, x_C) for each conjugate C
        classes.append([(C.bits, [index[x * n] for n in weyl]) for C, x in pairs])
    morphisms: list[Morphism] = []
    mor_index: dict[tuple[int, int, int], int] = {}
    for i, H in enumerate(subs):
        for j, conjugates in enumerate(classes):
            held = [c for bits, cs in conjugates if H.bits & bits == H.bits for c in cs]
            for ci in sorted(held):
                mor_index[(i, j, ci)] = len(morphisms)
                morphisms.append(Morphism(i, j, (i, j, coset_reps[j][ci])))
    identity_of = []
    for i in range(len(subs)):
        ci = coset_index[i][G.identity]
        identity_of.append(mor_index[(i, i, ci)])
    labels = [m.label for m in morphisms]

    def composite(s: int, f: int) -> int:  # f = gH_j, then s = hH_l: ghH_l
        (i, j, g), (k, l, h) = labels[f], labels[s]
        if j != k:
            raise KeyError((s, f))
        return mor_index[(i, l, coset_index[l][g * h])]

    return FinCategory(range(len(subs)), morphisms, identity_of, composite, subs)


# -- nerve invariants ---------------------------------------------------------


def nerve_pi1_presentation(C: FinCategory, basepoint: Hashable) -> FpGroup:
    """Fundamental group of the nerve at the basepoint's component,
    presented on a generating set of morphisms.

    Generators: the set S picked greedily in morphism-index order, each
    non-identity morphism of the component that is not yet a composite of
    earlier picks.  Every morphism g gets a word w(g) in S that is
    prefix-closed: w(id) is empty and w(s o h) = s w(h) for the morphism h
    it was reached from.  Relations: s w(h) = w(s o h) for every s in S
    and every non-identity h into src(s), plus one trivializing relation
    per edge of a breadth-first spanning tree of the generator edges,
    rooted at the least object of the component, edges taken in
    morphism-index order.  Each such pair (s, h) is composed once, while
    the words are built; a pair that does not define w(s o h) is a relator.

    This is the edge-path group of the nerve (Quillen, Higher algebraic
    K-theory I, section 1), which has one generator [f] per morphism and
    [g][f] = [g o f] for every composable pair, on a smaller set of
    generators.  Induction on the length of w(g) gives
    w(g) w(f) = w(g o f): for w(g) = s w(h), s w(h) w(f) = s w(h o f),
    which is w(s o h o f) by a relation or, when h o f is an identity, by
    w(s) = s.  So [f] -> w(f) and s -> [s] are inverse isomorphisms.
    Every morphism is a composite of generators, so the generator edges
    span the component, and any spanning tree gives the same group.
    """
    try:
        bp = C.objects.index(basepoint)
    except ValueError:
        raise BadBasepoint(f"{basepoint!r} is not an object") from None
    comp = next(c for c in C.object_components() if bp in c)
    comp_set = set(comp)
    morphisms, compose = C.morphisms, C.compose
    nonidentity = [
        i
        for i, m in enumerate(morphisms)
        if m.src in comp_set and not C.is_identity_morphism(i)
    ]
    # greedy generating set; worded_into[o] lists the morphisms into o
    # that have words, which stay closed under composing with generators
    word: dict[int, Word] = {C.identity_of[o]: () for o in comp}
    worded_into = {o: [C.identity_of[o]] for o in comp}
    gens_from: dict[int, list[int]] = {o: [] for o in comp}
    gen_of: dict[int, int] = {}
    closing: dict[int, dict[int, int]] = {}  # s -> {h: s o h} for each relator
    for m in nonidentity:
        if m in word:
            continue
        gen_of[m], closing[m] = len(gen_of) + 1, {}
        src = morphisms[m].src
        gens_from[src].append(m)
        # compose the new generator only with morphisms that already have
        # words, so that every word extends an older one
        queue = [(m, h) for h in worded_into[src]]
        for s, h in queue:
            g = compose(s, h)
            if g in word:  # s w(h) = w(g) is a relation, not a definition
                closing[s][h] = g
            else:
                word[g] = (gen_of[s],) + word[h]
                dst = morphisms[g].dst
                worded_into[dst].append(g)
                queue.extend((t, g) for t in gens_from[dst])
    # breadth-first spanning tree of the generator edges, each adjacency
    # list in morphism-index order
    adjacency: dict[int, list[tuple[int, int]]] = {o: [] for o in comp}
    for s in gen_of:
        m = morphisms[s]
        if m.src != m.dst:
            adjacency[m.src].append((s, m.dst))
            adjacency[m.dst].append((s, m.src))
    root = min(comp)
    visited = {root}
    tree_edges: set[int] = set()
    frontier = [root]
    while frontier:
        nxt = []
        for o in frontier:
            for mi, other in adjacency[o]:
                if other not in visited:
                    visited.add(other)
                    tree_edges.add(mi)
                    nxt.append(other)
        frontier = nxt
    relators: list[Word] = [(gen_of[t],) for t in sorted(tree_edges)]
    for s, k in gen_of.items():
        # the pairs that defined a word hold by construction; distinct
        # morphisms have distinct words, so the others are relators
        for h, g in sorted(closing[s].items()):
            relators.append((k,) + word[h] + inverse_word(word[g]))
    return FpGroup(len(gen_of), tuple(relators))
