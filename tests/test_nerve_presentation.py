"""The nerve's pi1 on a generating set of morphisms against all pairs.

``nerve_pi1_presentation`` presents pi1 of the nerve on a greedy
generating set of morphisms, with one relation per generator and
non-identity morphism into its source.  The oracle is the edge-path
presentation it replaced: one generator per non-identity morphism, one
relation per composable pair and the edges of a breadth-first spanning
tree of all morphisms trivialized.  After ``simplify`` both must give
the same abelianization and, for finite groups, the same Todd-Coxeter
order, on the skeletal orbit category of every catalogue group up to
order 48 at every dividing prime, and on posets, the circle, deloopings
and a cyclic monoid.
"""

import pytest

from galcalc.catalogue import catalogue_group, standard_catalogue
from galcalc.fp import FpGroup, abelianization, coset_enumeration, simplify
from galcalc.groupoid import delooping
from galcalc.orbitcat import (
    FinCategory,
    Morphism,
    category_from_poset,
    nerve_pi1_presentation,
)
from galcalc.pipelines import orbit_nerve


def all_pairs_presentation(C, basepoint):
    """Oracle: one generator per non-identity morphism of the basepoint's
    component, [g o f] = [g][f] for every composable pair, and one
    trivializing relation per edge of a breadth-first spanning tree of all
    morphisms rooted at the least object, edges in morphism-index order."""
    bp = C.objects.index(basepoint)
    comp = next(c for c in C.object_components() if bp in c)
    comp_set = set(comp)
    in_comp = [
        i
        for i, m in enumerate(C.morphisms)
        if m.src in comp_set and m.dst in comp_set
    ]
    gen_of = {}
    for i in in_comp:
        if not C.is_identity_morphism(i):
            gen_of[i] = len(gen_of) + 1
    adjacency = {o: [] for o in comp}
    for i in in_comp:
        m = C.morphisms[i]
        if m.src != m.dst:
            adjacency[m.src].append((i, m.dst))
            adjacency[m.dst].append((i, m.src))
    for o in comp:
        adjacency[o].sort()
    root = min(comp)
    visited = {root}
    tree_edges = set()
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
    relators = [(gen_of[t],) for t in sorted(tree_edges)]
    for (g, f), h in sorted(C.compose_table.items()):
        if f not in gen_of or g not in gen_of:
            continue
        word = [gen_of[g], gen_of[f]]
        if h in gen_of:
            word.append(-gen_of[h])
        relators.append(tuple(word))
    return FpGroup(len(gen_of), tuple(relators))


def _primes(n):
    primes = [q for q in range(2, n + 1) if all(q % d for d in range(2, q))]
    return [q for q in primes if n % q == 0]


CASES = [
    (spec, p)
    for spec in standard_catalogue(48)
    for p in _primes(catalogue_group(spec).order)
]


def assert_same_group(C, basepoint, finite=True):
    F = nerve_pi1_presentation(C, basepoint)
    oracle = all_pairs_presentation(C, basepoint)
    assert len(F.relators) <= len(oracle.relators)
    Fs, oracle_s = simplify(F), simplify(oracle)
    assert abelianization(Fs) == abelianization(oracle_s)
    if finite:
        order = coset_enumeration(Fs)
        assert order == coset_enumeration(oracle_s)
        return order
    return None


def test_case_list_covers_order_48():
    assert len(CASES) == 173


@pytest.mark.parametrize("spec,p", CASES)
def test_orbit_nerve_matches_all_pairs_oracle(spec, p):
    G = catalogue_group(spec)
    cat, _, F = orbit_nerve(G, G.elementary_abelian_p_subgroups(p))
    assert F == nerve_pi1_presentation(cat, min(cat.objects))
    assert_same_group(cat, min(cat.objects))


@pytest.mark.parametrize("spec", standard_catalogue(12))
def test_delooping_matches_oracle_on_a_generating_set(spec):
    G = catalogue_group(spec)
    C = delooping(G)
    assert assert_same_group(C, 0) == G.order
    assert nerve_pi1_presentation(C, 0).ngens == len(G.small_generating_set())


def test_posets_match_oracle():
    diamond = category_from_poset(
        [(0, 0), (0, 1), (1, 0), (1, 1)],
        lambda a, b: a[0] <= b[0] and a[1] <= b[1],
    )
    cube = category_from_poset(
        [(a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)],
        lambda x, y: all(s <= t for s, t in zip(x, y)),
    )
    for C in (diamond, cube):
        for bp in C.objects:
            assert assert_same_group(C, bp) == 1
    # proper faces of a triangle and of two triangles glued at a vertex:
    # circles, so free groups of rank 1 and 2
    one = [frozenset(s) for s in ({0}, {1}, {2}, {0, 1}, {1, 2}, {0, 2})]
    two = one + [frozenset(s) for s in ({3}, {4}, {0, 3}, {3, 4}, {0, 4})]
    for faces, rank in ((one, 1), (two, 2)):
        C = category_from_poset(faces, lambda a, b: a <= b)
        assert_same_group(C, faces[0], finite=False)
        assert abelianization(simplify(nerve_pi1_presentation(C, faces[0]))) == [0] * rank


def test_circle_matches_oracle():
    ms = [Morphism(0, 0, "idx"), Morphism(1, 1, "idy"),
          Morphism(0, 1, "a"), Morphism(0, 1, "b")]
    table = {(0, 0): 0, (1, 1): 1, (2, 0): 2, (1, 2): 2, (3, 0): 3, (1, 3): 3}
    circle = FinCategory([0, 1], ms, [0, 1], lambda g, f: table[g, f])
    for bp in (0, 1):
        assert_same_group(circle, bp, finite=False)


def _cyclic_monoid(n, m):
    """The monoid {1, a, ..., a^(n-1)} with a^n = a^m (0 <= m < n), as a
    one-object category; its nerve's pi1 is its group completion, C_(n-m)."""

    def power(k):
        return k if k < n else m + (k - m) % (n - m)

    ms = [Morphism(0, 0, k) for k in range(n)]
    table = {(j, i): power(i + j) for i in range(n) for j in range(n)}
    return FinCategory([0], ms, [0], lambda g, f: table[g, f])


@pytest.mark.parametrize("n,m", [(5, 2), (6, 0), (4, 3), (7, 1)])
def test_cyclic_monoid_matches_oracle(n, m):
    C = _cyclic_monoid(n, m)
    C.validate()
    assert assert_same_group(C, 0) == n - m
