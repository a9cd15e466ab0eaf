"""The Perm kernel against a plain-tuple oracle.

A Perm is its own image tuple.  The oracle below works on plain tuples
with the generator-expression formulas of the wrapped-tuple kernel it
replaced, so every operation is compared with an independent
computation, on degrees 0 to 12 with degrees 0 and 1 always tried: the
itemgetter product needs its list fallback there.  Hashes and the sort
order must be the image tuple's, since set and dict iteration orders,
and so every byte of output, rest on them.

The bulk kernel (whole right cosets in one map: enumeration, Dimino
closure, left cosets, element orders) is compared with per-element
plain-tuple loops on every catalogue group up to order 24, on random
groups in S_n for n <= 7 and on degrees 0 and 1.
"""

import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from galcalc.catalogue import catalogue_group, standard_catalogue
from galcalc.perm import Perm, PermGroup, _right_coset


def o_mul(a, b):
    # (a * b)(x) = a(b(x)): b first
    return tuple(a[x] for x in b)


def o_inverse(a):
    inv = [0] * len(a)
    for x, y in enumerate(a):
        inv[y] = x
    return tuple(inv)


def o_pow(a, n):
    # repeated products: a different algorithm from Perm's squaring
    if n < 0:
        return o_pow(o_inverse(a), -n)
    out = tuple(range(len(a)))
    for _ in range(n):
        out = o_mul(out, a)
    return out


def o_cycles(a):
    seen, out = set(), []
    for start in range(len(a)):
        if start in seen:
            continue
        cyc, x = [start], a[start]
        seen.add(start)
        while x != start:
            seen.add(x)
            cyc.append(x)
            x = a[x]
        if len(cyc) > 1:
            out.append(tuple(cyc))
    return out


def o_order(a):
    n, x = 1, o_mul(a, tuple(range(len(a))))
    while x != tuple(range(len(a))):
        x, n = o_mul(a, x), n + 1
    return n


def o_cycle_type(a):
    lengths = sorted((len(c) for c in o_cycles(a)), reverse=True)
    return tuple(lengths + [1] * (len(a) - sum(lengths)))


def o_is_identity(a):
    return all(i == x for i, x in enumerate(a))


degrees = st.integers(min_value=0, max_value=12)


@st.composite
def perm_pairs(draw):
    n = draw(degrees)
    images = st.permutations(range(n))
    return tuple(draw(images)), tuple(draw(images))


@st.composite
def perm_lists(draw):
    n = draw(degrees)
    return [tuple(p) for p in draw(st.lists(st.permutations(range(n)), max_size=12))]


@settings(max_examples=300, deadline=None)
@given(perm_pairs(), st.integers(min_value=-30, max_value=30))
@example(((), ()), 0)
@example(((), ()), -3)
@example(((0,), (0,)), 5)
@example(((0,), (0,)), -2)
@example(((1, 0), (0, 1)), -1)
def test_kernel_matches_tuple_oracle(pair, n):
    a, b = pair
    p, q = Perm(a), Perm(b)
    assert p == a and tuple(p) == a and len(p) == p.degree == len(a)
    assert bool(p) == (len(a) > 0)  # a degree-0 Perm is falsy
    assert p.images is p and [p(x) for x in range(len(a))] == list(a)
    for value, expected in (
        (p * q, o_mul(a, b)),
        (q * p, o_mul(b, a)),
        (p.inverse(), o_inverse(a)),
        (p ** n, o_pow(a, n)),
        (Perm.identity(len(a)), tuple(range(len(a)))),
    ):
        assert type(value) is Perm
        assert value == expected and tuple(value) == expected
    assert p.order() == o_order(a)
    assert p.cycles() == o_cycles(a)
    assert p.cycle_type() == o_cycle_type(a)
    assert p.is_identity() == o_is_identity(a)
    assert (p * p.inverse()).is_identity() and Perm.identity(len(a)).is_identity()


@settings(max_examples=200, deadline=None)
@given(perm_lists())
@example([])
@example([(), ()])
@example([(0,), (0,)])
def test_hash_and_order_are_the_image_tuples(tuples):
    perms = [Perm(t) for t in tuples]
    assert [hash(p) for p in perms] == [hash(t) for t in tuples]
    assert [tuple(p) for p in sorted(perms)] == sorted(tuples)
    # iteration orders of sets and dicts follow the hash
    assert list(set(perms)) == list(set(tuples))
    assert list(dict.fromkeys(perms)) == list(dict.fromkeys(tuples))
    for p, t in zip(perms, tuples):
        for r, u in zip(perms, tuples):
            assert (p < r, p <= r, p == r) == (t < u, t <= u, t == u)


@pytest.mark.parametrize("images", [[0, 0, 1], [1, 2], [0, 2], [-1, 0]])
def test_non_bijection_raises(images):
    with pytest.raises(ValueError):
        Perm(images)


# -- the bulk kernel -------------------------------------------------------


def o_closure(seed, degree):
    """Breadth-first closure of plain tuples under right multiplication."""
    ident = tuple(range(degree))
    seen, frontier = {ident}, [ident]
    while frontier:
        nxt = []
        for a in frontier:
            for g in seed:
                c = o_mul(a, g)
                if c not in seen:
                    seen.add(c)
                    nxt.append(c)
        frontier = nxt
    return sorted(seen)


def o_cosets(H):
    """The per-member left-coset loop: g * h for each member h of H."""
    index, reps = {}, []
    for g in H.parent.elements:
        if g not in index:
            for h in H.members:
                index[o_mul(g, h)] = len(reps)
            reps.append(g)
    return reps, index


def all_subgroups(G):
    """Every subgroup of G: the joins of cyclic subgroups, grown one at a time."""
    cyclic = {G.subgroup_from_generators([g]) for g in G.elements}
    found, todo = set(cyclic), list(cyclic)
    while todo:
        H = todo.pop()
        for C in cyclic:
            if not C <= H:
                J = G.subgroup_from_generators(H.generating_set() + C.generating_set())
                if J not in found:
                    found.add(J)
                    todo.append(J)
    return sorted(found, key=lambda H: (H.order, H.members))


def check_bulk_kernel(G, subgroups):
    gens = [tuple(g) for g in G.generators]
    els = G.elements
    assert all(type(g) is Perm for g in els)
    assert [tuple(g) for g in els] == o_closure(gens, G.degree)
    defined, targets = G.cayley_table()
    assert defined[0] == G.identity and sorted(defined) == list(els)
    assert all(type(g) is Perm for g in defined)
    # |G| * k edges (p, gi, q), in BFS order: by element position, then generator
    assert len(targets) == G.order * len(gens)
    edges = [
        (p, gi, q)
        for (p, gi), q in zip(itertools.product(range(G.order), range(len(gens))), targets)
    ]
    reached = 1  # positions defined so far
    for p, gi, q in edges:
        assert defined[q] == o_mul(defined[p], gens[gi])
        assert q <= reached
        if q == reached:  # the one tree edge that defines q, in order
            assert p < q
            reached += 1
    assert reached == G.order
    assert G.element_orders == tuple(o_order(g) for g in els)
    for H in subgroups:
        assert H.cosets() == o_cosets(H)
        assert list(H.members) == o_closure([tuple(g) for g in H.generating_set()], G.degree)


@pytest.mark.parametrize("spec", standard_catalogue(24))
def test_bulk_kernel_matches_tuple_oracle_on_catalogue_24(spec):
    G = catalogue_group(spec)
    check_bulk_kernel(G, all_subgroups(G))


@st.composite
def random_groups(draw):
    n = draw(st.integers(min_value=0, max_value=7))
    G = PermGroup(n, draw(st.lists(st.permutations(range(n)).map(Perm), max_size=3)))
    picks = st.lists(st.integers(min_value=0), max_size=3)
    subs = [[G.elements[i % G.order] for i in draw(picks)] for _ in range(2)]
    return G, [G.subgroup_from_generators(gens) for gens in subs]


@settings(max_examples=40, deadline=None)
@given(random_groups())
@example((PermGroup(0, []), []))
@example((PermGroup(0, [Perm(())]), []))
@example((PermGroup(1, [Perm((0,))]), []))
def test_bulk_kernel_matches_tuple_oracle_on_random_groups(case):
    G, subgroups = case
    check_bulk_kernel(G, [G.trivial_subgroup(), G.full_subgroup()] + subgroups)


@settings(max_examples=200, deadline=None)
@given(perm_lists())
@example([])
@example([(), ()])
@example([(0,), (0,)])
def test_right_coset_matches_tuple_oracle(tuples):
    perms = [Perm(t) for t in tuples]
    for s in perms[:3]:
        coset = list(_right_coset(perms, s))
        assert all(type(x) is Perm for x in coset)
        assert coset == [o_mul(t, s) for t in tuples]
