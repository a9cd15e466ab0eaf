"""Bitset subgroups and the generator walk, against frozenset oracles.

A ``Subgroup`` is a bitset over its parent's sorted element list, and
conjugacy classes of subgroups are walked by conjugating with the
generators of G only.  The oracles here are the member-set operations
and the conjugation by every element of G that the subgroup layer used
before, and the elementary abelian search that tested every order-p
element with products.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from galcalc.catalogue import catalogue_group, standard_catalogue
from galcalc.orbitcat import conjugacy_class_representatives
from galcalc.perm import _Closure

GROUPS = {spec: catalogue_group(spec) for spec in ("S4", "S5")}


def _primes(n):
    primes = [q for q in range(2, n + 1) if all(q % d for d in range(2, q))]
    return [q for q in primes if n % q == 0]


CASES = [
    (spec, p)
    for spec in standard_catalogue(48)
    for p in _primes(catalogue_group(spec).order)
]


def closure(G, gens):
    """Oracle: the members generated by ``gens``, by plain breadth-first search."""
    out = {G.identity}
    frontier = [G.identity]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = x * g
            if y not in out:
                out.add(y)
                frontier.append(y)
    return frozenset(out)


def conjugate(members, g):
    ginv = g.inverse()
    return frozenset(g * h * ginv for h in members)


def all_conjugates(G, members):
    """Oracle: g H g^-1 for every element g of G."""
    return {conjugate(members, g) for g in G.elements}


indices = st.lists(st.integers(min_value=0, max_value=119), min_size=0, max_size=2)


@settings(max_examples=60, deadline=None)
@given(
    spec=st.sampled_from(sorted(GROUPS)),
    a=indices,
    b=indices,
    g=st.integers(min_value=0, max_value=119),
)
def test_bitset_operations_match_member_sets(spec, a, b, g):
    G = GROUPS[spec]
    elements = G.elements
    gens_a = [elements[i % len(elements)] for i in a]
    gens_b = [elements[i % len(elements)] for i in b]
    g = elements[g % len(elements)]
    H, K = G.subgroup_from_generators(gens_a), G.subgroup_from_generators(gens_b)
    oh, ok = closure(G, gens_a), closure(G, gens_b)

    assert H.order == len(oh)
    assert list(H.members) == sorted(oh)
    assert all((x in H) == (x in oh) for x in elements)
    assert (H == K) == (oh == ok)
    if oh == ok:
        assert hash(H) == hash(K)
    assert (H <= K) == (oh <= ok)
    assert set(H.intersection(K).members) == oh & ok
    assert set(H.conjugate(g).members) == conjugate(oh, g)
    assert H.conjugate(g) == G.subgroup(conjugate(oh, g))
    assert H.is_normal() == (all_conjugates(G, oh) == {oh})
    normalizer = {x for x in elements if conjugate(oh, x) == oh}
    assert set(G.normalizer(H).members) == normalizer
    walk = H.conjugacy_class()
    assert walk[0] is H
    assert len(walk) == len({C.bits for C in walk})
    assert {frozenset(C.members) for C in walk} == all_conjugates(G, oh)


def test_full_and_trivial_subgroups():
    for G in GROUPS.values():
        assert G.full_subgroup().members == G.elements
        assert G.trivial_subgroup().members == (G.identity,)
        assert G.full_subgroup() == G.subgroup(G.elements)


def sylow_oracle(G, p):
    """The parent's Sylow list: conjugate one by every element, dedupe, sort.

    The one it starts from is checked against Sylow's theorems first, with
    no use of the program's subgroup layer: |P| is the p-part of |G|, every
    element of P has p-power order, and the number of conjugates is 1 mod p
    and divides [G:P]."""
    P = G.sylow_subgroup(p)
    p_part = 1
    while G.order % (p_part * p) == 0:
        p_part *= p
    assert len(P.members) == p_part
    for x in P.members:
        n = x.order()
        while n % p == 0:
            n //= p
        assert n == 1
    conjugates = all_conjugates(G, P.members)
    assert len(conjugates) % p == 1 % p
    assert (G.order // p_part) % len(conjugates) == 0
    return sorted(conjugates, key=lambda m: sorted(m))


def center_oracle(G):
    """The elements z with z * g = g * z for every element g of G."""
    return [z for z in G.elements if all(z * g == g * z for g in G.elements)]


def class_representatives_oracle(G, subs):
    """The first member of each class: compare by conjugating with all of G."""
    reps, seen = [], set()
    for H in subs:
        if frozenset(H.members) not in seen:
            reps.append(H)
            seen |= all_conjugates(G, H.members)
    return reps


def elementary_abelian_oracle(G, p):
    """The parent's search: test every order-p element with products."""
    ident = G.identity
    p_elems = [g for g in G.elements if g != ident and g ** p == ident]
    found = {}
    layer = []
    for x in p_elems:
        C = _Closure(ident, [x])
        if frozenset(C.members) not in found:
            found[frozenset(C.members)] = C
            layer.append(C)
    while layer:
        nxt = []
        for H in layer:
            for y in p_elems:
                if y in H.members or not all(y * h == h * y for h in H.gens):
                    continue
                E = H.extended(y)
                if frozenset(E.members) not in found:
                    found[frozenset(E.members)] = E
                    nxt.append(E)
        layer = nxt
    return sorted(found, key=lambda m: (len(m), sorted(m)))


def test_case_list_covers_order_48():
    # the 137 cases at p in {2, 3, 5} and 36 more at the primes 7 to 47
    assert len(CASES) == 173


def test_center_matches_commuting_oracle():
    for spec in standard_catalogue(48) + ["S1"]:
        G = catalogue_group(spec)
        assert list(G.center().members) == center_oracle(G), spec
    assert not catalogue_group("C1").generators
    assert not catalogue_group("S1").generators


def test_generator_walk_matches_all_elements_conjugation():
    for spec, p in CASES:
        G = catalogue_group(spec)
        sylows = G.sylow_subgroups(p)
        assert [frozenset(S.members) for S in sylows] == sylow_oracle(G, p), (spec, p)
        subs = G.elementary_abelian_p_subgroups(p)
        assert [frozenset(H.members) for H in subs] == elementary_abelian_oracle(G, p)
        got = conjugacy_class_representatives(subs)
        want = class_representatives_oracle(G, subs)
        assert [H.bits for H in got] == [H.bits for H in want], (spec, p)
