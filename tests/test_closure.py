"""Dimino closure and the routines built on it, against brute-force oracles.

The oracles are the quadratic closures the kernel used before Dimino's
algorithm: close a set by multiplying every new element with every
element found so far, and pick generators greedily by re-closing (also
the oracle for the set ``as_group`` hands its group).  The normal-closure
oracle is the loop used before the closure's own
generators were conjugated: conjugate every seed element by every
generator and its inverse until the set stops growing, then close it.
The order-p oracle is the power definition g != 1, g^p = 1.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galcalc.catalogue import catalogue_group, standard_catalogue
from galcalc.perm import (
    Perm,
    PermGroup,
    are_conjugate_homs,
    hom_conjugacy_classes,
    homomorphisms,
)


def naive_closure(seed, identity):
    elems = {identity} | set(seed)
    frontier = list(elems)
    while frontier:
        nxt = []
        for a in frontier:
            for b in list(elems):
                for c in (a * b, b * a):
                    if c not in elems:
                        elems.add(c)
                        nxt.append(c)
        frontier = nxt
    return elems


def conjugation_closed_normal_closure(G, seed):
    conj_closed = set()
    queue = list(seed)
    gens_both = list(G.generators) + [g.inverse() for g in G.generators]
    while queue:
        t = queue.pop()
        if t in conj_closed:
            continue
        conj_closed.add(t)
        for g in gens_both:
            c = g * t * g.inverse()
            if c not in conj_closed:
                queue.append(c)
    return G.subgroup_from_generators(conj_closed)


def _primes(n):
    return [q for q in range(2, n + 1) if n % q == 0 and all(q % d for d in range(2, q))]


CATALOGUE_48 = [catalogue_group(spec) for spec in standard_catalogue(48)]


def greedy_generators(H):
    gens = []
    current = {H.parent.identity}
    for g in H.members:
        if len(current) == H.order:
            break
        if g in current:
            continue
        gens.append(g)
        current = naive_closure(current | {g}, H.parent.identity)
    return tuple(gens)


def pairwise_hom_classes(G, H):
    classes = []
    for f in homomorphisms(G, H):
        for cls in classes:
            if are_conjugate_homs(cls[0], f):
                cls.append(f)
                break
        else:
            classes.append([f])
    return classes


@st.composite
def perms_of_degree(draw, max_gens=3):
    n = draw(st.integers(min_value=1, max_value=6))
    gens = draw(st.lists(st.permutations(range(n)), max_size=max_gens))
    return n, [Perm(g) for g in gens]


@settings(max_examples=60, deadline=None)
@given(perms_of_degree())
def test_closure_equals_bfs_enumeration(case):
    n, gens = case
    Sn = catalogue_group(f"S{n}")
    closed = Sn.subgroup_from_generators(gens)
    assert closed.members == PermGroup(n, gens).elements


@settings(max_examples=40, deadline=None)
@given(perms_of_degree(max_gens=2))
def test_normal_closure_is_least_normal_overgroup(case):
    n, seed = case
    Sn = catalogue_group(f"S{n}")
    N = Sn.normal_closure(seed)
    assert N.is_normal()
    assert all(s in N for s in seed)
    conjugates = {x * s * x.inverse() for x in Sn.elements for s in seed}
    assert N.members == PermGroup(n, conjugates).elements


@settings(max_examples=60, deadline=None)
@given(perms_of_degree(max_gens=4))
def test_normal_closure_matches_conjugation_closed_seed(case):
    n, seed = case
    Sn = catalogue_group(f"S{n}")
    N = Sn.normal_closure(seed)
    assert N.bits == conjugation_closed_normal_closure(Sn, seed).bits


def test_normal_closure_matches_oracle_on_catalogue_48():
    for G in CATALOGUE_48:
        for p in _primes(G.order):
            order_p = G.order_p_elements(p)
            coprime = [g for g in G.elements if not g.is_identity() and g.order() % p]
            for seed in (order_p, coprime, order_p[:1], []):
                N = G.normal_closure(seed)
                oracle = conjugation_closed_normal_closure(G, seed)
                assert N.bits == oracle.bits, (G.name, p, len(seed))


def test_order_p_elements_match_power_definition():
    for G in CATALOGUE_48:
        e = G.identity
        for p in (2, 3, 5, 7):
            powered = tuple(g for g in G.elements if g != e and g ** p == e)
            assert G.order_p_elements(p) == powered, (G.name, p)


def test_generating_set_matches_greedy_reclosing():
    rng = random.Random(1404)
    for spec in ["S4", "S5", "A5", "D24", "Q16", "C2xC2xC2", "C3xC9"]:
        G = catalogue_group(spec)
        assert G.small_generating_set() == greedy_generators(G.full_subgroup())
        for _ in range(6):
            seed = rng.sample(G.elements, rng.randint(1, 3))
            H = G.subgroup_from_generators(seed)
            assert H.generating_set() == greedy_generators(H)


def _subgroups(G):
    out = [G.full_subgroup(), G.trivial_subgroup(), G.center()]
    out += [G.centralizer([g]) for g in G.elements]
    for p in _primes(G.order):
        out.append(G.sylow_subgroup(p))
        out += G.elementary_abelian_p_subgroups(p)
    return out


@pytest.mark.parametrize("spec", standard_catalogue(24))
def test_as_group_hands_over_the_greedy_generating_set(spec):
    G = catalogue_group(spec)
    assert G.small_generating_set() is G.small_generating_set()
    for H in _subgroups(G):
        K = H.as_group()
        expected = greedy_generators(H)
        assert K.generators == K.small_generating_set() == expected
        # a fresh group on the same elements finds the same set
        assert PermGroup(G.degree, H.members).small_generating_set() == expected


def test_orbit_sweep_hom_classes_match_pairwise_scan():
    groups = [catalogue_group(spec) for spec in standard_catalogue(8)]
    for G in groups:
        for H in groups:
            swept = [[f.key() for f in cls] for cls in hom_conjugacy_classes(G, H)]
            pairwise = [[f.key() for f in cls] for cls in pairwise_hom_classes(G, H)]
            assert swept == pairwise, (G.name, H.name)
