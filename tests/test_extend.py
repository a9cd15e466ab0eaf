"""The one extend-and-verify routine, against brute-force oracles.

``perm.extend_generator_map`` builds every homomorphism, every
isomorphism and surjection witness and every G-set action map, in one
walk over the source's recorded Cayley edges.  The oracles below are the
paths it replaced: a full |G|^2 multiplication check of each candidate
map, the separate BFS extension on a small generating set that the
isomorphism and surjection searches used, the element-by-generator check
of G-set action maps on carrier tuples, and the two-pass extension (BFS
assignment, then a check of f(g * s) for every element and generator)
that came before the edge walk.  The structural checks of finite
categories and groupoids are tested on the inputs they must reject.
"""

import itertools
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galcalc.catalogue import catalogue_group, standard_catalogue
from galcalc.groupoid import FinGroupoid, delooping
from galcalc.gset import GSet
from galcalc.orbitcat import FinCategory, category_from_poset
from galcalc.perm import (
    GroupHom,
    Perm,
    PermGroup,
    extend_generator_map,
    find_isomorphism,
    find_surjection,
    homomorphisms,
)

SMALL = standard_catalogue(8)
UP_TO_12 = standard_catalogue(12)


def bfs_extend(G, gens, images, identity):
    """Extend images of ``gens`` along breadth-first words; no checks."""
    fmap = {G.identity: identity}
    queue = [G.identity]
    while queue:
        nxt = []
        for cur in queue:
            for g, img in zip(gens, images):
                new = cur * g
                if new not in fmap:
                    fmap[new] = fmap[cur] * img
                    nxt.append(new)
        queue = nxt
    return fmap


def two_pass_extend(G, images, identity):
    """The extension before the Cayley-edge walk: assign f along BFS words,
    then check f(g * s) = f(g) * f(s) for every element g and generator s."""
    fmap = bfs_extend(G, G.generators, images, identity)
    for g in G.elements:
        for s, img in zip(G.generators, images):
            if fmap[g * s] != fmap[g] * img:
                return None
    return fmap


def check_same_extension(G, images, identity):
    """The edge walk and the two-pass oracle agree: the same dict, in the
    same definition order, or both None; returns whether it was accepted."""
    got = extend_generator_map(G, images, identity)
    expected = two_pass_extend(G, images, identity)
    if expected is None:
        assert got is None, (G, images)
        return False
    assert got is not None and list(got.items()) == list(expected.items()), (G, images)
    assert all(type(v) is Perm for v in got.values())
    return True


def brute_force_homs(G, H):
    """Image tuples on G's generators whose extension passes the full table."""
    out = []
    for images in itertools.product(H.elements, repeat=len(G.generators)):
        f = bfs_extend(G, G.generators, images, H.identity)
        if all(f[a * b] == f[a] * f[b] for a in G.elements for b in G.elements):
            out.append(tuple(p.images for p in images))
    return sorted(out)


@pytest.mark.parametrize("gspec", SMALL)
def test_homomorphisms_match_full_table_oracle(gspec):
    G = catalogue_group(gspec)
    for hspec in SMALL:
        H = catalogue_group(hspec)
        got = [f.key() for f in homomorphisms(G, H)]
        assert got == brute_force_homs(G, H), (gspec, hspec)


SMALL_TARGETS = ["C2", "S3", "D8"]


@pytest.mark.parametrize("gspec", standard_catalogue(48))
def test_edge_walk_matches_two_pass_oracle_on_catalogue_48(gspec):
    G = catalogue_group(gspec)
    rng = random.Random(gspec)
    for hspec in SMALL_TARGETS:
        H = catalogue_group(hspec)
        for f in homomorphisms(G, H):
            assert check_same_extension(G, f.gen_images, H.identity)
        for _ in range(20):  # a seeded sample, nearly all of it rejected
            images = [rng.choice(H.elements) for _ in G.generators]
            check_same_extension(G, images, H.identity)


@st.composite
def image_tuples(draw):
    """A source S4 or S5 and generator images in S4 or S5: any elements, or
    conjugates of the source's generators, an automorphism."""
    G = catalogue_group(draw(st.sampled_from(["S4", "S5"])))
    H = catalogue_group(draw(st.sampled_from(["S4", "S5"])))
    if H is G and draw(st.booleans()):
        x = draw(st.sampled_from(G.elements))
        return G, [x * g * x.inverse() for g in G.generators], H.identity
    return G, [draw(st.sampled_from(H.elements)) for _ in G.generators], H.identity


@settings(max_examples=80, deadline=None)
@given(image_tuples())
def test_edge_walk_matches_two_pass_oracle_on_s4_s5(case):
    check_same_extension(*case)


@settings(max_examples=80, deadline=None)
@given(
    spec=st.sampled_from(["C2", "C3", "C4", "C2xC2", "S3", "C6", "D8", "Q8"]),
    data=st.data(),
)
def test_edge_walk_matches_two_pass_oracle_on_carrier_maps(spec, data):
    G = catalogue_group(spec)
    n = data.draw(st.integers(min_value=0, max_value=5))
    images = [Perm(data.draw(st.permutations(range(n)))) for _ in G.generators]
    check_same_extension(G, images, Perm.identity(n))


@pytest.mark.parametrize("spec", ["S3", "D8", "Q8", "A4", "S4"])
def test_edge_walk_matches_two_pass_oracle_on_coset_actions(spec):
    G = catalogue_group(spec)
    for H in G.sylow_subgroups(2) + G.sylow_subgroups(3):
        X = GSet.coset_action(H)
        assert check_same_extension(G, X._gen_maps, Perm.identity(len(X)))


def test_edge_walk_rejects_non_homomorphism_under_optimize():
    code = (
        "from galcalc.catalogue import catalogue_group\n"
        "from galcalc.perm import GroupHom, extend_generator_map\n"
        "C3, S3 = catalogue_group('C3'), catalogue_group('S3')\n"
        "t = next(h for h in S3.elements if h.order() == 2)\n"
        "print(extend_generator_map(C3, [t], S3.identity))\n"
        "try:\n"
        "    GroupHom(C3, S3, [t])\n"
        "except ValueError:\n"
        "    print('rejected')\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.split() == ["None", "rejected"]


def test_group_hom_rejects_images_outside_the_target():
    C2, C4 = catalogue_group("C2"), catalogue_group("C4")
    with pytest.raises(ValueError, match="lie in the target"):
        GroupHom(C2, C4, [Perm([1, 0, 2, 3])])  # (0 1) is not in C4
    f = GroupHom(C2, C4, [Perm([2, 3, 0, 1])])  # (0 2)(1 3) is
    assert not f.is_surjective() and f(C2.generators[0]) == Perm([2, 3, 0, 1])


def oracle_search(G, H, cand_lists, gens):
    """The search loop of the isomorphism and surjection searches before
    they shared ``extend_generator_map``: generation test, BFS extension
    on ``gens``, element-by-generator check, and an injectivity test."""
    for images in itertools.product(*cand_lists):
        if PermGroup(H.degree, images).order != H.order:
            continue
        fmap = bfs_extend(G, gens, images, H.identity)
        if len(fmap) != G.order:
            continue
        if all(
            fmap[a * g] == fmap[a] * img
            for a in G.elements
            for g, img in zip(gens, images)
        ):
            return fmap
    return None


def oracle_isomorphism(G, H):
    if G.order != H.order or G.order_profile() != H.order_profile():
        return None
    gens = G.small_generating_set()
    cand_lists = [[h for h in H.elements if h.order() == g.order()] for g in gens]
    fmap = oracle_search(G, H, cand_lists, gens)
    if fmap is None or len(set(fmap.values())) != H.order:
        return None
    return tuple(fmap[g] for g in G.generators)


def oracle_surjection(G, H):
    if G.order % H.order != 0:
        return None
    gens = G.small_generating_set()
    cand_lists = [[h for h in H.elements if g.order() % h.order() == 0] for g in gens]
    fmap = oracle_search(G, H, cand_lists, gens)
    return None if fmap is None else tuple(fmap[g] for g in G.generators)


@pytest.mark.parametrize("gspec", UP_TO_12)
def test_isomorphism_and_surjection_searches_match_oracle(gspec):
    G = catalogue_group(gspec)
    for hspec in UP_TO_12:
        H = catalogue_group(hspec)
        for search, oracle in (
            (find_isomorphism, oracle_isomorphism),
            (find_surjection, oracle_surjection),
        ):
            got = search(G, H)
            expected = oracle(G, H)
            assert (got is None) == (expected is None), (search.__name__, gspec, hspec)
            if got is not None:
                assert got.gen_images == expected, (search.__name__, gspec, hspec)
                assert got.is_surjective()


def is_action(G, gen_images):
    """Brute force: a map on generators extends to an action iff the BFS
    extension satisfies g(h(x)) = (gh)(x) on every pair of elements."""
    perms = [Perm(img) for img in gen_images]
    f = bfs_extend(G, G.generators, perms, Perm.identity(len(gen_images[0])))
    return all(f[a * b] == f[a] * f[b] for a in G.elements for b in G.elements)


@settings(max_examples=60, deadline=None)
@given(
    spec=st.sampled_from(["C2", "C3", "C4", "C2xC2", "S3", "C6"]),
    data=st.data(),
)
def test_gset_accepts_exactly_the_actions(spec, data):
    G = catalogue_group(spec)
    n = data.draw(st.integers(min_value=1, max_value=4))
    gen_images = [data.draw(st.permutations(range(n))) for _ in G.generators]
    if is_action(G, gen_images):
        X = GSet(G, range(n), gen_images)
        for a in G.elements:
            for b in G.elements:
                assert X.action_map(a * b) == tuple(
                    X.act(a, X.act(b, x)) for x in range(n)
                )
    else:
        with pytest.raises(ValueError):
            GSet(G, range(n), gen_images)


def test_gset_rejects_transposition_for_c3():
    with pytest.raises(ValueError):
        GSet(catalogue_group("C3"), range(2), [[1, 0]])


def test_gset_rejects_non_action_under_optimize():
    code = (
        "from galcalc.catalogue import catalogue_group\n"
        "from galcalc.gset import GSet\n"
        "try:\n"
        "    GSet(catalogue_group('C3'), range(2), [[1, 0]])\n"
        "except ValueError:\n"
        "    print('rejected')\n"
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout.strip() == "rejected"


def test_gset_with_empty_carrier():
    S3 = catalogue_group("S3")
    X = GSet(S3, [], [[] for _ in S3.generators])
    assert len(X) == 0
    assert X.orbits() == []
    assert all(X.action_map(g) == () for g in S3.elements)
    assert len(GSet.trivial(catalogue_group("C1"), 0)) == 0


def _from_table(C, table):
    return FinCategory(C.objects, C.morphisms, C.identity_of, lambda g, f: table[g, f])


def test_check_basic_rejects_a_missing_composable_pair():
    # a missing unit pair is caught by the unit-law checks at construction,
    # any other by the tabulation in validate()
    C = delooping(catalogue_group("S3"))
    for key in (min(C.compose_table), max(C.compose_table)):
        table = dict(C.compose_table)
        del table[key]
        with pytest.raises(ValueError, match="not total"):
            _from_table(C, table).validate()
    # a negative composite must not stand in for the morphism it aliases
    table = dict(C.compose_table)
    key = max(table)
    table[key] -= len(C.morphisms)
    with pytest.raises(ValueError, match="out of range"):
        _from_table(C, table).validate()
    P = category_from_poset([0, 1, 2], lambda x, y: x <= y)
    for key in P.compose_table:
        table = dict(P.compose_table)
        del table[key]
        with pytest.raises(ValueError, match="not total"):
            _from_table(P, table).validate()


def test_check_invertible_rejects_comparable_poset_objects():
    P = category_from_poset(["a", "b"], lambda x, y: x <= y)
    with pytest.raises(ValueError, match="has no inverse"):
        FinGroupoid(P.objects, P.morphisms, P.identity_of, P.compose)
    # an antichain is a groupoid: only identities
    Q = category_from_poset(["a", "b"], lambda x, y: x == y)
    FinGroupoid(Q.objects, Q.morphisms, Q.identity_of, Q.compose)
