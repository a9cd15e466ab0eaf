"""Groupoids: deloopings, pi0/pi1, hom-groupoids and the functor oracle."""

import pytest

from galcalc.catalogue import catalogue_group
from galcalc.errors import BadBasepoint, SizeError
from galcalc.groupoid import (
    FinGroupoid,
    action_groupoid,
    delooping,
    disjoint_union,
    hom_groupoid,
    hom_groupoid_bruteforce,
    hom_groupoids_agree,
    pi0,
    pi1,
)
from galcalc.gset import GSet
from galcalc.orbitcat import Morphism
from galcalc.perm import find_isomorphism


def test_delooping_examples():
    triv = delooping(catalogue_group("C1"))
    assert len(triv.objects) == 1 and len(triv.morphisms) == 1
    two = delooping(catalogue_group("C2"))
    assert len(two.morphisms) == 2
    S3 = catalogue_group("S3")
    B = delooping(S3)
    assert len(B.morphisms) == 6
    B.validate()
    # non-abelian composition table
    a, b = S3.generators
    els = list(S3.elements)
    ia, ib = els.index(a), els.index(b)
    assert B.compose(ia, ib) != B.compose(ib, ia)


def test_groupoid_invertibility_check():
    # a category with a non-invertible endomorphism is rejected
    ms = [Morphism(0, 0, "e"), Morphism(0, 0, "n")]
    table = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1}  # n absorbing
    with pytest.raises(ValueError):
        FinGroupoid([0], ms, [0], lambda g, f: table[g, f])


def test_pi0_examples():
    S3 = catalogue_group("S3")
    assert len(pi0(delooping(S3))) == 1
    U = disjoint_union(
        delooping(catalogue_group("C2")),
        delooping(catalogue_group("C3")),
        delooping(S3),
    )
    U.validate()
    assert len(pi0(U)) == 3
    empty = FinGroupoid([], [], [], lambda g, f: 0)
    assert pi0(empty) == []


def test_pi1_delooping_roundtrip_catalogue_24():
    from galcalc.catalogue import standard_catalogue

    for spec in standard_catalogue(24):
        G = catalogue_group(spec)
        P = pi1(delooping(G), 0)
        assert P.order == G.order, spec
        assert find_isomorphism(P, G) is not None, spec


def test_pi1_contractible_groupoid():
    # all hom-sets singletons: trivial pi1
    n = 3
    ms = []
    idx = {}
    for i in range(n):
        for j in range(n):
            idx[(i, j)] = len(ms)
            ms.append(Morphism(i, j, (i, j)))
    table = {}
    for (i, j), f in idx.items():
        for (j2, k), g in idx.items():
            if j2 == j:
                table[(g, f)] = idx[(i, k)]
    identities = [idx[(i, i)] for i in range(n)]
    X = FinGroupoid(list(range(n)), ms, identities, lambda g, f: table[g, f])
    X.validate()
    assert pi1(X, 0).order == 1


def test_pi1_action_groupoid_stabilizer():
    S3 = catalogue_group("S3")
    X = GSet.natural(S3)
    AG = action_groupoid(X)
    assert pi1(AG, 0).order == 2  # stabilizer of a point in S3 on 3 points
    with pytest.raises(BadBasepoint):
        pi1(AG, 99)


def test_component_automorphism_groups_conjugate_isomorphic():
    # action groupoid of a transitive action: all vertex groups isomorphic
    for spec in ["S3", "S4", "A4"]:
        G = catalogue_group(spec)
        AG = action_groupoid(GSet.natural(G))
        comps = AG.object_components()
        for comp in comps:
            groups = [pi1(AG, AG.objects[o]) for o in comp]
            for P in groups[1:]:
                assert find_isomorphism(groups[0], P) is not None


def test_hom_groupoid_examples():
    C2 = catalogue_group("C2")
    S3 = catalogue_group("S3")
    rep = hom_groupoid(C2, C2)
    assert rep.component_count() == 2
    assert rep.automorphism_orders() == [2, 2]
    rep = hom_groupoid(C2, S3)
    assert rep.component_count() == 2
    assert sorted(rep.automorphism_orders()) == [2, 6]
    rep = hom_groupoid(S3, catalogue_group("C1"))
    assert rep.component_count() == 1
    assert rep.automorphism_orders() == [1]


def test_hom_groupoid_bruteforce_examples():
    C2 = catalogue_group("C2")
    B = hom_groupoid_bruteforce(C2, C2)
    B.validate()
    assert len(B.objects) == 2
    assert len(B.morphisms) == 4  # two automorphisms at each object
    assert all(m.src == m.dst for m in B.morphisms)  # no cross morphisms

    H = catalogue_group("S3")
    B = hom_groupoid_bruteforce(catalogue_group("C1"), H)
    assert len(B.objects) == 1
    assert len(B.morphisms) == 6  # automorphism set is all of H

    B = hom_groupoid_bruteforce(catalogue_group("C3"), catalogue_group("C2"))
    assert len(B.objects) == 1
    assert pi1(B, 0).order == 2


def test_hom_groupoid_bruteforce_bound():
    with pytest.raises(SizeError):
        hom_groupoid_bruteforce(catalogue_group("S5"), catalogue_group("S5"))


def test_delooping_bound():
    with pytest.raises(SizeError):
        delooping(catalogue_group("S6"))


def test_hom_groupoid_json_schema():
    rep = hom_groupoid(catalogue_group("C2"), catalogue_group("S3"))
    data = rep.to_json()
    assert data["schema"] == 1
    assert len(data["components"]) == 2
    for comp in data["components"]:
        assert "representative" in comp and "automorphisms" in comp
        assert "order" in comp["automorphisms"]


@pytest.mark.parametrize(
    "a,b",
    [
        ("C2", "C2"), ("C2", "S3"), ("C3", "C2"), ("S3", "S3"),
        ("C4", "D8"), ("Q8", "Q8"), ("C2xC2", "C4"), ("A4", "C6"),
        ("S3", "A4"), ("C6", "C12"),
    ],
)
def test_formula_matches_oracle_spotchecks(a, b):
    assert hom_groupoids_agree(catalogue_group(a), catalogue_group(b))


def test_centralizer_of_generator_images_is_centralizer_of_image():
    # x commutes with f(G) exactly when it commutes with every f(s); the
    # centralizer of the whole image is the oracle
    from galcalc.catalogue import standard_catalogue
    from galcalc.perm import homomorphisms

    specs = standard_catalogue(8)
    for a in specs:
        for b in specs:
            G, H = catalogue_group(a), catalogue_group(b)
            for f in homomorphisms(G, H):
                image = {f(g) for g in G.elements}
                assert H.centralizer(f.gen_images) == H.centralizer(image), (a, b)
            for rep, cent in hom_groupoid(G, H).components:
                assert cent == H.centralizer({rep(g) for g in G.elements}), (a, b)
