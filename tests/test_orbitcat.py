"""Orbit categories, subgroup families, and nerve fundamental groups."""

import pytest

from galcalc.catalogue import catalogue_group
from galcalc.errors import BadBasepoint, EmptyFamily
from galcalc.fp import abelianization, coset_enumeration, identify_finite, simplify
from galcalc.groupoid import delooping, pi0
from galcalc.gset import GSet
from galcalc.orbitcat import (
    FinCategory,
    Morphism,
    category_from_poset,
    close_family,
    conjugacy_class_representatives,
    nerve_pi1_presentation,
    orbit_category,
)


def test_fincategory_validation():
    # a single object with two endomorphisms forming C2
    ms = [Morphism(0, 0, "e"), Morphism(0, 0, "t")]
    table = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0}
    C = FinCategory([0], ms, [0], lambda g, f: table[g, f])
    C.validate()
    with pytest.raises(ValueError):
        FinCategory([0], ms, [1], lambda g, f: table[g, f])  # wrong identity
    partial = {k: v for k, v in table.items() if k != (1, 1)}  # t o t missing
    C = FinCategory([0], ms, [0], lambda g, f: partial[g, f])  # unit laws hold
    with pytest.raises(ValueError, match="not total"):
        C.validate()


def test_close_family_examples():
    S3 = catalogue_group("S3")
    a3 = S3.subgroup_from_generators([next(g for g in S3.elements if g.order() == 3)])
    assert close_family(S3, [a3]) == (a3,)  # normal, so already closed

    t = S3.subgroup_from_generators([next(g for g in S3.elements if g.order() == 2)])
    fam = close_family(S3, [t, t])
    assert [h.order for h in fam] == [1, 2, 2, 2]
    assert fam[0] == S3.trivial_subgroup() and t in fam
    assert fam == tuple(sorted(fam, key=lambda h: (h.order, h.member_key())))

    assert close_family(S3, []) == ()


def test_orbit_category_single_object_cases():
    # A = {G}: one object, one morphism
    S3 = catalogue_group("S3")
    C = orbit_category(S3, [S3.full_subgroup()])
    assert len(C.objects) == 1 and len(C.morphisms) == 1

    # G = C4, A = {C2}: End = C4/C2, two morphisms forming C2
    C4 = catalogue_group("C4")
    H = C4.subgroup_from_generators([g for g in C4.elements if g.order() == 2])
    C = orbit_category(C4, [H])
    C.validate()
    assert len(C.morphisms) == 2

    # G = S3, A = {A3}: End = S3/A3 of order 2
    a3 = S3.subgroup_from_generators([next(g for g in S3.elements if g.order() == 3)])
    C = orbit_category(S3, [a3])
    assert len(C.morphisms) == 2


def test_reduced_orbit_category_v4():
    V4 = catalogue_group("C2xC2")
    fam = V4.elementary_abelian_p_subgroups(2)
    C = orbit_category(V4, fam)
    C.validate()
    assert len(C.objects) == 4  # three lines and the plane
    assert C.object_info == tuple(fam)  # objects in the given order
    C = orbit_category(V4, fam[::-1])
    assert C.object_info == tuple(fam[::-1])
    with pytest.raises(EmptyFamily):
        orbit_category(V4, [])
    with pytest.raises(ValueError, match="different group"):
        orbit_category(V4, catalogue_group("C4").elementary_abelian_p_subgroups(2))


def _fixed_points_of_H_on_cosets(G, H, K):
    """Oracle: fixed points of H acting on the coset space G/K."""
    X = GSet.coset_action(K)
    count = 0
    for x in range(len(X.points)):
        if all(X.act(h, x) == x for h in H.members):
            count += 1
    return count


@pytest.mark.parametrize("spec,p", [("S4", 2), ("S3", 2), ("A4", 2), ("D12", 2)])
def test_orbit_hom_sizes_match_fixed_point_oracle(spec, p):
    G = catalogue_group(spec)
    C = orbit_category(G, G.elementary_abelian_p_subgroups(p))
    subs = C.object_info
    for i, H in enumerate(subs):
        for j, K in enumerate(subs):
            assert len(C.hom(i, j)) == _fixed_points_of_H_on_cosets(G, H, K)


def orbit_category_oracle(G, subs):
    """The per-triple scan: each coset gK of each pair (H, K) is tested
    with products, g^-1 h g in K for the generators h of H.  Returns the
    morphisms (src, dst, label) in order, the identities and the table."""
    coset_reps, coset_index = zip(*(K.cosets() for K in subs))
    morphisms, mor_index = [], {}
    for i, H in enumerate(subs):
        hgens = H.generating_set()
        for j, K in enumerate(subs):
            for ci, g in enumerate(coset_reps[j]):
                ginv = g.inverse()
                if all(ginv * h * g in K for h in hgens):
                    mor_index[(i, j, ci)] = len(morphisms)
                    morphisms.append((i, j, (i, j, g)))
    identities = [
        mor_index[(i, i, coset_index[i][G.identity])] for i in range(len(subs))
    ]
    out_of = [[] for _ in subs]
    for s, (src, _, _) in enumerate(morphisms):
        out_of[src].append(s)
    table = {}
    for f, (i, j, (_, _, g)) in enumerate(morphisms):
        for s in out_of[j]:
            _, l, (_, _, h) = morphisms[s]
            table[(s, f)] = mor_index[(i, l, coset_index[l][g * h])]
    return morphisms, identities, table


def test_orbit_category_matches_per_triple_oracle_on_catalogue_48():
    from galcalc.catalogue import standard_catalogue

    checked = 0
    for spec in standard_catalogue(48):
        G = catalogue_group(spec)
        for p in range(2, G.order + 1):
            if G.order % p or any(p % d == 0 for d in range(2, p)):
                continue
            subs = conjugacy_class_representatives(G.elementary_abelian_p_subgroups(p))
            C = orbit_category(G, subs)
            morphisms, identities, table = orbit_category_oracle(G, subs)
            got = [(m.src, m.dst, m.label) for m in C.morphisms]
            assert got == morphisms, (spec, p)
            assert list(C.identity_of) == identities, (spec, p)
            # composed on demand, pair by pair, then as the table on request
            assert all(C.compose(s, f) == h for (s, f), h in table.items()), (spec, p)
            assert C.compose_table == table, (spec, p)
            checked += 1
    assert checked == 173


def test_orbit_category_composes_on_demand():
    G = catalogue_group("S4")
    reps = conjugacy_class_representatives(G.elementary_abelian_p_subgroups(2))
    C = orbit_category(G, reps)
    assert C._table is None  # nothing composed beyond the unit-law checks
    f = next(i for i, m in enumerate(C.morphisms) if m.src != m.dst)
    s = next(i for i, m in enumerate(C.morphisms) if m.src == C.morphisms[f].dst)
    assert C.morphisms[C.compose(s, f)].src == C.morphisms[f].src
    with pytest.raises(KeyError):
        C.compose(f, f)  # dst(f) != src(f): not composable
    C.validate()
    data = C.to_json()
    assert len(data["composition"]) == len(C.compose_table) > 0
    assert C._table is not None
    ms = [Morphism(0, 0, "e"), Morphism(0, 0, "t")]
    with pytest.raises(ValueError, match="unit law"):
        FinCategory([0], ms, [0], lambda g, f: 1)


def test_nerve_pi0():
    S3 = catalogue_group("S3")
    C = delooping(S3)
    assert len(pi0(C)) == 1
    # disjoint union built by hand: two one-object categories
    ms = [Morphism(0, 0, "a"), Morphism(1, 1, "b")]
    table = {(0, 0): 0, (1, 1): 1}
    D = FinCategory([0, 1], ms, [0, 1], lambda g, f: table[g, f])
    assert len(pi0(D)) == 2
    E = FinCategory([], [], [], lambda g, f: 0)
    assert pi0(E) == []


def test_nerve_pi1_of_delooping_identifies_group():
    from galcalc.catalogue import standard_catalogue

    for spec in standard_catalogue(12):
        G = catalogue_group(spec)
        C = delooping(G)
        F = nerve_pi1_presentation(C, 0)
        assert F.ngens == len(G.small_generating_set()), spec
        r = identify_finite(F, [G])
        assert r.status == "Identified", spec


def test_nerve_pi1_circle():
    ms = [Morphism(0, 0, "idx"), Morphism(1, 1, "idy"),
          Morphism(0, 1, "a"), Morphism(0, 1, "b")]
    table = {(0, 0): 0, (1, 1): 1, (2, 0): 2, (1, 2): 2, (3, 0): 3, (1, 3): 3}
    circle = FinCategory([0, 1], ms, [0, 1], lambda g, f: table[g, f])
    F = nerve_pi1_presentation(circle, 0)
    Fs = simplify(F)
    assert Fs.ngens == 1 and Fs.relators == ()
    assert abelianization(Fs) == [0]


def test_nerve_pi1_contractible_poset():
    tri = category_from_poset(["x", "y", "z"], lambda a, b: a <= b)
    F = nerve_pi1_presentation(tri, "x")
    assert coset_enumeration(simplify(F)) == 1
    # any poset with a terminal object is simply connected
    diamond = category_from_poset(
        [(0, 0), (0, 1), (1, 0), (1, 1)],
        lambda a, b: a[0] <= b[0] and a[1] <= b[1],
    )
    F2 = nerve_pi1_presentation(diamond, (0, 0))
    assert coset_enumeration(simplify(F2)) == 1


def test_nerve_pi1_bad_basepoint():
    C = delooping(catalogue_group("C2"))
    with pytest.raises(BadBasepoint):
        nerve_pi1_presentation(C, "nope")


def test_nerve_pi1_basepoint_independence():
    # pi1 at every basepoint of a connected category identifies the same
    # group; the S5 orbit category at p = 5 has 6 objects and pi1 = C4
    S5 = catalogue_group("S5")
    C = orbit_category(S5, S5.elementary_abelian_p_subgroups(5))
    assert len(C.objects) == 6
    C4 = catalogue_group("C4")
    for bp in C.objects:
        F = nerve_pi1_presentation(C, bp)
        r = identify_finite(F, [C4])
        assert r.status == "Identified" and r.match_name == "C4", bp
    # and on a small all-trivial example every basepoint certifies order 1
    V4 = catalogue_group("C2xC2")
    C = orbit_category(V4, V4.elementary_abelian_p_subgroups(2))
    for bp in C.objects:
        assert coset_enumeration(simplify(nerve_pi1_presentation(C, bp))) == 1


def test_fincategory_json_schema():
    C4 = catalogue_group("C4")
    H = C4.subgroup_from_generators([g for g in C4.elements if g.order() == 2])
    C = orbit_category(C4, [H])
    data = C.to_json()
    assert data["schema"] == 1
    assert data["objects"] == [0]
    assert all(set(m) == {"src", "dst"} for m in data["morphisms"])
    assert len(data["composition"]) == 4
    assert data["object_info"][0]["subgroup_order"] == 2
    # plain categories have no object metadata
    plain = delooping(catalogue_group("C2")).to_json()
    assert "object_info" not in plain


def test_nerve_pi1_restricted_to_component():
    # two components: delooping of C2 next to an isolated object
    ms = [Morphism(0, 0, "e"), Morphism(0, 0, "t"), Morphism(1, 1, "e2")]
    table = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 0, (2, 2): 2}
    C = FinCategory([0, 1], ms, [0, 2], lambda g, f: table[g, f])
    F0 = nerve_pi1_presentation(C, 0)
    assert coset_enumeration(simplify(F0)) == 2
    F1 = nerve_pi1_presentation(C, 1)
    assert F1.ngens == 0
