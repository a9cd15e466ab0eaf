"""Catalogue grammar and canonical representations."""

import math

import pytest

import galcalc.catalogue as catalogue
from galcalc.catalogue import (
    catalogue_group,
    display_name,
    group_from_catalogue,
    name_group,
    spec_invariants,
    standard_catalogue,
)
from galcalc.errors import ParseError, SizeError
from galcalc.perm import find_isomorphism
from galcalc.pipelines import galois_cochains, galois_modg


@pytest.mark.parametrize(
    "spec,order",
    [
        ("S1", 1), ("S2", 2), ("S3", 6), ("S4", 24), ("S5", 120),
        ("A3", 3), ("A4", 12), ("A5", 60),
        ("C1", 1), ("C7", 7), ("C12", 12),
        ("D2", 2), ("D4", 4), ("D8", 8), ("D14", 14), ("D24", 24),
        ("Q8", 8), ("Q16", 16),
        ("C2xC2", 4), ("C2xC3", 6), ("C2xC2xC2", 8), ("C3xC9", 27),
    ],
)
def test_family_formulas(spec, order):
    assert group_from_catalogue(spec).order == order


def test_s4_is_24():
    assert group_from_catalogue("S4").order == math.factorial(4)


def test_q8_structure():
    # derived from the quaternion multiplication table: a unique element
    # of order 2 and six of order 4
    Q8 = group_from_catalogue("Q8")
    assert Q8.order_profile() == {1: 1, 2: 1, 4: 6}
    assert Q8.center().order == 2


def test_q8_against_independent_quaternion_table():
    # oracle: quaternion units as (sign, axis) pairs with the usual rules
    units = [(s, a) for a in range(4) for s in (1, -1)]  # 1, i, j, k signed

    def qmul(x, y):
        (s1, a1), (s2, a2) = x, y
        if a1 == 0:
            return (s1 * s2, a2)
        if a2 == 0:
            return (s1 * s2, a1)
        if a1 == a2:
            return (-s1 * s2, 0)
        # i*j=k, j*k=i, k*i=j and anticommutativity
        table = {(1, 2): (1, 3), (2, 3): (1, 1), (3, 1): (1, 2),
                 (2, 1): (-1, 3), (3, 2): (-1, 1), (1, 3): (-1, 2)}
        s, a = table[(a1, a2)]
        return (s * s1 * s2, a)

    # regular representation of the oracle table
    idx = {u: i for i, u in enumerate(units)}
    from galcalc.perm import Perm, PermGroup

    i_unit, j_unit = (1, 1), (1, 2)
    gens = [
        Perm(tuple(idx[qmul(g, u)] for u in units)) for g in (i_unit, j_unit)
    ]
    oracle = PermGroup(8, gens)
    assert find_isomorphism(group_from_catalogue("Q8"), oracle) is not None


def test_v4_three_involutions():
    V4 = group_from_catalogue("C2xC2")
    assert V4.order == 4
    assert len(V4.order_p_elements(2)) == 3


def test_q16_structure():
    Q16 = group_from_catalogue("Q16")
    assert Q16.order_profile()[2] == 1  # generalized quaternion: unique involution
    assert Q16.center().order == 2


def test_dihedral_structure():
    D8 = group_from_catalogue("D8")
    assert D8.order_profile() == {1: 1, 2: 5, 4: 2}
    assert find_isomorphism(group_from_catalogue("D6"), group_from_catalogue("S3"))


def test_explicit_perm_spec():
    G = group_from_catalogue("perm:4:(1 2);(1 2 3 4)")
    assert G.order == 24
    G2 = group_from_catalogue("perm:3:(1 2 3)")
    assert G2.order == 3
    trivial = group_from_catalogue("perm:2:")
    assert trivial.order == 1


@pytest.mark.parametrize(
    "bad",
    ["", "X4", "D7", "D0", "Q32", "C0", "S0", "perm:0:(1 2)", "perm:2:(1 5)",
     "perm:2:(1 1)", "perm:2:junk", "C2xD4", "perm:2"],
)
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        group_from_catalogue(bad)


def test_size_error_from_formula():
    with pytest.raises(SizeError):
        group_from_catalogue("S9")  # 362880 > 20000
    with pytest.raises(SizeError):
        group_from_catalogue("S6", max_order=100)


def test_standard_catalogue_orders_and_determinism():
    specs = standard_catalogue(24)
    assert specs == standard_catalogue(24)
    assert all(catalogue_group(s).order <= 24 for s in specs)
    assert "S4" in specs and "Q8" in specs and "C2xC2" in specs
    assert "D6" not in specs  # avoid isomorphic duplicate of S3
    # no isomorphic duplicates among the small ones
    groups = [catalogue_group(s) for s in specs if catalogue_group(s).order <= 12]
    for i, G in enumerate(groups):
        for H in groups[i + 1:]:
            if G.order == H.order:
                assert find_isomorphism(G, H) is None, (G.name, H.name)


def test_name_group_and_display():
    Q8 = catalogue_group("Q8")
    V = Q8.quotient(Q8.center())
    assert name_group(V) == "C2xC2"
    assert display_name(V) == "C2 x C2 (order 4)"


def test_name_group_builds_only_its_order(monkeypatch):
    Q8 = catalogue_group("Q8")
    V = Q8.quotient(Q8.center())
    for G, name in ((catalogue_group("S4"), "S4"), (V, "C2xC2")):
        monkeypatch.setattr(catalogue, "_catalogue_cache", {})
        assert name_group(G) == name
        built = catalogue._catalogue_cache
        assert built and all(H.order == G.order for H in built.values())
        specs = set(standard_catalogue(G.order, exact=True))
        assert {spec for spec, _ in built} <= specs


def old_name_group(G):
    """Oracle: the catalogue of G's order, every spec built and tested."""
    for spec in standard_catalogue(G.order, exact=True):
        if find_isomorphism(G, catalogue_group(spec)) is not None:
            return spec
    return None


def test_spec_invariants_match_the_built_groups_up_to_order_200():
    specs = standard_catalogue(200)
    assert len(specs) == 482
    for spec in specs:
        G = catalogue_group(spec)
        abelian = all(a * b == b * a for a in G.generators for b in G.generators)
        involutions = sum(1 for g in G.elements if g.order() == 2)
        assert spec_invariants(spec) == (abelian, involutions), spec


def test_name_group_agrees_with_the_unfiltered_search_up_to_order_48():
    for spec in standard_catalogue(48):
        G = catalogue_group(spec)
        assert name_group(G) == old_name_group(G) == spec
        # the same groups in other degrees: quotients on orbits or cosets
        for p in (2, 3):
            for Q in (galois_modg(G, p), galois_cochains(G, p)):
                assert name_group(Q) == old_name_group(Q), (spec, p)


# SL(2,3) on the 8 nonzero vectors of F_3^2, and C3 x| C4 with C4 inverting C3
OUTSIDE_THE_CATALOGUE = [
    "perm:8:(1 4 7)(2 8 5);(1 6 2 3)(4 7 8 5)",
    "perm:7:(1 2 3);(2 3)(4 5 6 7)",
]


@pytest.mark.parametrize("spec", OUTSIDE_THE_CATALOGUE)
def test_name_group_is_none_outside_the_catalogue(spec):
    G = group_from_catalogue(spec)
    assert G.order in (12, 24)
    assert name_group(G) is None and old_name_group(G) is None
