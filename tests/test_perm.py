"""Group-core: permutation arithmetic, subgroup machinery, hom search."""

import itertools
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import galcalc
from galcalc.catalogue import catalogue_group, name_group, standard_catalogue
from galcalc.errors import CertificateError, NotNormal, SizeError
from galcalc.gset import GSet
from galcalc.perm import (
    Perm,
    PermGroup,
    Subgroup,
    are_conjugate_homs,
    find_isomorphism,
    find_surjection,
    hom_conjugacy_classes,
    homomorphisms,
)


def test_perm_arithmetic():
    a = Perm([1, 0, 2])
    b = Perm([0, 2, 1])
    assert (a * b).images == (1, 2, 0)  # b first, then a
    assert a.inverse() * a == Perm.identity(3)
    assert (a * b).inverse() == b.inverse() * a.inverse()
    assert Perm.from_cycles(4, [(0, 1), (2, 3)]).images == (1, 0, 3, 2)
    assert Perm([2, 0, 1]).order() == 3
    assert Perm([1, 0, 3, 2]).cycle_type() == (2, 2)


def test_perm_rejects_non_bijection():
    with pytest.raises(ValueError):
        Perm([0, 0, 1])


def test_associativity_brute():
    S3 = catalogue_group("S3")
    for a, b, c in itertools.product(S3.elements, repeat=3):
        assert (a * b) * c == a * (b * c)


def test_enumeration_against_itertools():
    # independent oracle: S4 is all 24 permutations of 4 points
    S4 = catalogue_group("S4")
    all_perms = {Perm(p) for p in itertools.permutations(range(4))}
    assert set(S4.elements) == all_perms
    assert S4.elements == tuple(sorted(all_perms))


def test_enumerate_examples():
    assert catalogue_group("S3").order == 6
    assert catalogue_group("D8").order == 8
    assert catalogue_group("C12").order == 12
    assert catalogue_group("C1").order == 1


def test_size_bound():
    with pytest.raises(SizeError):
        PermGroup(6, catalogue_group("S6").generators, max_order=100).elements


def test_order_p_elements():
    # (C4, 2) -> 1, (Q8, 2) -> 1, (S4, 2) -> 9; oracle: direct scan
    for spec, p, expected in [("C4", 2, 1), ("Q8", 2, 1), ("S4", 2, 9), ("C9", 2, 0)]:
        G = catalogue_group(spec)
        got = G.order_p_elements(p)
        direct = [g for g in G.elements if not g.is_identity() and (g ** p).is_identity()]
        assert len(got) == expected
        assert list(got) == sorted(direct)


def conjugacy_classes(G):
    """Conjugacy classes, each sorted, ordered by least member."""
    remaining = set(G.elements)
    classes = []
    for g in G.elements:
        if g not in remaining:
            continue
        cls = {x * g * x.inverse() for x in G.elements}
        remaining -= cls
        classes.append(tuple(sorted(cls)))
    return classes


def _all_normal_subgroups(G):
    """Oracle: normal subgroups are closures of unions of conjugacy classes."""
    classes = conjugacy_classes(G)
    ident_class = next(c for c in classes if G.identity in c)
    rest = [c for c in classes if c is not ident_class]
    found = {}
    for r in range(len(rest) + 1):
        for combo in itertools.combinations(rest, r):
            seed = set(ident_class)
            for c in combo:
                seed.update(c)
            H = G.subgroup_from_generators(seed)
            found[frozenset(H.members)] = H
    return list(found.values())


@pytest.mark.parametrize("spec", ["S3", "S4", "Q8", "A4", "D12", "C12", "D16", "D24"])
def test_normal_closure_minimality(spec):
    G = catalogue_group(spec)
    seeds = [
        [G.elements[1]],
        list(G.order_p_elements(2))[:1],
        list(G.order_p_elements(2)),
    ]
    normals = _all_normal_subgroups(G)
    for seed in seeds:
        seed = [s for s in seed if s is not None]
        if not seed:
            continue
        N = G.normal_closure(seed)
        assert N.is_normal()
        assert all(s in N for s in seed)
        for M in normals:
            if all(s in M for s in seed):
                assert set(N.members) <= set(M.members)


def test_normal_closure_examples():
    S4 = catalogue_group("S4")
    transpositions = [g for g in S4.elements if g.cycle_type() == (2, 1, 1)]
    assert S4.normal_closure(transpositions).order == 24
    assert S4.normal_closure([]).order == 1
    Q8 = catalogue_group("Q8")
    minus_one = Q8.order_p_elements(2)[0]
    N = Q8.normal_closure([minus_one])
    assert N.order == 2
    assert N == Q8.center()


def test_quotient_examples_and_kernel():
    C4 = catalogue_group("C4")
    H = C4.subgroup_from_generators([g for g in C4.elements if g.order() == 2])
    Q = C4.quotient(H)
    assert Q.order == 2
    Q8 = catalogue_group("Q8")
    V = Q8.quotient(Q8.center())
    assert V.order == 4
    assert all(g.order() <= 2 for g in V.elements)
    # the coset action maps are the projection: GSet construction proved
    # them multiplicative; check that element by element, then that the
    # image is the quotient (surjective) and the kernel exactly N
    X = GSet.coset_action(Q8.center())
    for a in Q8.elements:
        for b in Q8.elements:
            assert X.action_map(a * b) == tuple(
                X.act(a, X.act(b, x)) for x in range(len(X))
            )
    image = {X.action_map(g) for g in Q8.elements}
    assert PermGroup(len(X), map(Perm, image)).same_group(V)
    kernel = [g for g in Q8.elements if X.action_map(g) == tuple(range(len(X)))]
    assert kernel == list(Q8.center().members)
    G = catalogue_group("S3")
    T = G.quotient(G.full_subgroup())
    assert T.order == 1


def test_quotient_not_normal():
    S3 = catalogue_group("S3")
    t = next(g for g in S3.elements if g.order() == 2)
    with pytest.raises(NotNormal):
        S3.quotient(S3.subgroup_from_generators([t]))


def test_centralizer_examples():
    S3 = catalogue_group("S3")
    t = next(g for g in S3.elements if g.order() == 2)
    assert S3.centralizer([t]).order == 2
    assert S3.centralizer([S3.identity]).order == 6
    Q8 = catalogue_group("Q8")
    i = next(g for g in Q8.elements if g.order() == 4)
    C = Q8.centralizer([i])
    assert C.order == 4
    assert i in C


def test_normalizer_examples():
    S3 = catalogue_group("S3")
    A3 = S3.subgroup_from_generators([next(g for g in S3.elements if g.order() == 3)])
    assert S3.normalizer(A3).order == 6
    S4 = catalogue_group("S4")
    syl = S4.sylow_subgroup(2)
    assert syl.order == 8
    assert S4.normalizer(syl).order == 8  # self-normalizing
    assert S4.normalizer(S4.full_subgroup()).order == 24


def test_normalizer_closure_short_of_the_stabilizer_order_is_rejected(monkeypatch):
    G = PermGroup(4, [Perm([1, 2, 3, 0]), Perm([1, 0, 2, 3])])
    H = G.subgroup_from_generators([Perm([1, 0, 2, 3])])
    assert len(H.conjugacy_class()) == 6
    # the class walk without its non-tree edges, so no Schreier generators
    walk = Subgroup.class_walk
    monkeypatch.setattr(Subgroup, "class_walk", lambda K: walk(K)[:2] + ([],))
    with pytest.raises(CertificateError, match="not 4"):
        G.normalizer(H)
    monkeypatch.setattr(Subgroup, "class_walk", walk)
    assert G.normalizer(H).order == 4
    # the check is explicit, so python -O keeps it
    code = (
        "import galcalc.perm as perm\n"
        "from galcalc.errors import CertificateError\n"
        "walk = perm.Subgroup.class_walk\n"
        "perm.Subgroup.class_walk = lambda K: walk(K)[:2] + ([],)\n"
        "G = perm.PermGroup(4, [perm.Perm([1, 2, 3, 0]), perm.Perm([1, 0, 2, 3])])\n"
        "H = G.subgroup_from_generators([perm.Perm([1, 0, 2, 3])])\n"
        "assert False, 'asserts are stripped'\n"
        "try:\n"
        "    G.normalizer(H)\n"
        "except CertificateError:\n"
        "    print('rejected')\n"
        "else:\n"
        "    print('accepted')\n"
    )
    src = str(Path(galcalc.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": src},
        timeout=60,
        check=True,
    )
    assert out.stdout.strip() == "rejected"


def normalizer_scan(G, H):
    """Oracle: every element of G that conjugates H into itself."""
    return {g for g in G.elements if all(g * h * g.inverse() in H for h in H.members)}


def centralizer_scan(G, targets):
    """Oracle: every element of G that commutes with each target."""
    return {g for g in G.elements if all(g * s == s * g for s in targets)}


def _check_normalizer_and_centralizer(H):
    G = H.parent
    NH, CH = G.normalizer(H), G.centralizer(H.members)
    assert set(NH.members) == normalizer_scan(G, H)
    assert set(CH.members) == centralizer_scan(G, H.members)
    assert NH == G.subgroup(NH.members) and CH <= NH


def test_normalizer_and_centralizer_match_full_scans_on_catalogue_48():
    checked = 0
    for spec in standard_catalogue(48):
        G = catalogue_group(spec)
        subs = {G.trivial_subgroup(), G.full_subgroup(), G.center()}
        for p in (2, 3, 5, 7):
            if G.order % p == 0:
                subs.update(G.sylow_subgroups(p))
                subs.update(G.elementary_abelian_p_subgroups(p))
        for H in subs:
            _check_normalizer_and_centralizer(H)
            checked += 1
    assert checked > 1000


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(["S4", "S5"]), st.lists(st.integers(0, 119), max_size=3))
def test_normalizer_and_centralizer_match_full_scans_on_random_subgroups(spec, picks):
    G = catalogue_group(spec)
    _check_normalizer_and_centralizer(
        G.subgroup_from_generators(G.elements[i % G.order] for i in picks)
    )


def test_elementary_abelian_subgroups():
    S3 = catalogue_group("S3")
    assert len(S3.elementary_abelian_p_subgroups(3)) == 1
    V4 = catalogue_group("C2xC2")
    subs = V4.elementary_abelian_p_subgroups(2)
    assert len(subs) == 4  # three lines and the plane
    assert len(catalogue_group("C9").elementary_abelian_p_subgroups(2)) == 0
    # every member is elementary abelian: exhaustive member check
    for spec, p in [("S4", 2), ("A4", 2), ("D12", 2), ("C3xC3", 3)]:
        G = catalogue_group(spec)
        subs = G.elementary_abelian_p_subgroups(p)
        for H in subs:
            assert all((x ** p).is_identity() for x in H.members)
            assert all(a * b == b * a for a in H.members for b in H.members)
        maximal = [H for H in subs if not any(H is not K and H <= K for K in subs)]
        for H in subs:
            assert any(H <= M for M in maximal)


def test_elementary_abelian_include_trivial():
    # the search leaves the trivial subgroup out; a caller that wants it
    # prepends it, and the list stays in (order, member_key) order
    G = catalogue_group("C4")
    without = G.elementary_abelian_p_subgroups(2)
    with_triv = [G.trivial_subgroup()] + without
    assert all(H.order > 1 for H in without)
    assert len(with_triv) == len(without) + 1
    assert with_triv == sorted(with_triv, key=lambda H: (H.order, H.member_key()))


def _p_residual(G, p):
    # the smallest normal subgroup of p-power index: the normal closure of
    # the elements of order prime to p
    return G.normal_closure(g for g in G.elements if g.order() % p)


def test_p_residual():
    S3 = catalogue_group("S3")
    assert _p_residual(S3, 3).order == 6
    C6 = catalogue_group("C6")
    R = _p_residual(C6, 2)
    assert R.order == 3
    Q = C6.quotient(R)
    assert Q.order == 2
    # p-groups have trivial residual
    assert _p_residual(catalogue_group("Q8"), 2).order == 1
    # quotient is the maximal p-quotient: p-power order always
    for spec in ["S4", "A4", "C12", "D12"]:
        G = catalogue_group(spec)
        for p in (2, 3):
            Q = G.quotient(_p_residual(G, p))
            n = Q.order
            while n % p == 0:
                n //= p
            assert n == 1


def test_lagrange_everywhere():
    for spec in ["S4", "Q8", "D12", "A4"]:
        G = catalogue_group(spec)
        for H in G.elementary_abelian_p_subgroups(2):
            assert G.order % H.order == 0
        for P in G.sylow_subgroups(2):
            assert G.order % P.order == 0


def test_hom_counts():
    C2 = catalogue_group("C2")
    S3 = catalogue_group("S3")
    assert len(homomorphisms(C2, S3)) == 4
    assert len(homomorphisms(S3, catalogue_group("C1"))) == 1
    assert len(homomorphisms(catalogue_group("C3"), C2)) == 1


@pytest.mark.parametrize("n", [2, 3, 4, 6])
@pytest.mark.parametrize("hspec", ["C2", "C6", "S3", "D8", "Q8", "A4", "C12"])
def test_hom_count_cyclic_formula(n, hspec):
    # |Hom(C_n, H)| equals the number of h with h^n = e
    C = catalogue_group(f"C{n}")
    H = catalogue_group(hspec)
    expected = sum(1 for h in H.elements if (h ** n).is_identity())
    assert len(homomorphisms(C, H)) == expected


def test_hom_multiplicativity_verified():
    C2 = catalogue_group("C2")
    S3 = catalogue_group("S3")
    for f in homomorphisms(C2, S3):
        for a in C2.elements:
            for b in C2.elements:
                assert f(a * b) == f(a) * f(b)


def test_conjugacy_classes_of_homs():
    C2 = catalogue_group("C2")
    S3 = catalogue_group("S3")
    classes = hom_conjugacy_classes(C2, S3)
    assert len(classes) == 2
    sizes = sorted(len(c) for c in classes)
    assert sizes == [1, 3]
    assert len(hom_conjugacy_classes(C2, catalogue_group("C1"))) == 1
    # abelian target: classes = maps
    assert len(hom_conjugacy_classes(C2, C2)) == 2


def test_are_conjugate_homs():
    C2 = catalogue_group("C2")
    S3 = catalogue_group("S3")
    homs = homomorphisms(C2, S3)
    nontrivial = [f for f in homs if not f(f.source.elements[1]).is_identity()]
    assert len(nontrivial) == 3
    assert are_conjugate_homs(nontrivial[0], nontrivial[1])
    trivial = next(f for f in homs if f not in nontrivial)
    assert not are_conjugate_homs(trivial, nontrivial[0])


def test_find_isomorphism_and_profile_pruning():
    C6 = catalogue_group("C6")
    S3 = catalogue_group("S3")
    assert find_isomorphism(C6, S3) is None
    D6 = catalogue_group("D6")
    iso = find_isomorphism(D6, S3)
    assert iso is not None and iso.is_isomorphism()
    assert name_group(catalogue_group("D4")) == "C2xC2"


def test_find_surjection():
    S3 = catalogue_group("S3")
    C2 = catalogue_group("C2")
    f = find_surjection(S3, C2)
    assert f is not None and f.is_surjective()
    assert find_surjection(catalogue_group("C3"), C2) is None


def test_small_generating_set():
    for spec in ["S4", "Q8", "C12", "C2xC2xC2"]:
        G = catalogue_group(spec)
        gens = G.small_generating_set()
        assert G.subgroup_from_generators(gens).order == G.order
        assert len(gens) <= 3


def test_subgroup_validation():
    S3 = catalogue_group("S3")
    t = next(g for g in S3.elements if g.order() == 2)
    assert S3.subgroup([S3.identity, t]).order == 2
    # a set that is not closed under products
    r = next(g for g in S3.elements if g.order() == 3)
    with pytest.raises(ValueError):
        S3.subgroup([S3.identity, r])
    # a subgroup, but of S3, not of A3
    A3 = catalogue_group("A3")
    with pytest.raises(ValueError):
        A3.subgroup([A3.identity, t])


def test_as_group_is_handed_its_members():
    # the subgroup's members, sorted already, are the new group's element
    # list at once, and a fresh closure of its generators lists the same
    S4 = catalogue_group("S4")
    for H in [S4.sylow_subgroup(2), S4.center(), S4.full_subgroup()]:
        G = H.as_group("named")
        assert G._elements == H.members and G.name == "named"
        fresh = PermGroup(S4.degree, G.generators)
        assert G.elements == fresh.elements and G.cayley_table() == fresh.cayley_table()
