"""G-sets, torsors, and the finite Galois category structure."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galcalc.catalogue import catalogue_group, standard_catalogue
from galcalc.errors import IncompatibleGroups
from galcalc.gset import (
    GSet,
    TorsorCandidate,
    classify_torsors,
    coproduct,
    is_torsor,
    product,
    quotient_by_action,
    reconstruct_pi1,
    subterminal_boolean_algebra,
    torsor_from_hom,
    torsor_isomorphic,
)
from galcalc.gset import _aux_automorphisms, _least_transport
from galcalc.perm import hom_conjugacy_classes, homomorphisms
from galcalc.stone import spectrum


def _right_regular(G):
    els = list(G.elements)
    return GSet(
        G, els, [[els.index(x * g.inverse()) for x in els] for g in G.generators]
    )


def test_action_verification_rejects_non_action():
    C4 = catalogue_group("C4")
    # the generator of order 4 cannot act as a 2-cycle on 3 points... it can
    # act as a transposition (through the quotient C2); a genuine non-action:
    # a 3-cycle image for a generator of order 4
    with pytest.raises(ValueError):
        GSet(C4, range(3), [[1, 2, 0]])


def test_action_through_quotient_is_fine():
    C4 = catalogue_group("C4")
    X = GSet(C4, range(2), [[1, 0]])
    assert len(X.orbits()) == 1


def test_orbits_examples():
    S3 = catalogue_group("S3")
    assert len(GSet.regular(S3).orbits()) == 1
    assert len(GSet.trivial(S3, 5).orbits()) == 5
    # S3 on unordered pairs from {1,2,3}: transitive of size 3
    els = list(S3.elements)
    pairs = [(0, 1), (0, 2), (1, 2)]

    def act_pair(g, pr):
        a, b = g(pr[0]), g(pr[1])
        return (min(a, b), max(a, b))

    images = [[pairs.index(act_pair(g, pr)) for pr in pairs] for g in S3.generators]
    X = GSet(S3, pairs, images)
    assert X.orbits() == [(0, 1, 2)]


def test_product_examples():
    S3 = catalogue_group("S3")
    R = GSet.regular(S3)
    point = GSet.trivial(S3, 1)
    assert len(product(R, point).orbits()) == 1
    assert len(product(R, point).points) == 6
    # G x G is a disjoint union of |G| regular orbits
    P = product(R, R)
    orbs = P.orbits()
    assert len(orbs) == 6
    assert all(len(o) == 6 for o in orbs)


def test_coproduct_and_incompatibility():
    S3 = catalogue_group("S3")
    X = coproduct(GSet.natural(S3), GSet.trivial(S3, 2))
    assert len(X.points) == 5
    assert len(X.orbits()) == 3
    with pytest.raises(IncompatibleGroups):
        product(GSet.natural(S3), GSet.natural(catalogue_group("C4")))


def test_distributivity_random_instances():
    # X x (Y + Z) is isomorphic to (X x Y) + (X x Z): verified by explicit
    # orbit-type multisets on seeded random small G-sets
    rng = random.Random(11)
    S3 = catalogue_group("S3")
    pool = [
        GSet.natural(S3),
        GSet.trivial(S3, 2),
        GSet.regular(S3),
        GSet.coset_action(S3.trivial_subgroup()),
    ]
    for _ in range(6):
        X, Y, Z = (rng.choice(pool) for _ in range(3))
        left = product(X, coproduct(Y, Z))
        right = coproduct(product(X, Y), product(X, Z))
        assert sorted(len(o) for o in left.orbits()) == sorted(
            len(o) for o in right.orbits()
        )
        assert len(left.points) == len(right.points)


def test_quotient_by_action():
    S3 = catalogue_group("S3")
    R = GSet.regular(S3)
    Q = quotient_by_action(R, _right_regular(S3))
    assert len(Q.points) == 1


def test_torsor_recognition():
    C2 = catalogue_group("C2")
    S3 = catalogue_group("S3")
    # hom-induced candidates are torsors
    for f in homomorphisms(C2, S3):
        T = torsor_from_hom(f)
        assert is_torsor(T)
        assert len(T.base.points) == 6
    # trivial aux action on 2 points: not free
    bad = TorsorCandidate(GSet.trivial(C2, 2), GSet.trivial(C2, 2))
    assert not is_torsor(bad)
    # wrong carrier size: not a torsor
    T3 = TorsorCandidate(GSet.trivial(C2, 3), GSet.trivial(C2, 3))
    assert not is_torsor(T3)


def test_torsor_from_hom_identity_is_bitorsor():
    S3 = catalogue_group("S3")
    ident_hom = next(
        f
        for f in homomorphisms(S3, S3)
        if all(f(g) == g for g in S3.elements)
    )
    T = torsor_from_hom(ident_hom)
    assert is_torsor(T)
    assert len(T.base.orbits()) == 1  # left action also free transitive here


def test_torsor_isomorphism_matches_conjugacy():
    C2 = catalogue_group("C2")
    S3 = catalogue_group("S3")
    homs = homomorphisms(C2, S3)
    nontrivial = [f for f in homs if not all(v.is_identity() for v in f.gen_images)]
    T1, T2 = torsor_from_hom(nontrivial[0]), torsor_from_hom(nontrivial[1])
    assert torsor_isomorphic(T1, T2)
    Ttriv = torsor_from_hom(next(f for f in homs if f not in nontrivial))
    assert not torsor_isomorphic(Ttriv, T1)


@pytest.mark.parametrize(
    "a,b",
    [("C2", "C2"), ("C2", "S3"), ("S3", "C1"), ("C4", "C4"),
     ("S3", "S3"), ("C2xC2", "C2"), ("C6", "S3"), ("Q8", "C2")],
)
def test_classify_torsors_matches_hom_classes(a, b):
    G, H = catalogue_group(a), catalogue_group(b)
    assert len(classify_torsors(G, H)) == len(hom_conjugacy_classes(G, H))


def test_classify_torsors_examples():
    assert len(classify_torsors(catalogue_group("C2"), catalogue_group("C2"))) == 2
    assert len(classify_torsors(catalogue_group("C2"), catalogue_group("S3"))) == 2
    assert len(classify_torsors(catalogue_group("S3"), catalogue_group("C1"))) == 1


def _bucketed_pairwise_classes(G, Gp):
    """The pairwise classification: induced torsors bucketed by the cycle
    types of the base action, then compared by ``torsor_isomorphic``."""
    torsors = [torsor_from_hom(f) for f in homomorphisms(G, Gp)]
    assert all(is_torsor(T) for T in torsors)
    buckets = {}
    for T in torsors:
        key = tuple(_map_cycle_type(T.base.action_map(g)) for g in G.elements)
        buckets.setdefault(key, []).append(T)
    classes = []
    for bucket in buckets.values():
        reps = []
        for T in bucket:
            if not any(torsor_isomorphic(T, R) for R in reps):
                reps.append(T)
        classes.extend(reps)
    return classes


def _map_cycle_type(m):
    seen = [False] * len(m)
    lengths = []
    for s in range(len(m)):
        if seen[s]:
            continue
        ln = 0
        x = s
        while not seen[x]:
            seen[x] = True
            x = m[x]
            ln += 1
        lengths.append(ln)
    return tuple(sorted(lengths))


def _torsor_key(T):
    # the canonical key classify_torsors gives a torsor
    return _least_transport(T.base, _aux_automorphisms(T.aux))


def _rep_keys(classes):
    return sorted(T.base._gen_maps for T in classes)


SPECS_8 = standard_catalogue(8)
SPECS_12 = standard_catalogue(12)


@pytest.mark.parametrize("a", SPECS_8)
def test_classify_torsors_matches_bucketed_pairwise_oracle(a):
    G = catalogue_group(a)
    for b in SPECS_8:
        H = catalogue_group(b)
        classes = classify_torsors(G, H)
        oracle = _bucketed_pairwise_classes(G, H)
        assert len(classes) == len(oracle), (a, b)
        assert _rep_keys(classes) == _rep_keys(oracle), (a, b)


def test_classify_torsors_represents_each_class_by_its_first_torsor():
    G, H = catalogue_group("C4"), catalogue_group("D8")
    torsors = [torsor_from_hom(f) for f in homomorphisms(G, H)]
    keys = [_torsor_key(T) for T in torsors]
    firsts = [T for i, T in enumerate(torsors) if keys[i] not in keys[:i]]
    assert [T.base._gen_maps for T in classify_torsors(G, H)] == [
        T.base._gen_maps for T in firsts
    ]


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(SPECS_12),
    st.sampled_from(SPECS_12),
    st.integers(min_value=0),
    st.integers(min_value=0),
    st.one_of(st.none(), st.integers(min_value=0)),
)
def test_torsor_key_equal_iff_isomorphic(a, b, i, j, conj):
    G, H = catalogue_group(a), catalogue_group(b)
    homs = homomorphisms(G, H)
    f1 = homs[i % len(homs)]
    if conj is None:
        f2 = homs[j % len(homs)]
    else:
        # a conjugate of f1, so that isomorphic pairs are drawn often
        x = H.elements[conj % H.order]
        xi = x.inverse()
        images = tuple(x * img * xi for img in f1.gen_images)
        f2 = next(f for f in homs if f.gen_images == images)
    T1, T2 = torsor_from_hom(f1), torsor_from_hom(f2)
    assert (_torsor_key(T1) == _torsor_key(T2)) == torsor_isomorphic(T1, T2)


def test_classify_torsors_carrier_bound():
    from galcalc.errors import SizeError

    with pytest.raises(SizeError):
        classify_torsors(catalogue_group("C2"), catalogue_group("S5"))


def test_subterminal_boolean_algebra():
    S3 = catalogue_group("S3")
    X1 = GSet.natural(S3)
    B = subterminal_boolean_algebra(X1)
    assert len(B) == 2
    X2 = coproduct(X1, GSet.trivial(S3, 1))
    B2 = subterminal_boolean_algebra(X2)
    assert len(B2) == 4
    assert len(spectrum(B2)) == 2
    # x * x = x holds for every element (idempotence of meet)
    for x in B2.elements:
        assert B2.meet(x, x) == x
    Xk = coproduct(X2, GSet.trivial(S3, 2))
    assert len(subterminal_boolean_algebra(Xk)) == 2 ** 4


@pytest.mark.parametrize("spec", ["C1", "C4", "S3", "Q8", "C2xC2", "D8", "C12", "A4", "S4"])
def test_reconstruct_pi1(spec):
    G = catalogue_group(spec)
    A, witness = reconstruct_pi1(G)
    assert A.order == G.order
    assert witness.source is A and witness.target is G
    assert witness.is_isomorphism()


def test_gset_text_format_roundtrip():
    from galcalc.errors import ParseError
    from galcalc.gset import format_gset, parse_gset

    S3 = catalogue_group("S3")
    X = GSet.natural(S3)
    text = format_gset(X)
    assert text.startswith("gset:S3:3:")
    Y = parse_gset(text)
    assert Y.points == (0, 1, 2)
    assert [Y.action_map(g) for g in S3.generators] == [
        X.action_map(g) for g in S3.generators
    ]
    # a hand-written action of C4 through its C2 quotient
    Z = parse_gset("gset:C4:2:0:1 0")
    assert len(Z.orbits()) == 1
    for bad in [
        "gset:C4:2:0:1 0;0:0 1",  # generator mapped twice
        "gset:C4:2:1:1 0",        # index out of range
        "gset:C4:3:0:1 0",        # wrong image length
        "gset:C4:2:0:1 2",        # not a permutation of the carrier
        "gset:C4:2:",             # missing generator
        "notgset:C4:2:0:1 0",
    ]:
        with pytest.raises(ParseError):
            parse_gset(bad)
