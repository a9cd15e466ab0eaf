"""Infinite pushouts: the free-rank and amalgam certificates.

``van_kampen_pushout`` answers Infinite, without enumerating the
pushout, when its abelianization has a free factor or when the amalgam
certificate holds (finite pieces, injective legs, neither onto).  These
tests check the answer on amalgams of cyclic groups, re-verify every
certificate by independent computations, and compare every finite
pushout the suite uses with the enumeration-only answer, which stays
here as the oracle.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from galcalc.catalogue import catalogue_group, standard_catalogue
from galcalc.errors import CosetLimitExceeded
from galcalc.fp import (
    FpGroup,
    FpMap,
    abelianization,
    coset_enumeration,
    identify_finite,
    parse_fp,
    pushout,
    regular_representation,
    simplify,
    smith_normal_form,
)
from galcalc import pipelines
from galcalc.pipelines import (
    CERT_AMALGAM,
    CERT_FREE_RANK,
    InfinitenessCertificate,
    _amalgam_certificate,
    van_kampen_pushout,
)

TRIV = FpGroup(0, ())
Z = FpGroup(1, ())


def cyclic(n):
    return FpGroup(1, ((1,) * n,))


def enumerated_answer(left, right):
    """Status, name and certified order by enumerating the pushout alone:
    the answer before the certificates, kept as the oracle."""
    Ps = simplify(pushout(left, right))
    try:
        regular = regular_representation(Ps)
    except CosetLimitExceeded:
        return ("Inconclusive", None, None)
    order = regular[0].degree
    candidates = []
    if order <= 48:
        candidates = [
            catalogue_group(spec)
            for spec in standard_catalogue(order)
            if catalogue_group(spec).order == order
        ]
    r = identify_finite(Ps, candidates, regular=regular)
    return (r.status, r.match_name, r.certified_order)


def answer(report):
    r = report.identification
    return (r.status, r.match_name, r.certified_order)


def half_unit(n):
    """Largest unit of Z/n at most n/2 (1 for n <= 2)."""
    return max(u for u in range(1, n // 2 + 1) if math.gcd(u, n) == 1)


def finite_pushouts():
    """Every finite pushout the suite uses (the CLI doubling is the
    doubling, and the A4 gluing is the golden one), plus every gluing
    C_m <- Z -> C_n (2 <= m <= n <= 12) sent to a^u and b^v for the
    largest units u, v at most m/2, n/2, which is C_gcd(m, n)."""
    cases = [
        ("C1 * C5", FpMap(TRIV, cyclic(1), ()), FpMap(TRIV, cyclic(5), ())),
        ("trivial gluing", FpMap(TRIV, cyclic(1), ()), FpMap(TRIV, cyclic(1), ())),
        ("doubling", FpMap(Z, Z, ((1, 1),)), FpMap(Z, TRIV, ((),))),
    ]
    for k in (2, 3, 4):
        Ck = cyclic(k)
        legs = FpMap(Ck, Ck, ((1,),)), FpMap(Ck, Ck, ((1,),))
        cases.append((f"iso legs C{k}", *legs))
    A4 = parse_fp("fp:2:aa,bbb,ababab")
    cases.append(("A4 gluing", FpMap(Z, A4, ((1,),)), FpMap(Z, cyclic(2), ((1,),))))
    # C2 -> C2 x C2 is not injective (x goes to 1) and C2 -> S3 is: the
    # pushout kills the transposition's normal closure and is C2 x C2
    C2, V4, S3 = cyclic(2), parse_fp("fp:2:aa,bb,abAB"), parse_fp("fp:2:aa,bbb,abab")
    cases.append(("non-injective leg", FpMap(C2, V4, ((),)), FpMap(C2, S3, ((1,),))))
    for m in range(2, 13):
        for n in range(m, 13):
            legs = (
                FpMap(Z, cyclic(m), ((1,) * half_unit(m),)),
                FpMap(Z, cyclic(n), ((1,) * half_unit(n),)),
            )
            cases.append((f"C{m} <- Z -> C{n}", *legs))
    return cases


def test_finite_pushouts_keep_their_answer():
    for label, left, right in finite_pushouts():
        report = van_kampen_pushout(left, right)
        assert report.certificate is None, label
        assert report.identification.status == "Identified", label
        assert answer(report) == enumerated_answer(left, right), label
        if "<- Z ->" in label:
            m, n = (len(leg.target.relators[0]) for leg in (left, right))
            g = math.gcd(m, n)
            assert answer(report)[1:] == (f"C{g}", g), label


@settings(max_examples=60, deadline=None)
@given(
    c=st.integers(1, 6),
    k=st.integers(1, 4),
    l=st.integers(1, 4),
    u=st.integers(1, 5),
)
def test_cyclic_amalgams(c, k, l, u):
    # C_a *_{C_c} C_b with a = c k, b = c l: the corner's generator goes to
    # a generator of the subgroup of order c on each side
    u = next(v for v in range(u, u + c + 1) if math.gcd(v, c) == 1)
    a, b = c * k, c * l
    C = cyclic(c)
    left = FpMap(C, cyclic(a), ((1,) * (u * k),))
    right = FpMap(C, cyclic(b), ((1,) * l,))
    report = van_kampen_pushout(left, right)
    if c < a and c < b:
        assert report.identification.status == "Infinite"
        assert report.identification.certified_order is None
        assert report.certificate.kind == CERT_AMALGAM
        assert report.certificate.orders == (a, b, c)
        assert report.certificate.indices == (k, l)
    else:
        order = max(a, b)
        assert report.certificate is None
        assert answer(report) == ("Identified", f"C{order}", order)


def test_amalgam_needs_corner_relators_killed_in_the_factors():
    # x -> a, y -> 1 from C2 x C2 into D8 kills x^2 only on abelianizations
    # (a^2 is the central rotation), although <a> has order 4 = |C| and
    # index 2, so the amalgam certificate does not apply
    C = parse_fp("fp:2:aa,bb,abAB")
    D8 = parse_fp("fp:2:aaaa,bb,abab")
    C2xC4 = parse_fp("fp:2:aa,bbbb,abAB")
    left = FpMap(C, D8, ((1,), ()))
    right = FpMap(C, C2xC4, ((1,), (2, 2)))
    report = van_kampen_pushout(left, right, max_cosets=1000)
    assert report.certificate is None
    assert report.identification.status == "Inconclusive"


def test_free_product_enumerates_each_factor_once(monkeypatch):
    # the legs of C2 * C3 have empty image words: their images are trivial,
    # so each index is the factor's order and is not enumerated again
    calls = []

    def counted(F, subgroup_words=(), max_cosets=50000):
        calls.append(F)
        return coset_enumeration(F, subgroup_words, max_cosets)

    monkeypatch.setattr(pipelines, "coset_enumeration", counted)
    C2, C3 = cyclic(2), cyclic(3)
    cert = _amalgam_certificate(FpMap(TRIV, C2, ()), FpMap(TRIV, C3, ()), 50000)
    assert cert == InfinitenessCertificate(CERT_AMALGAM, orders=(2, 3, 1), indices=(2, 3))
    assert calls == [TRIV, C2, C3]


def certified_cases():
    """Free products C_m * C_n (2 <= m <= n <= 8), as in the pushouts
    workload, plus free-rank cases and amalgams of noncyclic groups."""
    cases = [
        (f"C{m} * C{n}", FpMap(TRIV, cyclic(m), ()), FpMap(TRIV, cyclic(n), ()))
        for m in range(2, 9)
        for n in range(m, 9)
    ]
    S3 = parse_fp("fp:2:aa,bbb,abab")
    C2, C3 = cyclic(2), cyclic(3)
    cases += [
        ("F2", FpMap(Z, Z, ((),)), FpMap(Z, Z, ((),))),
        ("Z * C2", FpMap(TRIV, Z, ()), FpMap(TRIV, C2, ())),
        ("S3 *_C2 C4", FpMap(C2, S3, ((1,),)), FpMap(C2, cyclic(4), ((1, 1),))),
        ("S3 *_C3 S3", FpMap(C3, S3, ((2,),)), FpMap(C3, S3, ((-2,),))),
    ]
    return cases


def test_certificates_reverify():
    seen = set()
    for label, left, right in certified_cases():
        report = van_kampen_pushout(left, right)
        cert = report.certificate
        assert report.identification.status == "Infinite", label
        seen.add(cert.kind)
        if cert.kind == CERT_FREE_RANK:
            P = report.presentation
            rows = [
                [sum(x // g for x in r if abs(x) == g) for g in range(1, P.ngens + 1)]
                for r in P.relators
            ]
            rank = sum(1 for d in smith_normal_form(rows) if d != 0)
            assert rank < P.ngens, label
            assert abelianization(P)[cert.zero_factor] == 0, label
            continue
        C = left.source
        order_a, order_b, order_c = cert.orders
        assert coset_enumeration(C) == order_c, label
        for leg, order, index in zip((left, right), (order_a, order_b), cert.indices):
            assert coset_enumeration(leg.target) == order, label
            for r in C.relators:
                assert coset_enumeration(leg.target, [leg.apply(r)]) == order, label
            assert coset_enumeration(leg.target, leg.images) == index, label
            assert order // index == order_c and index > 1, label
    assert seen == {CERT_FREE_RANK, CERT_AMALGAM}
