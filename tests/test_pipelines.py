"""Theorem pipelines: representation, cochain, and stable module paths."""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from galcalc import fp, pipelines
from galcalc.catalogue import (
    catalogue_group,
    group_from_catalogue,
    name_group,
    standard_catalogue,
)
from galcalc.errors import POrderError, SizeError
from galcalc.fp import FpGroup, FpMap
from galcalc.perm import find_isomorphism, find_surjection
from galcalc.pipelines import (
    cochains_report,
    galois_cochains,
    galois_modg,
    galois_stmod,
    has_central_order_p,
    maximal_representatives,
    modg_report,
    orbit_nerve,
    stmod_candidates,
    sylow_triple_condition,
    van_kampen_pushout,
    weyl_group,
)


def _is_p_power(n, p):
    while n % p == 0:
        n //= p
    return n == 1


# -- representation category path ---------------------------------------------


@pytest.mark.parametrize(
    "spec,p,order,name",
    [
        ("S4", 2, 1, "C1"),
        ("C4", 2, 2, "C2"),
        ("Q8", 2, 4, "C2xC2"),
        ("C6", 3, 2, "C2"),
        ("A4", 2, 3, "C3"),
    ],
)
def test_modg_regression_table(spec, p, order, name):
    Q = galois_modg(catalogue_group(spec), p)
    assert Q.order == order
    assert name_group(Q) == name


def test_modg_identity_when_p_does_not_divide():
    for spec, p in [("S3", 5), ("C4", 3), ("Q8", 7)]:
        G = catalogue_group(spec)
        Q = galois_modg(G, p)
        assert Q.order == G.order
        assert find_isomorphism(Q, G) is not None


def test_s7_quotients_within_the_order_bound():
    # S7 (order 5040) is inside the default order bound; a quadratic
    # subgroup closure took minutes here, Dimino's takes under a second
    G = catalogue_group("S7")
    start = time.perf_counter()
    assert [galois_modg(G, p).order for p in (2, 7)] == [1, 2]
    assert [galois_cochains(G, p).order for p in (2, 7)] == [1, 1]
    assert time.perf_counter() - start < 10.0


def test_stmod_north_star_cases_on_the_skeleton():
    # the full nerve gives these answers in minutes (S6 at 3 alone took
    # over 200 s); the skeletal orbit category gives them in seconds
    cases = [("S5", 2, "C1"), ("A5", 2, "C3"), ("S6", 3, "D8"),
             ("D24", 2, "C1"), ("S6", 5, "C4")]
    start = time.perf_counter()
    for spec, p, name in cases:
        r = galois_stmod(catalogue_group(spec), p)
        assert r.identification.status == "Identified", (spec, p)
        assert r.identification.match_name == name, (spec, p)
        assert all(c.agreed for c in r.cross_checks), (spec, p)
    assert time.perf_counter() - start < 10.0


# Each S7 case runs in a child interpreter, which reports its own time and
# its own peak resident memory (VmHWM, which starts afresh at exec; the
# ru_maxrss of a child would inherit this process's high-water mark).
S7_CHILD = """
import json, sys, time
from galcalc.catalogue import group_from_catalogue
from galcalc.pipelines import galois_stmod
G = group_from_catalogue("S7")
start = time.perf_counter()
r = galois_stmod(G, int(sys.argv[1]))
seconds = time.perf_counter() - start
with open("/proc/self/status") as f:
    kb = next(int(line.split()[1]) for line in f if line.startswith("VmHWM:"))
ident = r.identification
print(json.dumps({"status": ident.status, "name": ident.match_name,
                  "agreed": [c.agreed for c in r.cross_checks],
                  "seconds": seconds, "peak_mb": kb / 1024}))
"""


def _stmod_s7_in_child(p):
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run(
        [sys.executable, "-c", S7_CHILD, str(p)],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    return json.loads(out.stdout)


def test_stmod_s7_odd_primes_guard():
    # order 5040: staying under 100 MB needs a candidate pool built for
    # the certified order, not every catalogue group up to |G|
    cases = [(3, "D8"), (5, "C2xC4"), (7, "C6")]
    total = 0.0
    for p, name in cases:
        r = _stmod_s7_in_child(p)
        assert r["status"] == "Identified", p
        assert r["name"] == name, p
        assert all(r["agreed"]), p
        assert r["peak_mb"] < 100, (p, r["peak_mb"])
        total += r["seconds"]
    assert total < 10.0


def test_stmod_s7_at_2_guard():
    r = _stmod_s7_in_child(2)
    assert (r["status"], r["name"]) == ("Identified", "C1")
    assert all(r["agreed"])
    assert r["peak_mb"] < 100, r["peak_mb"]
    assert r["seconds"] < 40.0


def test_s8_quotients_above_the_default_order_bound():
    # order 40320 needs max_order above the default 20000
    G = group_from_catalogue("S8", max_order=50000)
    start = time.perf_counter()
    assert galois_modg(G, 2).order == 1
    assert galois_cochains(G, 2).order == 1
    assert time.perf_counter() - start < 30.0


def test_modg_requires_prime():
    with pytest.raises(ValueError):
        galois_modg(catalogue_group("S3"), 4)


def test_prime_check_against_trial_division():
    def trial(n):
        return n > 1 and all(n % d for d in range(2, math.isqrt(n) + 1))

    for n in range(-2, 10**5):
        try:
            pipelines._require_prime(n)
        except ValueError:
            assert not trial(n), n
        else:
            assert trial(n), n
    # strong pseudoprimes to the first bases: 3215031751 to 2, 3, 5 and 7,
    # and the least to all of 2..37, which base 41 rejects
    for n in (3215031751, 318665857834031151167461):
        with pytest.raises(ValueError, match="not prime"):
            pipelines._require_prime(n)
    # the bound is the least strong pseudoprime to all 13 bases: refused
    with pytest.raises(SizeError, match="bound"):
        pipelines._require_prime(pipelines.MAX_PRIME_CHECKED)


# -- cochain path ---------------------------------------------------------------


def test_cochains_examples():
    assert galois_cochains(catalogue_group("S3"), 3).order == 1
    assert galois_cochains(catalogue_group("C4"), 2).order == 2
    assert galois_cochains(catalogue_group("C6"), 2).order == 1


@pytest.mark.parametrize("p", [2, 3, 5])
def test_cochains_p_group_and_quotient_of_modg(p):
    for spec in standard_catalogue(24):
        G = catalogue_group(spec)
        Q = galois_cochains(G, p)
        assert _is_p_power(Q.order, p), (spec, p)
        M = galois_modg(G, p)
        assert M.order % Q.order == 0
        assert find_surjection(M, Q) is not None, (spec, p)


# -- weyl groups and case conditions --------------------------------------------


def test_weyl_examples():
    S3 = catalogue_group("S3")
    C3 = S3.subgroup_from_generators([next(g for g in S3.elements if g.order() == 3)])
    assert weyl_group(S3, C3).order == 2
    Q8 = catalogue_group("Q8")
    W = weyl_group(Q8, Q8.center())
    assert W.order == 4 and name_group(W) == "C2xC2"
    G = catalogue_group("A4")
    assert weyl_group(G, G.full_subgroup()).order == 1


def test_weyl_s5():
    S5 = catalogue_group("S5")
    C5 = S5.subgroup_from_generators([next(g for g in S5.elements if g.order() == 5)])
    W = weyl_group(S5, C5)
    assert W.order == 4
    assert name_group(W) == "C4"  # (Z/5)* is cyclic of order 4


def test_central_and_sylow_conditions():
    assert has_central_order_p(catalogue_group("Q8"), 2)
    assert not has_central_order_p(catalogue_group("S3"), 3)
    assert has_central_order_p(catalogue_group("C5"), 5)
    assert sylow_triple_condition(catalogue_group("S4"), 2)
    assert not sylow_triple_condition(catalogue_group("S3"), 2)
    assert sylow_triple_condition(catalogue_group("Q8"), 2)  # unique Sylow


def _maximal_classes(G, p):
    """Representatives of the maximal classes, read off the skeleton."""
    return maximal_representatives(orbit_nerve(G, G.elementary_abelian_p_subgroups(p))[0])


def test_maximal_elementary_abelian_classes():
    S5 = catalogue_group("S5")
    reps = _maximal_classes(S5, 5)
    assert [H.order for H in reps] == [5]
    assert len(reps[0].conjugacy_class()) == 6  # six Sylow 5-subgroups
    S4 = catalogue_group("S4")
    reps2 = _maximal_classes(S4, 2)
    # the class of three non-normal Klein four-groups, then the normal one
    assert [len(H.conjugacy_class()) for H in reps2] == [3, 1]
    assert all(H.order == 4 for H in reps2)


# -- stable module category path -------------------------------------------------


def test_stmod_requires_dividing_prime():
    with pytest.raises(POrderError):
        galois_stmod(catalogue_group("C5"), 3)


def test_stmod_s3_at_3():
    r = galois_stmod(catalogue_group("S3"), 3)
    assert r.identification.status == "Identified"
    assert r.identification.match_name == "C2"
    assert r.pi0_components == 1
    weyl_checks = [c for c in r.cross_checks if c.path == "StmodWeylRankOne"]
    assert weyl_checks and weyl_checks[0].agreed


def test_stmod_q8_at_2():
    r = galois_stmod(catalogue_group("Q8"), 2)
    assert r.identification.match_name == "C2xC2"
    central = [c for c in r.cross_checks if c.path == "StmodCentralCase"]
    assert central and central[0].agreed


@pytest.mark.parametrize("spec", ["C2xC2", "C3xC3", "C2xC2xC2"])
def test_stmod_elementary_abelian_trivial(spec):
    p = 2 if spec.startswith("C2") else 3
    r = galois_stmod(catalogue_group(spec), p)
    assert r.identification.status == "Identified"
    assert r.identification.certified_order == 1
    assert r.identification.match_name == "C1"


def test_stmod_candidate_pool_contents():
    G = catalogue_group("S3")
    maximal = _maximal_classes(G, 3)
    # the catalogue part holds the groups of the certified order only
    for order, catalogue in [(1, []), (2, ["C2"]), (6, ["C6", "S3"]), (7, [])]:
        pool = stmod_candidates(G, galois_modg(G, 3), maximal, order)
        names = [c.name for c in pool]
        assert names == ["C1"] + catalogue + ["S3/N", "weyl-class-0"], order


def test_stmod_report_json():
    r = galois_stmod(catalogue_group("S3"), 3)
    data = r.to_json()
    assert data["schema"] == 1
    assert data["theorem_path"] == "StmodNerve"
    assert data["result"]["kind"] == "fp"
    assert data["result"]["identification"]["status"] == "Identified"
    assert data["pi0_components"] == 1
    assert any(c["path"] == "StmodWeylRankOne" for c in data["cross_checks"])
    assert "presentation" in data and data["presentation"].startswith("fp")


def test_modg_report_json():
    r = modg_report(catalogue_group("Q8"), 2)
    data = r.to_json()
    assert data["result"] == {"kind": "perm", "order": 4, "group": "C2xC2"}
    assert data["theorem_path"] == "ModG"
    r2 = cochains_report(catalogue_group("C4"), 2)
    assert r2.to_json()["theorem_path"] == "Cochains"


@pytest.mark.parametrize(
    "spec,p",
    [("C4", 2), ("C8", 2), ("Q8", 2), ("D8", 2), ("Q16", 2), ("C2xC4", 2),
     ("C9", 3), ("C3xC3", 3), ("C12", 2), ("C2xC6", 2), ("D16", 2)],
)
def test_stmod_central_case_agreement(spec, p):
    G = catalogue_group(spec)
    assert has_central_order_p(G, p)
    r = galois_stmod(G, p)
    assert r.identification.status == "Identified"
    central = [c for c in r.cross_checks if c.path == "StmodCentralCase"]
    assert central and central[0].agreed
    # the agreement is an isomorphism test against an independent quotient
    target = galois_modg(G, p)
    assert find_isomorphism(r.result_group(), target) is not None


def test_stmod_sylow_triple_s4():
    r = galois_stmod(catalogue_group("S4"), 2)
    assert r.identification.certified_order == 1
    sylow = [c for c in r.cross_checks if c.path == "StmodSylowTriple"]
    assert sylow and sylow[0].agreed


def test_stmod_at_larger_primes():
    # C25 at 5: single elementary abelian C5, endomorphisms C25/C5
    r = galois_stmod(catalogue_group("C25"), 5)
    assert r.identification.match_name == "C5"
    central = [c for c in r.cross_checks if c.path == "StmodCentralCase"]
    assert central and central[0].agreed
    # C5 at 5 is elementary abelian: trivial
    r = galois_stmod(catalogue_group("C5"), 5)
    assert r.identification.certified_order == 1
    # C7 at 7
    r = galois_stmod(catalogue_group("C7"), 7)
    assert r.identification.match_name == "C1"


def test_stmod_full_catalogue_48():
    # every catalogue group of order <= 48, every dividing prime in
    # {2, 3, 5}: the nerve path identifies a finite group and every
    # applicable special-case cross-check agrees; central-case groups are
    # additionally compared against the independently computed
    # representation-category quotient
    ran = central = 0
    for spec in standard_catalogue(48):
        G = catalogue_group(spec)
        for p in (2, 3, 5):
            if G.order % p != 0:
                continue
            r = galois_stmod(G, p)
            ran += 1
            assert r.identification.status == "Identified", (spec, p)
            bad = [c.path for c in r.cross_checks if not c.agreed]
            assert not bad, (spec, p, bad)
            if has_central_order_p(G, p):
                central += 1
                target = galois_modg(G, p)
                assert find_isomorphism(r.result_group(), target) is not None, (spec, p)
    assert ran >= 130
    assert central >= 90


@pytest.mark.parametrize("spec,p,wname", [("S3", 3, "C2"), ("S5", 5, "C4"), ("D10", 5, "C2")])
def test_stmod_rank_one_weyl_case(spec, p, wname):
    G = catalogue_group(spec)
    maximal = _maximal_classes(G, p)
    assert len(maximal) == 1 and maximal[0].order == p
    r = galois_stmod(G, p)
    assert r.identification.match_name == wname
    weyl = [c for c in r.cross_checks if c.path == "StmodWeylRankOne"]
    assert weyl and weyl[0].agreed


# -- van Kampen -----------------------------------------------------------------


VAN_KAMPEN_SNF_CASES = [
    # (m, n) -> free product C_m * C_n has abelianization with SNF of diag(m, n)
    (2, 3, [6]),
    (2, 2, [2, 2]),
    (4, 6, [2, 12]),
    (3, 3, [3, 3]),
    (2, 4, [2, 4]),
    (1, 5, [5]),
    (6, 4, [2, 12]),
    (3, 9, [3, 9]),
    (10, 4, [2, 20]),
    (12, 8, [4, 24]),
]


@pytest.mark.parametrize("m,n,factors", VAN_KAMPEN_SNF_CASES)
def test_van_kampen_free_products_match_snf(m, n, factors):
    triv = FpGroup(0, ())
    Cm = FpGroup(1, ((1,) * m,))
    Cn = FpGroup(1, ((1,) * n,))
    report = van_kampen_pushout(FpMap(triv, Cm, ()), FpMap(triv, Cn, ()))
    assert list(report.invariant_factors) == factors


def test_van_kampen_iso_legs_identify():
    C3 = FpGroup(1, ((1, 1, 1),))
    report = van_kampen_pushout(FpMap(C3, C3, ((1,),)), FpMap(C3, C3, ((1,),)))
    assert report.identification.status == "Identified"
    assert report.identification.match_name == "C3"


def test_van_kampen_trivial_gluing():
    triv = FpGroup(0, ())
    point = FpGroup(1, ((1,),))
    report = van_kampen_pushout(FpMap(triv, point, ()), FpMap(triv, point, ()))
    assert report.identification.certified_order == 1
    assert report.invariant_factors == ()


def test_van_kampen_amalgamated():
    Z = FpGroup(1, ())
    triv = FpGroup(0, ())
    report = van_kampen_pushout(FpMap(Z, Z, ((1, 1),)), FpMap(Z, triv, ((),)))
    assert report.identification.match_name == "C2"
    assert list(report.invariant_factors) == [2]


def test_van_kampen_enumerates_each_pushout_once(monkeypatch):
    calls = []

    def counting(original):
        def count(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        return count

    # an enumeration is either reading of the one Todd-Coxeter routine
    for name in ("coset_enumeration", "regular_representation"):
        wrapped = counting(getattr(fp, name))
        monkeypatch.setattr(fp, name, wrapped)
        monkeypatch.setattr(pipelines, name, wrapped)
    triv = FpGroup(0, ())
    Z = FpGroup(1, ())
    C2 = FpGroup(1, ((1, 1),))
    C3 = FpGroup(1, ((1, 1, 1),))
    # a gluing over Z fails the amalgam certificate's guard before any
    # enumeration, so the pushout itself is enumerated exactly once
    glued = van_kampen_pushout(FpMap(Z, C3, ((1,),)), FpMap(Z, C3, ((-1,),)))
    assert glued.identification.certified_order == 3
    assert len(calls) == 1
    # C2 * C3 is certified Infinite from enumerations of its factors only
    free = van_kampen_pushout(FpMap(triv, C2, ()), FpMap(triv, C3, ()), max_cosets=500)
    assert free.identification.status == "Infinite"
    assert free.identification.certified_order is None
    assert all(args[0] in (triv, C2, C3) for args in calls[1:])
