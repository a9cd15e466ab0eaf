"""The certified-order candidate pool against the full pool.

``galois_stmod`` certifies the order of the nerve group by one coset
enumeration and only then builds ``stmod_candidates`` of that order.
The oracle is the pool it built before the order was known: the trivial
group, every catalogue group up to |G|, ``modg`` and the Weyl groups.
Both pools must give the same identification on one simplified nerve
per case.
"""

import pytest

from galcalc.catalogue import catalogue_group, standard_catalogue
from galcalc.fp import identify_finite, regular_representation, simplify
from galcalc.pipelines import (
    galois_modg,
    galois_stmod,
    maximal_representatives,
    orbit_nerve,
    stmod_candidates,
)

CASES = [
    (spec, p)
    for spec in standard_catalogue(48)
    for p in (2, 3, 5)
    if catalogue_group(spec).order % p == 0
]
NORTH_STAR = [("S5", 2), ("A5", 2), ("S6", 3), ("D24", 2), ("S6", 5)]


def test_case_list():
    assert len(CASES) == 137


def full_pool(G, modg, maximal):
    """Oracle: the trivial group, every catalogue group up to |G|, then
    modg and the Weyl groups (the tail of a pool of an order above |G|)."""
    catalogue = [catalogue_group(s) for s in standard_catalogue(G.order)]
    tail = stmod_candidates(G, modg, maximal, G.order + 1)[1:]
    return catalogue + tail


def _key(ident):
    witness = None if ident.witness is None else [w.images for w in ident.witness]
    return ident.status, ident.match_name, ident.certified_order, witness


@pytest.mark.parametrize("spec,p", CASES + NORTH_STAR)
def test_certified_order_pool_matches_full_pool(spec, p):
    G = catalogue_group(spec)
    subs = G.elementary_abelian_p_subgroups(p)
    modg = galois_modg(G, p)
    cat, _, F = orbit_nerve(G, subs)
    maximal = maximal_representatives(cat)
    Fs = simplify(F)
    regular = regular_representation(Fs)
    order = regular[0].degree
    pool = stmod_candidates(G, modg, maximal, order)
    assert {c.order for c in pool[1 : -len(maximal) - 1]} <= {order}
    ident = identify_finite(Fs, pool, regular=regular)
    oracle = identify_finite(Fs, full_pool(G, modg, maximal))
    assert _key(ident) == _key(oracle), (spec, p)
    assert ident.status == "Identified", (spec, p)


def test_stmod_builds_one_order_of_the_catalogue(monkeypatch):
    from galcalc import pipelines

    pools = []
    original = pipelines.stmod_candidates

    def recording(*args, **kwargs):
        pools.append(original(*args, **kwargs))
        return pools[-1]

    monkeypatch.setattr(pipelines, "stmod_candidates", recording)
    report = galois_stmod(catalogue_group("S5"), 5)
    assert report.identification.match_name == "C4"
    assert [c.name for c in pools[0]][:3] == ["C1", "C2xC2", "C4"]
    assert len(pools[0]) == 5  # and modg, and the one Weyl group


def test_each_weyl_group_is_computed_once(monkeypatch):
    from galcalc import pipelines

    calls = []
    original = pipelines.weyl_group

    def counting(G, H):
        calls.append(H)
        return original(G, H)

    monkeypatch.setattr(pipelines, "weyl_group", counting)
    report = galois_stmod(catalogue_group("S5"), 5)
    weyl = [c for c in report.cross_checks if c.path == "StmodWeylRankOne"]
    assert weyl and weyl[0].agreed and weyl[0].detail == "Weyl group has order 4"
    assert len(calls) == 1


def test_coset_bound_is_inconclusive_and_builds_no_pool(monkeypatch):
    from galcalc import pipelines

    monkeypatch.setattr(pipelines, "stmod_candidates", None)  # never called
    report = galois_stmod(catalogue_group("S3"), 3, max_cosets=1)
    assert report.identification.status == "Inconclusive"
    assert report.identification.certified_order is None
    weyl = [c for c in report.cross_checks if c.path == "StmodWeylRankOne"]
    assert weyl and not weyl[0].agreed and weyl[0].detail == "Weyl group has order 2"

