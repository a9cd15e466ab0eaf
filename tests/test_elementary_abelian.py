"""The elementary abelian search by cyclic extension, against the full search.

``PermGroup.elementary_abelian_p_subgroups`` extends one representative
per conjugacy class and returns the union of the class walks.  The
oracle here is the search it replaced: every subgroup found so far is
extended by every order-p element outside it that commutes with its
generators, and each extension is kept unless its bitset was seen.  The
two must give the same bitsets, in the same order, on the catalogue up
to order 48 at every prime, on A8, M11 and PSL(2,7), and on relabelled
groups with random generating sets.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galcalc import perm
from galcalc.catalogue import catalogue_group, group_from_catalogue, standard_catalogue
from galcalc.errors import SizeError
from galcalc.orbitcat import conjugacy_class_representatives
from galcalc.pipelines import maximal_representatives, orbit_nerve, weyl_group
from galcalc.perm import Perm, PermGroup, Subgroup, _Closure, _right_mul

PERM_SPECS = {
    "A8": "perm:8:(1 2 3);(2 3 4 5 6 7 8)",
    "M11": "perm:11:(1 2 3 4 5 6 7 8 9 10 11);(3 7 11 8)(4 10 5 6)",
    "PSL(2,7)": "perm:7:(1 2 3 4 5 6 7);(1 2)(3 6)",
}


def _primes(n):
    return [q for q in range(2, n + 1) if n % q == 0 and all(q % d for d in range(2, q))]


def full_search(G, p):
    """Oracle: every (H, y) extension of every subgroup found, deduped by
    bitset after it is built, sorted by (order, member_key)."""
    index = G.element_index
    p_elems = G.order_p_elements(p)
    commuting = dict.fromkeys(p_elems, 0)
    times = {x: _right_mul(x) for x in p_elems}
    for i, x in enumerate(p_elems):
        for y in p_elems[i:]:
            if times[y](x) == times[x](y):
                commuting[x] |= 1 << index[y]
                commuting[y] |= 1 << index[x]
    p_bits = sum(1 << index[x] for x in p_elems)
    found = {}
    layer = [(_Closure(G.identity), 1)]
    while layer:
        nxt = []
        for H, hbits in layer:
            cand = p_bits & ~hbits
            for x in H.gens:
                cand &= commuting[x]
            while cand:
                E = H.extended(G.elements[(cand & -cand).bit_length() - 1])
                S = Subgroup(G, G.bits_of(E.members))
                cand &= ~S.bits
                if S.bits not in found:
                    found[S.bits] = S
                    nxt.append((E, S.bits))
        layer = nxt
    return sorted(found.values(), key=lambda s: (s.order, s.member_key()))


def _bits(subs):
    return [H.bits for H in subs]


def test_class_search_matches_full_search_on_catalogue_48():
    checked = 0
    for spec in standard_catalogue(48):
        for p in _primes(catalogue_group(spec).order):
            # a fresh group each time, so no walk is cached from another test
            G = group_from_catalogue(spec)
            got = G.elementary_abelian_p_subgroups(p)
            assert _bits(got) == _bits(full_search(G, p)), (spec, p)
            checked += 1
    assert checked == 173


@pytest.mark.parametrize("name", sorted(PERM_SPECS))
def test_class_search_matches_full_search_on_perm_specs(name):
    G = group_from_catalogue(PERM_SPECS[name], max_order=40320)
    for p in _primes(G.order):
        if (name, p) == ("A8", 7):
            # the oracle's pairwise commuting scan over A8's 5760 elements of
            # order 7 takes about 9 s; a Sylow 7-subgroup is cyclic there
            continue
        got = G.elementary_abelian_p_subgroups(p)
        assert _bits(got) == _bits(full_search(G, p)), (name, p)


@settings(max_examples=40, deadline=None)
@given(
    spec=st.sampled_from(["S4", "A5", "D12", "C2xC2xC6", "D24", "Q16", "C3xC3xC3"]),
    data=st.data(),
)
def test_class_search_matches_full_search_on_relabelled_groups(spec, data):
    base = catalogue_group(spec)
    n = base.degree
    sigma = Perm(data.draw(st.permutations(range(n))))
    relabel = lambda g: sigma * g * sigma.inverse()  # noqa: E731
    picks = data.draw(st.lists(st.integers(0, base.order - 1), max_size=3))
    gens = [relabel(g) for g in base.generators]
    gens += [relabel(base.elements[i]) for i in picks]
    G = PermGroup(n, data.draw(st.permutations(gens)))
    assert G.order == base.order
    for p in _primes(G.order):
        got = G.elementary_abelian_p_subgroups(p)
        assert _bits(got) == _bits(full_search(G, p)), (spec, p)
        assert len(got) == len(base.elementary_abelian_p_subgroups(p))


@pytest.mark.parametrize("spec,p,family", [("S7", 2, 1316), ("A8", 3, 896)])
def test_class_search_builds_fewer_extensions_than_subgroups(
    monkeypatch, spec, p, family
):
    built = []
    original = perm._Closure.extended

    def counting(self, s):
        built.append(s)
        return original(self, s)

    monkeypatch.setattr(perm._Closure, "extended", counting)
    G = group_from_catalogue(spec, max_order=40320)
    subs = G.elementary_abelian_p_subgroups(p)
    assert len(subs) == family
    # one extension per class of subgroups, and far fewer classes than members
    assert len(built) < family
    assert len(built) == len({H.bits for H in conjugacy_class_representatives(subs)})


def test_every_member_reads_its_class_walk_rooted_at_itself():
    for spec, p in [("S4", 2), ("S5", 2), ("A5", 3), ("D24", 2), ("C2xC2xC2", 2)]:
        G = group_from_catalogue(spec)
        family = G.elementary_abelian_p_subgroups(p)
        for H in family:
            conjugates, x, edges = H.class_walk()
            assert conjugates[0] == H and H.conjugacy_class()[0] is H
            assert all(H.conjugate(g) == C for C, g in zip(conjugates, x))
            assert all(conjugates[c].conjugate(g) == conjugates[d] for c, g, d in edges)
            scan = {g for g in G.elements if H.conjugate(g) == H}
            assert set(G.normalizer(H).members) == scan, (spec, p)
        # one walk per member asked: a walk is kept only under its root
        assert sorted(G._walks) == sorted(H.bits for H in family), (spec, p)


def _skeleton_and_weyl_groups(G, subs):
    """Everything galois_stmod asks of the class walks after the search."""
    cat, components, F = orbit_nerve(G, subs)
    for H in cat.object_info:
        G.normalizer(H)
    for H in maximal_representatives(cat):
        weyl_group(G, H)
    return F.spec_text(), components, [m.label for m in cat.morphisms]


def test_the_skeleton_reads_only_the_walks_the_search_made():
    # the search starts each class at the member the skeleton takes, so
    # nothing after it starts a walk: no walk is ever made from a second member
    checked = 0
    for spec in standard_catalogue(48):
        G = group_from_catalogue(spec)
        for p in _primes(G.order):
            before = len(G._walks)
            subs = G.elementary_abelian_p_subgroups(p)
            made = len(G._walks) - before
            assert made == len(conjugacy_class_representatives(subs)), (spec, p)
            _skeleton_and_weyl_groups(G, subs)
            assert len(G._walks) - before == made, (spec, p)
            checked += 1
    assert checked == 173


def test_walks_from_the_last_member_give_the_same_nerve():
    for spec in standard_catalogue(48):
        for p in _primes(catalogue_group(spec).order):
            G = group_from_catalogue(spec)
            subs = G.elementary_abelian_p_subgroups(p)
            default = _skeleton_and_weyl_groups(G, subs)
            # each class walked first from its last member in family order
            G = group_from_catalogue(spec)
            subs = G.elementary_abelian_p_subgroups(p)
            last = {}
            for H in subs:
                for C in H.class_walk()[0]:
                    last[C.bits] = H
            G._walks.clear()
            for H in set(last.values()):
                H.class_walk()
            assert _skeleton_and_weyl_groups(G, subs) == default, (spec, p)


def test_search_cap_counts_stored_subgroups(monkeypatch):
    # C2^5 has 373 elementary abelian 2-subgroups, members of every class
    assert perm.MAX_ELEMENTARY_ABELIAN == 4096
    G = group_from_catalogue("C2xC2xC2xC2xC2")
    assert len(G.elementary_abelian_p_subgroups(2)) == 373
    monkeypatch.setattr(perm, "MAX_ELEMENTARY_ABELIAN", 373)
    fresh = group_from_catalogue("C2xC2xC2xC2xC2")
    assert len(fresh.elementary_abelian_p_subgroups(2)) == 373
    monkeypatch.setattr(perm, "MAX_ELEMENTARY_ABELIAN", 372)
    with pytest.raises(SizeError, match="blow-up"):
        group_from_catalogue("C2xC2xC2xC2xC2").elementary_abelian_p_subgroups(2)
