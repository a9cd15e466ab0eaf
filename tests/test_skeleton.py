"""The skeletal orbit category against the full orbit category.

``pipelines.orbit_nerve`` builds the orbit category on one subgroup per
conjugacy class of the nontrivial elementary abelian p-subgroups, with
no closure pass: that family is closed under conjugation and nontrivial
intersection as it stands, which ``close_family`` confirms here on every
catalogue case up to order 48.  The skeleton is equivalent to the orbit
category on the whole family, so the two nerves are homotopy
equivalent.  The oracle here is ``orbit_category`` over the full closed
family: both nerves must give the same pi0, the same abelianized pi1,
the same certified order and the same identified candidate, and the
skeleton's maximal objects must be the maximal classes.
``close_family`` conjugates by the generators of G only; the oracle for
it is the closure that conjugated by every element.
"""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galcalc import cli, orbitcat
from galcalc.catalogue import catalogue_group, standard_catalogue
from galcalc.fp import abelianization, coset_enumeration, identify_finite, simplify
from galcalc.orbitcat import (
    close_family,
    conjugacy_class_representatives,
    nerve_pi1_presentation,
    orbit_category,
)
from galcalc.pipelines import (
    galois_modg,
    galois_stmod,
    maximal_representatives,
    orbit_nerve,
    stmod_candidates,
)


def _prime_divisors(n):
    return [q for q in range(2, n + 1) if n % q == 0 and all(q % d for d in range(2, q))]


CASES = [
    (spec, p)
    for spec in standard_catalogue(24)
    for p in _prime_divisors(catalogue_group(spec).order)
]


def _class_keys(G, H):
    """Oracle: the member keys of every conjugate g H g^-1, g in G."""
    return {H.conjugate(g).member_key() for g in G.elements}


def _nontrivial_closure(G, subs):
    return [H for H in close_family(G, subs) if H.order > 1]


def test_case_list_covers_order_24():
    # 64 cases at p in {2, 3, 5} and 11 more at the primes 7 to 23
    assert len(CASES) == 75


def test_elementary_abelian_family_is_closed():
    # the 173 catalogue cases up to order 48, at every dividing prime
    ran = 0
    for spec in standard_catalogue(48):
        G = catalogue_group(spec)
        for p in _prime_divisors(G.order):
            subs = G.elementary_abelian_p_subgroups(p)
            assert _nontrivial_closure(G, subs) == subs, (spec, p)
            ran += 1
    assert ran == 173


def test_stmod_and_orbit_nerve_run_no_closure(monkeypatch, capsys):
    calls = []
    original = orbitcat.close_family

    def recording(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    # rebind every name bound to close_family, as galbench's tracer does
    for name, module in list(sys.modules.items()):
        if name.startswith("galcalc"):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, recording)
    assert galois_stmod(catalogue_group("S4"), 2).identification.status == "Identified"
    assert galois_stmod(catalogue_group("D24"), 2).identification.status == "Identified"
    assert cli.main(["orbit-nerve", "S4", "-p", "2", "--format", "json"]) == 0
    assert capsys.readouterr().out
    assert calls == []


@pytest.mark.parametrize("spec,p", CASES)
def test_skeletal_nerve_matches_full_nerve(spec, p):
    G = catalogue_group(spec)
    subs = G.elementary_abelian_p_subgroups(p)
    family = _nontrivial_closure(G, subs)
    full = orbit_category(G, family)
    F_full = nerve_pi1_presentation(full, min(full.objects))
    skeleton, components, F = orbit_nerve(G, subs)

    # the skeleton: pairwise non-conjugate objects covering the family,
    # with the family's least member as object 0
    reps = skeleton.object_info
    classes = [_class_keys(G, H) for H in reps]
    for a in range(len(reps)):
        for b in range(a + 1, len(reps)):
            assert reps[b].member_key() not in classes[a], (spec, p, a, b)
    for H in family:
        assert sum(H.member_key() in c for c in classes) == 1, (spec, p)
    assert reps[0] == family[0]

    # the maximal objects: the least maximal member of each class
    least = []
    for H in family:
        maximal = not any(H.order < K.order and H <= K for K in family)
        if maximal and not any(H.member_key() in _class_keys(G, K) for K in least):
            least.append(H)
    assert maximal_representatives(skeleton) == least, (spec, p)

    # the nerves: same pi0 and pi1
    # (Tietze moves keep the group; Smith normal form of the raw full
    # nerve's relation matrix is too slow for C2xC2xC2xC2)
    assert components == len(full.object_components())
    Fs, F_full_s = simplify(F), simplify(F_full)
    assert abelianization(Fs) == abelianization(F_full_s)
    order = coset_enumeration(Fs)
    assert order == coset_enumeration(F_full_s)
    pool = stmod_candidates(G, galois_modg(G, p), least, order)
    ident = identify_finite(Fs, pool)
    ident_full = identify_finite(F_full_s, pool)
    assert ident.status == ident_full.status == "Identified", (spec, p)
    assert ident.match_name == ident_full.match_name, (spec, p)


def test_class_representatives_of_s4_at_2():
    # the 13 nontrivial elementary abelian 2-subgroups of S4 fall into
    # four classes: 6 transposition lines, 3 double-transposition lines,
    # the normal Klein four-group and 3 non-normal ones
    S4 = catalogue_group("S4")
    family = S4.elementary_abelian_p_subgroups(2)
    reps = conjugacy_class_representatives(family)
    assert len(family) == 13
    assert [H.order for H in reps] == [2, 2, 4, 4]
    assert reps[0] == family[0]
    assert maximal_representatives(orbit_category(S4, reps)) == reps[2:]


def close_family_all_elements(G, seed):
    """Oracle: the closure that conjugates by every element of G."""
    current = {}
    queue = list(seed)
    while queue:
        H = queue.pop()
        key = H.member_key()
        if key in current:
            continue
        current[key] = H
        for g in G.elements:
            C = H.conjugate(g)
            if C.member_key() not in current:
                queue.append(C)
        for other in list(current.values()):
            I = H.intersection(other)
            if I.member_key() not in current:
                queue.append(I)
    return sorted((H.order, key) for key, H in current.items())


GROUPS = {spec: catalogue_group(spec) for spec in ("S4", "S5")}


@settings(max_examples=30, deadline=None)
@given(
    spec=st.sampled_from(sorted(GROUPS)),
    seeds=st.lists(
        st.lists(st.integers(min_value=0, max_value=119), min_size=1, max_size=2),
        min_size=1,
        max_size=3,
    ),
)
def test_generator_closure_matches_all_elements_closure(spec, seeds):
    G = GROUPS[spec]
    elements = G.elements
    seed = [
        G.subgroup_from_generators([elements[i % len(elements)] for i in idx])
        for idx in seeds
    ]
    family = close_family(G, seed)
    assert [(H.order, H.member_key()) for H in family] == (
        close_family_all_elements(G, seed)
    )
