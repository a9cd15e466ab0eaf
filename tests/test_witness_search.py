"""``fp.identify_finite`` against a table search for a witness.

``identify_finite`` names a presentation by ``perm.find_isomorphism``
from the regular representation its coset table gives.  The oracle below
is the fp-side search it replaced: a backtracker for relator-respecting,
generating images over the candidate's full multiplication table.  Given
the certified order n, ``identify_finite`` must return Identified exactly
when the oracle finds a witness on a candidate of order n, naming the
first such candidate with the oracle's witness, the first in product
order, and that witness must satisfy every relator and generate the
candidate.  This is checked on every (presentation,
candidates) call the pipelines make and on random presentations.
"""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import galcalc.pipelines as pipelines
from galcalc.catalogue import catalogue_group, standard_catalogue
from galcalc.errors import CosetLimitExceeded
from galcalc.fp import FpGroup, FpMap, identify_finite, regular_representation
from galcalc.pipelines import galois_stmod, van_kampen_pushout

UP_TO_12 = [catalogue_group(s) for s in standard_catalogue(12)]


def table_witness(F, H):
    """Backtracking over H's index multiplication table; relators are
    checked once their last generator is assigned, and pure power
    relators g^m filter the candidate images of g up front."""
    k = F.ngens
    if k == 0:
        return () if H.order == 1 else None
    els = H.elements
    n = len(els)
    index = {g: i for i, g in enumerate(els)}
    mul = [[index[a * b] for b in els] for a in els]
    inv = [index[a.inverse()] for a in els]
    e = index[H.identity]
    orders = [a.order() for a in els]
    power_of = [0] * (k + 1)
    by_last = {g: [] for g in range(1, k + 1)}
    for r in F.relators:
        gens_used = {abs(x) for x in r}
        if len(gens_used) == 1:
            g = next(iter(gens_used))
            power_of[g] = math.gcd(power_of[g], len(r))
        by_last[max(abs(x) for x in r)].append(r)
    cand_lists = []
    for g in range(1, k + 1):
        if power_of[g]:
            cand_lists.append([i for i in range(n) if power_of[g] % orders[i] == 0])
        else:
            cand_lists.append(list(range(n)))
    images = [0] * k

    def evaluate(word):
        acc = e
        for x in word:
            i = images[abs(x) - 1]
            acc = mul[acc][i] if x > 0 else mul[acc][inv[i]]
        return acc

    def generates_all():
        seen = {e} | set(images)
        frontier = list(seen)
        while frontier:
            nxt = []
            for a in frontier:
                for b in images:
                    c = mul[a][b]
                    if c not in seen:
                        seen.add(c)
                        nxt.append(c)
            frontier = nxt
        return len(seen) == n

    def backtrack(depth):
        if depth == k:
            return generates_all()
        for i in cand_lists[depth]:
            images[depth] = i
            if all(evaluate(r) == e for r in by_last[depth + 1]):
                if backtrack(depth + 1):
                    return True
        images[depth] = 0
        return False

    if backtrack(0):
        return tuple(els[i] for i in images)
    return None


def generated_order(gens, identity):
    seen, frontier = {identity}, [identity]
    while frontier:
        frontier = [x * g for x in frontier for g in gens if x * g not in seen]
        seen.update(frontier)
    return len(seen)


def assert_matches_oracle(F, candidates, regular, result):
    """``result`` is identify_finite(F, candidates, regular=regular)."""
    n = regular[0].degree
    assert result.certified_order == n
    named = [H for H in candidates if H.order == n]
    expected = next((H for H in named if table_witness(F, H) is not None), None)
    if expected is None:
        assert result.status != "Identified", (F.spec_text(), n)
        return
    assert result.status == "Identified", (F.spec_text(), expected.name)
    assert result.candidate is expected
    # the first witness in product order, as the table search finds it
    assert result.witness == table_witness(F, expected), (F.spec_text(), expected.name)
    witness, ident = result.witness, expected.identity
    for r in F.relators:
        acc = ident
        for x in r:
            acc = acc * (witness[x - 1] if x > 0 else witness[-x - 1].inverse())
        assert acc == ident, (F.spec_text(), expected.name, r)
    assert generated_order(witness, ident) == n


def recorded_calls(monkeypatch, run):
    """The (presentation, candidates, regular, result) of every
    ``identify_finite`` call ``run`` makes through the pipelines."""
    calls = []

    def record(F, candidates, regular=None, **kwargs):
        assert regular is not None
        result = identify_finite(F, candidates, regular=regular, **kwargs)
        calls.append((F, list(candidates), regular, result))
        return result

    monkeypatch.setattr(pipelines, "identify_finite", record)
    run()
    monkeypatch.undo()
    return calls


def cyclic(m):
    return FpGroup(1, ((1,) * m,))


def half_unit(m):
    return max(u for u in range(1, m // 2 + 1) if math.gcd(u, m) == 1) if m > 1 else 1


def test_pushout_searches_match_oracle(monkeypatch):
    # C_m * C_n, and C_m <- Z -> C_n glued by a^u and b^v for u = 1 and
    # the largest unit of Z/m at most m/2 (v likewise)
    triv, Z = FpGroup(0, ()), FpGroup(1, ())

    def run():
        for m in range(1, 13):
            for n in range(m, 13):
                Cm, Cn = cyclic(m), cyclic(n)
                van_kampen_pushout(FpMap(triv, Cm, ()), FpMap(triv, Cn, ()))
                for u in {1, half_unit(m)}:
                    for v in {1, half_unit(n)}:
                        van_kampen_pushout(
                            FpMap(Z, Cm, ((1,) * u,)), FpMap(Z, Cn, ((-1,) * v,))
                        )

    calls = recorded_calls(monkeypatch, run)
    assert len(calls) > 100
    # some candidate of the certified order is not the group
    assert any(
        table_witness(F, H) is None
        for F, candidates, regular, _ in calls
        for H in candidates
        if H.order == regular[0].degree
    )
    for call in calls:
        assert_matches_oracle(*call)


def test_stmod_searches_match_oracle(monkeypatch):
    def run():
        for spec in standard_catalogue(24):
            G = catalogue_group(spec)
            for p in range(2, G.order + 1):
                if G.order % p == 0 and all(p % q for q in range(2, p)):
                    galois_stmod(G, p)

    calls = recorded_calls(monkeypatch, run)
    assert len(calls) > 50
    for call in calls:
        assert_matches_oracle(*call)


letters = st.sampled_from([1, -1, 2, -2, 3, -3])


@settings(max_examples=150, deadline=None)
@given(relators=st.lists(st.lists(letters, min_size=1, max_size=8), min_size=1, max_size=4))
@example(relators=[[-2, -2], [2, -1, -1, -3], [-1, -1, -2, 1, -3]])
def test_random_presentations_match_oracle(relators):
    F = FpGroup(3, tuple(tuple(r) for r in relators))
    try:
        regular = regular_representation(F, 200)
    except CosetLimitExceeded:
        return
    for H in UP_TO_12:
        result = identify_finite(F, [H], regular=regular)
        assert_matches_oracle(F, [H], regular, result)
    result = identify_finite(F, UP_TO_12, regular=regular)
    assert_matches_oracle(F, UP_TO_12, regular, result)


@pytest.mark.parametrize("H", UP_TO_12[:6], ids=lambda H: H.name)
def test_no_generators(H):
    F = FpGroup(0, ())
    assert_matches_oracle(F, [H], regular_representation(F), identify_finite(F, [H]))
