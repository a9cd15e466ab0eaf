"""The witness search of ``fp.identify_finite`` against the table search
it replaced.

``fp._surjection_witness`` runs the one backtracking search for
generator images, ``perm.search_generator_images``.  The oracle below is
the search it replaced: a backtracker over the candidate's full
multiplication table.  Both must return the same image tuple, or both
None, on every (presentation, candidate) pair the pipelines meet and on
random presentations.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import galcalc.fp as fp
from galcalc.catalogue import catalogue_group, standard_catalogue
from galcalc.fp import FpGroup, FpMap
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


def recorded_searches(monkeypatch, run):
    """The (presentation, candidate) pairs ``run`` passes to the search."""
    pairs = []
    search = fp._surjection_witness

    def record(F, H):
        pairs.append((F, H))
        return search(F, H)

    monkeypatch.setattr(fp, "_surjection_witness", record)
    run()
    monkeypatch.undo()
    return pairs


def assert_matches_oracle(pairs):
    for F, H in pairs:
        assert fp._surjection_witness(F, H) == table_witness(F, H), (
            F.spec_text(),
            H.name,
        )


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

    pairs = recorded_searches(monkeypatch, run)
    assert len(pairs) > 100
    assert any(fp._surjection_witness(F, H) is None for F, H in pairs)
    assert_matches_oracle(pairs)


def test_stmod_searches_match_oracle(monkeypatch):
    def run():
        for spec in standard_catalogue(24):
            G = catalogue_group(spec)
            for p in range(2, G.order + 1):
                if G.order % p == 0 and all(p % q for q in range(2, p)):
                    galois_stmod(G, p)

    pairs = recorded_searches(monkeypatch, run)
    assert len(pairs) > 50
    assert_matches_oracle(pairs)


letters = st.sampled_from([1, -1, 2, -2])


@settings(max_examples=150, deadline=None)
@given(relators=st.lists(st.lists(letters, min_size=1, max_size=8), min_size=1, max_size=3))
def test_random_presentations_match_oracle(relators):
    F = FpGroup(2, tuple(tuple(r) for r in relators))
    for H in UP_TO_12:
        assert fp._surjection_witness(F, H) == table_witness(F, H), (
            F.spec_text(),
            H.name,
        )


@pytest.mark.parametrize("H", UP_TO_12[:6], ids=lambda H: H.name)
def test_no_generators(H):
    assert fp._surjection_witness(FpGroup(0, ()), H) == table_witness(FpGroup(0, ()), H)
