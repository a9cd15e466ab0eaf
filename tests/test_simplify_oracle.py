"""``simplify`` against the form that canonicalized every relator on every
pass, kept here as the oracle, and ``cyclic_reduce`` against its slicing
loop.

The production form keeps relators cyclically reduced and canonicalizes
only the short relators that drive eliminations and the survivors at the
end.  Both must give the same (ngens, relators) on every nerve
presentation of the catalogue up to order 48 and on random presentations.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from galcalc.catalogue import catalogue_group, standard_catalogue
from galcalc.fp import (
    FpGroup,
    _GenResolver,
    cyclic_reduce,
    free_reduce,
    inverse_word,
    simplify,
)
from galcalc.pipelines import orbit_nerve


def _cyclic_reduce_oracle(word):
    w = list(free_reduce(word))
    while len(w) >= 2 and w[0] == -w[-1]:
        w = w[1:-1]
    return tuple(w)


def _letter_codes(word):
    return tuple(2 * x if x > 0 else 1 - 2 * x for x in word)


def _canonical_relator_oracle(word):
    """Every least-code rotation of the word and its inverse, as codes,
    decoded at the end."""
    w = _cyclic_reduce_oracle(word)
    if not w:
        return ()
    codes = (_letter_codes(w), _letter_codes(inverse_word(w)))
    first = min(codes[0] + codes[1])
    best = min(
        c[k:] + c[:k] for c in codes for k in range(len(c)) if c[k] == first
    )
    return tuple(-(c >> 1) if c & 1 else c >> 1 for c in best)


def _simplify_oracle(F):
    """Tietze moves with every relator canonicalized on every pass."""
    resolver = _GenResolver(F.ngens)
    relators = {_canonical_relator_oracle(r) for r in dict.fromkeys(F.relators)} - {()}
    while True:
        progress = False
        for w in sorted(relators, key=lambda w: (len(w), w)):
            if len(w) == 1:
                progress |= resolver.kill(abs(w[0]))
            elif len(w) == 2 and abs(w[0]) != abs(w[1]):
                progress |= resolver.identify(w[0], w[1])
        if not progress:
            break
        rewritten = set()
        for w in relators:
            out = []
            for x in w:
                r = resolver.resolve(abs(x))
                if r == 0:
                    continue
                out.append(r if x > 0 else -r)
            c = _canonical_relator_oracle(out)
            if c:
                rewritten.add(c)
        relators = rewritten
    survivors = sorted(g for g in range(1, F.ngens + 1) if resolver.rep[g] is None)
    renumber = {g: i + 1 for i, g in enumerate(survivors)}
    final = set()
    for w in relators:
        out = tuple(renumber[abs(x)] if x > 0 else -renumber[abs(x)] for x in w)
        final.add(_canonical_relator_oracle(out))
    final.discard(())
    return FpGroup(len(survivors), tuple(sorted(final, key=lambda w: (len(w), w))))


def _same(F):
    S, O = simplify(F), _simplify_oracle(F)
    return (S.ngens, S.relators) == (O.ngens, O.relators)


def _nerve_cases():
    for spec in standard_catalogue(48):
        n = catalogue_group(spec).order
        for p in (q for q in range(2, n + 1) if n % q == 0):
            if all(p % d for d in range(2, p)):
                yield f"{spec}@{p}"


@pytest.mark.parametrize("case", list(_nerve_cases()))
def test_simplify_matches_oracle_on_catalogue_nerves(case):
    spec, p = case.rsplit("@", 1)
    G = catalogue_group(spec)
    F = orbit_nerve(G, G.elementary_abelian_p_subgroups(int(p)))[2]
    assert _same(F)


def _presentations(max_gens=5):
    def build(n):
        letters = st.sampled_from([s * g for g in range(1, n + 1) for s in (1, -1)])
        # short words drive eliminations; longer ones get rewritten by them
        words = st.one_of(
            st.lists(letters, min_size=1, max_size=2),
            st.lists(letters, max_size=9),
        )
        return st.lists(words, max_size=14).map(
            lambda rels: FpGroup(n, tuple(map(tuple, rels)))
        )

    return st.integers(1, max_gens).flatmap(build)


@settings(max_examples=400, deadline=None)
@given(_presentations())
@example(FpGroup(2, ((1, -2), (1, 2))))
@example(FpGroup(3, ((1, 2), (2, 3), (3, 1), (1, 2, 3, 1, 2))))
@example(FpGroup(4, ((4, 1), (2, -3), (1, 2, 3, 4) * 2, (-4, -4, 2))))
def test_simplify_matches_oracle_on_random_presentations(F):
    assert _same(F)


_letters = st.sampled_from([1, -1, 2, -2, 3, -3])


@given(st.one_of(
    st.lists(_letters, max_size=30),
    # a palindrome-like core x w X reduces from both ends at once
    st.tuples(st.lists(_letters, max_size=8), st.lists(_letters, max_size=4)).map(
        lambda t: t[0] + t[1] + list(inverse_word(t[0]))
    ),
))
@example([1, 2, -1])
@example([1, 2, 3, -3, -2, -1])
def test_cyclic_reduce_matches_slicing_loop(word):
    assert cyclic_reduce(word) == _cyclic_reduce_oracle(word)
