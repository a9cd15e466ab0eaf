"""The Perm kernel against a plain-tuple oracle.

A Perm is its own image tuple.  The oracle below works on plain tuples
with the generator-expression formulas of the wrapped-tuple kernel it
replaced, so every operation is compared with an independent
computation, on degrees 0 to 12 with degrees 0 and 1 always tried: the
itemgetter product needs its list fallback there.  Hashes and the sort
order must be the image tuple's, since set and dict iteration orders,
and so every byte of output, rest on them.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from galcalc.perm import Perm


def o_mul(a, b):
    # (a * b)(x) = a(b(x)): b first
    return tuple(a[x] for x in b)


def o_inverse(a):
    inv = [0] * len(a)
    for x, y in enumerate(a):
        inv[y] = x
    return tuple(inv)


def o_pow(a, n):
    # repeated products: a different algorithm from Perm's squaring
    if n < 0:
        return o_pow(o_inverse(a), -n)
    out = tuple(range(len(a)))
    for _ in range(n):
        out = o_mul(out, a)
    return out


def o_cycles(a):
    seen, out = set(), []
    for start in range(len(a)):
        if start in seen:
            continue
        cyc, x = [start], a[start]
        seen.add(start)
        while x != start:
            seen.add(x)
            cyc.append(x)
            x = a[x]
        if len(cyc) > 1:
            out.append(tuple(cyc))
    return out


def o_order(a):
    n, x = 1, o_mul(a, tuple(range(len(a))))
    while x != tuple(range(len(a))):
        x, n = o_mul(a, x), n + 1
    return n


def o_cycle_type(a):
    lengths = sorted((len(c) for c in o_cycles(a)), reverse=True)
    return tuple(lengths + [1] * (len(a) - sum(lengths)))


def o_is_identity(a):
    return all(i == x for i, x in enumerate(a))


degrees = st.integers(min_value=0, max_value=12)


@st.composite
def perm_pairs(draw):
    n = draw(degrees)
    images = st.permutations(range(n))
    return tuple(draw(images)), tuple(draw(images))


@st.composite
def perm_lists(draw):
    n = draw(degrees)
    return [tuple(p) for p in draw(st.lists(st.permutations(range(n)), max_size=12))]


@settings(max_examples=300, deadline=None)
@given(perm_pairs(), st.integers(min_value=-30, max_value=30))
@example(((), ()), 0)
@example(((), ()), -3)
@example(((0,), (0,)), 5)
@example(((0,), (0,)), -2)
@example(((1, 0), (0, 1)), -1)
def test_kernel_matches_tuple_oracle(pair, n):
    a, b = pair
    p, q = Perm(a), Perm(b)
    assert p == a and tuple(p) == a and len(p) == p.degree == len(a)
    assert bool(p) == (len(a) > 0)  # a degree-0 Perm is falsy
    assert p.images is p and [p(x) for x in range(len(a))] == list(a)
    for value, expected in (
        (p * q, o_mul(a, b)),
        (q * p, o_mul(b, a)),
        (p.inverse(), o_inverse(a)),
        (p ** n, o_pow(a, n)),
        (Perm.identity(len(a)), tuple(range(len(a)))),
    ):
        assert type(value) is Perm
        assert value == expected and tuple(value) == expected
    assert p.order() == o_order(a)
    assert p.cycles() == o_cycles(a)
    assert p.cycle_type() == o_cycle_type(a)
    assert p.is_identity() == o_is_identity(a)
    assert (p * p.inverse()).is_identity() and Perm.identity(len(a)).is_identity()


@settings(max_examples=200, deadline=None)
@given(perm_lists())
@example([])
@example([(), ()])
@example([(0,), (0,)])
def test_hash_and_order_are_the_image_tuples(tuples):
    perms = [Perm(t) for t in tuples]
    assert [hash(p) for p in perms] == [hash(t) for t in tuples]
    assert [tuple(p) for p in sorted(perms)] == sorted(tuples)
    # iteration orders of sets and dicts follow the hash
    assert list(set(perms)) == list(set(tuples))
    assert list(dict.fromkeys(perms)) == list(dict.fromkeys(tuples))
    for p, t in zip(perms, tuples):
        for r, u in zip(perms, tuples):
            assert (p < r, p <= r, p == r) == (t < u, t <= u, t == u)


@pytest.mark.parametrize("images", [[0, 0, 1], [1, 2], [0, 2], [-1, 0]])
def test_non_bijection_raises(images):
    with pytest.raises(ValueError):
        Perm(images)
