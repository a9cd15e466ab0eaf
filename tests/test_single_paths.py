"""The one construction path of each core structure, against oracles.

Every ``FinCategory`` composes through one function, and every builder
writes that function from its morphism labels; here each is checked pair
for pair against a composition table written independently from the
labels.  Every ``Subgroup`` is built from one bitset, and
``PermGroup.subgroup`` is checked against a brute-force product oracle.
The checks on a composite (present, in range, with the right ends) run
when ``compose_table`` tabulates, and must hold under ``python -O``.
"""

import os
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galcalc.catalogue import catalogue_group, standard_catalogue
from galcalc.groupoid import (
    action_groupoid,
    delooping,
    disjoint_union,
    hom_groupoid_bruteforce,
)
from galcalc.gset import GSet
from galcalc.orbitcat import category_from_poset

UP_TO_12 = standard_catalogue(12)


def product(h, g):
    """h o g as an image tuple, g applied first."""
    return tuple(h[i] for i in g)


def oracle_table(C, compose_labels):
    """(s, f) -> s o f on every composable pair, with the composite found
    by its label: compose_labels(label of s, label of f)."""
    index = {m.label: i for i, m in enumerate(C.morphisms)}
    assert len(index) == len(C.morphisms)  # labels name morphisms
    return {
        (s, f): index[compose_labels(ms.label, mf.label)]
        for f, mf in enumerate(C.morphisms)
        for s, ms in enumerate(C.morphisms)
        if mf.dst == ms.src
    }


def assert_composes_as(C, compose_labels):
    table = oracle_table(C, compose_labels)
    for (s, f), h in table.items():
        assert C.compose(s, f) == h, (s, f)
    assert C.compose_table == table
    C.validate()
    # a pair that does not compose has no composite
    for s, ms in enumerate(C.morphisms[:8]):
        for f, mf in enumerate(C.morphisms):
            if mf.dst != ms.src:
                with pytest.raises(KeyError):
                    C.compose(s, f)


def delooping_labels(s, f):  # g, then h: h g
    return product(s, f)


def action_labels(s, f):  # (g, x), then (h, g x): (h g, x)
    (h, _), (g, x) = s, f
    return (product(h, g), x)


def functor_labels(s, f):  # (fi, x), then (x f x^-1, y): (fi, y x)
    (_, y), (fi, x) = s, f
    return (fi, product(y, x))


def poset_labels(s, f):  # a <= b, then b <= c: a <= c
    assert f[1] == s[0]
    return (f[0], s[1])


@pytest.mark.parametrize("spec", UP_TO_12)
def test_delooping_composes_as_the_group(spec):
    assert_composes_as(delooping(catalogue_group(spec)), delooping_labels)


@pytest.mark.parametrize("spec", UP_TO_12)
def test_natural_action_groupoid_composes_as_the_group(spec):
    G = catalogue_group(spec)
    AG = action_groupoid(GSet.natural(G))
    for m in AG.morphisms:
        g, x = m.label
        assert (m.src, m.dst) == (x, g[x])
    assert_composes_as(AG, action_labels)


@pytest.mark.parametrize(
    "source, target", [("C2", "S3"), ("C3", "S3"), ("S3", "S3"), ("C2xC2", "D8"), ("Q8", "C4")]
)
def test_functor_groupoid_composes_natural_isomorphisms(source, target):
    G, H = catalogue_group(source), catalogue_group(target)
    F = hom_groupoid_bruteforce(G, H)
    homs = F.object_info
    for m in F.morphisms:
        fi, x = m.label
        xinv = x.inverse()
        conj = [product(product(x, img), xinv) for img in homs[fi].gen_images]
        assert m.src == fi and list(homs[m.dst].gen_images) == conj
    assert_composes_as(F, functor_labels)


@pytest.mark.parametrize(
    "labels, leq",
    [
        ([0, 1, 2], lambda a, b: a <= b),
        (list(range(1, 13)), lambda a, b: b % a == 0),
        ([frozenset(s) for s in ([], [0], [1], [0, 1], [2], [0, 2])], lambda a, b: a <= b),
        (["a", "b", "c"], lambda a, b: a == b),
    ],
)
def test_poset_composes_by_transitivity(labels, leq):
    P = category_from_poset(labels, leq)
    assert [m.label for m in P.morphisms] == [
        (a, b) for a in labels for b in labels if leq(a, b)
    ]
    assert_composes_as(P, poset_labels)


def test_disjoint_union_composes_within_each_piece():
    S3 = catalogue_group("S3")
    pieces = [
        delooping(catalogue_group("C2")),
        action_groupoid(GSet.natural(S3)),
        hom_groupoid_bruteforce(catalogue_group("C2"), S3),
        delooping(S3),
    ]
    composers = [delooping_labels, action_labels, functor_labels, delooping_labels]
    U = disjoint_union(*pieces)
    assert len(U.morphisms) == sum(len(X.morphisms) for X in pieces)

    def union_labels(s, f):
        assert s[0] == f[0]
        return (s[0], composers[s[0]](s[1], f[1]))

    assert_composes_as(U, union_labels)


SMALL = {spec: catalogue_group(spec) for spec in ("S3", "C2xC2", "C6", "D8", "Q8", "A4", "S4")}


def is_subgroup(G, members):
    """Oracle: a finite set with the identity, closed under products."""
    return G.identity in members and all(
        product(a, b) in members for a in members for b in members
    )


@st.composite
def member_sets(draw):
    """Some elements of a small group: at random, or a subgroup with at
    most one element toggled, so that both answers come up."""
    G = SMALL[draw(st.sampled_from(sorted(SMALL)))]
    els = G.elements
    members = {els[i] for i in draw(st.sets(st.integers(0, G.order - 1)))}
    if draw(st.booleans()):
        members = set(G.subgroup_from_generators(members).members)
        toggle = draw(st.none() | st.integers(0, G.order - 1))
        if toggle is not None:
            members ^= {els[toggle]}
    return G, members


@settings(max_examples=200, deadline=None)
@given(member_sets())
def test_subgroup_accepts_exactly_the_subgroups(case):
    G, members = case
    if is_subgroup(G, members):
        H = G.subgroup(members)
        assert set(H.members) == members and H.order == len(members)
        assert H == G.subgroup_from_generators(members)
    else:
        with pytest.raises(ValueError):
            G.subgroup(members)


def test_composite_checks_hold_under_optimize():
    # a missing, an out-of-range and a wrong-ended composite of one
    # non-unit pair of the chain 0 < 1 < 2, each caught when tabulated
    code = textwrap.dedent(
        """
        from galcalc.orbitcat import FinCategory, category_from_poset

        P = category_from_poset([0, 1, 2], lambda x, y: x <= y)
        key = next(k for k in P.compose_table if not any(map(P.is_identity_morphism, k)))
        for h in (None, len(P.morphisms), P.identity_of[2]):
            table = dict(P.compose_table)
            if h is None:
                del table[key]
            else:
                table[key] = h
            C = FinCategory(P.objects, P.morphisms, P.identity_of, lambda g, f: table[g, f])
            try:
                C.validate()
            except ValueError as exc:
                print(exc)
        """
    )
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env=env, capture_output=True, text=True, check=True,
    )
    missing, out_of_range, wrong_ends = out.stdout.splitlines()
    assert "not total" in missing
    assert "out of range" in out_of_range
    assert "source/target" in wrong_ends
