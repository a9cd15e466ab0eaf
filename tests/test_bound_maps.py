"""The hom layer's bound maps, each against the form it replaced.

``extend_generator_map`` takes each Cayley edge's product through a map
bound once per generator image; G-set commutation compares two tuples
built in C; induced torsor bases read the target's left-regular G-set;
torsor keys compose through bound maps; the catalogue list is built once
per order; ``_bit_positions`` reads a sparse bitset lowest bit first.
The oracles below are the code these replaced, kept verbatim in their
logic: one ``Perm`` product per edge, Python comparisons and key
comprehensions element by element, |H| products per generator per
homomorphism, and the ``bin()``/regex bit scan.  The generating set that
``as_group`` hands over is checked in ``test_closure.py``.
"""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from galcalc.catalogue import catalogue_group, standard_catalogue
from galcalc.errors import IncompatibleGroups
from galcalc.gset import (
    GSet,
    _aux_automorphisms,
    _check_commuting,
    _induced_base,
    _least_transport,
    _right_regular,
)
from galcalc.perm import (
    Perm,
    PermGroup,
    _bit_positions,
    extend_generator_map,
    homomorphisms,
)

SPECS_8 = standard_catalogue(8)
SPECS_24 = standard_catalogue(24)


# -- oracles: the forms these kernels replaced ------------------------------


def edge_extend(source, images, identity):
    """extend_generator_map with one Perm product per Cayley edge."""
    defined, targets = source.cayley_table()
    f = [identity]
    qs = iter(targets)
    for fp in f:
        for image, q in zip(images, qs):
            x = fp * image
            if q == len(f):
                f.append(x)
            elif x != f[q]:
                return None
    return dict(zip(defined, f))


def product_induced_base(phi, aux):
    """The induced base from |H| products per generator."""
    index = phi.target.element_index
    gen_images = [[index[phi(s) * x] for x in aux.points] for s in phi.source.generators]
    return GSet(phi.source, aux.points, gen_images)


def pointwise_commutes(X, aux):
    n = len(X.points)
    return all(
        all(am[gm[x]] == gm[am[x]] for x in range(n))
        for gm in X._gen_maps
        for am in aux._gen_maps
    )


def list_automorphisms(aux):
    maps = [aux.action_map(a) for a in aux.group.elements]
    return [
        ([v for _, v in sorted((m[0], m[y]) for m in maps)],
         [u for _, u in sorted((m[y], m[0]) for m in maps)])
        for y in range(len(aux.points))
    ]


def comprehension_transport(base, autos):
    gms = base._gen_maps
    return min(tuple([psi[gm[x]] for gm in gms for x in inv]) for psi, inv in autos)


_ONE = re.compile("1")


def regex_positions(bits):
    return [m.start() for m in _ONE.finditer(bin(bits)[:1:-1])]


# -- extend_generator_map ----------------------------------------------------


def check_extension(source, images, identity):
    new = extend_generator_map(source, images, identity)
    assert new == edge_extend(source, images, identity)
    if new is not None:
        assert all(type(v) is Perm for v in new.values())
        assert list(new) == list(source.cayley_table()[0])
    return new


def test_extension_into_degree_0_and_1():
    # itemgetter with one index returns a scalar; the bound map must not
    for n in (0, 1):
        ident = Perm.identity(n)
        for spec in ("C1", "C2", "C3", "S3", "D8", "Q8"):
            G = catalogue_group(spec)
            assert check_extension(G, [ident] * len(G.generators), ident) == {
                g: ident for g in G.elements
            }
    # a trivial source of degree 1 (no generators) and of degree 0
    for n in (0, 1):
        G = PermGroup(n, [])
        assert G.order == 1
        for m in (0, 1, 3):
            assert check_extension(G, [], Perm.identity(m)) == {
                G.identity: Perm.identity(m)
            }


def test_extension_of_degree_1_gsets():
    for spec in SPECS_8:
        G = catalogue_group(spec)
        X = GSet(G, [0], [[0]] * len(G.generators))
        assert set(X._maps.values()) == {(0,)}


def test_extension_rejects_non_homomorphic_images():
    C4, S3 = catalogue_group("C4"), catalogue_group("S3")
    three_cycle = Perm.from_cycles(3, [(0, 1, 2)])
    assert check_extension(C4, [three_cycle], S3.identity) is None
    with pytest.raises(ValueError):
        GSet(C4, range(3), [[1, 2, 0]])


@st.composite
def generator_images(draw):
    """A catalogue source of order <= 24 and any codomain elements for its
    generators, nearly always rejected, or a homomorphism's images."""
    G = catalogue_group(draw(st.sampled_from(SPECS_24)))
    H = catalogue_group(draw(st.sampled_from(["C1", "C2", "S3", "D8", "S4"])))
    if draw(st.booleans()):
        homs = homomorphisms(G, H)
        return G, list(draw(st.sampled_from(homs)).gen_images), H.identity
    return G, [draw(st.sampled_from(H.elements)) for _ in G.generators], H.identity


@settings(max_examples=150, deadline=None)
@given(generator_images())
def test_extension_matches_product_per_edge(case):
    check_extension(*case)


# -- torsor kernels on every pair of order <= 8 ------------------------------


@pytest.mark.parametrize("a", SPECS_8)
def test_torsor_kernels_match_their_old_forms(a):
    G = catalogue_group(a)
    for b in SPECS_8:
        H = catalogue_group(b)
        aux, left = _right_regular(H), GSet.regular(H)
        new_autos, old_autos = _aux_automorphisms(aux), list_automorphisms(aux)
        assert [psi for psi, _ in new_autos] == [tuple(psi) for psi, _ in old_autos]
        for f in homomorphisms(G, H):
            base = _induced_base(f, left)
            old = product_induced_base(f, aux)
            assert base.points == old.points
            assert base._gen_maps == old._gen_maps
            assert base._maps == old._maps
            _check_commuting(base, aux)  # the right action commutes with it
            # left multiplication commutes with f's exactly where f(G) is central
            central = pointwise_commutes(base, left)
            if central:
                _check_commuting(base, left)
            else:
                with pytest.raises(IncompatibleGroups):
                    _check_commuting(base, left)
            assert _least_transport(base, new_autos) == comprehension_transport(
                base, old_autos
            ), (a, b, f.gen_images)


def test_non_commuting_actions_raise():
    S3 = catalogue_group("S3")
    R = GSet.regular(S3)
    assert not pointwise_commutes(R, R)
    with pytest.raises(IncompatibleGroups):
        _check_commuting(R, R)
    # degree 1: one point, nothing to compare
    C2 = catalogue_group("C2")
    X = GSet(C2, [0], [[0]])
    _check_commuting(X, X)


# -- the catalogue list ------------------------------------------------------


def test_standard_catalogue_returns_a_fresh_list():
    up_to, exact = standard_catalogue(12), standard_catalogue(12, exact=True)
    kept_up_to, kept_exact = list(up_to), list(exact)
    up_to.append("junk")
    up_to.remove("C1")
    exact.clear()
    assert standard_catalogue(12) == kept_up_to
    assert standard_catalogue(12, exact=True) == kept_exact == ["A4", "C12", "C2xC6", "D12"]
    assert standard_catalogue(12) is not standard_catalogue(12)


# -- bit positions -----------------------------------------------------------


def _bits(positions):
    return sum(1 << i for i in set(positions))


@settings(max_examples=200, deadline=None)
@given(st.sets(st.integers(min_value=0, max_value=99_999), max_size=40))
def test_sparse_bit_positions_match_regex_scan(positions):
    bits = _bits(positions)
    assert _bit_positions(bits) == regex_positions(bits) == sorted(positions)


@settings(max_examples=60, deadline=None)
@given(st.binary(max_size=12_500))
def test_dense_bit_positions_match_regex_scan(raw):
    bits = int.from_bytes(raw, "little")
    assert _bit_positions(bits) == regex_positions(bits)


@pytest.mark.parametrize("count", [0, 1, 23, 24, 25, 26, 100])
@pytest.mark.parametrize("top", [63, 64, 99_999])
def test_bit_positions_at_the_branch_boundary(count, top):
    positions = random.Random(f"{count}:{top}").sample(range(top + 1), min(count, top + 1))
    bits = _bits(positions)
    assert _bit_positions(bits) == regex_positions(bits) == sorted(positions)
