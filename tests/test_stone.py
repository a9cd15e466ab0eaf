"""Stone duality at finite scale: atoms, roundtrips, decompositions."""

import itertools

import pytest

from galcalc.errors import MalformedAlgebra, SizeError
from galcalc.stone import (
    BooleanAlgebra,
    algebra_of_set,
    idempotent_decompositions,
    set_partitions,
    spectrum,
)

BELL = [1, 1, 2, 5, 15, 52]


def test_spectrum_examples():
    assert len(spectrum(algebra_of_set(["x"]))) == 1
    assert len(spectrum(algebra_of_set(range(4)))) == 4
    # free Boolean algebra on 2 generators = power set of the 4 valuations
    valuations = list(itertools.product([False, True], repeat=2))
    B = algebra_of_set(valuations)
    assert len(B) == 16
    assert len(spectrum(B)) == 4


def test_algebra_of_set_edge_cases():
    B0 = algebra_of_set([])
    assert len(B0) == 1
    assert B0.bottom == B0.top
    assert spectrum(B0) == []
    B1 = algebra_of_set(["s"])
    assert len(B1) == 2
    with pytest.raises(SizeError):
        algebra_of_set(range(17))


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
def test_roundtrips(n):
    labels = [f"a{i}" for i in range(n)]
    B = algebra_of_set(labels)
    atoms = spectrum(B)
    # spec o algebra_of_set = identity up to bijection: atoms are singletons
    assert len(atoms) == n
    assert sorted(next(iter(a)) for a in atoms) == labels
    # algebra_of_set o spec = identity up to isomorphism: rebuild and compare
    B2 = algebra_of_set(atoms)
    assert len(B2) == len(B)
    # explicit isomorphism: x -> set of atoms below x
    iso = {x: frozenset(a for a in atoms if B.leq(a, x)) for x in B.elements}
    for x in B.elements:
        for y in B.elements:
            assert iso[B.meet(x, y)] == B2.meet(iso[x], iso[y])
            assert iso[B.join(x, y)] == B2.join(iso[x], iso[y])


def test_cardinality_is_power_of_atoms():
    for n in range(5):
        B = algebra_of_set(range(n))
        assert len(B) == 2 ** len(spectrum(B))


def test_set_partitions_bell():
    for n in range(6):
        assert len(set_partitions(list(range(n)))) == BELL[n]


def test_idempotent_decompositions():
    assert len(idempotent_decompositions(algebra_of_set(["a"]))) == 1
    B4 = algebra_of_set(["a", "b"])
    decs = idempotent_decompositions(B4)
    assert len(decs) == 2  # {top} and {a, not a}
    assert any(len(d) == 1 for d in decs)
    B8 = algebra_of_set(["a", "b", "c"])
    assert len(idempotent_decompositions(B8)) == 5  # Bell(3)
    assert len(idempotent_decompositions(algebra_of_set(range(4)))) == 15
    # every decomposition: pairwise disjoint nonzero pieces joining to top
    for dec in idempotent_decompositions(B8):
        join = B8.bottom
        for e in dec:
            assert e != B8.bottom
            join = B8.join(join, e)
        assert join == B8.top
        for x, y in itertools.combinations(dec, 2):
            assert B8.meet(x, y) == B8.bottom


def test_from_tables_and_validation():
    # the 2-element algebra as tables
    B = BooleanAlgebra.from_tables(
        2, [[0, 0], [0, 1]], [[0, 1], [1, 1]], [1, 0], bottom=0, top=1
    )
    B.validate()
    assert spectrum(B) == [1]
    # break complementation
    bad = BooleanAlgebra.from_tables(
        2, [[0, 0], [0, 1]], [[0, 1], [1, 1]], [0, 1], bottom=0, top=1
    )
    with pytest.raises(MalformedAlgebra):
        spectrum(bad)
    # break idempotence
    bad2 = BooleanAlgebra.from_tables(
        2, [[1, 0], [0, 1]], [[0, 1], [1, 1]], [1, 0], bottom=0, top=1
    )
    with pytest.raises(MalformedAlgebra):
        bad2.validate()


def test_json_bitmask_serialization():
    B = algebra_of_set(["u", "v"])
    data = B.to_json()
    assert data["schema"] == 1
    assert data["atom_count"] == 2
    assert sorted(data["elements"]) == [0, 1, 2, 3]


@pytest.mark.parametrize("n", range(7))
def test_json_masks_match_atom_decompositions(n):
    B = algebra_of_set(range(n))
    atoms = B.atoms()
    data = B.to_json()
    assert data["atom_count"] == len(atoms) == n
    for x, mask in zip(B.elements, data["elements"]):
        below = B.atom_decomposition(x)
        assert mask == sum(1 << i for i, a in enumerate(atoms) if a in below)
