"""Finitely presented groups: words, SNF, Todd-Coxeter, identification."""

import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import galcalc
from galcalc.catalogue import catalogue_group
from galcalc.errors import CosetLimitExceeded, IllFormedMap, ParseError
from galcalc.fp import (
    FpGroup,
    FpMap,
    abelianization,
    canonical_relator,
    coset_enumeration,
    cyclic_reduce,
    free_reduce,
    identify_finite,
    in_integer_row_span,
    inverse_word,
    parse_fp,
    pushout,
    regular_representation,
    simplify,
    smith_normal_form,
    word_from_text,
    word_to_text,
)
from galcalc.perm import find_isomorphism


def test_words():
    assert free_reduce([1, -1, 2]) == (2,)
    assert free_reduce([1, 2, -2, -1]) == ()
    assert inverse_word((1, -2, 3)) == (-3, 2, -1)
    assert word_from_text("abA") == (1, 2, -1)
    assert word_to_text((1, 2, -1)) == "abA"
    assert canonical_relator((2, 1, -2)) == (1,)
    assert canonical_relator((-1, -1)) == (1, 1)


def _canonical_relator_oracle(word):
    """Oracle: every rotation of the cyclic reduction and of its inverse,
    compared by the key (generator, 0 if positive else 1) per letter."""

    def key(w):
        return tuple((abs(x), 0 if x > 0 else 1) for x in w)

    w = cyclic_reduce(word)
    if not w:
        return ()
    best = None
    for cand in (w, inverse_word(w)):
        for k in range(len(cand)):
            rot = cand[k:] + cand[:k]
            if best is None or key(rot) < key(best):
                best = rot
    return best


_letters = st.sampled_from([1, -1, 2, -2, 3, -3, 4, -4])
_words = st.one_of(
    st.lists(_letters, max_size=40),
    # long powers around short words: a^38, (ab)^k A^j, ...
    st.tuples(
        st.lists(_letters, min_size=1, max_size=3),
        st.integers(1, 40),
        st.lists(_letters, max_size=6),
    ).map(lambda t: t[0] * t[1] + t[2]),
)


@given(_words)
@example([1] * 38)
@example([-1] * 38)
@example([-4, 3, -4, 3, 2, -1])
def test_canonical_relator_matches_oracle(word):
    assert canonical_relator(word) == _canonical_relator_oracle(word)


def test_parse_and_format():
    F = parse_fp("fp:2:aa,bb,ababab")
    assert F.ngens == 2
    assert F.relators == ((1, 1), (2, 2), (1, 2, 1, 2, 1, 2))
    assert parse_fp(F.spec_text()).relators == F.relators
    with pytest.raises(ParseError):
        parse_fp("fp:1:ab")
    with pytest.raises(ParseError):
        parse_fp("nonsense")


# -- Smith normal form ------------------------------------------------------


def _det(matrix):
    """Oracle: determinant by fraction-free Gaussian elimination."""
    from fractions import Fraction

    m = [[Fraction(x) for x in row] for row in matrix]
    n = len(m)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        for r in range(col + 1, n):
            factor = m[r][col] / m[col][col]
            for c in range(col, n):
                m[r][c] -= factor * m[col][c]
    return int(det)


def test_snf_examples():
    assert smith_normal_form([[2, 0], [0, 3]]) == [1, 6]
    assert smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]) == [2, 2, 156]
    assert smith_normal_form([[1, 0], [0, 0]]) == [1, 0]
    assert smith_normal_form([]) == []


def test_snf_divisibility_and_determinant():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(1, 4)
        m = [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
        diag = smith_normal_form(m)
        nonzero = [d for d in diag if d != 0]
        for a, b in zip(nonzero, nonzero[1:]):
            assert b % a == 0
        det = _det(m)
        if det != 0:
            prod = 1
            for d in nonzero:
                prod *= d
            assert prod == abs(det)


def test_abelianization_examples():
    assert abelianization(FpGroup(1, ((1, 1),))) == [2]
    assert abelianization(FpGroup(2, ())) == [0, 0]
    assert abelianization(FpGroup(2, ((1, 2, -1, -2), (1, 1), (2, 2)))) == [2, 2]
    assert abelianization(FpGroup(0, ())) == []


def test_in_integer_row_span():
    assert in_integer_row_span([[2, 0], [0, 2]], [2, 2])
    assert not in_integer_row_span([[2, 0], [0, 2]], [1, 0])
    assert in_integer_row_span([], [0, 0])
    assert not in_integer_row_span([], [1])


# -- coset enumeration -------------------------------------------------------


def test_coset_enumeration_examples():
    assert coset_enumeration(FpGroup(1, ((1, 1, 1, 1),)), (), 100) == 4
    S3 = FpGroup(2, ((1, 1), (2, 2), (1, 2) * 3))
    assert coset_enumeration(S3) == 6
    assert coset_enumeration(S3, [(1,)]) == 3  # index of <a>
    with pytest.raises(CosetLimitExceeded):
        coset_enumeration(FpGroup(2, ((1, 1), (2, 2))), (), 64)


STANDARD_PRESENTATIONS = [
    *[(f"C{n}", FpGroup(1, ((1,) * n,))) for n in range(1, 13)],
    ("S3", FpGroup(2, ((1, 1), (2, 2), (1, 2) * 3))),
    ("S4", FpGroup(3, ((1, 1), (2, 2), (3, 3), (1, 2) * 3, (2, 3) * 3, (1, 3) * 2))),
    ("D8", FpGroup(2, ((1,) * 4, (2, 2), (1, 2) * 2))),
    ("Q8", FpGroup(2, ((1,) * 4, (1, 1, -2, -2), (-2, 1, 2, 1)))),
]


@pytest.mark.parametrize("spec,F", STANDARD_PRESENTATIONS)
def test_coset_enumeration_matches_group_order(spec, F):
    assert coset_enumeration(F) == catalogue_group(spec).order


def test_trivial_and_empty_presentations():
    assert coset_enumeration(FpGroup(0, ())) == 1
    assert coset_enumeration(FpGroup(2, ((1,), (2,)))) == 1
    with pytest.raises(CosetLimitExceeded):
        coset_enumeration(FpGroup(1, ()), (), 50)  # free group of rank 1


def test_heavy_collapse():
    # forces many coincidences
    F = FpGroup(2, ((1, 2), (1, -2)))
    assert coset_enumeration(F) == coset_enumeration(simplify(F))
    assert abelianization(F) == [2]


def assert_regular(F, Q, images):
    """Q has one permutation per generator of F, every relator vanishes on
    them, they generate Q, and Q acts regularly: |Q| = deg Q, transitive."""
    n = Q.degree
    assert len(images) == F.ngens
    ident = Q.identity
    for r in F.relators:
        acc = ident
        for x in r:
            acc = acc * (images[x - 1] if x > 0 else images[-x - 1].inverse())
        assert acc == ident, r
    assert set(Q.generators) == {g for g in images if not g.is_identity()}
    assert Q.order == n
    assert {g[0] for g in Q.elements} == set(range(n))


@pytest.mark.parametrize("spec,F", STANDARD_PRESENTATIONS)
def test_regular_representation_is_the_group(spec, F):
    Q, images = regular_representation(F)
    assert Q.degree == coset_enumeration(F)
    assert_regular(F, Q, images)
    assert find_isomorphism(Q, catalogue_group(spec)) is not None


def test_regular_representation_of_trivial_groups():
    for F in (FpGroup(0, ()), FpGroup(2, ((1,), (2,))), FpGroup(2, ((1, 2), (1, -2), (1, 1, 1)))):
        Q, images = regular_representation(F)
        assert Q.degree == 1 and Q.generators == ()
        assert images == (Q.identity,) * F.ngens
    with pytest.raises(CosetLimitExceeded):
        regular_representation(FpGroup(1, ()), 50)


@settings(max_examples=200, deadline=None)
@given(
    relators=st.lists(
        st.lists(st.sampled_from([1, -1, 2, -2, 3, -3]), min_size=1, max_size=10),
        min_size=1,
        max_size=4,
    )
)
@example(relators=[[-2, -2], [2, -1, -1, -3], [-1, -1, -2, 1, -3]])
def test_regular_representation_matches_enumeration(relators):
    # random relators force coincidences, which must leave a complete,
    # compacted table on the live cosets.  The example (fp:3:BB,bAAC,AABaC)
    # has relators whose reversed words are not relators, so it tells the
    # action x -> x g^-1 from x -> x g, whose images satisfy only the
    # reversed words
    F = FpGroup(3, tuple(tuple(r) for r in relators))
    try:
        order = coset_enumeration(F, (), 300)
    except CosetLimitExceeded:
        with pytest.raises(CosetLimitExceeded):
            regular_representation(F, 300)
        return
    Q, images = regular_representation(F, 300)
    assert Q.degree == order
    assert_regular(F, Q, images)


# -- simplification -----------------------------------------------------------


def test_simplify_examples():
    assert simplify(FpGroup(2, ((2,),))).ngens == 1
    assert simplify(FpGroup(2, ((2,),))).relators == ()
    assert simplify(FpGroup(1, ((1, -1),))).relators == ()
    F = simplify(FpGroup(2, ((1, 2),)))
    assert F.ngens == 1 and F.relators == ()


SIMPLIFY_SUITE = [
    FpGroup(1, ((1, 1),)),
    FpGroup(2, ()),
    FpGroup(2, ((1, 2, -1, -2), (1, 1), (2, 2))),
    FpGroup(2, ((1, 1), (2, 2), (1, 2) * 3)),
    FpGroup(3, ((1, 2, 3), (1, 1, 1))),
    FpGroup(2, ((1, 1, 2, 2, 2),)),
    FpGroup(3, ((3,), (1, 2) * 2)),
    FpGroup(2, ((1, 2), (2, 2))),
    FpGroup(4, ((1, -2), (3, 4), (1, 1))),
    FpGroup(2, ((1,) * 6, (2, 2), (1, 2) * 2)),
    FpGroup(3, ((1, 2, -3),)),
    FpGroup(1, ()),
    FpGroup(0, ()),
    FpGroup(2, ((1, 2, 1, -2),)),
    FpGroup(2, ((1, 1, 1), (2, 2, 2), (1, 2, 1, 2))),
    FpGroup(3, ((1, 2), (2, 3))),
    FpGroup(2, ((-1, -1),)),
    FpGroup(2, ((1, -2), (2, -1))),
    FpGroup(3, ((1, 1), (2,), (3, 1))),
    FpGroup(2, ((1, 2, -1, 2),)),
]


@pytest.mark.parametrize("F", SIMPLIFY_SUITE)
def test_abelianization_invariant_under_simplify(F):
    # invariant factors, ignoring trivial ones, survive Tietze moves
    assert abelianization(F) == abelianization(simplify(F))


@pytest.mark.parametrize("F", SIMPLIFY_SUITE)
def test_simplify_preserves_finite_order(F):
    try:
        before = coset_enumeration(F, (), 2000)
    except CosetLimitExceeded:
        return
    assert coset_enumeration(simplify(F), (), 2000) == before


# -- identification -----------------------------------------------------------


def test_identify_examples():
    C2 = catalogue_group("C2")
    r = identify_finite(FpGroup(1, ((1, 1),)), [C2])
    assert r.status == "Identified" and r.match_name == "C2"
    assert r.certified_order == 2
    S3p = FpGroup(2, ((1, 1), (2, 2), (1, 2) * 3))
    r = identify_finite(S3p, [catalogue_group("C6"), catalogue_group("S3")])
    assert r.status == "Identified" and r.match_name == "S3"
    r = identify_finite(
        FpGroup(2, ((1, 1), (2, 2))), [catalogue_group("C2xC2")], max_cosets=128
    )
    assert r.status == "Inconclusive"
    assert r.certified_order is None


def test_identify_witness_is_valid():
    S3p = FpGroup(2, ((1, 1), (2, 2), (1, 2) * 3))
    S3 = catalogue_group("S3")
    r = identify_finite(S3p, [S3])
    assert r.status == "Identified"
    a, b = r.witness
    assert (a * a).is_identity() and (b * b).is_identity()
    ab = a * b
    assert (ab * ab * ab).is_identity()
    assert S3.subgroup_from_generators([a, b]).order == 6


def test_identify_order_exceeded():
    F = FpGroup(1, ((1,) * 6,))
    r = identify_finite(F, [catalogue_group("C2")])
    assert r.status == "OrderExceeded"
    assert r.certified_order == 6


def test_identify_inconclusive_no_match():
    F = FpGroup(1, ((1,) * 4,))
    r = identify_finite(F, [catalogue_group("C2xC2"), catalogue_group("C8")])
    assert r.status == "Inconclusive"
    assert r.certified_order == 4


def test_identify_rejects_bad_witness_under_optimize():
    # the certificate checks are explicit, so python -O keeps them.  A fake
    # "isomorphism" gets a bad witness in: identity images satisfy the
    # relator of C3 but do not generate it; a 3-cycle and a transposition
    # generate S3 but the 3-cycle breaks the relator aa
    fakes = [
        ("fp:1:aaa", "C3", "lambda Q, H, gens: (lambda g: H.identity)", "generate"),
        (
            "fp:2:aa,bb,ababab",
            "S3",
            "lambda Q, H, gens: dict(zip(gens, (max(H, key=Perm.order), "
            "next(h for h in H if h.order() == 2)))).__getitem__",
            "relators",
        ),
    ]
    src = str(Path(galcalc.__file__).resolve().parents[1])
    for spec, name, fake, reason in fakes:
        code = (
            "import galcalc.fp as fp\n"
            "from galcalc.catalogue import catalogue_group\n"
            "from galcalc.errors import CertificateError\n"
            "from galcalc.perm import Perm\n"
            f"fp.find_isomorphism = {fake}\n"
            "try:\n"
            f"    r = fp.identify_finite(fp.parse_fp({spec!r}), [catalogue_group({name!r})])\n"
            "except CertificateError as exc:\n"
            "    print('rejected:', exc)\n"
            "else:\n"
            "    print(r.status)\n"
        )
        out = subprocess.run(
            [sys.executable, "-O", "-c", code],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": src},
            timeout=60,
            check=True,
        )
        assert out.stdout.startswith("rejected:") and reason in out.stdout, (spec, out.stdout)


# -- pushouts ------------------------------------------------------------------


def test_pushout_free_product():
    Z = FpGroup(1, ())
    triv = FpGroup(0, ())
    P = pushout(FpMap(triv, Z, ()), FpMap(triv, Z, ()))
    assert P.ngens == 2 and P.relators == ()
    assert abelianization(P) == [0, 0]


def test_pushout_iso_legs():
    C2 = FpGroup(1, ((1, 1),))
    P = pushout(FpMap(C2, C2, ((1,),)), FpMap(C2, C2, ((1,),)))
    assert coset_enumeration(P) == 2
    r = identify_finite(P, [catalogue_group("C2")])
    assert r.status == "Identified" and r.match_name == "C2"


def test_pushout_doubling():
    Z = FpGroup(1, ())
    triv = FpGroup(0, ())
    P = pushout(FpMap(Z, Z, ((1, 1),)), FpMap(Z, triv, ((),)))
    assert abelianization(P) == [2]
    assert coset_enumeration(P) == 2


def test_pushout_c2_free_c3():
    C2 = FpGroup(1, ((1, 1),))
    C3 = FpGroup(1, ((1, 1, 1),))
    triv = FpGroup(0, ())
    P = pushout(FpMap(triv, C2, ()), FpMap(triv, C3, ()))
    assert abelianization(P) == [6]


def test_pushout_errors():
    Z = FpGroup(1, ())
    with pytest.raises(IllFormedMap):
        FpMap(Z, Z, ((2,),))  # image generator out of range
    with pytest.raises(IllFormedMap):
        FpMap(Z, Z, ())  # wrong arity
    C2 = FpGroup(1, ((1, 1),))
    # killing relators must hold at abelianization level: C2 -> Z via a -> b fails
    with pytest.raises(IllFormedMap):
        pushout(FpMap(C2, Z, ((1,),)), FpMap(C2, C2, ((1,),)))


@pytest.mark.parametrize("F", SIMPLIFY_SUITE[:10])
def test_pushout_reassociation_abelianization(F):
    # glue a trivial leg on either side: abelianization is unchanged
    triv = FpGroup(0, ())
    point = FpGroup(1, ((1,),))
    left = pushout(FpMap(triv, F, ()), FpMap(triv, point, ()))
    right = pushout(FpMap(triv, point, ()), FpMap(triv, F, ()))
    assert abelianization(simplify(left)) == abelianization(simplify(right))
    assert abelianization(simplify(left)) == abelianization(F)


@pytest.mark.parametrize("orders", [(2, 3, 4), (2, 2, 2), (3, 6, 2), (5, 4, 9)])
def test_pushout_free_product_associativity(orders):
    # (A * B) * C and A * (B * C) have equal abelianizations
    triv = FpGroup(0, ())

    def cyc(n):
        return FpGroup(1, ((1,) * n,))

    def free_prod(X, Y):
        return pushout(FpMap(triv, X, ()), FpMap(triv, Y, ()))

    a, b, c = (cyc(n) for n in orders)
    left = free_prod(free_prod(a, b), c)
    right = free_prod(a, free_prod(b, c))
    assert abelianization(left) == abelianization(right)
