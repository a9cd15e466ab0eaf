"""Invariant suites runnable from the CLI.

Each suite re-checks a batch of structural invariants on a fixed
deterministic set of inputs and returns a list of failure strings; the
full pytest suite runs wider sweeps of the same properties.
"""

from __future__ import annotations

from typing import Callable

from .catalogue import catalogue_group, standard_catalogue
from .fp import FpGroup, abelianization, coset_enumeration, identify_finite, simplify
from .groupoid import delooping, hom_groupoids_agree, pi1
from .gset import GSet, classify_torsors, reconstruct_pi1, subterminal_boolean_algebra
from .orbitcat import category_from_poset, nerve_pi1_presentation
from .perm import find_isomorphism, find_surjection, hom_conjugacy_classes, homomorphisms
from .pipelines import galois_cochains, galois_modg, galois_stmod
from .stone import algebra_of_set, idempotent_decompositions, spectrum


def _suite_group_core() -> list[str]:
    bad = []
    for spec, order in [
        ("S4", 24), ("A4", 12), ("C12", 12), ("D8", 8), ("Q8", 8),
        ("Q16", 16), ("C2xC2xC2", 8), ("S5", 120),
    ]:
        G = catalogue_group(spec)
        if G.order != order:
            bad.append(f"{spec}: order {G.order} != family formula {order}")
    for spec in ("S4", "Q8", "A4", "D12"):
        G = catalogue_group(spec)
        for H in G.elementary_abelian_p_subgroups(2):
            if G.order % H.order != 0:
                bad.append(f"{spec}: Lagrange fails for subgroup order {H.order}")
    for n, hspec in [(2, "S3"), (4, "D8"), (6, "C12"), (3, "A4")]:
        C = catalogue_group(f"C{n}")
        H = catalogue_group(hspec)
        expected = sum(1 for h in H.elements if (h ** n).is_identity())
        if len(homomorphisms(C, H)) != expected:
            bad.append(f"|Hom(C{n},{hspec})| != torsion count {expected}")
    return bad


def _suite_fp() -> list[str]:
    bad = []
    presentations = [
        FpGroup(1, ((1, 1),)),
        FpGroup(2, ()),
        FpGroup(2, ((1, 2, -1, -2), (1, 1), (2, 2))),
        FpGroup(2, ((1, 1), (2, 2), (1, 2) * 3)),
        FpGroup(3, ((1, 2, 3), (1, 1, 1))),
        FpGroup(2, ((1, 1, 2, 2, 2),)),
    ]
    for F in presentations:
        if abelianization(F) != abelianization(simplify(F)):
            bad.append(f"abelianization not simplify-invariant: {F!r}")
    for text_rel, order in [
        (((1,) * 6,), 6),
        (((1, 1), (2, 2), (1, 2) * 3), 6),
        (((1,) * 4, (2, 2), (1, 2) * 2), 8),
        (((1,) * 4, (1, 1, -2, -2), (-2, 1, 2, 1)), 8),
    ]:
        F = FpGroup(max(abs(x) for r in text_rel for x in r), text_rel)
        got = coset_enumeration(F)
        if got != order:
            bad.append(f"coset enumeration {got} != {order} for {F!r}")
    return bad


def _suite_groupoid() -> list[str]:
    bad = []
    for a, b in [("C2", "C2"), ("C2", "S3"), ("C3", "C2"), ("S3", "S3"), ("C4", "D8")]:
        if not hom_groupoids_agree(catalogue_group(a), catalogue_group(b)):
            bad.append(f"hom groupoid formula vs oracle disagree on ({a},{b})")
    for spec in ("C6", "S3", "Q8", "D8"):
        G = catalogue_group(spec)
        P = pi1(delooping(G), 0)
        if find_isomorphism(P, G) is None:
            bad.append(f"pi1(B{spec}) not isomorphic to {spec}")
    return bad


def _suite_gset() -> list[str]:
    bad = []
    for a, b in [("C2", "C2"), ("C2", "S3"), ("C4", "C4"), ("S3", "C2")]:
        G, H = catalogue_group(a), catalogue_group(b)
        if len(classify_torsors(G, H)) != len(hom_conjugacy_classes(G, H)):
            bad.append(f"torsor classes != hom classes for ({a},{b})")
    for spec in ("C4", "S3", "Q8"):
        G = catalogue_group(spec)
        A, _ = reconstruct_pi1(G)
        if find_isomorphism(A, G) is None:
            bad.append(f"reconstruct_pi1({spec}) not isomorphic to {spec}")
    S3 = catalogue_group("S3")
    X = GSet.natural(S3)
    B = subterminal_boolean_algebra(X)
    if len(B) != 2 ** len(X.orbits()):
        bad.append("boolean algebra size != 2^orbits")
    return bad


def _suite_stone() -> list[str]:
    bad = []
    for n in range(5):
        B = algebra_of_set(list(range(n)))
        if len(spectrum(B)) != n:
            bad.append(f"spectrum of powerset({n}) has wrong size")
        if len(B) != 2 ** n:
            bad.append(f"powerset({n}) has wrong cardinality")
        bell = [1, 1, 2, 5, 15][n]
        expected = 0 if n == 0 else bell
        if len(idempotent_decompositions(B)) != expected:
            bad.append(f"decomposition count wrong for {n} atoms")
    return bad


def _suite_orbit_nerve() -> list[str]:
    bad = []
    for spec in ("C6", "S3", "Q8"):
        G = catalogue_group(spec)
        F = nerve_pi1_presentation(delooping(G), 0)
        res = identify_finite(F, [G])
        if res.status != "Identified":
            bad.append(f"nerve pi1 of B{spec} not identified as {spec}")
    cone = category_from_poset(["a", "b", "c"], lambda x, y: x <= y)
    F = nerve_pi1_presentation(cone, "a")
    if coset_enumeration(simplify(F)) != 1:
        bad.append("poset with terminal object has nontrivial nerve pi1")
    return bad


def _suite_pipelines() -> list[str]:
    bad = []
    table = [("S4", 2, 1), ("C4", 2, 2), ("Q8", 2, 4), ("C6", 3, 2), ("A4", 2, 3)]
    for spec, p, order in table:
        Q = galois_modg(catalogue_group(spec), p)
        if Q.order != order:
            bad.append(f"modg({spec},{p}) order {Q.order} != {order}")
    for spec in standard_catalogue(16):
        G = catalogue_group(spec)
        for p in (2, 3):
            Q = galois_cochains(G, p)
            n = Q.order
            while n % p == 0:
                n //= p
            if n != 1:
                bad.append(f"cochains({spec},{p}) is not a p-group")
            if find_surjection(galois_modg(G, p), Q) is None:
                bad.append(f"cochains({spec},{p}) not a quotient of modg")
    for spec, p in [("S3", 3), ("Q8", 2), ("C2xC2", 2)]:
        report = galois_stmod(catalogue_group(spec), p)
        if report.identification is None or report.identification.status != "Identified":
            bad.append(f"stmod({spec},{p}) failed to identify")
        if not all(c.agreed for c in report.cross_checks):
            bad.append(f"stmod({spec},{p}) cross-check disagreement")
    return bad


SUITES: list[tuple[str, Callable[[], list[str]]]] = [
    ("group-core", _suite_group_core),
    ("fp-group", _suite_fp),
    ("groupoid", _suite_groupoid),
    ("gset-galois", _suite_gset),
    ("stone", _suite_stone),
    ("orbit-nerve", _suite_orbit_nerve),
    ("pipelines", _suite_pipelines),
]


def run_all(verbose: bool = False) -> int:
    """Run every suite; returns the number of failed suites."""
    failures = 0
    for name, suite in SUITES:
        problems = suite()
        if problems:
            failures += 1
            if verbose:
                print(f"FAIL {name}")
                for msg in problems:
                    print(f"  - {msg}")
        elif verbose:
            print(f"ok   {name}")
    return failures
