"""Smoke checks runnable from the CLI: one fixed-input check per layer.

Each suite runs one small computation through its layer and compares it
with a known answer; the pytest suite is the test suite, with the wide
sweeps and the oracles.
"""

from __future__ import annotations

from typing import Callable

from .catalogue import catalogue_group
from .fp import IDENTIFIED, FpGroup, coset_enumeration, identify_finite, simplify
from .groupoid import delooping, hom_groupoid
from .gset import classify_torsors
from .orbitcat import nerve_pi1_presentation
from .perm import hom_conjugacy_classes, homomorphisms
from .pipelines import galois_stmod
from .stone import algebra_of_set, idempotent_decompositions


def _group_core() -> bool:
    """|Hom(C4, D8)| is the number of elements x of D8 with x^4 = 1."""
    D8 = catalogue_group("D8")
    torsion = sum(1 for h in D8.elements if (h**4).is_identity())
    return len(homomorphisms(catalogue_group("C4"), D8)) == torsion


def _fp() -> bool:
    """<a, b | a^2, b^2, (ab)^3> has order 6 after Tietze moves."""
    return coset_enumeration(simplify(FpGroup(2, ((1, 1), (2, 2), (1, 2) * 3)))) == 6


def _groupoid() -> bool:
    """Hom(BC2, BS3) has two components, at the trivial map and at a
    transposition, with automorphism groups S3 and C2."""
    report = hom_groupoid(catalogue_group("C2"), catalogue_group("S3"))
    names = [c["automorphisms"]["group"] for c in report.to_json()["components"]]
    return report.automorphism_orders() == [6, 2] and names == ["S3", "C2"]


def _gset() -> bool:
    """S3-torsors over C2-sets correspond to classes of homs C2 -> S3."""
    C2, S3 = catalogue_group("C2"), catalogue_group("S3")
    return len(classify_torsors(C2, S3)) == len(hom_conjugacy_classes(C2, S3))


def _stone() -> bool:
    """A set of 4 points has Bell(4) = 15 partitions."""
    return len(idempotent_decompositions(algebra_of_set(list(range(4))))) == 15


def _orbit_nerve() -> bool:
    """The nerve of BS3 has fundamental group S3."""
    S3 = catalogue_group("S3")
    F = nerve_pi1_presentation(delooping(S3), 0)
    return identify_finite(F, [S3]).status == IDENTIFIED


def _pipelines() -> bool:
    """Stmod(S3) at p = 3 is identified, and every cross-check agrees."""
    report = galois_stmod(catalogue_group("S3"), 3)
    ident = report.identification
    identified = ident is not None and ident.status == IDENTIFIED
    return identified and all(c.agreed for c in report.cross_checks)


SUITES: list[tuple[str, Callable[[], bool]]] = [
    ("group-core", _group_core),
    ("fp-group", _fp),
    ("groupoid", _groupoid),
    ("gset-galois", _gset),
    ("stone", _stone),
    ("orbit-nerve", _orbit_nerve),
    ("pipelines", _pipelines),
]


def run_all() -> int:
    """Run every suite, printing ``ok`` or ``FAIL`` and its name; returns
    the number of failed suites."""
    failures = 0
    for name, check in SUITES:
        passed = check()
        print(f"{'ok' if passed else 'FAIL':4} {name}")
        failures += not passed
    return failures
