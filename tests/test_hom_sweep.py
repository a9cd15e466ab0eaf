"""The hom layer's conjugation sweep and its Hom(G, H) record.

``hom_classes_with_centralizers`` reads each class of homomorphisms and
the centralizer of its representative's image off one sweep; the oracles
are the pairwise ``are_conjugate_homs`` partition and
``PermGroup.centralizer``.  ``homomorphisms`` searches once per pair of
groups and hands out a fresh list on every call.
"""

import subprocess
import sys
from pathlib import Path

import galcalc
import galcalc.perm as perm
from galcalc.catalogue import catalogue_group, group_from_catalogue, standard_catalogue
from galcalc.groupoid import hom_groupoid
from galcalc.gset import classify_torsors
from galcalc.perm import (
    Perm,
    PermGroup,
    are_conjugate_homs,
    hom_classes_with_centralizers,
    hom_conjugacy_classes,
    homomorphisms,
)


SPECS = standard_catalogue(12)  # C2xC2xC2 included
PAIRWISE_HOMS = 200


def _partition_by_conjugacy(homs):
    """The oracle: ``homs`` (sorted) grouped by pairwise conjugacy to the
    first member of each group."""
    classes = []
    for f in homs:
        home = next((c for c in classes if are_conjugate_homs(c[0], f)), None)
        if home is None:
            classes.append([f])
        else:
            home.append(f)
    return classes


def test_sweep_matches_the_centralizer_oracle_on_every_pair_up_to_order_12():
    # every member conjugate to its class's first, the classes listing Hom,
    # and each class of |H| / |C_H(f)| members by the oracle centralizer: so
    # each is a whole conjugacy class, the pairwise partition's, without
    # testing every pair of classes
    assert "C2xC2xC2" in SPECS and len(SPECS) == 23
    for a in SPECS:
        for b in SPECS:
            G, H = catalogue_group(a), catalogue_group(b)
            swept = hom_classes_with_centralizers(G, H)
            classes = [cls for cls, _ in swept]
            assert classes == hom_conjugacy_classes(G, H)
            listed = sorted(f.key() for cls in classes for f in cls)
            assert listed == [f.key() for f in homomorphisms(G, H)], (a, b)
            for cls, cent in swept:
                assert cls == sorted(cls, key=lambda f: f.key())
                assert all(are_conjugate_homs(cls[0], f) for f in cls)
                assert cent == H.centralizer(cls[0].gen_images), (a, b)
                assert len(cls) * cent.order == H.order


def test_sweep_matches_the_pairwise_conjugacy_partition():
    # the quadratic oracle on every pair of at most PAIRWISE_HOMS
    # homomorphisms: all but C2xC2xC2 -> C2xC2xC2, whose 512 singleton
    # classes alone take longer than the rest, and which the centralizer
    # oracle above covers
    for a in SPECS:
        for b in SPECS:
            G, H = catalogue_group(a), catalogue_group(b)
            homs = homomorphisms(G, H)
            if len(homs) > PAIRWISE_HOMS:
                continue
            classes = [cls for cls, _ in hom_classes_with_centralizers(G, H)]
            assert classes == _partition_by_conjugacy(homs), (a, b)


def test_sweep_makes_no_perm_product_and_hom_groupoid_no_centralizer(monkeypatch):
    G, H = group_from_catalogue("D8"), group_from_catalogue("S4")
    homomorphisms(G, H)  # the search itself is not the sweep
    products = []
    mul = Perm.__mul__

    def counted(p, q):
        products.append(1)
        return mul(p, q)

    def refused(self, elems):
        raise AssertionError("hom_groupoid reached PermGroup.centralizer")

    monkeypatch.setattr(Perm, "__mul__", counted)
    monkeypatch.setattr(PermGroup, "centralizer", refused)
    swept = hom_classes_with_centralizers(G, H)
    assert products == []
    report = hom_groupoid(G, H)
    assert [(cls[0], cent) for cls, cent in swept] == list(report.components)


def test_sweep_rejects_a_wrong_stabilizer_under_optimize():
    # the orbit-stabilizer certificate is an explicit check, so python -O
    # keeps it: a sweep that loses one fixing element gives a stabilizer
    # whose order times the class size is not |H|
    code = (
        "import galcalc.perm as perm\n"
        "from galcalc.catalogue import catalogue_group\n"
        "from galcalc.errors import CertificateError\n"
        "sweep = perm._conjugation_sweep\n"
        "def wrong(images, conjugators):\n"
        "    orbit, fixed = sweep(images, conjugators)\n"
        "    return orbit, fixed[1:]\n"
        "perm._conjugation_sweep = wrong\n"
        "assert False, 'asserts are stripped'\n"
        "try:\n"
        "    perm.hom_classes_with_centralizers(\n"
        "        catalogue_group('C2'), catalogue_group('S3'))\n"
        "except CertificateError:\n"
        "    print('rejected')\n"
        "else:\n"
        "    print('accepted')\n"
    )
    src = str(Path(galcalc.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": src},
        timeout=60,
        check=True,
    )
    assert out.stdout.strip() == "rejected"


def test_homomorphisms_returns_equal_but_distinct_lists():
    G, H = group_from_catalogue("C4"), group_from_catalogue("D8")
    first = homomorphisms(G, H)
    second = homomorphisms(G, H)
    assert first == second and first is not second
    first.pop()
    first.reverse()
    assert homomorphisms(G, H) == second
    assert len(second) == 8


def test_classify_torsors_after_hom_groupoid_searches_once(monkeypatch):
    extend = perm.extend_generator_map
    calls = []

    def counted(*args):
        calls.append(1)
        return extend(*args)

    monkeypatch.setattr(perm, "extend_generator_map", counted)
    G, H = group_from_catalogue("C2xC2"), group_from_catalogue("S3")
    report = hom_groupoid(G, H)
    searched = len(calls)
    assert searched > 0
    torsors = classify_torsors(G, H)
    assert len(calls) == searched
    assert len(torsors) == report.component_count()
    # another target, or a fresh copy of the same one, is a new search
    homomorphisms(G, group_from_catalogue("S3"))
    assert len(calls) == 2 * searched
