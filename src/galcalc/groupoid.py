"""Finite groupoids: deloopings, homotopy invariants, and hom-groupoids.

The hom-groupoid Hom(BG, BG') is computed two ways: by the structural
formula (components = conjugacy classes of homomorphisms, automorphisms
= centralizer of the image) and by a definitional brute-force functor
enumeration.  The two paths are kept independent so they can be checked
against each other; the brute force is an oracle for the tests and the
benchmark's oracle mode, and no CLI command runs it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable

from .catalogue import name_group
from .errors import BadBasepoint, CertificateError, SizeError
from .gset import GSet
from .orbitcat import FinCategory, Morphism
from .perm import (
    GroupHom,
    Perm,
    PermGroup,
    Subgroup,
    find_isomorphism,
    hom_classes_with_centralizers,
    homomorphisms,
)

DELOOPING_BOUND = 512
FUNCTOR_SEARCH_BOUND = 10**4


class FinGroupoid(FinCategory):
    """A finite category in which every morphism is invertible."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._check_invertible()

    def _check_invertible(self) -> None:
        # one pass over the table, which checks every composite as it is
        # built: i is invertible iff j o i, i o j are ids
        ids, table = self.identity_of, self.compose_table
        invertible = [False] * len(self.morphisms)
        for (j, i), k in table.items():
            m = self.morphisms[i]
            if k == ids[m.src] and table.get((i, j)) == ids[m.dst]:
                invertible[i] = True
        for i, ok in enumerate(invertible):
            if not ok:
                raise ValueError(f"morphism {i} has no inverse")


def delooping(G: PermGroup) -> FinGroupoid:
    """BG: one object whose automorphisms are the group elements."""
    if G.order > DELOOPING_BOUND:
        raise SizeError(f"delooping bound {DELOOPING_BOUND} exceeded")
    els, index = G.elements, G.element_index
    morphisms = [Morphism(0, 0, g) for g in els]
    return FinGroupoid(
        [0], morphisms, [index[G.identity]], lambda h, g: index[els[h] * els[g]]
    )


def disjoint_union(*pieces: FinGroupoid) -> FinGroupoid:
    """Disjoint union of groupoids, objects retagged by piece index."""
    objects: list[Hashable] = []
    morphisms: list[Morphism] = []
    identity_of: list[int] = []
    offsets: list[int] = []  # the index of each piece's first morphism
    for pi, X in enumerate(pieces):
        obj_off = len(objects)
        offsets.append(len(morphisms))
        objects.extend((pi, o) for o in X.objects)
        morphisms.extend(
            Morphism(m.src + obj_off, m.dst + obj_off, (pi, m.label))
            for m in X.morphisms
        )
        identity_of.extend(mi + offsets[pi] for mi in X.identity_of)

    def compose(g: int, f: int) -> int:  # within piece pi, at its offset
        pi = morphisms[f].label[0]
        if morphisms[g].label[0] != pi:
            raise KeyError((g, f))
        off = offsets[pi]
        return off + pieces[pi].compose(g - off, f - off)

    return FinGroupoid(objects, morphisms, identity_of, compose)


def action_groupoid(X: GSet) -> FinGroupoid:
    """The action groupoid: objects are points, morphisms are (g, x)."""
    G = X.group
    els, eindex = G.elements, G.element_index
    n = len(X.points)
    morphisms = []
    mindex: dict[tuple[int, int], int] = {}
    for x in range(n):
        for gi, g in enumerate(els):
            mindex[(gi, x)] = len(morphisms)
            morphisms.append(Morphism(x, X.act(g, x), (g, x)))
    identity_of = [mindex[(eindex[G.identity], x)] for x in range(n)]

    def compose(s: int, f: int) -> int:  # (g, x), then (h, g x): (h g, x)
        (g, x), (h, y) = morphisms[f].label, morphisms[s].label
        if y != morphisms[f].dst:
            raise KeyError((s, f))
        return mindex[(eindex[h * g], x)]

    return FinGroupoid(list(range(n)), morphisms, identity_of, compose)


def pi0(X: FinCategory) -> list[list[Hashable]]:
    """Isomorphism classes of objects (zigzag = direct connectivity)."""
    return [[X.objects[o] for o in comp] for comp in X.object_components()]


def pi1(X: FinGroupoid, basepoint: Hashable) -> PermGroup:
    """Automorphism group of the basepoint as a permutation group.

    The group acts by postcomposition on the set of morphisms into the
    basepoint, which is a faithful action.
    """
    try:
        bp = X.objects.index(basepoint)
    except ValueError:
        raise BadBasepoint(f"{basepoint!r} is not an object") from None
    loops = [i for i, m in enumerate(X.morphisms) if m.src == bp and m.dst == bp]
    anchored = [i for i, m in enumerate(X.morphisms) if m.dst == bp]
    pos = {mi: k for k, mi in enumerate(anchored)}
    gens = []
    for a in loops:
        gens.append(Perm(pos[X.compose_table[(a, m)]] for m in anchored))
    group = PermGroup(len(anchored), gens)
    if group.order != len(loops):
        raise CertificateError(
            "postcomposition action on the basepoint is not faithful"
        )
    return group


@dataclass(frozen=True)
class HomGroupoidReport:
    """Components of Hom(BG, BG') with automorphism groups.

    One entry per conjugacy class of homomorphisms G -> G': the least
    representative and the centralizer in G' of its image.
    """

    source: PermGroup
    target: PermGroup
    components: tuple[tuple[GroupHom, Subgroup], ...]

    def component_count(self) -> int:
        return len(self.components)

    def automorphism_orders(self) -> list[int]:
        return [c.order for _, c in self.components]

    def to_json(self) -> dict:
        comps = []
        for rep, cent in self.components:
            cgroup = cent.as_group()
            comps.append(
                {
                    "representative": {
                        "generator_images": [list(p.images) for p in rep.gen_images]
                    },
                    "automorphisms": {
                        "order": cent.order,
                        "group": name_group(cgroup),
                    },
                }
            )
        return {
            "schema": 1,
            "source": self.source.name,
            "target": self.target.name,
            "components": comps,
        }


def hom_groupoid(G: PermGroup, H: PermGroup) -> HomGroupoidReport:
    """Hom(BG, BH) by the structural formula.

    Components are conjugacy classes of homomorphisms; the automorphism
    group at a representative f is the centralizer in H of f(G), which is
    the centralizer of the generator images f(s).  Both come from one
    conjugation sweep per class (``hom_classes_with_centralizers``).
    """
    components = tuple(
        (cls[0], cent) for cls, cent in hom_classes_with_centralizers(G, H)
    )
    return HomGroupoidReport(G, H, components)


def hom_groupoid_bruteforce(G: PermGroup, H: PermGroup) -> FinGroupoid:
    """Hom(BG, BH) as a definitional functor groupoid.

    Objects are all functors BG -> BH (i.e. all homomorphisms); morphisms
    are all natural isomorphisms, i.e. elements x of H with
    x f(g) x^-1 = f'(g) for every g.  Serves as the oracle for the
    structural formula.
    """
    if G.order * H.order > FUNCTOR_SEARCH_BOUND:
        raise SizeError("functor enumeration bound exceeded")
    homs = homomorphisms(G, H)
    hindex = {f.key(): i for i, f in enumerate(homs)}
    morphisms = []
    mindex: dict[tuple[int, Perm], int] = {}
    for fi, f in enumerate(homs):
        for x in H.elements:
            xi = x.inverse()
            conj_key = tuple((x * img * xi).images for img in f.gen_images)
            ti = hindex[conj_key]
            mindex[(fi, x)] = len(morphisms)
            morphisms.append(Morphism(fi, ti, (fi, x)))
    identity_of = [mindex[(fi, H.identity)] for fi in range(len(homs))]

    def compose(s: int, f: int) -> int:  # (fi, x), then (x f x^-1, y): (fi, y x)
        (fi, x), (gi, y) = morphisms[f].label, morphisms[s].label
        if gi != morphisms[f].dst:
            raise KeyError((s, f))
        return mindex[(fi, y * x)]

    return FinGroupoid(
        list(range(len(homs))), morphisms, identity_of, compose, object_info=homs
    )


def hom_groupoids_agree(G: PermGroup, H: PermGroup) -> bool:
    """Check the structural formula against the brute-force oracle.

    Compares component counts and, per component, the isomorphism type of
    the automorphism group of the report against pi1 of the functor
    groupoid at the matching object.
    """
    report = hom_groupoid(G, H)
    brute = hom_groupoid_bruteforce(G, H)
    comps = brute.object_components()
    if len(comps) != report.component_count():
        return False
    homs = brute.object_info
    assert homs is not None
    for rep, cent in report.components:
        obj = next(
            i for i, f in enumerate(homs) if f.key() == rep.key()
        )
        auts = pi1(brute, obj)
        if find_isomorphism(auts, cent.as_group()) is None:
            return False
    return True
