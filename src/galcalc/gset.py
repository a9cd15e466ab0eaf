"""Finite G-sets: the Galois category of a finite group at desk scale.

A GSet stores a left action of a PermGroup on a finite carrier.  The
action maps of all group elements are built from generator images by
``perm.extend_generator_map``, the one routine that extends generator
images along the group's Cayley edges and proves them multiplicative.
Torsors carry an auxiliary commuting action.  Torsors are classified in
one pass by a canonical form, the least transport of the base action
along the automorphisms of the auxiliary action; the pairwise search
over carrier bijections compatible with both actions is kept as the
oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Hashable, Sequence

from .errors import CertificateError, IncompatibleGroups, ParseError, SizeError
from .perm import GroupHom, Perm, PermGroup, Subgroup, _as_perm, _right_mul
from .perm import extend_generator_map, find_isomorphism, homomorphisms
from .stone import BooleanAlgebra

TORSOR_CARRIER_BOUND = 24


class GSet:
    """A finite set with a left action of a permutation group.

    The carrier permutations of the generators are extended to action
    maps of all group elements by ``perm.extend_generator_map``, which
    checks every Cayley edge of the group and so proves the action law
    g(h(x)) = (gh)(x); a generator assignment that is not an action
    raises ValueError at construction time.
    """

    def __init__(
        self,
        group: PermGroup,
        points: Sequence[Hashable],
        gen_images: Sequence[Sequence[int]],
    ):
        self.group = group
        self.points = tuple(points)
        n = len(self.points)
        if len(gen_images) != len(group.generators):
            raise ValueError("need one image list per group generator")
        gen_perms = []
        for img in gen_images:
            img = tuple(img)
            if sorted(img) != list(range(n)):
                raise ValueError("generator image is not a permutation of the carrier")
            gen_perms.append(_as_perm(img))
        self._gen_maps = tuple(gen_perms)
        maps = extend_generator_map(group, gen_perms, Perm.identity(n))
        if maps is None:
            raise ValueError("generator images do not define a group action")
        self._maps = maps

    @classmethod
    def regular(cls, group: PermGroup) -> "GSet":
        """The group acting on itself by left multiplication."""
        els, index = group.elements, group.element_index
        gen_images = [
            [index[gen * x] for x in els] for gen in group.generators
        ]
        return cls(group, els, gen_images)

    @classmethod
    def trivial(cls, group: PermGroup, n: int) -> "GSet":
        return cls(group, range(n), [list(range(n)) for _ in group.generators])

    @classmethod
    def natural(cls, group: PermGroup) -> "GSet":
        """The defining action on the permutation points."""
        pts = range(group.degree)
        return cls(group, pts, group.generators)

    @classmethod
    def coset_action(cls, H: Subgroup) -> "GSet":
        """The parent group's left action on the cosets gH, numbered as
        ``Subgroup.cosets`` numbers them: x sends coset c to the coset of
        x * reps[c]."""
        reps, index = H.cosets()
        group = H.parent
        gen_images = [[index[x * r] for r in reps] for x in group.generators]
        return cls(group, [f"c{i}" for i in range(len(reps))], gen_images)

    def __len__(self) -> int:
        return len(self.points)

    def __repr__(self) -> str:
        return f"GSet({len(self.points)} points over {self.group!r})"

    def act(self, g: Perm, point: int) -> int:
        return self._maps[g][point]

    def action_map(self, g: Perm) -> tuple[int, ...]:
        return self._maps[g]

    def orbits(self) -> list[tuple[int, ...]]:
        """Orbit partition of the carrier, in least-point order."""
        n = len(self.points)
        seen = [False] * n
        out = []
        for start in range(n):
            if seen[start]:
                continue
            orbit = {start}
            frontier = [start]
            while frontier:
                x = frontier.pop()
                for gm in self._gen_maps:
                    for y in (gm[x], gm.index(x)):
                        if y not in orbit:
                            orbit.add(y)
                            frontier.append(y)
            for x in orbit:
                seen[x] = True
            out.append(tuple(sorted(orbit)))
        return out

    def is_transitive(self) -> bool:
        return len(self.orbits()) <= 1


def parse_gset(text: str) -> GSet:
    """Parse gset:<group-spec>:<size>:<gen-index>:<images>;... text.

    Each ;-separated chunk maps one group generator (by 0-based index) to
    its permutation of the carrier {0, ..., size-1}, written as a
    space-separated image list.  Every generator must appear exactly once.
    """
    from .catalogue import group_from_catalogue

    parts = text.strip().split(":", 3)
    if len(parts) != 4 or parts[0] != "gset":
        raise ParseError(f"bad gset text {text!r}")
    group = group_from_catalogue(parts[1])
    try:
        size = int(parts[2])
    except ValueError as exc:
        raise ParseError(f"bad carrier size in {text!r}") from exc
    if size < 0:
        raise ParseError("carrier size must be >= 0")
    images: dict[int, list[int]] = {}
    for chunk in parts[3].split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        head, _, body = chunk.partition(":")
        try:
            gi = int(head)
            img = [int(tok) for tok in body.split()]
        except ValueError as exc:
            raise ParseError(f"bad generator chunk {chunk!r}") from exc
        if gi in images:
            raise ParseError(f"generator {gi} mapped twice")
        if not (0 <= gi < len(group.generators)):
            raise ParseError(f"generator index {gi} out of range")
        if len(img) != size:
            raise ParseError(f"image list for generator {gi} has wrong length")
        images[gi] = img
    if sorted(images) != list(range(len(group.generators))):
        raise ParseError("every group generator needs exactly one image list")
    gen_images = [images[i] for i in range(len(group.generators))]
    try:
        return GSet(group, range(size), gen_images)
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def format_gset(X: GSet) -> str:
    """Inverse of parse_gset for groups with catalogue names."""
    if X.group.name is None:
        raise ValueError("group has no spec name")
    chunks = [
        f"{i}:{' '.join(str(v) for v in gm)}"
        for i, gm in enumerate(X._gen_maps)
    ]
    return f"gset:{X.group.name}:{len(X.points)}:{';'.join(chunks)}"


def _require_same_group(X: GSet, Y: GSet) -> None:
    if X.group is not Y.group and not X.group.same_group(Y.group):
        raise IncompatibleGroups("G-sets live over different groups")


def product(X: GSet, Y: GSet) -> GSet:
    """Product with the diagonal action."""
    _require_same_group(X, Y)
    pairs = [(i, j) for i in range(len(X.points)) for j in range(len(Y.points))]
    pos = {p: k for k, p in enumerate(pairs)}
    labels = [(X.points[i], Y.points[j]) for i, j in pairs]
    gen_images = []
    for gi in range(len(X.group.generators)):
        gx, gy = X._gen_maps[gi], Y._gen_maps[gi]
        gen_images.append([pos[(gx[i], gy[j])] for i, j in pairs])
    return GSet(X.group, labels, gen_images)


def coproduct(X: GSet, Y: GSet) -> GSet:
    """Disjoint union with the componentwise action."""
    _require_same_group(X, Y)
    nx = len(X.points)
    labels = [("L", p) for p in X.points] + [("R", p) for p in Y.points]
    gen_images = []
    for gi in range(len(X.group.generators)):
        gx, gy = X._gen_maps[gi], Y._gen_maps[gi]
        gen_images.append(list(gx) + [nx + v for v in gy])
    return GSet(X.group, labels, gen_images)


def quotient_by_action(X: GSet, aux: GSet) -> GSet:
    """Orbit set of a commuting auxiliary action, with induced G-action."""
    if aux.points != X.points:
        raise IncompatibleGroups("auxiliary action lives on a different carrier")
    _check_commuting(X, aux)
    orbs = aux.orbits()
    orbit_of = {}
    for oi, orb in enumerate(orbs):
        for x in orb:
            orbit_of[x] = oi
    gen_images = []
    for gi in range(len(X.group.generators)):
        gm = X._gen_maps[gi]
        img = [orbit_of[gm[orb[0]]] for orb in orbs]
        # well-definedness: commuting actions send aux-orbits to aux-orbits
        for oi, orb in enumerate(orbs):
            if any(orbit_of[gm[x]] != img[oi] for x in orb):
                raise IncompatibleGroups("auxiliary action does not commute")
        gen_images.append(img)
    return GSet(X.group, [f"o{i}" for i in range(len(orbs))], gen_images)


def _check_commuting(X: GSet, aux: GSet) -> None:
    """am o gm == gm o am for each pair of generator maps, both sides one
    tuple built in C (``_right_mul(s)(t)`` is t o s)."""
    for gm in X._gen_maps:
        after_gm = _right_mul(gm)
        for am in aux._gen_maps:
            if after_gm(am) != _right_mul(am)(gm):
                raise IncompatibleGroups("actions do not commute")


@dataclass(frozen=True)
class TorsorCandidate:
    """A G-set with a commuting auxiliary group action on the same carrier.

    The commutation invariant is verified at construction.
    """

    base: GSet
    aux: GSet

    def __post_init__(self):
        if self.aux.points != self.base.points:
            raise IncompatibleGroups("torsor actions on different carriers")
        _check_commuting(self.base, self.aux)


def is_torsor(T: TorsorCandidate) -> bool:
    """True iff the auxiliary action is free and transitive."""
    if not T.aux.is_transitive():
        return False
    if len(T.base.points) != T.aux.group.order:
        return False
    n = len(T.base.points)
    ident = T.aux.group.identity
    for a in T.aux.group.elements:
        if a == ident:
            continue
        am = T.aux.action_map(a)
        if any(am[x] == x for x in range(n)):
            return False
    return True


def _right_regular(Gp: PermGroup) -> GSet:
    """Gp on its elements by right multiplication, stored as h . x = x h^-1."""
    index = Gp.element_index
    gen_images = [[index[x * s.inverse()] for x in Gp.elements] for s in Gp.generators]
    return GSet(Gp, Gp.elements, gen_images)


def _induced_base(phi: GroupHom, left: GSet) -> GSet:
    """The source acting through phi by left multiplication on the target's
    elements: each generator s acts as phi(s) does in ``left``, the
    target's left-regular G-set (``GSet.regular``), the carrier of
    ``_right_regular`` too."""
    gen_images = [left.action_map(phi(s)) for s in phi.source.generators]
    return GSet(phi.source, left.points, gen_images)


def torsor_from_hom(phi: GroupHom) -> TorsorCandidate:
    """The target-group torsor induced by a homomorphism: the source acts
    on the target's elements on the left through phi, the target on the right."""
    aux = _right_regular(phi.target)
    return TorsorCandidate(_induced_base(phi, GSet.regular(phi.target)), aux)


def torsor_isomorphic(T1: TorsorCandidate, T2: TorsorCandidate) -> bool:
    """Brute-force search for a bijection commuting with both actions.

    Both candidates must be torsors; a compatible bijection is determined
    by the image of one carrier point, so all carrier points are tried as
    that image.
    """
    if len(T1.base.points) > TORSOR_CARRIER_BOUND:
        raise SizeError(f"torsor carrier bound {TORSOR_CARRIER_BOUND} exceeded")
    if T1.base.group is not T2.base.group and not T1.base.group.same_group(
        T2.base.group
    ):
        raise IncompatibleGroups("torsors over different groups")
    if not T1.aux.group.same_group(T2.aux.group):
        return False
    if len(T1.base.points) != len(T2.base.points):
        return False
    if not (is_torsor(T1) and is_torsor(T2)):
        raise ValueError("torsor_isomorphic requires torsor candidates")
    n = len(T1.base.points)
    aux_els = T1.aux.group.elements
    x0 = 0
    for y in range(n):
        psi = [None] * n
        ok = True
        for a in aux_els:
            u = T1.aux.act(a, x0)
            v = T2.aux.act(a, y)
            if psi[u] is None:
                psi[u] = v
            elif psi[u] != v:
                ok = False
                break
        if not ok or any(p is None for p in psi):
            continue
        good = True
        for gi in range(len(T1.base.group.generators)):
            gm1 = T1.base._gen_maps[gi]
            gm2 = T2.base._gen_maps[gi]
            if any(psi[gm1[x]] != gm2[psi[x]] for x in range(n)):
                good = False
                break
        if good:
            return True
    return False


def _aux_automorphisms(
    aux: GSet,
) -> list[tuple[tuple[int, ...], Callable[[Sequence[int]], tuple[int, ...]]]]:
    """The bijections psi_y(a . 0) = a . y of the carrier, one per point y,
    each with the bound map t -> t o psi_y^-1: for a free transitive aux,
    its automorphisms."""
    maps = [aux.action_map(a) for a in aux.group.elements]
    return [
        (tuple([v for _, v in sorted((m[0], m[y]) for m in maps)]),
         _right_mul([u for _, u in sorted((m[y], m[0]) for m in maps)]))
        for y in range(len(aux.points))
    ]


def _least_transport(base: GSet, autos) -> tuple[int, ...]:
    """Least psi o s o psi^-1 over ``autos``, s running over the base
    generator maps, flattened one generator map after another: psi o s is
    ``_right_mul(s)(psi)``, and the bound inverse map of ``autos`` takes it
    on to psi o s o psi^-1, each a tuple built in C."""
    spread = [_right_mul(gm) for gm in base._gen_maps]  # psi -> psi o s
    return min(sum([after(s(psi)) for s in spread], ()) for psi, after in autos)


def classify_torsors(G: PermGroup, Gp: PermGroup) -> list[TorsorCandidate]:
    """Isomorphism classes of Gp-torsors in the category of finite G-sets.

    Every torsor is isomorphic to one induced by a homomorphism, and these
    share one right-regular aux Gp-set.  A bijection commuting with aux is
    psi_y(a . 0) = a . y for y its image of 0; these psi_y are the
    automorphisms of aux.  So two candidates are isomorphic exactly when
    some psi_y conjugates the base generator maps of one onto the other's,
    that is when their least conjugates over all y, the canonical keys,
    are equal.  One pass over ``homomorphisms(G, Gp)`` collects the keys;
    each class is represented by its first torsor in that order.
    """
    if Gp.order > TORSOR_CARRIER_BOUND:
        raise SizeError(f"torsor carrier bound {TORSOR_CARRIER_BOUND} exceeded")
    aux, left = _right_regular(Gp), GSet.regular(Gp)
    homs = homomorphisms(G, Gp)
    torsors = [TorsorCandidate(_induced_base(f, left), aux) for f in homs]
    # the candidates share aux and the carrier size, so one check covers all
    if not is_torsor(torsors[0]):
        raise CertificateError(
            "a torsor induced by a homomorphism is not free and transitive"
        )
    autos = _aux_automorphisms(aux)
    classes: dict[tuple[int, ...], TorsorCandidate] = {}
    for T in torsors:
        classes.setdefault(_least_transport(T.base, autos), T)
    return list(classes.values())


def subterminal_boolean_algebra(X: GSet) -> BooleanAlgebra:
    """The Boolean algebra of G-stable subsets: unions of orbits."""
    orbs = X.orbits()
    if len(orbs) > 16:
        raise SizeError("more than 16 orbits")
    return BooleanAlgebra.powerset(tuple(range(len(orbs))))


def reconstruct_pi1(G: PermGroup) -> tuple[PermGroup, GroupHom]:
    """Automorphism group of the regular G-set, with isomorphism witness.

    Candidate self-maps are forced by equivariance to be right
    multiplications; each is verified to commute with the full left
    action, the collection is closed into a permutation group, and an
    isomorphism onto G is found by generator-image search.
    """
    X = GSet.regular(G)
    els, index = G.elements, G.element_index
    n = len(els)
    auts = []
    for h in els:
        sigma = tuple(index[els[x] * h] for x in range(n))
        ok = True
        for g in G.elements:
            mg = X.action_map(g)
            if any(sigma[mg[x]] != mg[sigma[x]] for x in range(n)):
                ok = False
                break
        if ok:
            auts.append(Perm(sigma))
    group = PermGroup(n, auts, name=None, max_order=max(n, G.max_order))
    if not group.order == len(auts) == n:
        raise CertificateError("right multiplications do not form a copy of G")
    witness = find_isomorphism(group, G)
    if witness is None:
        raise CertificateError("no isomorphism from the automorphism group onto G")
    return group, witness
