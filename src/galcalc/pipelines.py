"""Theorem-level Galois group computations with independent cross-checks.

Three pipelines, each for one invariant of a finite group G over a
separably closed field k of characteristic p:

* ``galois_modg``     - the fundamental group of the category of k-linear
  G-representations: G modulo the normal closure of its order-p elements.
* ``galois_cochains`` - the fundamental group of modules over cochains on
  BG: G modulo one normal closure, of its elements of order p or prime
  to p, which kills the p-residual and the order-p elements together,
  leaving a p-group quotient.
* ``galois_stmod``    - the fundamental group of the stable module
  category: the fundamental group of the nerve of the reduced orbit
  category on elementary abelian p-subgroups, its order certified first,
  then identified among the finite candidates of that order, and
  cross-checked against whichever special-case formulas
  apply (central order-p element, Sylow triple intersections, rank-one
  Weyl group).  The nerve is built on the skeleton, one object per
  conjugacy class of subgroups: an equivalent category, so its nerve is
  homotopy equivalent and has the same fundamental group.  The family
  of nontrivial elementary abelian p-subgroups is closed under
  conjugation and nontrivial intersection as it stands, so one walk
  over its conjugacy classes gives the skeleton, and the skeleton's
  maximal objects are its maximal classes.

``van_kampen_pushout`` wraps the pushout of presentations with its
abelianization and either an infiniteness certificate (free rank or
amalgam) or a bounded identification of the finite answer.

Every report carries a fixed note that the arithmetic factor of the
Galois group is omitted: the ground field is assumed separably closed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .catalogue import catalogue_group, standard_catalogue
from .errors import CosetLimitExceeded, POrderError
from .fp import (
    DEFAULT_MAX_COSETS,
    FpGroup,
    FpMap,
    INCONCLUSIVE,
    INFINITE,
    IdentificationResult,
    abelianization,
    coset_enumeration,
    identify_finite,
    pushout,
    simplify,
)
from .orbitcat import (
    FinCategory,
    conjugacy_class_representatives,
    nerve_pi1_presentation,
    orbit_category,
)
from .perm import PermGroup, Subgroup, find_isomorphism

# a pushout of certified order up to this bound is named from the catalogue
PUSHOUT_CANDIDATE_BOUND = 48

ARITHMETIC_NOTE = (
    "ground field assumed separably closed; the arithmetic factor "
    "Gal(k_sep/k) of the Galois group is omitted"
)

PATH_MODG = "ModG"
PATH_COCHAINS = "Cochains"
PATH_STMOD_NERVE = "StmodNerve"
PATH_CENTRAL = "StmodCentralCase"
PATH_SYLOW = "StmodSylowTriple"
PATH_WEYL = "StmodWeylRankOne"


def galois_modg(G: PermGroup, p: int) -> PermGroup:
    """G modulo the normal closure of its order-p elements."""
    _require_prime(p)
    N = G.normal_closure(G.order_p_elements(p))
    return G.quotient(N)


def galois_cochains(G: PermGroup, p: int) -> PermGroup:
    """The maximal p-group quotient of G with order-p elements killed.

    G modulo one normal closure: that of the elements of order prime to p
    (whose normal closure is the p-residual) together with the elements of
    order p.  The result is always a p-group and a quotient of the
    representation-category answer.
    """
    _require_prime(p)
    N = G.normal_closure(
        g for g, o in zip(G.elements, G.element_orders) if o == p or o % p
    )
    return G.quotient(N)


def weyl_group(G: PermGroup, H: Subgroup) -> PermGroup:
    """N_G(H)/H, the Weyl group of a subgroup."""
    NG = G.normalizer(H).as_group()
    return NG.quotient(NG.subgroup(H.members))


def has_central_order_p(G: PermGroup, p: int) -> bool:
    """True iff the center contains an element of order exactly p."""
    _require_prime(p)
    return any(z.order() == p for z in G.center().members)


def sylow_triple_condition(G: PermGroup, p: int) -> bool:
    """True iff every triple of Sylow p-subgroups intersects nontrivially.

    Triples are taken with repetition, so pairwise and single
    intersections are covered; a p'-group fails (its Sylow is trivial).
    """
    _require_prime(p)
    sylows = [S.bits for S in G.sylow_subgroups(p)]
    # the identity is the least element, so the trivial subgroup is bit 0
    triples = itertools.combinations_with_replacement(sylows, 3)
    return all(a & b & c != 1 for a, b, c in triples)


@dataclass(frozen=True)
class CrossCheck:
    path: str
    agreed: bool
    detail: str = ""

    def to_json(self) -> dict:
        return {"path": self.path, "agreed": self.agreed, "detail": self.detail}


@dataclass
class GaloisReport:
    """Result record of a pipeline run.

    ``result_perm`` is set for the pipelines that land directly in a
    permutation group; the nerve pipeline stores the raw and simplified
    presentations plus the identification outcome.  Cross-check
    agreement always comes from an isomorphism test, never from a name
    comparison.
    """

    group_spec: str
    prime: int
    theorem_path: str
    result_perm: Optional[PermGroup] = None
    presentation: Optional[FpGroup] = None
    simplified: Optional[FpGroup] = None
    identification: Optional[IdentificationResult] = None
    pi0_components: Optional[int] = None
    cross_checks: list[CrossCheck] = field(default_factory=list)
    note: str = ARITHMETIC_NOTE

    def result_group(self) -> Optional[PermGroup]:
        if self.result_perm is not None:
            return self.result_perm
        if self.identification is not None and self.identification.candidate is not None:
            return self.identification.candidate
        return None

    def to_json(self) -> dict:
        from .catalogue import name_group

        result: dict = {}
        if self.result_perm is not None:
            result = {
                "kind": "perm",
                "order": self.result_perm.order,
                "group": name_group(self.result_perm),
            }
        elif self.identification is not None:
            result = {
                "kind": "fp",
                "identification": self.identification.to_json(),
            }
        out = {
            "schema": 1,
            "input": {"group": self.group_spec, "prime": self.prime},
            "theorem_path": self.theorem_path,
            "result": result,
            "cross_checks": [c.to_json() for c in self.cross_checks],
            "note": self.note,
        }
        if self.presentation is not None:
            out["presentation"] = self.presentation.spec_text()
        if self.simplified is not None:
            out["simplified"] = self.simplified.spec_text()
        if self.pi0_components is not None:
            out["pi0_components"] = self.pi0_components
        return out


def stmod_candidates(
    G: PermGroup,
    modg: PermGroup,
    maximal: Sequence[Subgroup],
    order: int,
) -> list[PermGroup]:
    """Candidate pool for identifying a nerve fundamental group of the
    certified ``order``.

    In order of precedence: the trivial group, the catalogue groups of
    that order (none above |G|), the representation-category quotient
    ``modg``, and the Weyl group of each representative in ``maximal``,
    one per class of maximal elementary abelian p-subgroups: every
    special-case answer lies here.
    """
    specs = standard_catalogue(order, exact=True) if order <= G.order else []
    pool: list[PermGroup] = [catalogue_group("C1")]
    pool += [catalogue_group(spec) for spec in specs if spec != "C1"]
    modg.name = modg.name or "modg-quotient"
    pool.append(modg)
    for i, H in enumerate(maximal):
        W = weyl_group(G, H)
        W.name = W.name or f"weyl-class-{i}"
        pool.append(W)
    return pool


def galois_stmod(
    G: PermGroup, p: int, max_cosets: int = DEFAULT_MAX_COSETS
) -> GaloisReport:
    """Galois group of the stable module category via the orbit nerve.

    Requires p to divide |G| (otherwise the category is trivial and its
    Galois groupoid empty: POrderError).  Presents the fundamental group
    of the nerve of the reduced orbit category on the nontrivial
    elementary abelian p-subgroups, built on its skeleton
    (``orbit_nerve``), whose maximal objects give the maximal classes.
    One coset enumeration certifies the order (Inconclusive at the coset
    bound); only then is the candidate pool of that order built and the
    group identified against it.  Every applicable special-case
    cross-check runs.
    """
    _require_prime(p)
    if G.order % p != 0:
        raise POrderError(
            f"prime {p} does not divide |G| = {G.order}: "
            "the stable module category is zero and its Galois groupoid empty"
        )
    modg = galois_modg(G, p)
    cat, components, F = orbit_nerve(G, G.elementary_abelian_p_subgroups(p))
    maximal = maximal_representatives(cat)
    Fs = simplify(F)
    weyl = None
    try:
        order = coset_enumeration(Fs, (), max_cosets=max_cosets)
    except CosetLimitExceeded:
        ident = IdentificationResult(status=INCONCLUSIVE)
    else:
        pool = stmod_candidates(G, modg, maximal, order)
        weyl = pool[-1]  # the pool ends with the Weyl group of maximal[-1]
        ident = identify_finite(Fs, pool, presimplify=False, certified_order=order)
    report = GaloisReport(
        group_spec=G.name or f"<order {G.order}>",
        prime=p,
        theorem_path=PATH_STMOD_NERVE,
        presentation=F,
        simplified=Fs,
        identification=ident,
        pi0_components=components,
    )
    return stmod_cross_check(G, p, report, modg, maximal, weyl)


def orbit_nerve(
    G: PermGroup, subs: Sequence[Subgroup]
) -> tuple[FinCategory, int, FpGroup]:
    """The skeleton of the reduced orbit category on ``subs``, its number
    of nerve components, and the nerve's pi1 presentation at the least
    object.

    ``subs`` is ``G.elementary_abelian_p_subgroups(p)``, every nontrivial
    elementary abelian p-subgroup in (order, member_key) order.  That
    family is closed under conjugation and under nontrivial intersection
    as it stands, so no closure runs.  The skeleton has one object per
    conjugacy class, the class's least member, so object 0 is the
    family's least member.  It is equivalent to the orbit category on
    the whole family, and equivalent categories have homotopy-equivalent
    nerves, so pi0 and pi1 are those of the full nerve.
    """
    cat = orbit_category(G, conjugacy_class_representatives(subs))
    F = nerve_pi1_presentation(cat, min(cat.objects))
    return cat, len(cat.object_components()), F


def maximal_representatives(cat: FinCategory) -> list[Subgroup]:
    """The subgroups at the objects of a skeletal orbit category that map
    to no other object, in object order.

    G/H -> G/K exists iff a conjugate of H lies in K, and distinct
    objects are not conjugate, so on the skeleton of a conjugation-closed
    family these are the representatives of its maximal classes.
    """
    below = {m.src for m in cat.morphisms if m.src != m.dst}
    return [H for o, H in enumerate(cat.object_info) if o not in below]


def stmod_cross_check(
    G: PermGroup,
    p: int,
    report: GaloisReport,
    modg: PermGroup,
    maximal: Sequence[Subgroup],
    weyl: Optional[PermGroup] = None,
) -> GaloisReport:
    """Record agreement with every special-case theorem that applies.

    Central order-p element and Sylow-triple cases compare against the
    representation-category quotient ``modg``; a single conjugacy class
    of rank-one maximal elementary abelians, ``maximal`` holding one
    representative per class, compares against its Weyl group.  The
    caller passes ``weyl``, the Weyl group of ``maximal[-1]``, when it
    has it already.  Isomorphism is tested on groups, never on names.
    """
    nerve_result = report.result_group()

    def agrees(target: PermGroup) -> bool:
        return (
            nerve_result is not None
            and find_isomorphism(nerve_result, target) is not None
        )

    checks = list(report.cross_checks)
    modg_paths = []
    if has_central_order_p(G, p):
        modg_paths.append(PATH_CENTRAL)
    if sylow_triple_condition(G, p):
        modg_paths.append(PATH_SYLOW)
    if modg_paths:
        # both cases compare against modg: one isomorphism test serves both
        modg_agreed = agrees(modg)
        detail = f"modg quotient has order {modg.order}"
        checks += [CrossCheck(path, modg_agreed, detail) for path in modg_paths]
    if len(maximal) == 1 and maximal[0].order == p:
        target = weyl if weyl is not None else weyl_group(G, maximal[0])
        checks.append(
            CrossCheck(
                PATH_WEYL,
                agrees(target),
                f"Weyl group has order {target.order}",
            )
        )
    report.cross_checks = checks
    return report


def modg_report(G: PermGroup, p: int) -> GaloisReport:
    return GaloisReport(
        group_spec=G.name or f"<order {G.order}>",
        prime=p,
        theorem_path=PATH_MODG,
        result_perm=galois_modg(G, p),
    )


def cochains_report(G: PermGroup, p: int) -> GaloisReport:
    return GaloisReport(
        group_spec=G.name or f"<order {G.order}>",
        prime=p,
        theorem_path=PATH_COCHAINS,
        result_perm=galois_cochains(G, p),
    )


CERT_FREE_RANK = "FreeRank"
CERT_AMALGAM = "Amalgam"


@dataclass(frozen=True)
class InfinitenessCertificate:
    """Why a pushout A *_C B is infinite.

    ``FreeRank``: its abelianization has a free factor, the 0 at position
    ``zero_factor`` of the invariant factors.  ``Amalgam``: A, B and C are
    finite of the ``orders`` |A|, |B|, |C| (coset enumeration), both legs
    kill C's relators, the images of C have the ``indices`` [A : f(C)]
    and [B : g(C)] with |A| / [A : f(C)] = |B| / [B : g(C)] = |C|, so both
    legs are injective, and both indices exceed 1, so neither leg is onto.
    An amalgam of finite groups along injective, non-surjective legs is
    infinite by its normal form (Serre, *Trees*, I.1).
    """

    kind: str
    zero_factor: Optional[int] = None
    orders: Optional[tuple[int, int, int]] = None
    indices: Optional[tuple[int, int]] = None

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "zero_factor": self.zero_factor,
            "orders": None if self.orders is None else list(self.orders),
            "indices": None if self.indices is None else list(self.indices),
        }


@dataclass(frozen=True)
class VanKampenReport:
    """Pushout presentation with abelianization and bounded identification.

    ``certificate`` is set exactly when the identification is Infinite.
    """

    presentation: FpGroup
    simplified: FpGroup
    invariant_factors: tuple[int, ...]
    identification: IdentificationResult
    certificate: Optional[InfinitenessCertificate] = None

    def to_json(self) -> dict:
        return {
            "schema": 2,
            "presentation": self.presentation.spec_text(),
            "simplified": self.simplified.spec_text(),
            "abelianization": list(self.invariant_factors),
            "identification": self.identification.to_json(),
            "certificate": None
            if self.certificate is None
            else self.certificate.to_json(),
        }


def van_kampen_pushout(
    left: FpMap,
    right: FpMap,
    max_cosets: int = DEFAULT_MAX_COSETS,
) -> VanKampenReport:
    """Pushout of presentations, wrapped with the standard certificates.

    Delegates to the presentation pushout and reports its
    abelianization.  A free factor there, or the amalgam certificate on
    the legs, proves the pushout Infinite without enumerating it.
    Otherwise one coset enumeration certifies the order, and the
    identification against the catalogue of that order (when it is at
    most ``PUSHOUT_CANDIDATE_BOUND``) reuses it; when that run hits the
    coset bound the identification is Inconclusive.
    """
    P = pushout(left, right)
    Ps = simplify(P)
    factors = tuple(abelianization(P))
    if 0 in factors:
        certificate = InfinitenessCertificate(
            CERT_FREE_RANK, zero_factor=factors.index(0)
        )
    else:
        certificate = _amalgam_certificate(left, right, max_cosets)
    if certificate is not None:
        return VanKampenReport(
            P, Ps, factors, IdentificationResult(status=INFINITE), certificate
        )
    try:
        order = coset_enumeration(Ps, (), max_cosets=max_cosets)
    except CosetLimitExceeded:
        return VanKampenReport(
            P, Ps, factors, IdentificationResult(status=INCONCLUSIVE)
        )
    named = order <= PUSHOUT_CANDIDATE_BOUND
    specs = standard_catalogue(order, exact=True) if named else []
    candidates = [catalogue_group(spec) for spec in specs]
    ident = identify_finite(Ps, candidates, presimplify=False, certified_order=order)
    return VanKampenReport(P, Ps, factors, ident)


def _amalgam_certificate(
    left: FpMap, right: FpMap, max_cosets: int
) -> Optional[InfinitenessCertificate]:
    """The Amalgam certificate of the pushout of ``left`` and ``right``,
    or None when one of its checks fails or an enumeration hits the
    coset bound.

    The checks run in order and stop at the first failure: C's
    abelianization is finite (else enumerating C would run to the
    bound); |A|, |B| and |C| certify; every relator of C maps to 1 in A
    and in B (``FpMap`` only checks this on abelianizations); both images
    of C have order |C|; and both have index greater than 1.
    """
    C = left.source
    if 0 in abelianization(C):
        return None
    legs = (left, right)
    try:
        order_c = coset_enumeration(C, (), max_cosets=max_cosets)
        orders = [
            coset_enumeration(leg.target, (), max_cosets=max_cosets)
            for leg in legs
        ]
        for leg, order in zip(legs, orders):
            for r in C.relators:
                image = (leg.apply(r),)
                if coset_enumeration(leg.target, image, max_cosets=max_cosets) != order:
                    return None
        indices = [
            coset_enumeration(leg.target, leg.images, max_cosets=max_cosets)
            for leg in legs
        ]
    except CosetLimitExceeded:
        return None
    if any(order // index != order_c for order, index in zip(orders, indices)):
        return None
    if min(indices) == 1:
        return None
    return InfinitenessCertificate(
        CERT_AMALGAM,
        orders=(orders[0], orders[1], order_c),
        indices=(indices[0], indices[1]),
    )


def _require_prime(p: int) -> None:
    if p < 2 or any(p % d == 0 for d in range(2, int(p**0.5) + 1)):
        raise ValueError(f"{p} is not prime")
