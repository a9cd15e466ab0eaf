"""Galois groups of representation-theoretic categories of finite groups.

The package computes, at desk scale, the Galois groups of the category of
k-linear G-representations, of cochains on BG, and of the stable module
category, together with the finite-groupoid calculus (hom-groupoids,
torsors, Stone duality, orbit-category nerves) that cross-validates every
theorem-level formula along an independent brute-force path.
"""

from .errors import (
    BadBasepoint,
    CertificateError,
    CosetLimitExceeded,
    EmptyFamily,
    GalcalcError,
    IllFormedMap,
    IncompatibleGroups,
    MalformedAlgebra,
    NotNormal,
    POrderError,
    ParseError,
    SizeError,
)
from .perm import (
    GroupHom,
    Perm,
    PermGroup,
    Subgroup,
    are_conjugate_homs,
    find_isomorphism,
    find_surjection,
    hom_conjugacy_classes,
    homomorphisms,
)
from .catalogue import (
    display_name,
    group_from_catalogue,
    name_group,
    standard_catalogue,
)

__all__ = [
    "BadBasepoint",
    "CertificateError",
    "CosetLimitExceeded",
    "EmptyFamily",
    "GalcalcError",
    "GroupHom",
    "IllFormedMap",
    "IncompatibleGroups",
    "MalformedAlgebra",
    "NotNormal",
    "POrderError",
    "ParseError",
    "Perm",
    "PermGroup",
    "SizeError",
    "Subgroup",
    "are_conjugate_homs",
    "display_name",
    "find_isomorphism",
    "find_surjection",
    "group_from_catalogue",
    "hom_conjugacy_classes",
    "homomorphisms",
    "name_group",
    "standard_catalogue",
]
