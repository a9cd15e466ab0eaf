"""Exception types shared across the package.

Names follow the error vocabulary of the public operations; everything
derives from GalcalcError so callers can catch the whole family.
"""


class GalcalcError(Exception):
    """Base class for all galcalc errors."""


class ParseError(GalcalcError):
    """A group spec, presentation string, or input file failed to parse."""


class SizeError(GalcalcError):
    """A computation would exceed a configured size bound."""


class NotNormal(GalcalcError):
    """A quotient was requested by a subgroup that is not normal."""


class BadBasepoint(GalcalcError):
    """A basepoint argument is not an object of the given category."""


class IncompatibleGroups(GalcalcError):
    """Two G-sets over different groups were combined."""


class MalformedAlgebra(GalcalcError):
    """A Boolean algebra table violates the algebra axioms."""


class EmptyFamily(GalcalcError):
    """An orbit-category construction was given no usable subgroups."""


class POrderError(GalcalcError):
    """The prime does not divide the group order where it must."""


class IllFormedMap(GalcalcError):
    """A presentation map uses out-of-range generators or is incompatible."""


class CertificateError(GalcalcError):
    """A computed certificate (witness, torsor, isomorphism) failed its check.

    Raised by explicit checks that also run under ``python -O``.
    """


class CosetLimitExceeded(GalcalcError):
    """Todd-Coxeter coset table grew past the configured maximum.

    Callers must treat this as inconclusive, never as a proof of
    infiniteness.
    """
