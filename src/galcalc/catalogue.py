"""Construction of named finite groups in canonical permutation form.

Group-spec grammar:

    S<n>                      symmetric group, natural action on n points
    A<n>                      alternating group on n points
    C<n>                      cyclic group as an n-cycle
    C<n>xC<m>[x...]           direct products of cyclics on disjoint points
    D<2n>                     dihedral group of order 2n on n points
    Q8, Q16                   (generalized) quaternion, regular representation
    perm:<degree>:<cycles;,>  explicit generators, e.g. perm:4:(1 2);(1 2 3 4)

Cycle points in perm: specs are 1-based on input and 0-based internally.
Catalogue groups carry a fixed canonical representation so that all
downstream output is deterministic.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from typing import Optional

from .errors import ParseError, SizeError
from .perm import DEFAULT_MAX_ORDER, Perm, PermGroup, find_isomorphism

_FAMILY_RE = re.compile(r"^([SACDQ])(\d+)$")
_PRODUCT_RE = re.compile(r"^C(\d+)(xC\d+)+$")
_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def group_from_catalogue(spec: str, max_order: int = DEFAULT_MAX_ORDER) -> PermGroup:
    """Build the group named by a group-spec string.

    Raises ParseError on a bad spec and SizeError when the family formula
    already exceeds ``max_order``.
    """
    spec = spec.strip()
    if not spec:
        raise ParseError("empty group spec")
    if spec.startswith("perm:"):
        return _explicit_group(spec, max_order)
    m = _PRODUCT_RE.match(spec)
    if m:
        ns = [_spec_number(p[1:], spec) for p in spec.split("x")]
        if any(n < 1 for n in ns):
            raise ParseError(f"bad cyclic factor in {spec!r}")
        order = math.prod(ns)
        _check_order(order, max_order, spec)
        return _cyclic_product(ns, spec, max_order)
    m = _FAMILY_RE.match(spec)
    if not m:
        raise ParseError(f"unrecognized group spec {spec!r}")
    fam, n = m.group(1), _spec_number(m.group(2), spec)
    if fam in "SAC" and n < 1:
        raise ParseError(f"{fam}<n> needs n >= 1")
    if fam == "S":
        _check_order(_factorial_past(n, max_order), max_order, spec)
        return _symmetric(n, spec, max_order)
    if fam == "A":
        _check_order(max(1, _factorial_past(n, 2 * max_order) // 2), max_order, spec)
        return _alternating(n, spec, max_order)
    if fam == "C":
        _check_order(n, max_order, spec)
        return _cyclic_product([n], spec, max_order)
    if fam == "D":
        if n < 2 or n % 2 != 0:
            raise ParseError("D<k> needs even order k >= 2")
        _check_order(n, max_order, spec)
        return _dihedral(n // 2, spec, max_order)
    if fam == "Q":
        if n not in (8, 16):
            raise ParseError("only Q8 and Q16 are in the catalogue")
        _check_order(n, max_order, spec)
        return _generalized_quaternion(n // 4, spec, max_order)
    raise ParseError(f"unrecognized group spec {spec!r}")  # pragma: no cover


def _spec_number(digits: str, spec: str) -> int:
    """A number of the spec, or ParseError past ``int``'s digit limit."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"number too long in group spec {spec!r}") from None


def _factorial_past(n: int, bound: int) -> int:
    """n!, or else the first k! past ``bound``: huge n costs a few products."""
    for f in itertools.accumulate(range(1, n + 1), int.__mul__):
        if f > bound:
            break
    return f


def _check_order(order: int, max_order: int, spec: str) -> None:
    if order > max_order:
        raise SizeError(f"{spec}: order exceeds bound {max_order}")


def _symmetric(n: int, name: str, max_order: int) -> PermGroup:
    if n == 1:
        return PermGroup(1, [], name=name, max_order=max_order)
    gens = [Perm.from_cycles(n, [(0, 1)])]
    if n > 2:
        gens.append(Perm.from_cycles(n, [tuple(range(n))]))
    return PermGroup(n, gens, name=name, max_order=max_order)


def _alternating(n: int, name: str, max_order: int) -> PermGroup:
    if n <= 2:
        return PermGroup(max(1, n), [], name=name, max_order=max_order)
    gens = [Perm.from_cycles(n, [(0, 1, 2)])]
    if n > 3:
        if n % 2 == 1:
            gens.append(Perm.from_cycles(n, [tuple(range(n))]))
        else:
            gens.append(Perm.from_cycles(n, [tuple(range(1, n))]))
    return PermGroup(n, gens, name=name, max_order=max_order)


def _cyclic_product(ns: list[int], name: str, max_order: int) -> PermGroup:
    degree = sum(ns)
    gens = []
    offset = 0
    for n in ns:
        if n > 1:
            gens.append(Perm.from_cycles(degree, [tuple(range(offset, offset + n))]))
        offset += n
    if degree == 0:
        degree = 1
    return PermGroup(max(degree, 1), gens, name=name, max_order=max_order)


def _dihedral(n: int, name: str, max_order: int) -> PermGroup:
    # D(2n) on n points; the degenerate n <= 2 cases get faithful degrees.
    if n == 1:
        return PermGroup(2, [Perm.from_cycles(2, [(0, 1)])], name=name, max_order=max_order)
    if n == 2:
        return PermGroup(
            4,
            [Perm.from_cycles(4, [(0, 1)]), Perm.from_cycles(4, [(2, 3)])],
            name=name,
            max_order=max_order,
        )
    rot = Perm.from_cycles(n, [tuple(range(n))])
    ref = Perm([(n - x) % n for x in range(n)])
    return PermGroup(n, [rot, ref], name=name, max_order=max_order)


def _generalized_quaternion(n: int, name: str, max_order: int) -> PermGroup:
    """Q(4n) = <a, b | a^(2n), b^2 = a^n, b a b^-1 = a^-1>, regular rep.

    Elements are a^s (index s) and a^s b (index 2n + s) for s mod 2n.
    """
    two_n = 2 * n
    order = 4 * n

    def mul(x: int, y: int) -> int:
        s, se = x % two_n, x // two_n
        t, te = y % two_n, y // two_n
        if se == 0 and te == 0:
            return (s + t) % two_n
        if se == 0 and te == 1:
            return two_n + (s + t) % two_n
        if se == 1 and te == 0:
            return two_n + (s - t) % two_n
        return (s - t + n) % two_n

    def left_mult(g: int) -> Perm:
        return Perm(mul(g, x) for x in range(order))

    a = left_mult(1)
    b = left_mult(two_n)
    return PermGroup(order, [a, b], name=name, max_order=max_order)


def _explicit_group(spec: str, max_order: int) -> PermGroup:
    parts = spec.split(":", 2)
    if len(parts) != 3:
        raise ParseError(f"explicit spec needs perm:<degree>:<gens>: {spec!r}")
    try:
        degree = int(parts[1])
    except ValueError as exc:
        raise ParseError(f"bad degree in {spec!r}") from exc
    if degree < 1:
        raise ParseError("degree must be >= 1")
    gens = []
    for gen_text in parts[2].split(";"):
        gen_text = gen_text.strip()
        if not gen_text:
            continue
        if _CYCLE_RE.sub("", gen_text).strip():
            raise ParseError(f"bad cycle text {gen_text!r}")
        cycles = []
        for body in _CYCLE_RE.findall(gen_text):
            try:
                pts = [int(tok) - 1 for tok in body.replace(",", " ").split()]
            except ValueError as exc:
                raise ParseError(f"bad point in {gen_text!r}") from exc
            if any(p < 0 or p >= degree for p in pts):
                raise ParseError(f"point out of range in {gen_text!r}")
            if len(set(pts)) != len(pts):
                raise ParseError(f"repeated point in {gen_text!r}")
            if pts:
                cycles.append(tuple(pts))
        gens.append(Perm.from_cycles(degree, cycles))
    return PermGroup(degree, gens, name=spec, max_order=max_order)


def standard_catalogue(max_order: int, exact: bool = False) -> list[str]:
    """Deterministic list of catalogue specs with order <= max_order, or
    only those of order exactly max_order when ``exact``; no group is
    built, and each call returns a fresh list.

    One spec per isomorphism type: cyclics, invariant-factor abelian
    products with up to four factors, dihedrals from D6 up, symmetric and
    alternating groups, and the quaternion groups.
    """
    return [name for n, name in _catalogue_specs(max_order) if not exact or n == max_order]


@functools.cache
def _catalogue_specs(max_order: int) -> tuple[tuple[int, str], ...]:
    """The sorted (order, spec) pairs of ``standard_catalogue(max_order)``,
    built once per max_order."""
    names: list[tuple[int, str]] = []
    for n in range(1, max_order + 1):
        names.append((n, f"C{n}"))
    # abelian invariant factor chains d1 | d2 | ... with >= 2 factors
    chains: list[list[int]] = [[d] for d in range(2, max_order + 1)]
    while chains:
        nxt = []
        for chain in chains:
            base = math.prod(chain)
            d = chain[-1]
            mult = d
            while base * mult <= max_order:
                new = chain + [mult]
                if len(new) >= 2:
                    names.append((base * mult, "x".join(f"C{c}" for c in new)))
                if len(new) < 4:
                    nxt.append(new)
                mult += d
        chains = nxt
    # D4 = C2xC2 and D6 = S3 are already present under those names
    for k in range(8, max_order + 1, 2):
        names.append((k, f"D{k}"))
    for n in range(3, 9):
        if math.factorial(n) <= max_order:
            names.append((math.factorial(n), f"S{n}"))
        if n >= 4 and math.factorial(n) // 2 <= max_order:
            names.append((math.factorial(n) // 2, f"A{n}"))
    for q in (8, 16):
        if q <= max_order:
            names.append((q, f"Q{q}"))
    return tuple(sorted(names))


_catalogue_cache: dict[tuple[str, int], PermGroup] = {}


def catalogue_group(spec: str, max_order: int = DEFAULT_MAX_ORDER) -> PermGroup:
    """group_from_catalogue with a process-wide cache."""
    key = (spec, max_order)
    if key not in _catalogue_cache:
        _catalogue_cache[key] = group_from_catalogue(spec, max_order)
    return _catalogue_cache[key]


@functools.cache
def spec_invariants(spec: str) -> tuple[bool, int]:
    """(abelian, number of involutions) of a catalogue spec, in closed form
    from the spec alone: no group is built, and each spec is worked out
    once per process.

    A product of cyclics C_n1 x ... x C_nk has 2^e - 1 involutions, e the
    number of even n_i; D_2n has n reflections, plus the half turn for
    even n; S_n has n! / (j! 2^j (n-2j)!) involutions with j disjoint
    transpositions, A_n those with j even; Q8 and Q16 have one.
    """
    if _PRODUCT_RE.match(spec):
        ns = [int(c[1:]) for c in spec.split("x")]
        return True, 2 ** sum(n % 2 == 0 for n in ns) - 1
    m = _FAMILY_RE.match(spec)
    if not m:
        raise ParseError(f"no closed form for {spec!r}")
    fam, n = m.group(1), int(m.group(2))
    if fam == "C":
        return True, 1 - n % 2
    if fam == "D":
        return n <= 4, n // 2 + 1 - n // 2 % 2
    if fam == "Q":
        return False, 1
    counts = [
        math.factorial(n) // (math.factorial(j) * 2**j * math.factorial(n - 2 * j))
        for j in range(1, n // 2 + 1)
    ]
    if fam == "S":
        return n <= 2, sum(counts)
    return n <= 3, sum(counts[1::2])


def name_group(G: PermGroup) -> Optional[str]:
    """Identify G against the catalogue of its order; None if unnamed.

    A spec whose ``spec_invariants`` differ from G's is rejected before its
    group is built.  G's side reads only its generators, which commute
    pairwise iff G is abelian, and its cached element orders.
    ``find_isomorphism`` decides every other spec.
    """
    pairs = itertools.combinations(G.generators, 2)
    abelian = all(a * b == b * a for a, b in pairs)
    invariants = (abelian, G.order_profile().get(2, 0))
    for spec in standard_catalogue(G.order, exact=True):
        if spec_invariants(spec) != invariants:
            continue
        if find_isomorphism(G, catalogue_group(spec)) is not None:
            return spec
    return None


def display_name(G: PermGroup) -> str:
    """Human-readable name: catalogue identification plus the order."""
    name = name_group(G)
    if name is None:
        return f"<unidentified group of order {G.order}>"
    return f"{name.replace('x', ' x ')} (order {G.order})"
