"""Seeded case matrices for the galcalc benchmark.

Every case reaches the program as generated spec text (``perm:`` or
``fp:``).  The seed relabels points and picks, for each group, a random
generating tuple whose element orders match the base generators, so the
program sees a different representation of the same isomorphism type on
every seed while the amount of work stays comparable.  The base groups
are built here, not taken from the program's catalogue, so the inputs
stay the same when the program changes.

Permutations are image tuples on 0..n-1 with (a * b)(x) = a(b(x)), the
same convention as ``galcalc.perm``.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import gcd

WORKLOADS = ("stmod", "quotients", "homsweep", "pushouts")

Perm = tuple


# -- permutation helpers ----------------------------------------------------


def mul(a: Perm, b: Perm) -> Perm:
    return tuple(a[x] for x in b)


def inverse(a: Perm) -> Perm:
    inv = [0] * len(a)
    for x, y in enumerate(a):
        inv[y] = x
    return tuple(inv)


def identity(n: int) -> Perm:
    return tuple(range(n))


def perm_order(a: Perm) -> int:
    n, e, x = 1, identity(len(a)), a
    while x != e:
        x = mul(x, a)
        n += 1
    return n


def cycle(n: int, pts) -> Perm:
    img = list(range(n))
    pts = list(pts)
    for i, x in enumerate(pts):
        img[x] = pts[(i + 1) % len(pts)]
    return tuple(img)


def closure(gens, degree: int) -> set:
    """Elements of the group generated by ``gens``, by breadth-first search."""
    e = identity(degree)
    seen = {e}
    frontier = [e]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = mul(x, g)
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return seen


def cycles_text(a: Perm) -> str:
    """1-based cycle notation of a non-identity permutation."""
    seen = [False] * len(a)
    out = []
    for s in range(len(a)):
        if seen[s] or a[s] == s:
            continue
        cyc = [s]
        seen[s] = True
        x = a[s]
        while x != s:
            seen[x] = True
            cyc.append(x)
            x = a[x]
        out.append("(" + " ".join(str(p + 1) for p in cyc) + ")")
    return "".join(out)


def perm_spec(degree: int, gens) -> str:
    return f"perm:{degree}:" + ";".join(cycles_text(g) for g in gens)


def parse_perm_spec(spec: str) -> tuple[int, list[Perm]]:
    """Inverse of ``perm_spec``; used by the checks, not by the program."""
    _, deg, body = spec.split(":", 2)
    n = int(deg)
    gens = []
    for text in body.split(";"):
        if not text:
            continue
        img = list(range(n))
        for cyc in text.strip("()").split(")("):
            pts = [int(t) - 1 for t in cyc.split()]
            for i, x in enumerate(pts):
                img[x] = pts[(i + 1) % len(pts)]
        gens.append(tuple(img))
    return n, gens


# -- base groups ----------------------------------------------------------------


@dataclass(frozen=True)
class BaseGroup:
    name: str
    degree: int
    gens: tuple


def symmetric(n: int) -> BaseGroup:
    return BaseGroup(f"S{n}", n, (cycle(n, (0, 1)), cycle(n, range(n))))


def alternating(n: int) -> BaseGroup:
    second = range(n) if n % 2 else range(1, n)
    return BaseGroup(f"A{n}", n, (cycle(n, (0, 1, 2)), cycle(n, second)))


def cyclic(n: int) -> BaseGroup:
    if n == 1:
        return BaseGroup("C1", 1, ())
    return BaseGroup(f"C{n}", n, (cycle(n, range(n)),))


def dihedral(order: int) -> BaseGroup:
    n = order // 2
    ref = tuple((n - x) % n for x in range(n))
    return BaseGroup(f"D{order}", n, (cycle(n, range(n)), ref))


def quaternion(order: int) -> BaseGroup:
    """Generalized quaternion group of the given order, regular action."""
    n = order // 4
    two_n = 2 * n

    def times(x: int, y: int) -> int:
        s, se = x % two_n, x // two_n
        t, te = y % two_n, y // two_n
        if se == 0 and te == 0:
            return (s + t) % two_n
        if se == 0:
            return two_n + (s + t) % two_n
        if te == 0:
            return two_n + (s - t) % two_n
        return (s - t + n) % two_n

    gens = tuple(tuple(times(g, x) for x in range(order)) for g in (1, two_n))
    return BaseGroup(f"Q{order}", order, gens)


def direct_product(*factors: BaseGroup) -> BaseGroup:
    degree = sum(f.degree for f in factors)
    gens = []
    offset = 0
    for f in factors:
        for g in f.gens:
            img = list(range(degree))
            for x, y in enumerate(g):
                img[offset + x] = offset + y
            gens.append(tuple(img))
        offset += f.degree
    return BaseGroup("x".join(f.name for f in factors), degree, tuple(gens))


def reseeded_spec(base: BaseGroup, rng: random.Random) -> str:
    """A relabelled perm: spec of the group on a random generating tuple.

    The tuple has the same length and the same element orders as the base
    generators; points are then relabelled by a random permutation.
    """
    n = base.degree
    if not base.gens:
        return perm_spec(n, ())
    elements = sorted(closure(base.gens, n))
    by_order: dict[int, list] = {}
    for x in elements:
        by_order.setdefault(perm_order(x), []).append(x)
    wanted = [perm_order(g) for g in base.gens]
    while True:
        tup = [rng.choice(by_order[o]) for o in wanted]
        if len(set(tup)) == len(tup) and len(closure(tup, n)) == len(elements):
            break
    sigma = list(range(n))
    rng.shuffle(sigma)
    sigma_t = tuple(sigma)
    sigma_inv = inverse(sigma_t)
    return perm_spec(n, [mul(mul(sigma_t, t), sigma_inv) for t in tup])


# -- presentations ----------------------------------------------------------------


def cyclic_fp(m: int, inverted: bool) -> str:
    return "fp:1:" + ("A" if inverted else "a") * m


def image_word(u: int, inverted: bool) -> str:
    """a^u, or a^-u when inverted; both generate C_m when u is a unit."""
    return ("A" if inverted else "a") * u


def _half_unit(m: int) -> int:
    return max(u for u in range(1, m // 2 + 1) if gcd(u, m) == 1)


# -- workloads ------------------------------------------------------------------


@dataclass(frozen=True)
class Case:
    label: str
    kind: str
    specs: tuple
    prime: int = 0
    # expected structure used by the checks: factor bases of a product,
    # or (m, n) of a pushout
    meta: tuple = ()


STMOD_CASES = (
    (alternating(5), 2),
    (symmetric(5), 3),
    (symmetric(5), 5),
    (alternating(5), 3),
    (alternating(5), 5),
    (symmetric(4), 2),
    (symmetric(4), 3),
    (dihedral(24), 2),
    (symmetric(3), 3),
    (quaternion(16), 2),
    (cyclic(25), 5),
)

QUOTIENT_CASES = (
    ("modg", symmetric(6), 3),
    ("cochains", symmetric(6), 2),
    ("modg", alternating(6), 5),
    ("cochains", alternating(6), 3),
    ("modg", symmetric(5), 2),
    ("cochains", symmetric(5), 5),
    ("cochains", symmetric(5), 2),
)

PRODUCT_CASES = (
    ("modg", (symmetric(4), cyclic(3)), 2),
    ("cochains", (symmetric(4), cyclic(3)), 3),
    ("modg", (symmetric(3), symmetric(3)), 3),
    ("modg", (alternating(5), cyclic(2)), 2),
    ("cochains", (dihedral(10), cyclic(5)), 5),
    ("cochains", (symmetric(4), symmetric(3)), 3),
    ("modg", (alternating(5), cyclic(3)), 3),
    ("modg", (symmetric(4), symmetric(3)), 2),
    ("cochains", (alternating(5), cyclic(3)), 3),
    ("cochains", (symmetric(5), cyclic(2)), 2),
)


def homsweep_groups() -> list[BaseGroup]:
    """Catalogue isomorphism types of order <= 12 except C2xC2xC2."""
    c = cyclic
    return [
        c(1), c(2), c(3), direct_product(c(2), c(2)), c(4), c(5), c(6),
        symmetric(3), c(7), direct_product(c(2), c(4)), c(8), dihedral(8),
        quaternion(8), direct_product(c(3), c(3)), c(9), c(10), dihedral(10),
        c(11), alternating(4), c(12), direct_product(c(2), c(6)), dihedral(12),
    ]


def build_cases(workload: str, seed: int) -> list[Case]:
    """The case list of a workload; the same seed gives the same specs."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")

    def rng_for(i: int) -> random.Random:
        return random.Random(f"{workload}:{seed}:{i}")

    cases: list[Case] = []
    if workload == "stmod":
        for i, (base, p) in enumerate(STMOD_CASES):
            spec = reseeded_spec(base, rng_for(i))
            cases.append(Case(f"{base.name}@{p}", "stmod", (spec,), p, (base,)))
    elif workload == "quotients":
        for i, (kind, base, p) in enumerate(QUOTIENT_CASES):
            spec = reseeded_spec(base, rng_for(i))
            cases.append(Case(f"{kind} {base.name}@{p}", kind, (spec,), p, (base,)))
        for j, (kind, factors, p) in enumerate(PRODUCT_CASES):
            base = direct_product(*factors)
            spec = reseeded_spec(base, rng_for(len(QUOTIENT_CASES) + j))
            cases.append(Case(f"{kind} {base.name}@{p}", kind, (spec,), p, factors))
    elif workload == "homsweep":
        groups = homsweep_groups()
        i = 0
        for G in groups:
            for H in groups:
                rng = rng_for(i)
                specs = (reseeded_spec(G, rng), reseeded_spec(H, rng))
                cases.append(Case(f"{G.name}->{H.name}", "hom", specs, 0, (G, H)))
                i += 1
    else:
        i = 0
        free, glued = [], []
        for m in range(2, 9):
            for n in range(m, 9):
                free.append(_pushout_case(m, n, False, rng_for(i)))
                i += 1
        for m in range(2, 13):
            for n in range(m, 13):
                glued.append(_pushout_case(m, n, True, rng_for(i)))
                i += 1
        # spread the short gluings evenly between the long free products, so
        # that the median case is not timed in one stretch of the round
        placed = [((k + 0.5) / len(free), c) for k, c in enumerate(free)]
        placed += [(k / len(glued), c) for k, c in enumerate(glued)]
        cases = [c for _, c in sorted(placed, key=lambda pc: pc[0])]
    return cases


def _pushout_case(m: int, n: int, glued: bool, rng: random.Random) -> Case:
    """C_m * C_n over the trivial group, or C_m <- Z -> C_n (finite gluing).

    A gluing sends the generator of Z to a^(+-u) and b^(+-v), where u is the
    largest unit of Z/m at most m/2 (v likewise for n), so the pushout is
    C_gcd(m, n).  The seed picks the signs, the leg order and whether each
    cyclic factor is written with an inverted letter; the relator lengths,
    and so the work, do not depend on the seed.
    """
    legs = [(k, rng.random() < 0.5, _half_unit(k)) for k in (m, n)]
    if rng.random() < 0.5:
        legs.reverse()
    if glued:
        source = "fp:1:"
        maps = tuple(image_word(u, rng.random() < 0.5) for _, _, u in legs)
        label = f"C{m}<-Z->C{n}"
    else:
        source = "fp:0:"
        maps = ("", "")
        label = f"C{m}*C{n}"
    targets = tuple(cyclic_fp(leg[0], leg[1]) for leg in legs)
    return Case(label, "glue" if glued else "free", (source,) + targets + maps, 0, (m, n))
