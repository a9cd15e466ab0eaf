"""Independent checks of the program's answers.

Nothing here imports the program.  Every check recomputes what it needs
from the generated specs with the small permutation helpers of
``cases.py``: word evaluation and closure for certificates, brute-force
normal subgroups, centralizers and homomorphism counts, and closed forms
from group theory.  Each check returns a list of problems (empty = pass).
"""

from __future__ import annotations

from itertools import product as cartesian
from math import gcd

from cases import closure, identity, inverse, mul, parse_perm_spec, perm_order


def evaluate(word, images, degree: int):
    """Value of a word (signed 1-based generator indices) at the images."""
    acc = identity(degree)
    for x in word:
        img = images[abs(x) - 1]
        acc = mul(acc, img if x > 0 else inverse(img))
    return acc


def certificate_problems(relators, witness, certified_order) -> list[str]:
    """A witness certifies the order iff every relator vanishes at the
    images and the images generate a group of exactly that order."""
    if witness is None or certified_order is None:
        return ["no witness or no certified order"]
    images = [tuple(w) for w in witness]
    if not images:
        return [] if certified_order == 1 else ["empty witness for a nontrivial group"]
    degree = len(images[0])
    e = identity(degree)
    problems = []
    if any(evaluate(r, images, degree) != e for r in relators):
        problems.append("a relator does not vanish at the witness images")
    size = len(closure(images, degree))
    if size != certified_order:
        problems.append(f"witness images generate order {size}, certified {certified_order}")
    return problems


def _generated_order(gens, degree: int) -> int:
    """Order of <gens>, adding generators one at a time (few closures)."""
    kept: list = []
    current = {identity(degree)}
    for g in gens:
        if g not in current:
            kept.append(g)
            current = closure(kept, degree)
    return len(current)


def _group(spec: str):
    degree, gens = parse_perm_spec(spec)
    return degree, gens, sorted(closure(gens, degree))


def _killed_order(elements, degree: int, p: int, cochains: bool) -> int:
    """|N| for N generated by the order-p elements (and, for cochains, the
    elements of order prime to p).  Both sets are closed under conjugation,
    so the generated subgroup is the normal closure."""
    gens = []
    for x in elements:
        o = perm_order(x)
        if o == p or (cochains and o > 1 and o % p != 0):
            gens.append(x)
    return _generated_order(gens, degree)


def _sylow_triple(elements, degree: int, p: int) -> bool:
    """Every triple of Sylow p-subgroups meets nontrivially (brute force)."""
    order = len(elements)
    pk = 1
    while order % (pk * p) == 0:
        pk *= p
    p_elements = [x for x in elements if _is_p_power(perm_order(x), p)]
    sylow = {identity(degree)}
    gens: list = []
    while len(sylow) < pk:
        for x in p_elements:
            if x in sylow:
                continue
            bigger = closure(gens + [x], degree)
            if _is_p_power(len(bigger), p):
                gens.append(x)
                sylow = bigger
                break
    conjugates = {frozenset(mul(mul(g, s), inverse(g)) for s in sylow) for g in elements}
    sylows = list(conjugates)
    e = identity(degree)
    for i, a in enumerate(sylows):
        for j in range(i, len(sylows)):
            ab = a & sylows[j]
            for c in sylows[j:]:
                if ab & c == {e}:
                    return False
    return True


def _is_p_power(n: int, p: int) -> bool:
    while n % p == 0:
        n //= p
    return n == 1


def stmod_problems(case, out) -> list[str]:
    problems = []
    if out["status"] != "Identified":
        return [f"status {out['status']}"]
    problems += certificate_problems(out["relators"], out["witness"], out["certified_order"])
    if out["candidate_order"] != out["certified_order"]:
        problems.append("candidate order differs from the certified order")
    paths = {path for path, agreed in out["cross_checks"]}
    problems += [f"cross-check {path} disagrees" for path, ok in out["cross_checks"] if not ok]
    p = case.prime
    degree, gens, elements = _group(case.specs[0])
    answer = out["certified_order"]
    central = any(
        perm_order(z) == p and all(mul(z, g) == mul(g, z) for g in gens)
        for z in elements
    )
    triple = _sylow_triple(elements, degree, p)
    if central or triple:
        expected = len(elements) // _killed_order(elements, degree, p, False)
        if answer != expected:
            problems.append(f"order {answer}, expected |G/<order-p>| = {expected}")
    if central and "StmodCentralCase" not in paths:
        problems.append("central order-p element but no central cross-check")
    if triple and "StmodSylowTriple" not in paths:
        problems.append("Sylow triples meet but no Sylow cross-check")
    base = case.meta[0]
    if base.name == f"S{p}" and answer != p - 1:
        problems.append(f"S{p} at {p}: order {answer}, expected {p - 1}")
    return problems


def _closed_form(kind: str, name: str, p: int):
    """Order of the answer for S_n and A_n (n >= 5), or None."""
    family, n = name[0], int(name[1:])
    if kind == "cochains":
        return 1
    if family == "S":
        return 1 if p == 2 else (2 if p <= n else None)
    if family == "A" and n >= 5:
        return 1
    return None


def quotient_problems(case, out) -> list[str]:
    problems = []
    p, cochains = case.prime, case.kind == "cochains"
    q_gens = [tuple(g) for g in out["gens"]]
    q_order = len(closure(q_gens, out["degree"]))
    if q_order != out["order"]:
        problems.append(f"reported order {out['order']}, generators give {q_order}")
    degree, _, elements = _group(case.specs[0])
    killed = _killed_order(elements, degree, p, cochains)
    if q_order * killed != len(elements):
        problems.append(f"|Q| * |N| = {q_order} * {killed} != |G| = {len(elements)}")
    if len(case.meta) == 1:
        expected = _closed_form(case.kind, case.meta[0].name, p)
        if expected is not None and q_order != expected:
            problems.append(f"order {q_order}, closed form {expected}")
    else:
        expected = 1
        for factor in case.meta:
            f_elements = sorted(closure(factor.gens, factor.degree))
            f_killed = _killed_order(f_elements, factor.degree, p, cochains)
            expected *= len(f_elements) // f_killed
        if q_order != expected:
            problems.append(f"order {q_order} does not factor: product of factors {expected}")
    return problems


def _hom_table(g_spec: str, h_spec: str):
    """Index tables for counting homomorphisms G -> H by brute force."""
    g_deg, g_gens, g_elements = _group(g_spec)
    h_deg, _, h_elements = _group(h_spec)
    g_index = {x: i for i, x in enumerate(g_elements)}
    h_index = {x: i for i, x in enumerate(h_elements)}
    h_mul = [[h_index[mul(a, b)] for b in h_elements] for a in h_elements]
    # breadth-first words: tree[j] = (parent index, generator index)
    tree = {g_index[identity(g_deg)]: None}
    frontier = [identity(g_deg)]
    order = [g_index[identity(g_deg)]]
    while frontier:
        nxt = []
        for x in frontier:
            for gi, s in enumerate(g_gens):
                y = mul(x, s)
                j = g_index[y]
                if j not in tree:
                    tree[j] = (g_index[x], gi)
                    order.append(j)
                    nxt.append(y)
        frontier = nxt
    right = [[g_index[mul(x, s)] for s in g_gens] for x in g_elements]
    return g_gens, h_elements, h_index, h_mul, tree, order, right


def _extends(images, h_mul, tree, order, right, e) -> bool:
    f = {order[0]: e}
    for j in order[1:]:
        parent, gi = tree[j]
        f[j] = h_mul[f[parent]][images[gi]]
    return all(
        f[right[j][gi]] == h_mul[f[j]][img]
        for j in order
        for gi, img in enumerate(images)
    )


def hom_problems(case, out, oracle_ok) -> list[str]:
    problems = []
    g_gens, h_elements, h_index, h_mul, tree, order, right = _hom_table(*case.specs)
    e = h_index[identity(len(h_elements[0]))]
    h_orders = [perm_order(h) for h in h_elements]
    cands = [
        [i for i, o in enumerate(h_orders) if perm_order(s) % o == 0] for s in g_gens
    ]
    n_homs = sum(
        1 for imgs in cartesian(*cands) if _extends(imgs, h_mul, tree, order, right, e)
    )
    if len(g_gens) == 1 and len(order) == perm_order(g_gens[0]):
        n = len(order)
        cyclic_count = sum(1 for h in h_elements if perm_order(h) in _divisors(n))
        if cyclic_count != n_homs:
            problems.append(f"|Hom(C{n}, H)| = {n_homs}, #{{h^n = 1}} = {cyclic_count}")
    orbit_sum = 0
    for images, aut_order in out["components"]:
        imgs = [h_index[tuple(x)] for x in images]
        if len(imgs) != len(g_gens) or not _extends(imgs, h_mul, tree, order, right, e):
            problems.append("a component representative is not a homomorphism")
            continue
        centralizer = sum(
            1 for x in range(len(h_elements))
            if all(h_mul[x][i] == h_mul[i][x] for i in imgs)
        )
        if centralizer != aut_order:
            problems.append(f"automorphism order {aut_order}, centralizer {centralizer}")
        orbit_sum += len(h_elements) // centralizer
    if orbit_sum != n_homs:
        problems.append(f"sum |H|/|C_H(f(G))| = {orbit_sum} != |Hom(G, H)| = {n_homs}")
    if out["torsor_classes"] != len(out["components"]):
        problems.append(
            f"{out['torsor_classes']} torsor classes, {len(out['components'])} hom classes"
        )
    if any(name is None for name in out["names"]):
        problems.append("an automorphism group is left unnamed")
    if oracle_ok is False:
        problems.append("structural hom-groupoid disagrees with the functor groupoid")
    return problems


def _divisors(n: int) -> set[int]:
    return {d for d in range(1, n + 1) if n % d == 0}


def pushout_problems(case, out) -> list[str]:
    m, n = case.meta
    g, lcm = gcd(m, n), m * n // gcd(m, n)
    problems = []
    if case.kind == "free":
        expected = [d for d in (g, lcm) if d != 1]
        if out["status"] == "Identified" or out["certified_order"] is not None:
            problems.append("a free product received a certified finite order")
    else:
        expected = [g] if g != 1 else []
        if out["status"] != "Identified" or out["certified_order"] != g:
            problems.append(f"gluing: {out['status']} order {out['certified_order']}, expected {g}")
        else:
            problems += certificate_problems(
                out["relators"], out["witness"], out["certified_order"]
            )
    if out["factors"] != expected:
        problems.append(f"invariant factors {out['factors']}, expected {expected}")
    return problems


def case_problems(case, out, oracle_ok=None) -> list[str]:
    if case.kind == "stmod":
        return stmod_problems(case, out)
    if case.kind in ("modg", "cochains"):
        return quotient_problems(case, out)
    if case.kind == "hom":
        return hom_problems(case, out, oracle_ok)
    return pushout_problems(case, out)
