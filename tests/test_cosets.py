"""The one left-coset routine and the quotients built on it, against the
loops it replaced.

The coset oracle is the loop that ``PermGroup.quotient``,
``GSet.coset_action`` and ``orbit_category`` each carried before
``Subgroup.cosets``: scan the parent's sorted elements and give every
element not yet covered a new coset of its own.  The quotient oracle is
the old ``quotient``, which also built and verified a projection
homomorphism.  ``quotient`` tries the action on the N-orbits first: where
that action proves G/N (``orbit_action_oracle``, by union-find), the
quotient is that action and ``old_quotient(G, N)[i] <- Q[i]`` on
generators extends to an isomorphism; elsewhere it equals the old
quotient exactly.
"""

import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import galcalc
from galcalc.catalogue import catalogue_group, standard_catalogue
from galcalc.catalogue import group_from_catalogue
from galcalc.errors import NotNormal, SizeError
from galcalc.perm import GroupHom, Perm, PermGroup, extend_generator_map
from galcalc.perm import homomorphisms
from galcalc.pipelines import galois_cochains, galois_modg


def old_cosets(H):
    seen = {}
    reps = []
    for g in H.parent.elements:
        if g in seen:
            continue
        idx = len(reps)
        reps.append(g)
        for h in H.members:
            seen[g * h] = idx
    return reps, seen


def old_quotient(G, N):
    reps, coset_of = old_cosets(N)

    def coset_perm(x):
        return Perm(coset_of[x * reps[c]] for c in range(len(reps)))

    gen_images = tuple(coset_perm(g) for g in G.generators)
    qname = f"{G.name}/N" if G.name else None
    Q = PermGroup(len(reps), gen_images, name=qname, max_order=G.max_order)
    GroupHom(G, Q, gen_images)
    return Q


def orbit_action_oracle(G, N):
    """G's generators acting on the N-orbits, numbered by least point, by
    union-find over every member of N; None when a generator does not map
    orbits onto orbits."""
    root = list(range(G.degree))

    def find(x):
        while root[x] != x:
            x = root[x]
        return x

    for h in N.members:
        for x in range(G.degree):
            a, b = find(x), find(h[x])
            root[max(a, b)] = min(a, b)  # a root is its set's least point
    roots = sorted({find(x) for x in range(G.degree)})
    number = {r: i for i, r in enumerate(roots)}
    orbit = [number[find(x)] for x in range(G.degree)]
    images = []
    for g in G.generators:
        image = {}
        for x in range(G.degree):
            if image.setdefault(orbit[x], orbit[g[x]]) != orbit[g[x]]:
                return None
        images.append(Perm(image[i] for i in range(len(roots))))
    return PermGroup(len(roots), images)


def check_quotient(G, N, Q):
    """Q = G.quotient(N) against the oracles; returns the path that ran."""
    old = old_quotient(G, N)
    assert Q.max_order == G.max_order  # not the [G:N] bound it was built under
    orbits = orbit_action_oracle(G, N)
    if orbits is None or orbits.order * N.order != G.order:
        assert Q.generators == old.generators
        assert Q.elements == old.elements
        return "cosets"
    assert Q.generators == orbits.generators
    assert Q.order * N.order == G.order
    # both actions have kernel N, so generator i is the identity, or equal
    # to generator j, in one exactly when it is in the other
    fmap = extend_generator_map(Q, old.generators, old.identity)
    assert fmap is not None and len(set(fmap.values())) == old.order == Q.order
    return "orbits"


def _primes(n):
    return [q for q in range(2, n + 1) if n % q == 0 and all(q % d for d in range(2, q))]


def _catalogue_subgroups(max_order):
    for spec in standard_catalogue(max_order):
        G = catalogue_group(spec)
        subs = [G.trivial_subgroup(), G.full_subgroup()]
        for p in _primes(G.order):
            subs += G.sylow_subgroups(p)
            subs += G.elementary_abelian_p_subgroups(p)
            subs.append(G.normal_closure(G.order_p_elements(p)))
        yield spec, subs


def test_cosets_match_old_loop_on_catalogue_24():
    checked = 0
    for spec, subs in _catalogue_subgroups(24):
        for H in subs:
            reps, index = H.cosets()
            assert (reps, index) == old_cosets(H), (spec, H)
            assert len(reps) * H.order == H.parent.order
            checked += 1
    assert checked > 500


@st.composite
def subgroups_of_s4_s5(draw):
    G = catalogue_group(draw(st.sampled_from(["S4", "S5"])))
    picks = draw(st.lists(st.integers(0, G.order - 1), max_size=3))
    return G.subgroup_from_generators(G.elements[i] for i in picks)


@settings(max_examples=60, deadline=None)
@given(subgroups_of_s4_s5())
def test_cosets_match_old_loop_on_random_subgroups(H):
    assert H.cosets() == old_cosets(H)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_pipeline_quotients_match_old_quotient(p):
    paths = Counter()
    for spec in standard_catalogue(48):
        G = catalogue_group(spec)
        # the old cochains kernel: the p-residual, the normal closure of the
        # elements of order prime to p, joined with the order-p elements
        residual = G.normal_closure(g for g in G.elements if g.order() % p)
        for Q, N in (
            (galois_modg(G, p), G.normal_closure(G.order_p_elements(p))),
            (
                galois_cochains(G, p),
                G.normal_closure(list(residual.members) + list(G.order_p_elements(p))),
            ),
        ):
            paths[check_quotient(G, N, Q)] += 1
    # a transitive kernel such as A4's V4 at p = 2 takes the coset path
    assert paths["orbits"] > 200 and paths["cosets"] > 0, paths


def _check_quotient_against_oracles(N):
    """quotient raises NotNormal exactly when is_normal() is false, and
    otherwise passes ``check_quotient``; returns is_normal() and the path."""
    G = N.parent
    if not N.is_normal():
        with pytest.raises(NotNormal):
            G.quotient(N)
        return False, None
    return True, check_quotient(G, N, G.quotient(N))


def test_quotient_matches_is_normal_and_old_quotient_on_catalogue_24():
    seen = Counter(
        _check_quotient_against_oracles(N)
        for _, subs in _catalogue_subgroups(24)
        for N in subs
    )
    # Sylow subgroups are often not normal, so both outcomes are exercised,
    # and the normal ones take both quotient paths
    assert seen[False, None] > 50, seen
    assert seen[True, "orbits"] > 200 and seen[True, "cosets"] > 50, seen


@settings(max_examples=60, deadline=None)
@given(subgroups_of_s4_s5())
def test_quotient_matches_is_normal_and_old_quotient_on_random_subgroups(N):
    _check_quotient_against_oracles(N)


def test_quotient_rejects_non_normal_subgroup_under_optimize():
    # the normality check on the failure path is an if, so python -O keeps it
    code = (
        "from galcalc.catalogue import catalogue_group\n"
        "from galcalc.errors import NotNormal\n"
        "G = catalogue_group('S3')\n"
        "t = next(g for g in G.elements if g.order() == 2)\n"
        "assert False, 'asserts are stripped'\n"
        "try:\n"
        "    G.quotient(G.subgroup_from_generators([t]))\n"
        "except NotNormal:\n"
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


def test_quotient_rejects_wrong_coset_count_under_optimize():
    # the kernel certificate is an explicit check, so python -O keeps it:
    # cosets numbered as those of the trivial subgroup give the regular
    # action, whose order times |N| is not |G|
    code = (
        "import galcalc.perm as perm\n"
        "from galcalc.catalogue import catalogue_group\n"
        "from galcalc.errors import CertificateError\n"
        "cosets = perm.Subgroup.cosets\n"
        "perm.Subgroup.cosets = lambda H: cosets(H.parent.trivial_subgroup())\n"
        "G = catalogue_group('S3')\n"
        "try:\n"
        "    G.quotient(G.normal_closure(G.order_p_elements(3)))\n"
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


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_non_normal_quotient_stops_at_the_index(flags):
    # S7 by a transposition: the coset action is S7 on 2520 points, with
    # 5040 elements.  Its enumeration runs under the bound [G:N] = 2520, so
    # it stops with SizeError there and the normality test rejects N.
    code = (
        "import galcalc.perm as perm\n"
        "from galcalc.catalogue import catalogue_group\n"
        "from galcalc.errors import NotNormal, SizeError\n"
        "enumerate_, runs = perm.PermGroup._enumerate, []\n"
        "def spy(Q):\n"
        "    fresh = Q._elements is None\n"
        "    try:\n"
        "        enumerate_(Q)\n"
        "    except SizeError:\n"
        "        runs.append((Q.degree, Q.max_order, 'SizeError'))\n"
        "        raise\n"
        "    if fresh:\n"
        "        runs.append((Q.degree, Q.max_order, len(Q._elements)))\n"
        "G = catalogue_group('S7')\n"
        "t = next(g for g in G.elements if g.order() == 2)\n"
        "N = G.subgroup_from_generators([t])\n"
        "G.order\n"
        "perm.PermGroup._enumerate = spy\n"
        "try:\n"
        "    G.quotient(N)\n"
        "except NotNormal:\n"
        "    print('rejected', runs)\n"
        "else:\n"
        "    print('accepted', runs)\n"
    )
    src = str(Path(galcalc.__file__).resolve().parents[1])
    out = subprocess.run(
        [sys.executable, *flags, "-c", code],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": src},
        timeout=120,
        check=True,
    )
    assert out.stdout.strip() == "rejected [(2520, 2520, 'SizeError')]"


@pytest.mark.parametrize("pipeline", [galois_modg, galois_cochains])
def test_seeded_kernels_match_full_scan(monkeypatch, pipeline):
    """The kernel the pipeline passes to quotient, from a closure seeded
    with generator powers, has the bits of the one-pass kernel over every
    element of order p (and, for cochains, of order prime to p).  Each
    group is fresh, so a closure that holds every generator hands it its
    element list; a group whose element orders stay unread had its full
    scan skipped by a certificate."""
    kernels = []
    quotient = PermGroup.quotient

    def spy(G, N):
        kernels.append(N)
        return quotient(G, N)

    monkeypatch.setattr(PermGroup, "quotient", spy)
    cochains = pipeline is galois_cochains
    skipped = checked = 0
    for spec in standard_catalogue(48):
        for p in (2, 3, 5, 7, 11):
            G = group_from_catalogue(spec)
            pipeline(G, p)
            skipped += G._orders is None
            N = kernels.pop()
            assert N.parent is G
            scan = G.normal_closure(
                g
                for g, o in zip(G.elements, G.element_orders)
                if o == p or (cochains and o % p)
            )
            assert N.bits == scan.bits, (spec, p)
            checked += 1
    assert checked == 5 * len(standard_catalogue(48))
    assert skipped > checked * 4 // 5, (skipped, checked)


def test_quotient_rejects_transitive_non_normal_subgroup_under_optimize():
    # a Sylow 2-subgroup of S4 is transitive, so its one orbit is mapped
    # onto itself by every generator, yet it is not normal: 1! < [G:N]
    # skips the orbit action, and the coset check rejects it
    code = (
        "from galcalc.catalogue import catalogue_group\n"
        "from galcalc.errors import NotNormal\n"
        "G = catalogue_group('S4')\n"
        "P = G.sylow_subgroup(2)\n"
        "assert False, 'asserts are stripped'\n"
        "shape = len({h[0] for h in P.members}) == 4 and not P.is_normal()\n"
        "try:\n"
        "    G.quotient(P)\n"
        "except NotNormal:\n"
        "    print('rejected', shape)\n"
        "else:\n"
        "    print('accepted', shape)\n"
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
    assert out.stdout.strip() == "rejected True"


def test_element_list_handed_over_from_a_closure_respects_max_order():
    S5 = catalogue_group("S5")
    t = next(g for g in S5.elements if g.order() == 2)
    # a transposition's normal closure is S5 itself: 120 elements
    with pytest.raises(SizeError):
        PermGroup(5, S5.generators, max_order=119).normal_closure([t])
    G = PermGroup(5, S5.generators, max_order=120)
    assert G.normal_closure([t]) == G.full_subgroup()
    assert G._cayley is None  # the element list came from the closure, not a BFS
    assert G.elements == S5.elements
    # the first extension records G's Cayley table, as a BFS of S5 does
    S3 = catalogue_group("S3")
    homs = homomorphisms(G, S3)
    assert G._cayley is not None and G.cayley_table() == S5.cayley_table()
    assert [f._map for f in homs] == [f._map for f in homomorphisms(S5, S3)]
