"""Default CLI output pinned by digest.

Each command's stdout, in ``--format text`` and ``--format json``, must
hash to the sha256 recorded here, so any change to the default output
(including a reordering of witnesses or representatives) fails this test.
The digests were taken from the code before homomorphism extension was
unified into ``perm.extend_generator_map``.  A deliberate change of the
output format updates them in the same commit.

Four digests were retaken when ``stmod`` and ``orbit-nerve`` moved to
the skeletal orbit category (one object per conjugacy class): the JSON
of ``stmod S4 -p 2`` and ``stmod D8 -p 2``, whose ``presentation`` field
now presents the same nerve pi1 from the smaller category, and both
outputs of ``orbit-nerve S4 -p 2``, which reports the skeleton's objects
and morphisms under JSON schema 2.  The ``stmod`` text digests did not
change.

Three digests were retaken when ``pushout`` learned to certify infinite
pushouts: both outputs of the free product ``C2 * C3`` (``pushout fp:0:
fp:1:aa fp:1:aaa - -``), now ``Infinite`` by the amalgam certificate
instead of ``Inconclusive`` at the coset bound, and the JSON of the A4
gluing, whose report moved to schema 2 with a ``certificate`` field
(null there).  The A4 text digest did not change.

Four digests were retaken when ``nerve_pi1_presentation`` moved from one
generator per morphism and one relation per composable pair to a greedy
generating set of morphisms with one relation per generator and
morphism into its source: the JSON of ``stmod S4 -p 2`` and ``stmod D8
-p 2``, whose ``presentation`` field now presents the same nerve pi1 on
fewer generators, and both outputs of ``orbit-nerve S4 -p 2``, which
print that presentation (12 generators instead of 20 on S4 at p = 2).
The ``stmod`` text digests and every ``pushout`` digest did not change.
"""

import hashlib
import json
import time

import pytest

from galcalc.catalogue import catalogue_group, standard_catalogue
from galcalc.cli import main
from galcalc.groupoid import hom_groupoid
from galcalc.gset import classify_torsors

# command -> (text digest, json digest)
DIGESTS = {
    "modg S4 -p 2": (
        "9be98cc0a38a96f1057ae2da9a307bd9b70e04ede97794d9385d22c0509781cf",
        "dd66097b6af8e49299a6ccc39761979e53a24efa29d932a1e9bccf80addadd20",
    ),
    "cochains A5 -p 2": (
        "9be98cc0a38a96f1057ae2da9a307bd9b70e04ede97794d9385d22c0509781cf",
        "9b69b556d6fcb9a881122d4aaf0b1d06f6b4d1de95e053414c4fd94d0282947e",
    ),
    "stmod S4 -p 2": (
        "73f8ebc5f339dd49d24e26e94f24e7d99571fa272d339e52018933615ba4017b",
        "c0157426ad337a0c82a4041a0b150f6e6b8047b092be4d39e45e366352215a82",
    ),
    "stmod D8 -p 2": (
        "b40f549d4effb21fd4aaf2caf99f01daa70770c28f7702b0f76de1613064984e",
        "8c52fd749906af47359568b3fcba026653a75ab1ec0ec23c7e306f5c1ee3c64f",
    ),
    "hom S3 D8": (
        "a1e8540d610a582c47acb5ac41c7309973af64075c27cff691f8a78595bd4ed4",
        "fe1da35be4f83d15243e5989f5cbdb50ae15492a6edb3d20204d0157343964a4",
    ),
    "hom C4 Q8": (
        "e92830dc64a1a89739b659e55c744b90466069a8c24eec44a61f5b73b7d07a0e",
        "269cae71600ffc9e08f8355f9a93a6c8c57109ffa25d22a9a14e643b6e9fec07",
    ),
    "torsors C2 S3": (
        "32d22fcd2ee10d19db6f37959df17bd2efb8eebfdc50d6d32f7ec4442d0f8b51",
        "c15d95b4ac9eab2a777a8909aa645d9089a311c2ba1e439e676f7f9bf6f25584",
    ),
    "orbit-nerve S4 -p 2": (
        "64bd4dd9cdfcc966a091bd2dd7994b4aad958b641ff8b6cba8a4870213463a14",
        "b09ba3db137a2435e288172d19fbc93c699b99bf29c98cb0c5bc83e1124f97b2",
    ),
    "pushout fp:1: fp:2:aa,bbb,ababab fp:1:aa a a": (
        "7dc131e6977a8a396794ef75315f15d5ce6796bab0e69dd630ac64771932886a",
        "ad7603b24017a847715866179a8718a2cffe5cee2c02075de3e80e0b16fbf32d",
    ),
    "pushout fp:0: fp:1:aa fp:1:aaa - -": (
        "69ba867d9a5599006e9673e022ca13042326c4fe3896ce811bb2ec83c7c84b3d",
        "0b4da1a8332001d85502852f629572771aa0e35f508936ebf77cdfd9d7e751f2",
    ),
}


@pytest.mark.parametrize("command", list(DIGESTS))
def test_default_output_digest(capsys, command):
    for fmt, expected in zip(("text", "json"), DIGESTS[command]):
        assert main(command.split() + ["--format", fmt]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == expected, (command, fmt)


def test_golden_list_is_fast(capsys):
    start = time.perf_counter()
    for command in DIGESTS:
        for fmt in ("text", "json"):
            main(command.split() + ["--format", fmt])
    capsys.readouterr()
    assert time.perf_counter() - start < 5.0


# every ordered pair of the catalogue types of order <= 12 but C2xC2xC2
SWEEP_SPECS = [s for s in standard_catalogue(12) if s != "C2xC2xC2"]
SWEEP_DIGEST = "3c9f01842d0fc298ae76fb38450acdcc307b954f0bd8c3a53e699139e3364f29"


def test_hom_torsor_sweep_digest():
    """One digest over ``hom_groupoid(G, H).to_json()`` and the base
    generator maps of ``classify_torsors(G, H)``'s classes, for each
    ordered pair of the 22 types in ``SWEEP_SPECS``.  It was taken on the
    code before the hom layer bound its maps once per call (one bound map
    per generator image in ``extend_generator_map``, cached generating
    sets and catalogue lists, ``itemgetter`` torsor keys)."""
    assert len(SWEEP_SPECS) == 22
    digest = hashlib.sha256()
    for g in SWEEP_SPECS:
        for h in SWEEP_SPECS:
            G, H = catalogue_group(g), catalogue_group(h)
            torsors = classify_torsors(G, H)
            payload = {
                "groupoid": hom_groupoid(G, H).to_json(),
                "torsors": [[list(m) for m in T.base._gen_maps] for T in torsors],
            }
            digest.update(json.dumps(payload, sort_keys=True).encode())
    assert digest.hexdigest() == SWEEP_DIGEST
