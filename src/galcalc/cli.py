"""Command-line surface over the pipelines.

Commands:

    modg <G> -p <p>           Galois group of the G-representation category
    cochains <G> -p <p>       Galois group of modules over cochains on BG
    stmod <G> -p <p>          Galois group of the stable module category
    hom <G> <H>               hom-groupoid components and automorphisms
    torsors <G> <H>           torsor classification
    orbit-nerve <G> -p <p>    raw nerve presentation of the skeletal orbit category
    stone <algebra-file>      spectrum and decompositions of a Boolean algebra
    pushout <F0> <F1> <F2> <left-map> <right-map>
                              van Kampen pushout F1 *_F0 F2
    selftest                  one smoke check per layer

``stmod`` and ``orbit-nerve`` build the orbit category on one subgroup
per conjugacy class (its skeleton): an equivalent category, whose nerve
is homotopy equivalent to the full one.  The nerve's pi1 is presented on
a generating set of morphisms, one relation per generator and morphism
into its source.

``pushout`` proves an infinite pushout ``Infinite`` without enumerating
it, from a free factor in its abelianization or from the amalgam
certificate (finite factors, injective legs, neither onto); the text
line and the ``certificate`` field of its JSON (schema 2, null when no
certificate applies) name the certificate and its numbers.  Infinite is
a certified answer, not a hit bound.

Exit codes: 0 success, 2 parse/usage errors, 3 size or bound errors,
4 under --require-identified for any status other than Identified
(Inconclusive, OrderExceeded or Infinite).  JSON output is
byte-deterministic for fixed inputs and bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional

from . import selftest as selftest_mod
from .catalogue import display_name, group_from_catalogue
from .errors import (
    CosetLimitExceeded,
    GalcalcError,
    IllFormedMap,
    MalformedAlgebra,
    ParseError,
    POrderError,
    SizeError,
)
from .fp import DEFAULT_MAX_COSETS, IDENTIFIED, FpMap, IdentificationResult
from .fp import parse_fp, word_from_text
from .groupoid import hom_groupoid
from .gset import classify_torsors
from .perm import DEFAULT_MAX_ORDER, PermGroup
from .pipelines import (
    CERT_FREE_RANK,
    GaloisReport,
    cochains_report,
    galois_stmod,
    modg_report,
    orbit_nerve,
    require_prime_divisor,
    van_kampen_pushout,
)
from .stone import BooleanAlgebra, idempotent_decompositions, spectrum

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_SIZE = 3
EXIT_INCONCLUSIVE = 4


def _max_order(args: argparse.Namespace) -> int:
    if args.max_order is not None:
        return args.max_order
    env = os.environ.get("GALOIS_MAX_ORDER")
    if env:
        try:
            return int(env)
        except ValueError as exc:
            raise ParseError(f"bad GALOIS_MAX_ORDER value {env!r}") from exc
    return DEFAULT_MAX_ORDER


def _group(args: argparse.Namespace, spec: str) -> PermGroup:
    return group_from_catalogue(spec, max_order=_max_order(args))


def _emit(args: argparse.Namespace, payload: dict, text: str) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


def _emit_named(args: argparse.Namespace, report: GaloisReport) -> int:
    # to_json and display_name each run name_group: build only what is printed
    assert report.result_perm is not None
    if args.format == "json":
        _emit(args, report.to_json(), "")
    else:
        _emit(args, {}, display_name(report.result_perm))
    return EXIT_OK


def _cmd_modg(args: argparse.Namespace) -> int:
    return _emit_named(args, modg_report(_group(args, args.group), args.prime))


def _cmd_cochains(args: argparse.Namespace) -> int:
    return _emit_named(args, cochains_report(_group(args, args.group), args.prime))


def _identification_lines(ident: IdentificationResult) -> list[str]:
    """The match and its order, or the status and any certified order."""
    if ident.status == IDENTIFIED:
        return [f"identified {ident.match_name} (order {ident.certified_order})"]
    lines = [f"identification: {ident.status}"]
    if ident.certified_order is not None:
        lines.append(f"certified order: {ident.certified_order}")
    return lines


def _cmd_stmod(args: argparse.Namespace) -> int:
    report = galois_stmod(
        _group(args, args.group), args.prime, max_cosets=args.max_cosets
    )
    ident = report.identification
    assert ident is not None
    lines = _identification_lines(ident)
    lines.append(f"pi0 components: {report.pi0_components}")
    for check in report.cross_checks:
        verdict = "agreed" if check.agreed else "DISAGREED"
        lines.append(f"cross-check {check.path}: {verdict}")
    lines.append(f"note: {report.note}")
    _emit(args, report.to_json(), "\n".join(lines))
    if args.require_identified and ident.status != IDENTIFIED:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _cmd_hom(args: argparse.Namespace) -> int:
    G = _group(args, args.group)
    H = _group(args, args.target)
    report = hom_groupoid(G, H)
    lines = [f"components: {report.component_count()}"]
    for k, (rep, cent) in enumerate(report.components):
        imgs = ", ".join(repr(p) for p in rep.gen_images) or "(trivial map)"
        lines.append(
            f"  [{k}] representative images: {imgs}; automorphisms of order {cent.order}"
        )
    _emit(args, report.to_json(), "\n".join(lines))
    return EXIT_OK


def _cmd_torsors(args: argparse.Namespace) -> int:
    G = _group(args, args.group)
    H = _group(args, args.target)
    classes = classify_torsors(G, H)
    payload = {
        "schema": 1,
        "source": G.name,
        "aux_group": H.name,
        "class_count": len(classes),
        "carrier_size": H.order,
    }
    _emit(
        args,
        payload,
        f"{len(classes)} isomorphism classes of {args.target}-torsors "
        f"over finite {args.group}-sets",
    )
    return EXIT_OK


def _cmd_orbit_nerve(args: argparse.Namespace) -> int:
    G = _group(args, args.group)
    require_prime_divisor(G, args.prime)
    cat, components, F = orbit_nerve(G, G.elementary_abelian_p_subgroups(args.prime))
    payload = {
        "schema": 2,
        "input": {"group": args.group, "prime": args.prime},
        "objects": len(cat.objects),
        "morphisms": len(cat.morphisms),
        "pi0_components": components,
        "presentation": F.spec_text(),
    }
    text = (
        f"skeletal orbit category: {len(cat.objects)} objects, "
        f"{len(cat.morphisms)} morphisms, {components} nerve component(s)\n"
        f"pi1 presentation: {F.spec_text()}"
    )
    _emit(args, payload, text)
    return EXIT_OK


# the integer tables of an algebra file, in from_tables order, each with
# its nesting depth: 0 an integer, 1 a list of them, 2 a list of lists
ALGEBRA_TABLES = {"size": 0, "meet": 2, "join": 2, "complement": 1, "bottom": 0, "top": 0}
NESTED_INTS = ("an integer", "a list of integers", "a list of lists of integers")


def _nested_ints(value: object, depth: int) -> bool:
    if depth == 0:
        return type(value) is int
    return type(value) is list and all(_nested_ints(v, depth - 1) for v in value)


def _algebra(data: object) -> BooleanAlgebra:
    """The Boolean algebra of an algebra file: a JSON object with a list of
    scalar atom labels under "atoms", or else ``ALGEBRA_TABLES``.  A file of
    any other shape raises ParseError naming the fault."""
    if not isinstance(data, dict):
        raise ParseError("bad algebra file: the top level is not a JSON object")
    if "atoms" in data:
        atoms = data["atoms"]
        if not isinstance(atoms, list) or any(isinstance(a, (list, dict)) for a in atoms):
            raise ParseError("bad algebra file: 'atoms' is not a list of scalar labels")
        return BooleanAlgebra.powerset(atoms)
    for key, depth in ALGEBRA_TABLES.items():
        if key not in data:
            raise ParseError(f"bad algebra file: missing {key!r}")
        if not _nested_ints(data[key], depth):
            raise ParseError(f"bad algebra file: {key!r} is not {NESTED_INTS[depth]}")
    return BooleanAlgebra.from_tables(*(data[key] for key in ALGEBRA_TABLES))


def _cmd_stone(args: argparse.Namespace) -> int:
    try:
        with open(args.algebra_file, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read algebra file: {exc}") from exc
    B = _algebra(data)
    atoms = spectrum(B)
    decomps = idempotent_decompositions(B)
    payload = {
        "schema": 1,
        "element_count": len(B),
        "atom_count": len(atoms),
        "decomposition_count": len(decomps),
        "serialized": B.to_json(),
    }
    _emit(
        args,
        payload,
        f"{len(B)} elements, {len(atoms)} atoms, "
        f"{len(decomps)} idempotent decompositions",
    )
    return EXIT_OK


def _parse_map_words(text: str, ngens: int) -> list[tuple[int, ...]]:
    if ngens == 0:
        if text not in ("", "-"):
            raise ParseError("map for a generator-free source must be empty or '-'")
        return []
    chunks = text.split(",")
    if len(chunks) != ngens:
        raise ParseError(f"map needs {ngens} comma-separated words, got {len(chunks)}")
    words = []
    for chunk in chunks:
        chunk = chunk.strip()
        if chunk in ("", "1"):
            words.append(())
        else:
            words.append(word_from_text(chunk))
    return words


def _cmd_pushout(args: argparse.Namespace) -> int:
    F0 = parse_fp(args.source)
    F1 = parse_fp(args.left_target)
    F2 = parse_fp(args.right_target)
    left = FpMap(F0, F1, tuple(_parse_map_words(args.left_map, F0.ngens)))
    right = FpMap(F0, F2, tuple(_parse_map_words(args.right_map, F0.ngens)))
    report = van_kampen_pushout(left, right, max_cosets=args.max_cosets)
    ident = report.identification
    lines = [
        f"pushout presentation: {report.presentation.spec_text()}",
        f"simplified: {report.simplified.spec_text()}",
        f"abelianization invariant factors: {list(report.invariant_factors)}",
    ]
    cert = report.certificate
    if cert is not None and cert.kind == CERT_FREE_RANK:
        lines.append(
            f"identification: {ident.status} "
            f"(free rank: the invariant factor at position {cert.zero_factor} is 0)"
        )
    elif cert is not None:
        (a, b, c), (i, j) = cert.orders, cert.indices
        lines.append(
            f"identification: {ident.status} (amalgam: |A| = {a}, |B| = {b}, "
            f"|C| = {c}, [A:f(C)] = {i}, [B:g(C)] = {j})"
        )
    else:
        lines += _identification_lines(ident)
    _emit(args, report.to_json(), "\n".join(lines))
    if args.require_identified and ident.status != IDENTIFIED:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _cmd_selftest(args: argparse.Namespace) -> int:
    return EXIT_OK if selftest_mod.run_all() == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="galcalc",
        description="Galois groups of representation-theoretic categories "
        "of finite groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(
        p: argparse.ArgumentParser,
        max_order: bool = True,
        max_cosets: bool = False,
        prime: bool = False,
    ) -> None:
        """--format, and the options the command's handler reads."""
        p.add_argument(
            "--format", choices=("text", "json"), default="text",
            help="output format",
        )
        if max_order:
            p.add_argument(
                "--max-order", type=int, default=None,
                help=f"group order bound (default {DEFAULT_MAX_ORDER}; "
                "env GALOIS_MAX_ORDER)",
            )
        if max_cosets:
            p.add_argument(
                "--max-cosets", type=int, default=DEFAULT_MAX_COSETS,
                help="Todd-Coxeter coset bound",
            )
        if prime:
            p.add_argument("-p", "--prime", type=int, required=True,
                           help="characteristic of the ground field")

    p = sub.add_parser("modg", help="Galois group of Mod_G(k)")
    p.add_argument("group")
    add_common(p, prime=True)
    p.set_defaults(func=_cmd_modg)

    p = sub.add_parser("cochains", help="Galois group of Mod(C*(BG;k))")
    p.add_argument("group")
    add_common(p, prime=True)
    p.set_defaults(func=_cmd_cochains)

    p = sub.add_parser(
        "stmod",
        help="Galois group of the stable module category (nerve of the "
        "skeletal orbit category: one object per conjugacy class)",
    )
    p.add_argument("group")
    add_common(p, max_cosets=True, prime=True)
    p.add_argument(
        "--require-identified", action="store_true",
        help="exit 4 unless the result is identified",
    )
    p.set_defaults(func=_cmd_stmod)

    p = sub.add_parser("hom", help="hom-groupoid Hom(BG, BH)")
    p.add_argument("group")
    p.add_argument("target")
    add_common(p)
    p.set_defaults(func=_cmd_hom)

    p = sub.add_parser("torsors", help="torsor classification")
    p.add_argument("group")
    p.add_argument("target")
    add_common(p)
    p.set_defaults(func=_cmd_torsors)

    p = sub.add_parser(
        "orbit-nerve",
        help="raw nerve presentation of the skeletal orbit category "
        "(equivalent to the full one, so the same pi0 and pi1), on a "
        "generating set of morphisms",
    )
    p.add_argument("group")
    add_common(p, prime=True)
    p.set_defaults(func=_cmd_orbit_nerve)

    p = sub.add_parser("stone", help="spectrum of a finite Boolean algebra")
    p.add_argument("algebra_file")
    add_common(p, max_order=False)
    p.set_defaults(func=_cmd_stone)

    p = sub.add_parser("pushout", help="van Kampen pushout of presentations")
    p.add_argument("source", help="fp:<k>:<relators> presentation of the corner")
    p.add_argument("left_target")
    p.add_argument("right_target")
    p.add_argument("left_map", help="comma-separated image words ('1' = empty)")
    p.add_argument("right_map")
    add_common(p, max_order=False, max_cosets=True)
    p.add_argument("--require-identified", action="store_true")
    p.set_defaults(func=_cmd_pushout)

    p = sub.add_parser("selftest", help="one smoke check per layer")
    p.set_defaults(func=_cmd_selftest)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors already
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ParseError, IllFormedMap, MalformedAlgebra, POrderError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (SizeError, CosetLimitExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SIZE
    except GalcalcError as exc:  # remaining domain errors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    raise SystemExit(main())
