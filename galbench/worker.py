"""One round of a workload in a fresh interpreter.

Started by ``run.py``.  Imports the program from ``src/``, builds the
seeded cases and writes ``ready`` (the end of set-up), then runs every
case once, one after another, timing each call into the program.  The
last stdout line is a JSON object with the per-case times, the reference
time measured around each case and right after set-up, the outputs the
checks need, the peak RSS of this process and, when traced, the per-case
layer self times and counts.  A traced round also writes its
spans (name, start and end relative to the case start, parent index) to
``out/spans-<workload>-seed<seed>.json``.

Modes: ``time`` (plain), ``spans`` (layer spans and counts), ``count``
(Perm multiplications only; its times are not used), ``probe`` (stop
after set-up and its reference time) and ``oracle`` (untimed brute-force hom-groupoid check of
every homsweep pair within the oracle's bound).
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT_DIR = HERE / "out"
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

# import time is part of set-up; calls go through the module attributes so
# that the tracer's rebinding of those names is seen
from galcalc import groupoid, gset, perm, pipelines  # noqa: E402
from galcalc.catalogue import group_from_catalogue  # noqa: E402
from galcalc.fp import FpMap, parse_fp, word_from_text  # noqa: E402

import cases as case_mod  # noqa: E402
import layers  # noqa: E402

# Host speed.  On a shared CPU the same fixed work can take from one to
# two times its fastest time, in phases lasting from under a second to
# minutes (measured on the 2-core host of the README), so two runs of
# identical work can differ by half.  While cases
# run, a timer signal therefore interrupts the worker every REF_GAP_S to
# time a fixed reference workload.  Each case is given the harmonic mean
# of the samples taken during it and within REF_NEAR_S of its ends, and
# run.py scales the case's time by that reference time.  The sampling
# itself is left out of every time (see HostSpeed.clock).
REF_GENS = case_mod.symmetric(6).gens
REF_GAP_S = 0.05
REF_NEAR_S = 0.3

# the brute-force hom-groupoid oracle runs on pairs whose functor groupoid
# has at most this many morphisms (|Hom(G, H)| * |H|); its invertibility
# check is quadratic in that number
ORACLE_MORPHISMS = 144


# -- cases: each returns the raw program result; extract() reads it later --


def run_stmod(case):
    G = group_from_catalogue(case.specs[0])
    return pipelines.galois_stmod(G, case.prime)


def run_quotient(case):
    G = group_from_catalogue(case.specs[0])
    pipeline = pipelines.galois_modg if case.kind == "modg" else pipelines.galois_cochains
    Q = pipeline(G, case.prime)
    Q.order  # the quotient is lazy: its element list is part of the answer
    return Q


def run_hom(case):
    G = group_from_catalogue(case.specs[0])
    H = group_from_catalogue(case.specs[1])
    report = groupoid.hom_groupoid(G, H)
    named = report.to_json()
    torsors = gset.classify_torsors(G, H)
    return report, named, torsors


def _map_words(text: str) -> tuple:
    return () if text in ("", "1") else (word_from_text(text),)


def run_pushout(case):
    source, left_t, right_t, left_w, right_w = case.specs
    F0, F1, F2 = parse_fp(source), parse_fp(left_t), parse_fp(right_t)
    left = FpMap(F0, F1, _map_words(left_w) if F0.ngens else ())
    right = FpMap(F0, F2, _map_words(right_w) if F0.ngens else ())
    return pipelines.van_kampen_pushout(left, right)


RUNNERS = {
    "stmod": run_stmod,
    "modg": run_quotient,
    "cochains": run_quotient,
    "hom": run_hom,
    "free": run_pushout,
    "glue": run_pushout,
}


def _images(perms) -> list:
    return [list(p.images) for p in perms]


def _identification(ident, presentation) -> dict:
    return {
        "status": ident.status,
        "certified_order": ident.certified_order,
        "match": ident.match_name,
        "witness": None if ident.witness is None else _images(ident.witness),
        "candidate_order": None if ident.candidate is None else ident.candidate.order,
        "ngens": presentation.ngens,
        "relators": [list(r) for r in presentation.relators],
    }


def extract(case, result) -> dict:
    """What the checks need from a result, as plain JSON data."""
    if case.kind == "stmod":
        out = _identification(result.identification, result.simplified)
        out["cross_checks"] = [[c.path, c.agreed] for c in result.cross_checks]
        return out
    if case.kind in ("modg", "cochains"):
        return {"order": result.order, "degree": result.degree, "gens": _images(result.generators)}
    if case.kind == "hom":
        report, named, torsors = result
        return {
            "components": [
                [_images(rep.gen_images), cent.order] for rep, cent in report.components
            ],
            "names": [c["automorphisms"]["group"] for c in named["components"]],
            "torsor_classes": len(torsors),
        }
    out = _identification(result.identification, result.simplified)
    out["factors"] = list(result.invariant_factors)
    return out


def oracle(case) -> bool | None:
    """Structural hom-groupoid against the brute-force functor groupoid."""
    G = group_from_catalogue(case.specs[0])
    H = group_from_catalogue(case.specs[1])
    n_homs = len(perm.homomorphisms(G, H))
    if n_homs * H.order > ORACLE_MORPHISMS:
        return None
    return groupoid.hom_groupoids_agree(G, H)


def reference_time() -> float:
    """Seconds the reference workload takes now: three closures of S6.

    Garbage collection is held off meanwhile: the sample frees all it
    allocates, so it does not move the program's own collections."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        for _ in range(3):
            case_mod.closure(REF_GENS, 6)
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


class HostSpeed:
    """Reference samples taken every REF_GAP_S from SIGALRM while active."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (clock(), reference s)
        self.paused = 0.0

    def clock(self) -> float:
        """perf_counter() less the time spent sampling.  A sample can land
        between the two reads; the reading is then taken again."""
        while True:
            paused = self.paused
            now = time.perf_counter()
            if self.paused == paused:
                return now - paused

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        ref = reference_time()
        self.paused += time.perf_counter() - start
        self.samples.append((self.clock(), ref))

    def __enter__(self) -> "HostSpeed":
        self._sample()
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, REF_GAP_S, REF_GAP_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def reference(self, start: float, end: float) -> float:
        """Reference time over [start, end] (clock() readings)."""
        near = [r for t, r in self.samples if start - REF_NEAR_S <= t <= end + REF_NEAR_S]
        return statistics.harmonic_mean(near)


MODES = ("time", "spans", "count", "probe", "oracle")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=case_mod.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=MODES, default="time")
    args = ap.parse_args(argv)

    cases = case_mod.build_cases(args.workload, args.seed)
    print("ready", flush=True)
    setup_ref = statistics.median(reference_time() for _ in range(3))
    if args.mode == "probe":
        print(json.dumps({"setup_ref": setup_ref}), flush=True)
        return 0
    if args.mode == "oracle":
        print(json.dumps({"oracle": [oracle(c) for c in cases], "setup_ref": setup_ref}), flush=True)
        return 0

    speed = HostSpeed()
    tracer = layers.Tracer(speed.clock) if args.mode == "spans" else None
    counter = layers.ProductCounter() if args.mode == "count" else None
    for hook in (tracer, counter):
        if hook is not None:
            hook.install()

    clock = speed.clock
    times, bounds, outputs, errors, layer_self, wall_ok = [], [], [], [], [], True
    case_spans = []
    with speed:
        for case in cases:
            runner = RUNNERS[case.kind]
            if tracer is not None:
                tracer.start_case()
            start = clock()
            try:
                result = runner(case)
                error = None
            except Exception as exc:  # a failed case is counted, not fatal
                result, error = None, f"{type(exc).__name__}: {exc}"
            end = clock()
            times.append(end - start)
            bounds.append((start, end))
            errors.append(error)
            if tracer is not None:
                spans = tracer.end_case()
                selfs = layers.self_times(spans)
                layer_self.append(selfs)
                wall_ok = wall_ok and sum(selfs.values()) <= end - start
                case_spans.append([(n, a - start, b - start, up) for n, a, b, up in spans])
            outputs.append(None if result is None else extract(case, result))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for hook in (tracer, counter):
        if hook is not None:
            hook.uninstall()

    payload = {
        "times": times,
        "errors": errors,
        "outputs": outputs,
        "peak_rss_mb": peak_rss_mb,
        "setup_ref": setup_ref,
        "case_refs": [speed.reference(a, b) for a, b in bounds],
    }
    if tracer is not None:
        counts = dict(tracer.counts)
        counts["catalogue.groups_enumerated"] = tracer.groups_enumerated()
        payload["layer_self"] = layer_self
        payload["counts"] = counts
        payload["self_within_wall"] = wall_ok
        OUT_DIR.mkdir(exist_ok=True)
        trace_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        trace_file.write_text(
            json.dumps({"cases": [c.label for c in cases], "spans": case_spans})
        )
    if counter is not None:
        payload["products"] = counter.products
    print(json.dumps(payload), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
