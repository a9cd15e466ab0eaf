"""Time the stages of ``galois_stmod`` on large cases: the reach ladder.

Each run is a fresh interpreter that imports galcalc from this checkout's
``src/``, builds the group and runs ``galois_stmod`` once, with every
stage's function wrapped in a ``time.perf_counter`` timer.  The wrappers
rebind each name in the galcalc modules that holds the function, so the
program's files are untouched.  Each stage and the total take their best
over the runs, and one markdown table row is printed per case:

    | Case | Family | Gens / rels | elementary_abelian | reps | orbit_category | nerve | simplify | identify | Total | Digest |

Family is the number of nontrivial elementary abelian p-subgroups, reps
is ``conjugacy_class_representatives``, identify is ``identify_finite``
(naming the certified group against the candidate pool), and gens / rels
count the nerve presentation before ``simplify``.  Digest is the first
12 hex digits of the sha256 of the simplified presentation's
``spec_text()``, so rows taken from two checkouts show whether
``simplify`` gave the same output.  Stdlib only:

    python3 tools/reach_ladder.py --repeat 3 S7@2 A8@3
    python3 tools/reach_ladder.py --max-order 100000 'perm:12:...@3'
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# column -> (module, attribute path) of the timed function
STAGES = {
    "elementary_abelian": ("galcalc.perm", "PermGroup.elementary_abelian_p_subgroups"),
    "reps": ("galcalc.orbitcat", "conjugacy_class_representatives"),
    "orbit_category": ("galcalc.orbitcat", "orbit_category"),
    "nerve": ("galcalc.orbitcat", "nerve_pi1_presentation"),
    "simplify": ("galcalc.fp", "simplify"),
    "identify": ("galcalc.fp", "identify_finite"),
}

DEFAULT_CASES = (
    "S7@2",
    "C2xC2xC2xC6@2",
    "C3xC3xC3xC3@3",
    "C2xC2xC2xC2xC2@2",
    "A8@3",
)


def _wrap(times: dict, results: dict, name: str, module: str, path: str) -> None:
    """Rebind every galcalc name that holds the function with a timer."""
    owner = sys.modules[module]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    original = getattr(owner, attr)

    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            out = results[name] = original(*args, **kwargs)
            return out
        finally:
            times[name] = times.get(name, 0.0) + time.perf_counter() - start

    setattr(owner, attr, timed)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name.startswith("galcalc"):
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, timed)


def run_once(case: str, max_order: int) -> dict:
    """One cold run of a case in this interpreter: stage times and sizes."""
    sys.path.insert(0, str(SRC))
    import galcalc.pipelines  # noqa: F401  (loads every module wrapped below)
    from galcalc.catalogue import group_from_catalogue
    from galcalc.pipelines import galois_stmod

    spec, p = case.rsplit("@", 1)
    times: dict = {}
    results: dict = {}
    for name, (module, path) in STAGES.items():
        _wrap(times, results, name, module, path)
    G = group_from_catalogue(spec, max_order=max_order)
    start = time.perf_counter()
    report = galois_stmod(G, int(p))
    times["total"] = time.perf_counter() - start
    F, Fs = results["nerve"], results["simplify"]
    return {
        "times": times,
        "family": len(results["elementary_abelian"]),
        "gens": F.ngens,
        "rels": len(F.relators),
        "digest": hashlib.sha256(Fs.spec_text().encode()).hexdigest()[:12],
        "status": report.identification.status,
    }


def best_of(case: str, max_order: int, repeat: int) -> dict:
    """The best time per stage over ``repeat`` fresh interpreters."""
    runs = []
    for _ in range(repeat):
        cmd = [sys.executable, __file__, "--once", "--max-order", str(max_order), case]
        out = subprocess.run(cmd, capture_output=True, text=True)
        if out.returncode != 0:
            raise SystemExit(f"{case}: run failed\n{out.stderr}")
        runs.append(json.loads(out.stdout))
    best = dict(runs[0])
    best["times"] = {
        k: min(r["times"].get(k, 0.0) for r in runs) for k in runs[0]["times"]
    }
    return best


def row(case: str, r: dict) -> str:
    t = r["times"]
    cells = [case, str(r["family"]), f"{r['gens']} / {r['rels']}"]
    cells += [f"{t.get(name, 0.0):.3f}" for name in (*STAGES, "total")]
    cells.append(r["digest"])
    return "| " + " | ".join(cells) + " |"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("cases", nargs="*", default=DEFAULT_CASES, help="SPEC@P")
    ap.add_argument("--repeat", type=int, default=3, help="runs per case (best of)")
    ap.add_argument("--max-order", type=int, default=40320)
    ap.add_argument("--once", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.once:
        print(json.dumps(run_once(args.cases[0], args.max_order)))
        return 0
    print("| Case | Family | Gens / rels | " + " | ".join(STAGES) + " | Total | Digest |")
    print("|" + "---|" * (len(STAGES) + 5))
    for case in args.cases:
        print(row(case, best_of(case, args.max_order, args.repeat)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
