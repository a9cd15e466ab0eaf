"""Benchmark of galcalc on four seeded case matrices.

Usage (from the repository root):

    python3 galbench/run.py --workload stmod --seed 1 --seconds 25 --trace 0

A run is a closed loop with one client: each round starts a fresh
interpreter (``worker.py``) that imports the program, builds the seeded
cases and runs every case once, one after another.  Whole rounds repeat
while the next one still fits in ``--seconds``; set-up is also probed in
separate interpreters that stop once the cases are built.  Every time
is reported in seconds at reference speed, scaled by a reference
workload timed while the cases run (see ``worker.py``).  The outputs of
the first round go through the independent checks of ``checks.py``;
every later round must give the same outputs.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the
per-layer self times and counts from traced rounds plus one round that
only counts Perm multiplications.  The last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import cases as case_mod  # noqa: E402
import checks  # noqa: E402
import layers  # noqa: E402

SETUP_PROBES = 5
OUT_DIR = HERE / "out"

# Every time is reported in seconds at reference speed: the raw time
# multiplied by REF_S over the reference time the worker measured around
# it (see worker.py).  On the 2-core host of the README the reference
# takes 3.6 ms at its fastest and about 4 to 8 ms otherwise.
REF_S = 0.004


def scaled(seconds: float, ref: float) -> float:
    return seconds * REF_S / ref


def scaled_times(payload) -> list[float]:
    return [scaled(t, r) for t, r in zip(payload["times"], payload["case_refs"])]


def spawn_round(workload: str, seed: int, mode: str):
    """Run one worker; returns (scaled set-up seconds, payload)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", workload, "--seed", str(seed), "--mode", mode,
    ]
    env = dict(os.environ, PYTHONHASHSEED="0")
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT) as proc:
        first = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    if first.strip() != "ready" or code != 0:
        raise RuntimeError(f"worker failed (exit {code}) in mode {mode}")
    payload = json.loads(rest.strip().splitlines()[-1])
    return scaled(setup, payload["setup_ref"]), payload


def run_rounds(workload: str, seed: int, seconds: float, mode: str):
    """Whole rounds of ``mode`` while the next one, taking as long as the
    last, still ends within ``seconds`` (always at least one round)."""
    rounds, setups = [], []
    start = time.perf_counter()
    last = 0.0
    while not rounds or time.perf_counter() - start + last <= seconds:
        began = time.perf_counter()
        setup, payload = spawn_round(workload, seed, mode)
        last = time.perf_counter() - began
        rounds.append(payload)
        setups.append(setup)
    return rounds, setups


def check_rounds(cases, rounds, oracle) -> tuple[list[str], list[str]]:
    """Failed cases (they raised) and problems found in the outputs."""
    first = rounds[0]
    failures, problems = [], []
    for i, case in enumerate(cases):
        if first["errors"][i] is not None:
            failures.append(f"{case.label}: {first['errors'][i]}")
            continue
        problems += [
            f"{case.label}: {p}"
            for p in checks.case_problems(case, first["outputs"][i], oracle[i])
        ]
    for k, later in enumerate(rounds[1:], start=2):
        for i, case in enumerate(cases):
            if later["errors"][i] is not None:
                failures.append(f"{case.label} (round {k}): {later['errors'][i]}")
            elif first["errors"][i] is None and later["outputs"][i] != first["outputs"][i]:
                problems.append(f"{case.label} (round {k}): output differs from round 1")
    return failures, problems


def end_to_end(rounds, setups) -> tuple[dict, list[str]]:
    times = [scaled_times(r) for r in rounds]
    # each case's median over rounds; p50 and max are taken over these
    per_case = [statistics.median(ts) for ts in zip(*times)]
    samples = len(per_case) * len(rounds)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.median(sum(ts) for ts in times), "s"),
        "case_p50_s": (statistics.median(per_case), "s"),
        "case_max_s": (max(per_case), "s"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds), "MB"),
    }
    raw_wall = statistics.median(sum(r["times"]) for r in rounds)
    refs = [ref for r in rounds for ref in r["case_refs"]]
    notes = [
        f"rounds: {len(rounds)}, case samples: {samples}, set-up samples: {len(setups)}",
        f"unscaled wall_s: {raw_wall:.4f}, median reference time: {statistics.median(refs):.5f}"
        f" s (scaled to {REF_S} s)",
    ]
    return metrics, notes


def per_layer(rounds, count_round) -> tuple[dict, list[str], list[str]]:
    problems = []
    totals = []
    for r in rounds:
        acc = dict.fromkeys(layers.TIMED, 0.0)
        for selfs, ref in zip(r["layer_self"], r["case_refs"]):
            for name, value in selfs.items():
                if name in acc:
                    acc[name] += scaled(value, ref)
        totals.append(acc)
        if not r["self_within_wall"]:
            problems.append("layer self times exceed a case's wall time")
        if r["counts"] != rounds[0]["counts"]:
            problems.append("layer counts differ between traced rounds")
    metrics = {
        f"{name}_s": (statistics.median(t[name] for t in totals), "s")
        for name in layers.TIMED
    }
    counts = dict(rounds[0]["counts"], **{"perm.products": count_round["products"]})
    for name in layers.COUNTS:
        metrics[name] = (counts.get(name, 0), "count")
    traced_wall = statistics.median(sum(scaled_times(r)) for r in rounds)
    notes = [f"traced rounds: {len(rounds)}, traced wall_s: {traced_wall:.4f}"]
    return metrics, notes, problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=case_mod.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "galcalc" / "__init__.py").is_file():
        print(f"galcalc sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    cases = case_mod.build_cases(args.workload, args.seed)
    try:
        spawn_round(args.workload, args.seed, "probe")  # fills bytecode caches
        if args.trace:
            rounds, _ = run_rounds(args.workload, args.seed, args.seconds, "spans")
            _, count_round = spawn_round(args.workload, args.seed, "count")
            metrics, notes, layer_problems = per_layer(rounds, count_round)
            all_rounds = rounds + [count_round]
        else:
            setups = [spawn_round(args.workload, args.seed, "probe")[0] for _ in range(SETUP_PROBES)]
            rounds, round_setups = run_rounds(args.workload, args.seed, args.seconds, "time")
            metrics, notes = end_to_end(rounds, setups + round_setups)
            layer_problems = []
            all_rounds = rounds
        oracle = [None] * len(cases)
        if args.workload == "homsweep":
            oracle = spawn_round(args.workload, args.seed, "oracle")[1]["oracle"]
    except (RuntimeError, json.JSONDecodeError, IndexError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    failures, problems = check_rounds(cases, all_rounds, oracle)
    problems += layer_problems

    OUT_DIR.mkdir(exist_ok=True)
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "cases": [c.label for c in cases],
        "times": [r["times"] for r in all_rounds],
        "case_refs": [r["case_refs"] for r in all_rounds],
        "failures": failures,
        "problems": problems,
        "metrics": {k: v for k, (v, _) in metrics.items()},
    }
    if args.trace:
        detail["layer_self"] = [r["layer_self"] for r in rounds]
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(detail))

    print(f"workload {args.workload}, seed {args.seed}, {len(cases)} cases per round")
    for line in notes:
        print(line)
    for line in failures:
        print(f"FAILED {line}")
    for line in problems:
        print(f"PROBLEM {line}")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value} {unit}")
    result = {
        "correct": not problems,
        "attempted": len(cases) * len(all_rounds),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
