"""Fast tests of the benchmark's own machinery.

Run with ``python -m pytest -q galbench`` from the repository root.
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import cases  # noqa: E402
import checks  # noqa: E402
import layers  # noqa: E402
import worker  # noqa: E402
from galcalc.catalogue import group_from_catalogue  # noqa: E402
from galcalc.fp import identify_finite, parse_fp  # noqa: E402


def test_certificate_checker_rejects_bogus_witness_and_accepts_real_one():
    F = parse_fp("fp:1:aaa")
    relators = [list(r) for r in F.relators]
    trivial = [list(cases.identity(3))]
    assert checks.certificate_problems(relators, trivial, 3)

    real = identify_finite(F, [group_from_catalogue("C3")])
    assert real.status == "Identified"
    witness = [list(p.images) for p in real.witness]
    assert checks.certificate_problems(relators, witness, real.certified_order) == []
    # a true relator set with a witness of the wrong order is refused too
    assert checks.certificate_problems(relators, witness, 6)


def test_self_times_of_nested_spans():
    # a [0, 10] holds b [1, 4] (which holds c [2, 3]) and d [5, 9]
    spans = [
        ("a", 0.0, 10.0, -1),
        ("b", 1.0, 4.0, 0),
        ("c", 2.0, 3.0, 1),
        ("d", 5.0, 9.0, 0),
        ("c", 9.5, 9.75, -1),
    ]
    selfs = layers.self_times(spans)
    assert selfs == {"a": 3.0, "b": 2.0, "c": 1.25, "d": 4.0}
    assert sum(selfs.values()) == 10.25


def test_case_reference_is_harmonic_mean_of_nearby_samples():
    speed = worker.HostSpeed()
    near = worker.REF_NEAR_S
    # (clock reading, reference seconds); the case runs over [10, 11]
    speed.samples = [(10 - 2 * near, 1.0), (10 - near / 2, 0.002), (10.5, 0.004),
                     (11 + near / 2, 0.004), (11 + 2 * near, 1.0)]
    assert abs(speed.reference(10.0, 11.0) - 3 / (1 / 0.002 + 2 / 0.004)) < 1e-12


def test_relabelled_input_gives_the_same_answer():
    def stmod_case(seed):
        return next(c for c in cases.build_cases("stmod", seed) if c.label == "S4@3")

    one, two = stmod_case(1), stmod_case(2)
    assert one.specs != two.specs
    answers = []
    for case in (one, two):
        out = worker.extract(case, worker.run_stmod(case))
        assert checks.stmod_problems(case, out) == []
        answers.append((out["status"], out["certified_order"], out["match"]))
    assert answers[0] == answers[1] == ("Identified", 2, "C2")


def test_seeded_cases_repeat():
    for workload in cases.WORKLOADS:
        assert cases.build_cases(workload, 7) == cases.build_cases(workload, 7)
