"""Smoke test of one galbench round against the current program.

``galbench/run.py`` ends a whole benchmark run with exit 1 when a worker
exits non-zero or its last stdout line is not JSON, while a case that
raises inside the worker's per-case ``try`` is only counted.  So a fault
in ``extract``, the JSON dump or the reference sampling stops the
benchmark.  This runs ``galbench/worker.py`` as ``run.py`` starts it and
checks that a round ends cleanly: exit 0, ``ready`` first, a JSON last
line and no case errors.  The ``count`` round also shows that the
benchmark's rebinding of ``Perm.__mul__`` still counts products.  A
``spans`` round installs the tracer, which resolves every name in
``galbench/layers.py`` ``WRAPPED`` and reads ``PermGroup._elements`` of
the catalogue groups it hands out; a name that stops resolving ends the
round with exit 1.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
WORKER = ROOT / "galbench" / "worker.py"


def run_round(workload: str, mode: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(WORKER), "--workload", workload, "--seed", "1", "--mode", mode],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONHASHSEED="0"),
        cwd=ROOT,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "ready"
    payload = json.loads(lines[-1])
    assert payload["times"] and len(payload["outputs"]) == len(payload["times"])
    assert payload["errors"] == [None] * len(payload["times"])
    return payload


@pytest.mark.parametrize("workload", ["stmod", "quotients", "pushouts", "homsweep"])
def test_time_round_ends_cleanly(workload):
    payload = run_round(workload, "time")
    assert None not in payload["outputs"]


def test_count_round_counts_products():
    assert run_round("stmod", "count")["products"] > 0


@pytest.mark.parametrize(
    "workload, count, span",
    [
        # stmod names groups through catalogue_group, so _elements is read
        ("stmod", "catalogue.groups_enumerated", "orbitcat.orbit_category"),
        ("quotients", "perm.normal_closure_calls", "perm.quotient"),
    ],
)
def test_spans_round_traces_the_layers(workload, count, span):
    payload = run_round(workload, "spans")
    assert None not in payload["outputs"] and payload["self_within_wall"]
    assert payload["counts"][count] > 0
    assert any(span in case for case in payload["layer_self"])
