"""CLI surface: commands, formats, exit codes, determinism."""

import json
import time

import pytest

from galcalc import catalogue, groupoid, pipelines, selftest
from galcalc.cli import main
from galcalc.groupoid import HomGroupoidReport


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_modg_text(capsys):
    code, out, _ = run_cli(capsys, "modg", "Q8", "-p", "2")
    assert code == 0
    assert out.strip() == "C2 x C2 (order 4)"


@pytest.mark.parametrize(
    "spec, expected", [("S6", "S6 (order 720)"), ("A6", "A6 (order 360)")]
)
def test_modg_names_regular_representation(capsys, spec, expected):
    # p = 7 divides neither order, so the answer is G itself acting on
    # its own elements, in degree |G|
    code, out, _ = run_cli(capsys, "modg", spec, "-p", "7")
    assert code == 0
    assert out.strip() == expected


@pytest.mark.parametrize("command", ["modg", "cochains"])
@pytest.mark.parametrize("fmt", ["text", "json"])
def test_result_named_once_per_run(capsys, monkeypatch, command, fmt):
    calls = []
    name_group = catalogue.name_group

    def counted(G):
        calls.append(G.order)
        return name_group(G)

    # display_name looks the name up in catalogue, GaloisReport.to_json in pipelines
    monkeypatch.setattr(catalogue, "name_group", counted)
    monkeypatch.setattr(pipelines, "name_group", counted)
    code, out, _ = run_cli(capsys, command, "S4", "-p", "3", "--format", fmt)
    assert code == 0
    assert out.strip()
    assert len(calls) == 1


def test_stmod_text(capsys):
    code, out, _ = run_cli(capsys, "stmod", "S3", "-p", "3")
    assert code == 0
    assert "identified C2" in out
    assert "StmodWeylRankOne: agreed" in out


def test_stmod_json_deterministic(capsys):
    code, out1, _ = run_cli(capsys, "stmod", "S3", "-p", "3", "--format", "json")
    assert code == 0
    code, out2, _ = run_cli(capsys, "stmod", "S3", "-p", "3", "--format", "json")
    assert out1 == out2  # byte-deterministic
    data = json.loads(out1)
    assert data["schema"] == 1
    assert data["result"]["identification"]["match"]["name"] == "C2"
    assert [c["path"] for c in data["cross_checks"]]


def test_cochains(capsys):
    code, out, _ = run_cli(capsys, "cochains", "C6", "-p", "2")
    assert code == 0
    assert "C1" in out or "order 1" in out


def test_hom_command(capsys):
    code, out, _ = run_cli(capsys, "hom", "C2", "S3")
    assert code == 0
    assert "components: 2" in out
    assert "order 6" in out and "order 2" in out


def test_hom_json(capsys):
    code, out, _ = run_cli(capsys, "hom", "C2", "S3", "--format", "json")
    data = json.loads(out)
    orders = sorted(c["automorphisms"]["order"] for c in data["components"])
    assert orders == [2, 6]


def test_torsors_command(capsys):
    code, out, _ = run_cli(capsys, "torsors", "C2", "S3")
    assert code == 0
    assert out.startswith("2 isomorphism classes")


def test_orbit_nerve_command(capsys):
    code, out, _ = run_cli(capsys, "orbit-nerve", "S3", "-p", "3")
    assert code == 0
    assert "1 objects" in out
    assert "fp:1:aa" in out


def test_stone_command(tmp_path, capsys):
    f = tmp_path / "algebra.json"
    f.write_text(json.dumps({"atoms": ["x", "y", "z"]}))
    code, out, _ = run_cli(capsys, "stone", str(f))
    assert code == 0
    assert "8 elements, 3 atoms, 5 idempotent decompositions" in out


def test_stone_tables_file(tmp_path, capsys):
    payload = {
        "size": 2,
        "meet": [[0, 0], [0, 1]],
        "join": [[0, 1], [1, 1]],
        "complement": [1, 0],
        "bottom": 0,
        "top": 1,
    }
    f = tmp_path / "two.json"
    f.write_text(json.dumps(payload))
    code, out, _ = run_cli(capsys, "stone", str(f), "--format", "json")
    assert code == 0
    assert json.loads(out)["atom_count"] == 1


TWO_TABLES = {
    "size": 2, "meet": [[0, 0], [0, 1]], "join": [[0, 1], [1, 1]],
    "complement": [1, 0], "bottom": 0, "top": 1,
}


@pytest.mark.parametrize(
    "payload, fault",
    [
        (5, "the top level is not a JSON object"),
        (None, "the top level is not a JSON object"),
        ([1, 2], "the top level is not a JSON object"),
        ("atoms", "the top level is not a JSON object"),
        ({"atoms": 5}, "'atoms' is not a list of scalar labels"),
        ({"atoms": [[1], [2]]}, "'atoms' is not a list of scalar labels"),
        (dict(TWO_TABLES, meet=5), "'meet' is not a list of lists of integers"),
        (dict(TWO_TABLES, complement=[1, "0"]), "'complement' is not a list of integers"),
        (dict(TWO_TABLES, size=[2]), "'size' is not an integer"),
        ({k: v for k, v in TWO_TABLES.items() if k != "top"}, "missing 'top'"),
    ],
)
def test_stone_rejects_malformed_files(tmp_path, capsys, payload, fault):
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(payload))
    code, out, err = run_cli(capsys, "stone", str(f))
    assert code == 2 and out == ""
    assert err == f"error: bad algebra file: {fault}\n"


def test_pushout_command(capsys):
    code, out, _ = run_cli(capsys, "pushout", "fp:1:", "fp:1:", "fp:0:", "aa", "1")
    assert code == 0
    assert "identified C2" in out
    assert "[2]" in out


def test_pushout_inconclusive_prints_certified_order(capsys):
    # C3 x| C4 has order 12 but no catalogue group of order 12 matches
    code, out, _ = run_cli(capsys, "pushout", "fp:0:", "fp:2:aaa,bbbb,baBa", "fp:0:", "-", "-")
    assert code == 0
    assert out.splitlines()[-2:] == ["identification: Inconclusive", "certified order: 12"]
    code, out, _ = run_cli(
        capsys, "pushout", "fp:0:", "fp:2:aaa,bbbb,baBa", "fp:0:", "-", "-",
        "--format", "json",
    )
    assert json.loads(out)["identification"]["certified_order"] == 12


def test_exit_code_parse_error(capsys):
    code, _, err = run_cli(capsys, "modg", "NOPE", "-p", "2")
    assert code == 2
    assert "error:" in err


def test_exit_code_p_order(capsys):
    code, _, err = run_cli(capsys, "stmod", "C5", "-p", "3")
    assert code == 2
    assert "stable module category is zero" in err


def test_exit_code_size(capsys):
    code, _, err = run_cli(capsys, "modg", "S8", "-p", "2")
    assert code == 3


@pytest.mark.parametrize("spec", ["S30", "S1700", "A1800", "S1000000"])
def test_huge_family_order_is_refused_without_computing_it(capsys, monkeypatch, spec):
    # S1700! has more digits than Python formats and 1000000! takes minutes:
    # with math.factorial unset, the bound check never computes n!
    monkeypatch.setattr(catalogue.math, "factorial", None)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "modg", spec, "-p", "2")
    assert time.perf_counter() - start < 1.0
    assert code == 3 and out == ""
    assert err.splitlines() == [f"error: {spec}: order exceeds bound 20000"]


@pytest.mark.parametrize("form", ["C{}", "S{}", "A{}", "D{}", "C2xC{}"])
def test_spec_number_past_the_digit_limit_is_a_parse_error(capsys, form):
    # int() refuses more than 4300 digits; the refusal names the spec
    spec = form.format("9" * 5000)
    code, out, err = run_cli(capsys, "modg", spec, "-p", "2")
    assert code == 2 and out == ""
    (line,) = err.splitlines()
    assert line == f"error: number too long in group spec {spec!r}"


@pytest.mark.parametrize(
    "p, code, message",
    [
        (2**61 - 1, 0, None),
        ((10**9 + 7) * (10**9 + 9), 2, "is not prime"),
        (2 * 10**400, 2, "is not prime"),
        (2**89 - 1, 3, "below bound 3317044064679887385961981"),
    ],
)
def test_large_primes_are_checked_in_bounded_time(capsys, p, code, message):
    start = time.perf_counter()
    got, out, err = run_cli(capsys, "modg", "S3", "-p", str(p))
    assert time.perf_counter() - start < 1.0
    assert got == code
    if message is None:
        assert out.strip() == "S3 (order 6)" and err == ""
    else:
        (line,) = err.splitlines()
        assert line.startswith("error: ") and line.endswith(message)


def test_max_order_flag(capsys):
    code, _, err = run_cli(capsys, "modg", "S5", "-p", "2", "--max-order", "50")
    assert code == 3


def test_max_order_env(capsys, monkeypatch):
    monkeypatch.setenv("GALOIS_MAX_ORDER", "50")
    code, _, _ = run_cli(capsys, "modg", "S5", "-p", "2")
    assert code == 3
    monkeypatch.setenv("GALOIS_MAX_ORDER", "200")
    code, _, _ = run_cli(capsys, "modg", "S5", "-p", "2")
    assert code == 0


def test_require_identified(capsys):
    # S3 at 3 identifies, so the flag passes
    code, _, _ = run_cli(capsys, "stmod", "S3", "-p", "3", "--require-identified")
    assert code == 0


def test_require_identified_inconclusive_exits_4(capsys):
    # gluing two copies of Z over a trivially-mapped corner leaves the free
    # group F2: its free rank certifies it Infinite, which is not
    # Identified, so the flag demands exit 4
    code, out, _ = run_cli(
        capsys, "pushout", "fp:1:", "fp:1:", "fp:1:", "1", "1",
        "--max-cosets", "200", "--require-identified",
    )
    assert code == 4
    assert "identification: Infinite (free rank" in out
    # the A4 gluing is finite, but a coset bound below its order leaves it
    # Inconclusive, which also exits 4
    code, out, _ = run_cli(
        capsys, "pushout", "fp:1:", "fp:2:aa,bbb,ababab", "fp:1:aa", "a", "a",
        "--max-cosets", "8", "--require-identified",
    )
    assert code == 4
    assert "identification: Inconclusive" in out


def test_usage_error_missing_prime(capsys):
    code = main(["modg", "S3"])
    assert code == 2


def test_selftest_command(capsys):
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 0
    assert out.count("ok ") == 7
    assert "FAIL" not in out


def test_selftest_reports_a_failed_suite(capsys, monkeypatch):
    monkeypatch.setattr(selftest, "coset_enumeration", lambda F: 0)
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 1
    assert "FAIL fp-group" in out.splitlines()
    assert out.count("ok ") == 6


@pytest.mark.parametrize("cut", [slice(1), slice(None, None, -1)])
def test_selftest_groupoid_check_fails_on_a_wrong_hom_groupoid(capsys, monkeypatch, cut):
    # one component dropped, or the two components swapped
    real = selftest.hom_groupoid

    def wrong(G, H):
        report = real(G, H)
        return HomGroupoidReport(G, H, report.components[cut])

    monkeypatch.setattr(selftest, "hom_groupoid", wrong)
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 1
    assert "FAIL groupoid" in out.splitlines()
    assert out.count("ok ") == 6


def test_selftest_groupoid_check_fails_on_a_wrong_name(capsys, monkeypatch):
    # the automorphism orders stay right; the order-6 group is misnamed
    real = groupoid.name_group
    monkeypatch.setattr(groupoid, "name_group", lambda G: "C6" if G.order == 6 else real(G))
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 1
    assert "FAIL groupoid" in out.splitlines()
    assert out.count("ok ") == 6


# each command's positional arguments ("ALGEBRA" is a file) and the
# options its handler reads
COMMANDS = {
    "modg": (["S3", "-p", "2"], {"--format", "--max-order"}),
    "cochains": (["S3", "-p", "2"], {"--format", "--max-order"}),
    "stmod": (["S3", "-p", "3"], {"--format", "--max-order", "--max-cosets"}),
    "hom": (["C2", "S3"], {"--format", "--max-order"}),
    "torsors": (["C2", "S3"], {"--format", "--max-order"}),
    "orbit-nerve": (["S3", "-p", "3"], {"--format", "--max-order"}),
    "stone": (["ALGEBRA"], {"--format"}),
    "pushout": (["fp:1:", "fp:1:", "fp:0:", "aa", "1"], {"--format", "--max-cosets"}),
    "selftest": ([], set()),
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_commands_take_only_the_options_they_read(capsys, tmp_path, command):
    algebra = tmp_path / "algebra.json"
    algebra.write_text(json.dumps({"atoms": ["x", "y"]}))
    positional, read = COMMANDS[command]
    args = [str(algebra) if a == "ALGEBRA" else a for a in positional]
    for option, value in [("--format", "json"), ("--max-order", "100"), ("--max-cosets", "1000")]:
        code, _, err = run_cli(capsys, command, *args, option, value)
        if option in read:
            assert code == 0, (command, option, err)
        else:
            assert code == 2 and "unrecognized arguments" in err, (command, option)


@pytest.mark.parametrize("command", ["stmod", "orbit-nerve"])
@pytest.mark.parametrize("p", ["4", "1", "0"])
def test_non_prime_is_a_usage_error(capsys, command, p):
    code, out, err = run_cli(capsys, command, "S4", "-p", p)
    assert code == 2
    assert out == ""
    assert err.splitlines() == [f"error: {p} is not prime"]


def test_json_deterministic_across_processes():
    # byte-identical output under different hash seeds
    import os
    import subprocess
    import sys

    for command in (
        ["stmod", "S4", "-p", "2"],
        ["stmod", "D24", "-p", "2"],
        ["orbit-nerve", "S4", "-p", "2"],
    ):
        outputs = []
        for seed in ("1", "271828"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            proc = subprocess.run(
                [sys.executable, "-m", "galcalc.cli", *command, "--format", "json"],
                capture_output=True, env=env, check=True,
            )
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1], command
