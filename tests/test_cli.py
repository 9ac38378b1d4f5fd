import csv
import json
from pathlib import Path
from typing import NamedTuple, Optional

import pytest

from dpcp import rcpsp, smswt, tsptw
from dpcp.cli import main
from dpcp.parsing import ParseError

DATA = Path(__file__).parent / "data"

TINY_TSPTW_JSON = {
    "n": 3,
    "c": [[0, 2, 3], [2, 0, 4], [3, 4, 0]],
    "windows": [[0, 100], [0, 100], [0, 100]],
}

TWO_JOB_SMS = {
    "n": 2,
    "jobs": [
        {"p": 2, "r": 0, "d": 2, "deadline": 10, "w": 1},
        {"p": 3, "r": 0, "d": 3, "deadline": 10, "w": 2},
    ],
}


def write_json(path: Path, data) -> Path:
    path.write_text(json.dumps(data))
    return path


def small_rcpsp_json() -> dict:
    return rcpsp.load_instance(str(DATA / "small.sm")).to_json()


@pytest.mark.parametrize(
    "module, doc, key",
    [
        (smswt, lambda: TWO_JOB_SMS, "jobs"),
        (tsptw, lambda: TINY_TSPTW_JSON, "windows"),
        (rcpsp, small_rcpsp_json, "capacities"),
    ],
    ids=["smswt", "tsptw", "rcpsp"],
)
@pytest.mark.parametrize("damage", ["truncated", "missing-key", "not-an-object"])
def test_load_instance_maps_bad_json_to_parse_error(tmp_path, module, doc, key, damage):
    # The library loader is the CLI's loader, so it maps errors the same way.
    doc = doc()
    if damage == "truncated":
        text = json.dumps(doc)[:-3]
    elif damage == "not-an-object":
        text = "[1, 2]"
    else:
        text = json.dumps({k: v for k, v in doc.items() if k != key})
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    with pytest.raises(ParseError) as err:
        module.load_instance(str(bad))
    if damage == "missing-key":
        assert f"missing field '{key}'" in str(err.value)
    if damage == "not-an-object":
        assert "instance JSON must be an object" in str(err.value)


def test_solve_tsptw_optimal(tmp_path, capsys):
    inst = write_json(tmp_path / "tiny.json", TINY_TSPTW_JSON)
    out = tmp_path / "report.json"
    code = main(
        ["solve", str(inst), "--problem", "tsptw", "--algo", "cabs",
         "--propagation", "once", "--output", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["status"] == "Optimal"
    assert report["cost"] == 9
    assert report["gap"] == 0.0
    assert report["verified"] is True
    assert sorted(report["solution"]) == [1, 2]
    assert report["metrics"]["expansions"] >= 1


def test_solve_report_goes_to_stdout(tmp_path, capsys):
    inst = write_json(tmp_path / "two.json", TWO_JOB_SMS)
    code = main(["solve", str(inst), "--problem", "smswt"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["cost"] == 3 and report["solution"] == [1, 0]


def test_solve_limit_exit_code(tmp_path):
    inst = write_json(tmp_path / "two.json", TWO_JOB_SMS)
    code = main(
        ["solve", str(inst), "--problem", "smswt", "--expansion-cap", "0"]
    )
    assert code == 2


def test_solve_time_limit_exit_code(tmp_path, capsys):
    inst = write_json(tmp_path / "two.json", TWO_JOB_SMS)
    code = main(["solve", str(inst), "--problem", "smswt", "--time-limit", "1e-9"])
    assert code == 2
    assert json.loads(capsys.readouterr().out)["status"] == "TimeLimit"


@pytest.mark.parametrize(
    "problem, doc, where",
    [
        ("smswt", lambda: TWO_JOB_SMS, ("jobs", 0, "p")),
        ("tsptw", lambda: TINY_TSPTW_JSON, ("c", 0, 1)),
        ("rcpsp", small_rcpsp_json, ("tasks", 0, "p")),
    ],
    ids=["smswt", "tsptw", "rcpsp"],
)
@pytest.mark.parametrize("token", ["2.5", "1e3", "NaN", "true", "false"])
def test_solve_rejects_non_integer_json_numbers(tmp_path, capsys, problem, doc, where, token):
    doc = json.loads(json.dumps(doc()))
    *outer, last = where
    parent = doc
    for key in outer:
        parent = parent[key]
    # Spliced into the text as written, so json.dumps cannot re-encode it.
    parent[last] = "@NUMBER@"
    bad = write_json(tmp_path / "bad.json", doc)
    bad.write_text(bad.read_text().replace('"@NUMBER@"', token))
    assert main(["solve", str(bad), "--problem", problem, "--algo", "astar"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("dpcp: error") and token in err


@pytest.mark.parametrize(
    "pair, shown", [([0, "1"], "[0, '1']"), ([0], "[0]"), ("01", "'01'")]
)
def test_solve_rejects_malformed_precedence_pairs(tmp_path, capsys, pair, shown):
    # A task id must be a JSON integer, as every other integer field is.
    doc = {"tasks": [{"p": 2, "u": [1]}, {"p": 2, "u": [1]}], "capacities": [2]}
    bad = write_json(tmp_path / "bad.json", dict(doc, precedences=[pair]))
    assert main(["solve", str(bad), "--problem", "rcpsp"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("dpcp: error") and f"bad precedence pair {shown}" in err


def test_solve_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["solve", str(bad), "--problem", "smswt"]) == 1


def test_solve_psplib_precedence_row_without_request_row(tmp_path, capsys):
    text = (DATA / "small.sm").read_text()
    row = "   6        1          0\n"
    assert row in text
    bad = tmp_path / "orphan.sm"
    bad.write_text(text.replace(row, row + "   7        1          1           6\n"))
    assert main(["solve", str(bad), "--problem", "rcpsp"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("dpcp: error") and "job 7" in err


def test_solve_psplib_dummy_self_loop(tmp_path, capsys):
    # The dummy source listing itself as a successor used to escape the
    # dummy contraction as a KeyError.
    text = (DATA / "small.sm").read_text()
    row = "   1        1          2           2   3\n"
    assert row in text
    bad = tmp_path / "loop.sm"
    bad.write_text(text.replace(row, "   1        1          3           1   2   3\n"))
    assert main(["solve", str(bad), "--problem", "rcpsp"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("dpcp: error") and "cycle" in err


@pytest.mark.parametrize("mb", ["-3", "0", "inf", "1e308"])
def test_solve_rejects_non_positive_mem_limit(capsys, mb):
    code = main(
        ["solve", str(DATA / "small.sm"), "--problem", "rcpsp", "--mem-limit", mb]
    )
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("dpcp: error") and "memory limit" in captured.err


def test_solve_rejects_nan_time_limit(capsys):
    # NaN compares false with every elapsed time, so it would never fire.
    code = main(
        ["solve", str(DATA / "small.sm"), "--problem", "rcpsp", "--time-limit", "nan",
         "--algo", "astar"]
    )
    assert code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("dpcp: error") and "time_limit" in captured.err


def test_solve_unwritable_output(tmp_path, capsys):
    inst = write_json(tmp_path / "two.json", TWO_JOB_SMS)
    out = tmp_path / "missing" / "dir" / "x.json"
    assert main(["solve", str(inst), "--problem", "smswt", "--output", str(out)]) == 1
    assert capsys.readouterr().err.startswith("dpcp: error")


def test_solve_usage_error_exit_one(tmp_path):
    assert main(["solve", "--problem", "nope", "x.json"]) == 1


@pytest.mark.parametrize(
    "problem, doc", [("tsptw", lambda: TINY_TSPTW_JSON), ("rcpsp", small_rcpsp_json)]
)
def test_solve_json_without_suffix(tmp_path, capsys, problem, doc):
    # The content decides the format, not the file name.
    inst = write_json(tmp_path / "instance.txt", doc())
    assert main(["solve", str(inst), "--problem", problem, "--algo", "astar"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "Optimal" and report["cost"] == 9


def test_solve_rejects_format_the_problem_cannot_read(capsys):
    assert main(["solve", str(DATA / "tiny_tsptw.txt"), "--problem", "smswt"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("dpcp: error")
    assert "the only format of this problem" in captured.err


def test_solve_psplib_and_matrix_formats(tmp_path, capsys):
    code = main(["solve", str(DATA / "small.sm"), "--problem", "rcpsp"])
    assert code == 0
    rc_report = json.loads(capsys.readouterr().out)
    code = main(
        ["solve", str(DATA / "tiny_tsptw.txt"), "--problem", "tsptw", "--algo", "astar"]
    )
    assert code == 0
    ts_report = json.loads(capsys.readouterr().out)
    assert ts_report["cost"] == 9
    assert rc_report["status"] == "Optimal"


class Fixture(NamedTuple):
    """What one instance file in ``tests/data`` pins."""

    problem: str
    oracle: object  # the oracle's answer: the optimum, or "INFEASIBLE"
    root_exact: bool  # A* without propagation bounds the root by the optimum
    cabs: Optional[tuple]  # CABS's expansions, generated and pops, alike in every mode
    why: str


# Every file in ``tests/data`` that solves to an answer.  Each must solve
# to its oracle's answer with both algorithms in every propagation mode and
# report a root dual equal to that cost, since a dual bound that overshoots
# the optimum anywhere in a solve raises the root dual above it; a proven-
# infeasible run reports cost null and root dual inf, also under off, where
# the root's own bound is finite.  Where ``root_exact`` is set, A* without
# propagation, stopped before its first expansion, must already report the
# optimum as its root dual.  Where ``cabs`` is set, propagation saves no
# pop, so CABS must search alike under off, once and fixpoint; its pops are
# off's expansions plus pruned_by_f and the other modes' propagation_calls
# plus reused, so a pop that some mode counts nowhere, or twice, fails.
# The two malformed files are rows of the tests that reject their damage:
# overflow_sms.json of ``ABOVE_MAX_COST`` and extra_tokens_tsptw.txt of
# ``test_parse_matrix_rejects_tokens_after_the_matrix`` in test_tsptw.py.
FIXTURES = {
    "small.sm": Fixture(
        "rcpsp", 9, True, (4, 6, 5),
        "the critical path is the optimum: each pending task's duration in place of its tail "
        "reads 7, and CABS off without the pop's own f test 10 15",
    ),
    "dummies.sm": Fixture(
        "rcpsp", 7, False, None,
        "A precedes B only through a chain of two zero-duration jobs: a parser that drops "
        "a precedence through more than one dummy reads 5",
    ),
    "clash_rcpsp.json": Fixture(
        "rcpsp", 12, True, None,
        "no two of tasks 0, 1 and 2 can overlap: a bound without the clash-sequence floor "
        "reads 9, one with resource clashes alone 10",
    ),
    "tiny_sms.json": Fixture("smswt", 96, False, (7, 24, 8), "five jobs with releases"),
    "wspt_sms.json": Fixture(
        "smswt", 73, True, None,
        "every job is late in any order, so the WSPT queue term is exact: the separable "
        "sum alone reads 0",
    ),
    "dead_root_sms.json": Fixture("smswt", "INFEASIBLE", False, None, "the target is a dead end"),
    "tiny_tsptw.txt": Fixture("tsptw", 9, False, None, "three locations in the matrix format"),
    "late_arcs_tsptw.txt": Fixture(
        "tsptw", 43, False, (4, 5, 5),
        "location 2's cheapest arc is never in time and 3 to 4 meets 4's deadline exactly "
        "from 3's release: a bound that keeps out an arc it must keep overshoots",
    ),
    "depot_release_tsptw.txt": Fixture(
        "tsptw", 14, False, None,
        "the depot is released at 50, but a tour leaves it at 0 and reaches location 1 by "
        "its deadline 5 only straight from there: a tour started at the release reads Infeasible",
    ),
    "reduced_tsptw.txt": Fixture(
        "tsptw", 20, True, None,
        "the row minima sum to 13 and the column terms left after them to 7: the larger "
        "of the entered and leave sums apart reads 13",
    ),
    "dead_root_tsptw.txt": Fixture("tsptw", "INFEASIBLE", False, None, "the target is a dead end"),
}


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_oracle(capsys, name):
    fixture = FIXTURES[name]
    assert main(["oracle", str(DATA / name), "--problem", fixture.problem]) == 0
    assert capsys.readouterr().out.strip() == str(fixture.oracle), fixture.why


@pytest.mark.parametrize("mode", ["off", "once", "fixpoint"])
@pytest.mark.parametrize("algo", ["astar", "cabs"])
@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_solves_to_its_oracle(capsys, name, algo, mode):
    fixture = FIXTURES[name]
    code = main(["solve", str(DATA / name), "--problem", fixture.problem, "--algo", algo,
                 "--propagation", mode])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    if fixture.oracle == "INFEASIBLE":
        want = ("Infeasible", None, "inf")
    else:
        want = ("Optimal", fixture.oracle, fixture.oracle)
    assert (report["status"], report["cost"], report["root_dual"]) == want, fixture.why
    if algo == "cabs" and fixture.cabs:
        m = report["metrics"]
        if mode == "off":
            pops = m["expansions"] + m["pruned_by_f"]
        else:
            pops = m["propagation_calls"] + m["reused"]
        assert (m["expansions"], m["generated"], pops) == fixture.cabs, fixture.why


@pytest.mark.parametrize("name", [name for name, f in FIXTURES.items() if f.root_exact])
def test_fixture_root_dual_before_the_first_expansion(capsys, name):
    fixture = FIXTURES[name]
    code = main(["solve", str(DATA / name), "--problem", fixture.problem, "--algo", "astar",
                 "--propagation", "off", "--expansion-cap", "0"])
    assert code == 2
    assert json.loads(capsys.readouterr().out)["root_dual"] == fixture.oracle, fixture.why


def test_bench_solves_every_fixture_to_its_oracle(tmp_path):
    manifest = [{"instance": str(DATA / name), "problem": f.problem} for name, f in FIXTURES.items()]
    mpath = write_json(tmp_path / "manifest.json", manifest)
    out = tmp_path / "runs.csv"
    assert main(["bench", str(mpath), "--output", str(out)]) == 0
    rows = [r for r in csv.DictReader(out.read_text().splitlines())
            if r["instance"] != "[summary]"]
    want = [("Infeasible", "") if f.oracle == "INFEASIBLE" else ("Optimal", str(f.oracle))
            for f in FIXTURES.values()]
    assert [(r["status"], r["cost"]) for r in rows] == want


def test_generate_deterministic_and_tau_zero(tmp_path, capsys):
    args = ["generate", "smswt", "--n", "10", "--tau", "0", "--rho", "0.25",
            "--phi", "0.9", "--count", "3", "--seed", "7",
            "--output-dir", str(tmp_path / "a")]
    assert main(args) == 0
    capsys.readouterr()
    args2 = args[:-1] + [str(tmp_path / "b")]
    assert main(args2) == 0
    capsys.readouterr()
    first = sorted((tmp_path / "a").glob("*.json"))
    second = sorted((tmp_path / "b").glob("*.json"))
    assert len(first) == len(second) == 3
    for a, b in zip(first, second):
        assert a.name == b.name
        assert a.read_bytes() == b.read_bytes()
        data = json.loads(a.read_text())
        assert all(job["r"] == 0 for job in data["jobs"])


@pytest.mark.parametrize("knob", ["--rho", "--phi"])
@pytest.mark.parametrize("value", ["inf", "nan", "1e308"])
def test_generate_rejects_non_finite_spans(tmp_path, capsys, knob, value):
    # 1e308 is finite, but its span over any duration sum above 1 is not.
    args = ["generate", "smswt", "--n", "3", knob, value, "--output-dir", str(tmp_path)]
    assert main(args) == 1
    err = capsys.readouterr().err
    # The error names the knob, not an integer conversion deep inside.
    assert err.startswith("dpcp: error") and knob[2:] in err, err
    assert "Traceback" not in err
    assert not list(tmp_path.glob("*.json"))


def test_generate_rejects_n_past_the_float_range(tmp_path, capsys):
    # No span over 10 * n duration units is finite, whatever the knobs.
    args = ["generate", "smswt", "--n", "1" + "0" * 400, "--output-dir", str(tmp_path)]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("dpcp: error") and "Traceback" not in err, err


def test_generate_rejects_other_kinds(tmp_path):
    assert main(["generate", "rcpsp", "--output-dir", str(tmp_path)]) == 1


def test_oracle_outputs(tmp_path, capsys):
    inst = write_json(tmp_path / "two.json", TWO_JOB_SMS)
    assert main(["oracle", str(inst), "--problem", "smswt"]) == 0
    assert capsys.readouterr().out.strip() == "3"

    tiny = write_json(tmp_path / "tiny.json", TINY_TSPTW_JSON)
    assert main(["oracle", str(tiny), "--problem", "tsptw"]) == 0
    assert capsys.readouterr().out.strip() == "9"

    bad = {
        "n": 1,
        "jobs": [{"p": 3, "r": 5, "d": 7, "deadline": 7, "w": 1}],
    }
    infeasible = write_json(tmp_path / "inf.json", bad)
    assert main(["oracle", str(infeasible), "--problem", "smswt"]) == 0
    assert capsys.readouterr().out.strip() == "INFEASIBLE"


def test_oracle_too_large(tmp_path, capsys):
    jobs = [{"p": 1, "r": 0, "d": 5, "deadline": 50, "w": 1} for _ in range(11)]
    inst = write_json(tmp_path / "big.json", {"n": 11, "jobs": jobs})
    assert main(["oracle", str(inst), "--problem", "smswt"]) == 1
    assert "cap" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["solve", "oracle"])
@pytest.mark.parametrize("field", ["d", "deadline"])
@pytest.mark.parametrize("value", ["9", None], ids=["string", "null"])
def test_sms_job_fields_must_be_integers(tmp_path, capsys, command, field, value):
    # JSON's parser lets strings and null through; the job must refuse them
    # before the model computes with them.
    doc = json.loads(json.dumps(TWO_JOB_SMS))
    doc["jobs"][1][field] = value
    bad = write_json(tmp_path / "bad.json", doc)
    assert main([command, str(bad), "--problem", "smswt"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("dpcp: error")
    assert f"{field} must be an integer, got {value!r}" in err


@pytest.mark.parametrize("command", ["solve", "oracle"])
@pytest.mark.parametrize(
    "problem, doc, where, value, name",
    [
        ("tsptw", lambda: TINY_TSPTW_JSON, ("c", 1, 2), "4", "travel time"),
        ("tsptw", lambda: TINY_TSPTW_JSON, ("windows", 2, 1), "100", "window bound"),
        ("tsptw", lambda: TINY_TSPTW_JSON, ("windows", 1, 0), None, "window bound"),
        ("rcpsp", small_rcpsp_json, ("tasks", 1, "p"), "2", "task duration"),
        ("rcpsp", small_rcpsp_json, ("tasks", 0, "u", 1), "1", "usage"),
        ("rcpsp", small_rcpsp_json, ("capacities", 0), "3", "capacity"),
    ],
    ids=["travel", "deadline", "null-release", "duration", "usage", "capacity"],
)
def test_numbers_written_as_strings_are_named(tmp_path, capsys, command, problem, doc, where, value, name):
    # JSON's parser lets strings and null through; the instance must refuse
    # them, naming the field and the value, before anything compares them.
    doc = json.loads(json.dumps(doc()))
    *outer, last = where
    parent = doc
    for key in outer:
        parent = parent[key]
    parent[last] = value
    bad = write_json(tmp_path / "bad.json", doc)
    assert main([command, str(bad), "--problem", problem]) == 1
    err = capsys.readouterr().err
    assert err.startswith("dpcp: error") and "Traceback" not in err
    assert f"{name} must be an integer, got {value!r}" in err


@pytest.mark.parametrize("command", ["solve", "oracle"])
@pytest.mark.parametrize(
    "problem, doc, where, value, message",
    [
        ("tsptw", lambda: TINY_TSPTW_JSON, ("c",), 5, "travel matrix must be a list, got 5"),
        ("tsptw", lambda: TINY_TSPTW_JSON, ("c", 1), 7, "travel row must be a list, got 7"),
        ("tsptw", lambda: TINY_TSPTW_JSON, ("windows",), 5, "windows must be a list, got 5"),
        ("tsptw", lambda: TINY_TSPTW_JSON, ("windows", 1), 5, "window must be a list, got 5"),
        ("tsptw", lambda: TINY_TSPTW_JSON, ("windows", 1), [0, 5, 9],
         "window must be a list of 2 items, got [0, 5, 9]"),
        ("tsptw", lambda: TINY_TSPTW_JSON, ("c", 1, 2), [4], "travel time must be an integer, got [4]"),
        ("rcpsp", small_rcpsp_json, ("tasks",), 5, "tasks must be a list, got 5"),
        ("rcpsp", small_rcpsp_json, ("tasks", 1), 5, "task must be an object, got 5"),
        ("rcpsp", small_rcpsp_json, ("tasks", 0, "u"), 2, "task usages must be a list, got 2"),
        ("rcpsp", small_rcpsp_json, ("capacities",), 3, "capacities must be a list, got 3"),
        ("rcpsp", small_rcpsp_json, ("precedences",), 5, "precedences must be a list, got 5"),
        ("rcpsp", small_rcpsp_json, ("tasks", 1, "p"), [2], "task duration must be an integer, got [2]"),
        ("smswt", lambda: TWO_JOB_SMS, ("jobs",), 5, "jobs must be a list, got 5"),
        ("smswt", lambda: TWO_JOB_SMS, ("jobs", 1), 5, "job must be an object, got 5"),
        ("smswt", lambda: TWO_JOB_SMS, ("jobs",), {"a": 1}, "jobs must be a list, got {'a': 1}"),
    ],
    ids=[
        "travel-matrix", "travel-row", "windows", "window", "long-window", "travel-time-list",
        "tasks", "task", "usages", "capacities", "precedences", "duration-list",
        "jobs", "job", "jobs-object",
    ],
)
def test_lists_and_numbers_in_each_others_place_are_named(
    tmp_path, capsys, command, problem, doc, where, value, message
):
    # A number where the instance expects a list, or the reverse, must end
    # in an error that names the field and the value, not in whatever
    # ``len`` or ``iter`` says about an int.
    doc = json.loads(json.dumps(doc()))
    *outer, last = where
    parent = doc
    for key in outer:
        parent = parent[key]
    parent[last] = value
    bad = write_json(tmp_path / "bad.json", doc)
    assert main([command, str(bad), "--problem", problem]) == 1
    err = capsys.readouterr().err
    assert err.startswith("dpcp: error") and "Traceback" not in err
    assert message in err, err


def late_job(w: int, deadline: int = 100) -> dict:
    """A job that finishes 2 units past its due date when started at 0."""
    return {"p": 3, "r": 0, "d": 1, "deadline": deadline, "w": w}


WIDE = [0, 10**30]

# Instances whose costs reach INFINITY = MAX_COST + 1 = 2**63 or pass it,
# as (problem, JSON document or None for tests/data/overflow_sms.json,
# exact optimum or None where the oracle is not run).
ABOVE_MAX_COST = {
    # One weight is MAX_COST.
    "sms-max-weight": ("smswt", None, 18446744073709551634),
    # The one order costs exactly 2**63.
    "sms-exactly-infinity": (
        "smswt", {"n": 1, "jobs": [late_job(2**62)]}, 2**63,
    ),
    # Both jobs start at 0 in the root store, so its tardiness sum is 2**63.
    "sms-sum-infinity": (
        "smswt", {"n": 2, "jobs": [late_job(2**61)] * 2}, 16140901064495857664,
    ),
    # Every arc is 2**62, so every tour costs 3 * 2**62.
    "tsptw-all-arcs": (
        "tsptw",
        {"n": 3, "c": [[None, 2**62, 2**62], [2**62, None, 2**62], [2**62, 2**62, None]],
         "windows": [WIDE] * 3},
        13835058055282163712,
    ),
    # One arc of 2**63 and one of 0: the one tour costs exactly 2**63.
    "tsptw-arc-infinity": (
        "tsptw", {"n": 2, "c": [[None, 2**63], [0, None]], "windows": [WIDE] * 2}, 2**63,
    ),
    # The one task's makespan is 2**63; the oracle would step through it.
    "rcpsp-duration-infinity": (
        "rcpsp", {"tasks": [{"p": 2**63, "u": [1]}], "capacities": [1], "precedences": []},
        None,
    ),
}


def above_max_cost(tmp_path, case: str):
    """``(problem, path, optimum)`` of one ``ABOVE_MAX_COST`` case."""
    problem, doc, optimum = ABOVE_MAX_COST[case]
    if doc is None:
        return problem, DATA / "overflow_sms.json", optimum
    return problem, write_json(tmp_path / f"{case}.json", doc), optimum


@pytest.mark.parametrize(
    "case", [case for case, (_p, _d, optimum) in ABOVE_MAX_COST.items() if optimum]
)
def test_oracle_stays_exact_above_infinity(tmp_path, capsys, case):
    # Every optimum is INFINITY or above, yet a feasible order exists, so
    # the oracle must print it exactly and not answer INFEASIBLE.
    problem, path, optimum = above_max_cost(tmp_path, case)
    assert optimum >= 2**63
    assert main(["oracle", str(path), "--problem", problem]) == 0
    assert capsys.readouterr().out.strip() == str(optimum)


@pytest.mark.parametrize("case", list(ABOVE_MAX_COST))
@pytest.mark.parametrize("algo", ["astar", "cabs"])
@pytest.mark.parametrize("mode", ["off", "once", "fixpoint"])
def test_solve_refuses_costs_above_max_cost(tmp_path, capsys, case, algo, mode):
    # The search cannot represent these costs, so it must neither report
    # an optimum (Optimal) nor read one as a dead end (Infeasible).
    problem, path, _optimum = above_max_cost(tmp_path, case)
    code = main(["solve", str(path), "--problem", problem, "--algo", algo,
                 "--propagation", mode])
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("dpcp: error") and "exceeds" in err, err


def test_bench_row_with_cost_above_max_cost_is_error(tmp_path):
    manifest = []
    for case in ABOVE_MAX_COST:
        problem, path, _optimum = above_max_cost(tmp_path, case)
        manifest.append({"instance": str(path), "problem": problem})
    mpath = write_json(tmp_path / "manifest.json", manifest)
    out = tmp_path / "runs.csv"
    assert main(["bench", str(mpath), "--output", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))[: len(manifest)]
    assert [r["status"] for r in rows] == ["Error"] * len(manifest)
    assert all("exceeds" in r["error"] and r["cost"] == "" for r in rows)


def test_bench_rows_summary_and_determinism(tmp_path):
    smswt_path = write_json(tmp_path / "two.json", TWO_JOB_SMS)
    tsptw_path = write_json(tmp_path / "tiny.json", TINY_TSPTW_JSON)
    manifest = [
        {"instance": str(smswt_path), "problem": "smswt", "algo": "cabs",
         "propagation": "off"},
        {"instance": str(smswt_path), "problem": "smswt", "algo": "cabs",
         "propagation": "once"},
        {"instance": str(tsptw_path), "problem": "tsptw", "algo": "astar",
         "propagation": "once"},
        {"instance": str(tsptw_path), "problem": "tsptw", "algo": "astar",
         "propagation": "once", "mem_limit_mb": 0.000001},
        {"instance": str(tmp_path / "missing.json"), "problem": "smswt",
         "algo": "cabs", "propagation": "off"},
        # A leftover ``format`` key is ignored like any other unknown key.
        {"instance": str(DATA / "tiny_tsptw.txt"), "problem": "tsptw", "algo": "astar",
         "propagation": "once", "format": "tsptw-matrix"},
    ]
    mpath = tmp_path / "manifest.json"
    mpath.write_text(json.dumps(manifest))
    out = tmp_path / "runs.csv"
    assert main(["bench", str(mpath), "--output", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    results = [r for r in rows if r["instance"] != "[summary]"]
    summaries = [r for r in rows if r["instance"] == "[summary]"]
    assert len(results) == 6
    assert results[0]["status"] == "Optimal" and results[0]["cost"] == "3"
    assert results[3]["status"] == "MemoryLimit" and results[3]["cost"] == ""
    assert results[4]["status"] == "Error" and results[4]["error"]
    assert results[5]["status"] == "Optimal" and results[5]["cost"] == "9"
    assert {(s["algo"], s["propagation"]) for s in summaries} == {
        ("cabs", "off"), ("cabs", "once"), ("astar", "once")
    }
    astar_summary = next(s for s in summaries if s["algo"] == "astar")
    assert astar_summary["solved_count"] == "2"

    # Identical rerun reproduces the deterministic columns exactly.
    out2 = tmp_path / "runs2.csv"
    assert main(["bench", str(mpath), "--output", str(out2)]) == 0
    rows2 = list(csv.DictReader(out2.read_text().splitlines()))
    for a, b in zip(rows, rows2):
        for col in ("instance", "status", "cost", "expansions", "generated", "final_gap"):
            assert a[col] == b[col]


def test_bench_rejects_non_positive_mem_limit(tmp_path):
    inst = write_json(tmp_path / "two.json", TWO_JOB_SMS)
    manifest = [
        {"instance": str(inst), "problem": "smswt", "mem_limit_mb": mb}
        for mb in (0, -3, float("inf"))
    ]
    mpath = write_json(tmp_path / "manifest.json", manifest)
    out = tmp_path / "runs.csv"
    assert main(["bench", str(mpath), "--output", str(out)]) == 0
    rows = [r for r in csv.DictReader(out.read_text().splitlines())
            if r["instance"] != "[summary]"]
    assert [r["status"] for r in rows] == ["Error", "Error", "Error"]
    assert all("memory limit" in r["error"] and r["expansions"] == "" for r in rows)


def test_bench_rejects_nan_time_limit(tmp_path):
    inst = write_json(tmp_path / "two.json", TWO_JOB_SMS)
    manifest = [
        {"instance": str(inst), "problem": "smswt", "time_limit": limit}
        for limit in (float("nan"), float("inf"))
    ]
    mpath = write_json(tmp_path / "manifest.json", manifest)
    out = tmp_path / "runs.csv"
    assert main(["bench", str(mpath), "--output", str(out)]) == 0
    rows = [r for r in csv.DictReader(out.read_text().splitlines())
            if r["instance"] != "[summary]"]
    assert [r["status"] for r in rows] == ["Error", "Error"]
    assert all("time_limit" in r["error"] and r["expansions"] == "" for r in rows)


def test_bench_row_whose_incumbent_does_not_replay_is_error(tmp_path, monkeypatch):
    inst = write_json(tmp_path / "two.json", TWO_JOB_SMS)
    mpath = write_json(tmp_path / "manifest.json", [{"instance": str(inst), "problem": "smswt"}])
    monkeypatch.setattr("dpcp.cli.evaluate_solution", lambda model, labels: 4)
    out = tmp_path / "runs.csv"
    assert main(["bench", str(mpath), "--output", str(out)]) == 0
    row = next(csv.DictReader(out.read_text().splitlines()))
    assert row["status"] == "Error" and row["cost"] == ""
    assert "replayed cost 4 != reported 3" in row["error"]


def test_bench_rows_with_non_string_algo_or_mode_are_errors(tmp_path):
    # Rows never abort the batch: each bad value is one Error row, and the
    # summary groups it under its text.
    inst = write_json(tmp_path / "two.json", TWO_JOB_SMS)
    manifest = [
        {"instance": str(inst), "problem": "smswt"},
        {"instance": str(inst), "problem": "smswt", "algo": ["astar"]},
        {"instance": str(inst), "problem": "smswt", "algo": 1},
        {"instance": str(inst), "problem": "smswt", "propagation": None},
    ]
    mpath = write_json(tmp_path / "manifest.json", manifest)
    out = tmp_path / "runs.csv"
    assert main(["bench", str(mpath), "--output", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    results = [r for r in rows if r["instance"] != "[summary]"]
    assert [r["status"] for r in results] == ["Optimal", "Error", "Error", "Error"]
    assert [(r["algo"], r["propagation"]) for r in results[1:]] == [
        ("['astar']", "once"), ("1", "once"), ("cabs", "None")
    ]
    summaries = [r for r in rows if r["instance"] == "[summary]"]
    assert len(summaries) == 4


def test_bench_rows_missing_instance_or_problem_name_the_field(tmp_path):
    inst = write_json(tmp_path / "two.json", TWO_JOB_SMS)
    manifest = [
        {"problem": "smswt"},
        {"instance": str(inst)},
        {"instance": str(inst), "problem": "smswt"},
    ]
    mpath = write_json(tmp_path / "manifest.json", manifest)
    out = tmp_path / "runs.csv"
    assert main(["bench", str(mpath), "--output", str(out)]) == 0
    rows = [r for r in csv.DictReader(out.read_text().splitlines())
            if r["instance"] != "[summary]"]
    assert [r["status"] for r in rows] == ["Error", "Error", "Optimal"]
    assert [r["error"] for r in rows] == [
        "missing field 'instance'", "missing field 'problem'", ""
    ]


def test_bench_rows_whose_instance_is_not_a_string_are_errors(tmp_path, capsys):
    # ``open`` takes an integer, and a boolean, as a file descriptor: 0
    # would read standard input and 1 would close standard output, so the
    # rows below must fail before any file is opened, and the bench must
    # still print every row.
    inst = write_json(tmp_path / "two.json", TWO_JOB_SMS)
    manifest = [
        {"instance": 0, "problem": "smswt"},
        {"instance": True, "problem": "smswt"},
        {"instance": str(inst), "problem": "smswt"},
    ]
    mpath = write_json(tmp_path / "manifest.json", manifest)
    assert main(["bench", str(mpath)]) == 0
    rows = [r for r in csv.DictReader(capsys.readouterr().out.splitlines())
            if r["instance"] != "[summary]"]
    assert [r["status"] for r in rows] == ["Error", "Error", "Optimal"]
    assert [r["error"] for r in rows] == [
        "instance must be a path string, got 0",
        "instance must be a path string, got True",
        "",
    ]


def test_bench_rejects_boolean_limits_and_fractional_expansion_cap(tmp_path):
    inst = write_json(tmp_path / "two.json", TWO_JOB_SMS)
    limits = [
        ("time_limit", True), ("mem_limit_mb", True), ("expansion_cap", True),
        ("expansion_cap", 1.5),
    ]
    manifest = [{"instance": str(inst), "problem": "smswt", key: value}
                for key, value in limits]
    mpath = write_json(tmp_path / "manifest.json", manifest)
    out = tmp_path / "runs.csv"
    assert main(["bench", str(mpath), "--output", str(out)]) == 0
    rows = [r for r in csv.DictReader(out.read_text().splitlines())
            if r["instance"] != "[summary]"]
    assert [r["status"] for r in rows] == ["Error"] * len(limits)
    assert all(r["expansions"] == "" for r in rows)
    assert "time_limit" in rows[0]["error"] and "mem_limit_mb" in rows[1]["error"]
    assert all("expansion_cap" in r["error"] for r in rows[2:])


def test_bench_rows_with_ill_typed_fields_name_the_field(tmp_path):
    inst = write_json(tmp_path / "two.json", TWO_JOB_SMS)
    manifest = [
        {"instance": str(inst), "problem": ["smswt"]},
        {"instance": str(inst), "problem": "smswt", "time_limit": "5"},
        {"instance": str(inst), "problem": "smswt", "mem_limit_mb": "3"},
        {"instance": str(inst), "problem": "smswt", "time_limit": 5, "mem_limit_mb": 3},
    ]
    mpath = write_json(tmp_path / "manifest.json", manifest)
    out = tmp_path / "runs.csv"
    assert main(["bench", str(mpath), "--output", str(out)]) == 0
    rows = [r for r in csv.DictReader(out.read_text().splitlines())
            if r["instance"] != "[summary]"]
    assert [r["status"] for r in rows] == ["Error", "Error", "Error", "Optimal"]
    assert [r["error"] for r in rows] == [
        "problem must be a string, got ['smswt']",
        "time_limit must be a number, got '5'",
        "mem_limit_mb must be a number, got '3'",
        "",
    ]


@pytest.mark.parametrize("manifest", [{"foo": 1}, [1, 2]])
def test_bench_malformed_manifest(tmp_path, capsys, manifest):
    mpath = write_json(tmp_path / "manifest.json", manifest)
    assert main(["bench", str(mpath)]) == 1
    assert capsys.readouterr().err.startswith("dpcp: error")


def test_bench_unwritable_output(tmp_path, capsys):
    mpath = write_json(tmp_path / "manifest.json", [])
    out = tmp_path / "missing" / "runs.csv"
    assert main(["bench", str(mpath), "--output", str(out)]) == 1
    assert capsys.readouterr().err.startswith("dpcp: error")


DEEP = 200_000  # nesting levels, far past Python's recursion limit


def test_solve_deeply_nested_json_is_a_parse_error(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text('{"c": ' + "[" * DEEP + "]" * DEEP + "}")
    with pytest.raises(ParseError, match="JSON nested too deeply"):
        tsptw.load_instance(str(deep))
    assert main(["solve", str(deep), "--problem", "tsptw"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("dpcp: error") and "JSON nested too deeply" in err


def test_bench_deeply_nested_manifest_is_a_parse_error(tmp_path, capsys):
    # A row whose instance is such a file stays an Error row, and a
    # manifest nested as deeply ends the whole bench.
    deep = tmp_path / "deep.json"
    deep.write_text('{"c": ' + "[" * DEEP + "]" * DEEP + "}")
    good = write_json(tmp_path / "good.json", TINY_TSPTW_JSON)
    rows = [{"instance": str(path), "problem": "tsptw"} for path in (deep, good)]
    mpath = write_json(tmp_path / "manifest.json", rows)
    out = tmp_path / "runs.csv"
    assert main(["bench", str(mpath), "--output", str(out)]) == 0
    with out.open() as fh:
        got = [r for r in csv.DictReader(fh) if r["instance"] != "[summary]"]
    assert [r["status"] for r in got] == ["Error", "Optimal"]
    assert "JSON nested too deeply" in got[0]["error"]
    nested = tmp_path / "nested.json"
    nested.write_text("[" * DEEP + "]" * DEEP)
    assert main(["bench", str(nested)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("dpcp: error") and "JSON nested too deeply" in err
