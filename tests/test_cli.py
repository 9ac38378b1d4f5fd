import csv
import json
from pathlib import Path
from typing import NamedTuple, Optional

import pytest

from dpcp import rcpsp
from dpcp.cli import PROBLEMS, main
from dpcp.parsing import ParseError, UnknownFormat

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
# The two malformed files are rows of the tables that reject their damage:
# overflow_sms.json of ``ABOVE_MAX_COST`` and extra_tokens_tsptw.txt of
# ``BAD_NATIVE``.
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


# 1e308 is finite, but its span over any duration sum above 1 is not, and
# no span over 10 * n duration units is finite once n is past the float
# range, whatever the knobs.
BAD_GENERATE = {
    **{
        f"{knob}-{value}": ([f"--{knob}", value], f"{knob} must be > 0 and {knob} * 10 * n finite")
        for knob in ("rho", "phi")
        for value in ("inf", "nan", "1e308", "0")
    },
    "n-past-floats": (["--n", "1" + "0" * 400], "rho must be > 0 and rho * 10 * n finite"),
    "n": (["--n", "0"], "n must be >= 1, got 0"),
    "count": (["--count", "0"], "count must be >= 1, got 0"),
    "tau": (["--tau", "1.5"], "tau must be in [0, 1]"),
}


@pytest.mark.parametrize("case", BAD_GENERATE)
def test_generate_rejects_bad_knobs(tmp_path, capsys, case):
    args, message = BAD_GENERATE[case]
    assert main(["generate", "smswt", "--n", "3", *args, "--output-dir", str(tmp_path)]) == 1
    assert capsys.readouterr() == ("", f"dpcp: error: {message}\n")
    assert not list(tmp_path.glob("*.json"))


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


def test_bench_row_whose_incumbent_does_not_replay_is_error(tmp_path, monkeypatch):
    inst = write_json(tmp_path / "two.json", TWO_JOB_SMS)
    mpath = write_json(tmp_path / "manifest.json", [{"instance": str(inst), "problem": "smswt"}])
    monkeypatch.setattr("dpcp.cli.evaluate_solution", lambda model, labels: 4)
    out = tmp_path / "runs.csv"
    assert main(["bench", str(mpath), "--output", str(out)]) == 0
    row = next(csv.DictReader(out.read_text().splitlines()))
    assert row["status"] == "Error" and row["cost"] == ""
    assert "replayed cost 4 != reported 3" in row["error"]


def test_bench_unwritable_output(tmp_path, capsys):
    mpath = write_json(tmp_path / "manifest.json", [])
    out = tmp_path / "missing" / "runs.csv"
    assert main(["bench", str(mpath), "--output", str(out)]) == 1
    assert capsys.readouterr().err.startswith("dpcp: error")




# The rejection tables: one per way an instance reaches the solver.  Every
# row pins its whole message; a malformed instance ends in exit 1 with one
# "dpcp: error: <path>[:<line>]: <message>" line and nothing on stdout.

DEEP = 200_000  # nesting levels, far past Python's recursion limit
DROP = object()  # an edit that deletes the key


class Raw(str):
    """An edited value spliced into the JSON text as written."""


def edited(doc, where, value):
    """A copy of ``doc`` whose value at the keys ``where`` (``()``: the whole
    document) is ``value``, or is deleted if ``value`` is DROP."""
    top = {"doc": json.loads(json.dumps(doc))}
    parent, key = top, "doc"
    for step in where:
        parent, key = parent[key], step
    if value is DROP:
        del parent[key]
    else:
        parent[key] = value
    return top["doc"]


def located(path, line: Optional[int], message: str) -> str:
    return f"{path}: {message}" if line is None else f"{path}:{line}: {message}"


class BadJson(NamedTuple):
    problem: str
    where: tuple  # the keys down to the edited value
    value: object
    message: str
    line: Optional[int] = None


DOCS = {"smswt": TWO_JOB_SMS, "tsptw": TINY_TSPTW_JSON, "rcpsp": small_rcpsp_json()}
FIRST_NUMBER = {"smswt": ("jobs", 0, "p"), "tsptw": ("c", 0, 1), "rcpsp": ("tasks", 0, "p")}
FIRST_LIST = {"smswt": "jobs", "tsptw": "windows", "rcpsp": "capacities"}

# Each row edits one of DOCS.  JSON's parser lets strings and null through,
# and a number where a list belongs would fail later on ``len`` or ``iter``:
# the instance refuses each, naming the field and the value, before
# anything computes with it.
BAD_JSON = {
    "sms-p": BadJson("smswt", ("jobs", 0, "p"), 0, "p must be >= 1, got 0"),
    "sms-r": BadJson("smswt", ("jobs", 0, "r"), -1, "r must be >= 0, got -1"),
    "sms-w": BadJson("smswt", ("jobs", 1, "w"), -1, "w must be >= 0, got -1"),
    "sms-n": BadJson("smswt", ("n",), 3, "n must be the job count 2, got 3"),
    "sms-n-string": BadJson("smswt", ("n",), "2", "n must be an integer, got '2'"),
    "sms-d-string": BadJson("smswt", ("jobs", 1, "d"), "9", "d must be an integer, got '9'"),
    "sms-d-null": BadJson("smswt", ("jobs", 1, "d"), None, "d must be an integer, got None"),
    "sms-deadline-string": BadJson(
        "smswt", ("jobs", 1, "deadline"), "9", "deadline must be an integer, got '9'"
    ),
    "sms-deadline-null": BadJson(
        "smswt", ("jobs", 1, "deadline"), None, "deadline must be an integer, got None"
    ),
    "sms-jobs": BadJson("smswt", ("jobs",), 5, "jobs must be a list, got 5"),
    "sms-jobs-object": BadJson("smswt", ("jobs",), {"a": 1}, "jobs must be a list, got {'a': 1}"),
    "sms-job": BadJson("smswt", ("jobs", 1), 5, "job must be an object, got 5"),
    "tsptw-travel": BadJson("tsptw", ("c", 1, 2), -1, "travel time must be >= 0, got -1"),
    "tsptw-travel-string": BadJson("tsptw", ("c", 1, 2), "4", "travel time must be an integer, got '4'"),
    "tsptw-travel-list": BadJson("tsptw", ("c", 1, 2), [4], "travel time must be an integer, got [4]"),
    "tsptw-release": BadJson("tsptw", ("windows", 1, 0), -1, "window bound must be >= 0, got -1"),
    "tsptw-release-null": BadJson(
        "tsptw", ("windows", 1, 0), None, "window bound must be an integer, got None"
    ),
    "tsptw-deadline": BadJson("tsptw", ("windows", 1), [5, 2], "window bound must be >= 5, got 2"),
    "tsptw-deadline-string": BadJson(
        "tsptw", ("windows", 2, 1), "100", "window bound must be an integer, got '100'"
    ),
    "tsptw-n": BadJson("tsptw", ("n",), 4, "n must be the location count 3, got 4"),
    "tsptw-n-null": BadJson("tsptw", ("n",), None, "n must be an integer, got None"),
    "tsptw-no-location": BadJson(
        "tsptw", (), {"c": [], "windows": []}, "travel matrix must be a non-empty list, got []"
    ),
    "tsptw-travel-matrix": BadJson("tsptw", ("c",), 5, "travel matrix must be a list, got 5"),
    "tsptw-travel-row": BadJson("tsptw", ("c", 1), 7, "travel row must be a list, got 7"),
    "tsptw-short-row": BadJson(
        "tsptw", ("c", 1), [2, 0], "travel row must be a list of 3 items, got [2, 0]"
    ),
    "tsptw-windows": BadJson("tsptw", ("windows",), 5, "windows must be a list, got 5"),
    "tsptw-window-count": BadJson(
        "tsptw", ("windows",), [[0, 9]] * 2, "windows must be a list of 3 items, got [[0, 9], [0, 9]]"
    ),
    "tsptw-window": BadJson("tsptw", ("windows", 1), 5, "window must be a list, got 5"),
    "tsptw-long-window": BadJson(
        "tsptw", ("windows", 1), [0, 5, 9], "window must be a list of 2 items, got [0, 5, 9]"
    ),
    "tsptw-deep": BadJson("tsptw", ("c",), Raw("[" * DEEP + "]" * DEEP), "JSON nested too deeply"),
    "rcpsp-duration": BadJson("rcpsp", ("tasks", 0, "p"), 0, "task duration must be >= 1, got 0"),
    "rcpsp-duration-string": BadJson(
        "rcpsp", ("tasks", 1, "p"), "2", "task duration must be an integer, got '2'"
    ),
    "rcpsp-duration-list": BadJson(
        "rcpsp", ("tasks", 1, "p"), [2], "task duration must be an integer, got [2]"
    ),
    "rcpsp-usage": BadJson("rcpsp", ("tasks", 0, "u", 1), -1, "usage must be >= 0, got -1"),
    "rcpsp-usage-string": BadJson("rcpsp", ("tasks", 0, "u", 1), "1", "usage must be an integer, got '1'"),
    "rcpsp-usage-above-capacity": BadJson(
        "rcpsp", ("tasks", 0, "u", 0), 4, "usage must be <= its capacity 3, got 4"
    ),
    "rcpsp-usage-count": BadJson(
        "rcpsp", ("tasks", 0, "u"), [2], "task usages must be a list of 2 items, got [2]"
    ),
    "rcpsp-usages": BadJson("rcpsp", ("tasks", 0, "u"), 2, "task usages must be a list, got 2"),
    "rcpsp-capacity": BadJson("rcpsp", ("capacities", 1), 0, "capacity must be >= 1, got 0"),
    "rcpsp-capacity-string": BadJson("rcpsp", ("capacities", 0), "3", "capacity must be an integer, got '3'"),
    "rcpsp-capacity-null": BadJson("rcpsp", ("capacities", 0), None, "capacity must be an integer, got None"),
    "rcpsp-capacities": BadJson("rcpsp", ("capacities",), 3, "capacities must be a list, got 3"),
    "rcpsp-tasks": BadJson("rcpsp", ("tasks",), 5, "tasks must be a list, got 5"),
    "rcpsp-task": BadJson("rcpsp", ("tasks", 1), 5, "task must be an object, got 5"),
    "rcpsp-no-task": BadJson("rcpsp", ("tasks",), [], "tasks must be a non-empty list, got []"),
    "rcpsp-precedences": BadJson("rcpsp", ("precedences",), 5, "precedences must be a list, got 5"),
    # A task id must be a JSON integer, as every other integer field is.
    "rcpsp-pair-string": BadJson("rcpsp", ("precedences", 0), [0, "1"], "bad precedence pair [0, '1']"),
    "rcpsp-pair-short": BadJson("rcpsp", ("precedences", 0), [0], "bad precedence pair [0]"),
    "rcpsp-pair-text": BadJson("rcpsp", ("precedences", 0), "01", "bad precedence pair '01'"),
    "rcpsp-cycle": BadJson("rcpsp", ("precedences", 1), [2, 0], "precedence graph has a cycle"),
    **{
        f"{problem}-not-an-object": BadJson(problem, (), [1, 2], "instance JSON must be an object")
        for problem in DOCS
    },
    **{
        f"{problem}-missing-{key}": BadJson(problem, (key,), DROP, f"missing field '{key}'")
        for problem, key in FIRST_LIST.items()
    },
    **{
        f"{problem}-truncated": BadJson(
            problem, (), Raw('{"n": 2,'),
            "bad JSON: Expecting property name enclosed in double quotes: line 1 column 9 (char 8)", 1,
        )
        for problem in DOCS
    },
    **{
        f"{problem}-{token}": BadJson(problem, where, Raw(token), f"expected an integer, got {token}")
        for problem, where in FIRST_NUMBER.items()
        for token in ("2.5", "1e3", "NaN", "true", "false")
    },
}


@pytest.mark.parametrize("command", ["solve", "oracle"])
@pytest.mark.parametrize("case", BAD_JSON)
def test_bad_json_instance_is_rejected(tmp_path, capsys, command, case):
    problem, where, value, message, line = BAD_JSON[case]
    text = json.dumps(edited(DOCS[problem], where, "@RAW@" if isinstance(value, Raw) else value))
    path = tmp_path / "bad.json"
    path.write_text(text.replace('"@RAW@"', value) if isinstance(value, Raw) else text)
    assert main([command, str(path), "--problem", problem]) == 1
    assert capsys.readouterr() == ("", f"dpcp: error: {located(path, line, message)}\n")


class BadNative(NamedTuple):
    problem: str
    text: str
    line: Optional[int]
    message: str


SMALL_SM = (DATA / "small.sm").read_text()


def small_sm(*edits) -> str:
    """small.sm with each ``(old, new)`` edit made; each old text occurs once."""
    text = SMALL_SM
    for old, new in edits:
        assert text.count(old) == 1, old
        text = text.replace(old, new)
    return text


def with_ids(*ids) -> str:
    """Three locations whose window lines carry ``ids``."""
    windows = ["0 100", "0 5", "0 100"]
    return "3\n0 1 3\n1 0 3\n3 3 0\n" + "".join(f"{i} {w}\n" for i, w in zip(ids, windows))


SECTION_LINES = {
    "job-count": "jobs (incl. supersource/sink ):  6",
    "renewable-resource": "  - renewable                 :  2   R",
    "nonrenewable-resource": "  - nonrenewable              :  0   N",
    "doubly-constrained-resource": "  - doubly constrained        :  0   D",
    "precedence-relations": "PRECEDENCE RELATIONS:",
    "requests/durations": "REQUESTS/DURATIONS:",
    "resource-availabilities": "RESOURCEAVAILABILITIES:",
}
JOB_1 = "   1        1          2           2   3"  # precedence rows
JOB_2 = "   2        1          1           4"
JOB_4 = "   4        1          1           6"
JOB_6 = "   6        1          0"
REQUEST_2 = "  2      1     4       2    0"  # request rows
REQUEST_3 = "  3      1     3       1    2"

BAD_NATIVE = {
    # A later section line must not replace the first: a second precedence
    # header would drop every precedence, and a second resource line
    # resource 2.
    **{
        f"psplib-second-{kind}": BadNative(
            "rcpsp", SMALL_SM + line + "\n", SMALL_SM.count("\n") + 1, f"second {kind} line"
        )
        for kind, line in SECTION_LINES.items()
    },
    "psplib-garbage": BadNative("rcpsp", "not a psplib file", None, "missing a required section"),
    "psplib-resource-count": BadNative(
        "rcpsp", small_sm((SECTION_LINES["renewable-resource"], "  - renewable : -1 R")), 9,
        "bad renewable-resource line",
    ),
    # With one renewable resource declared, every row holds one value too
    # many; reading only the first would give a one-resource instance.
    "psplib-request-width": BadNative(
        "rcpsp", small_sm((SECTION_LINES["renewable-resource"], "  - renewable : 1 R")), 29,
        "request/duration row holds 5 integers, not 4",
    ),
    "psplib-nonrenewable-width": BadNative(
        "rcpsp", small_sm((SECTION_LINES["nonrenewable-resource"], "  - nonrenewable : 1 N")), 29,
        "request/duration row holds 5 integers, not 6",
    ),
    "psplib-availability-width": BadNative(
        "rcpsp", small_sm(("   3    2", "   3    2    1")), 38,
        "resource availability row holds 3 integers, not 2",
    ),
    # A negative duration used to drop the job from the instance, and a
    # negative request used to escape as a ValueError.
    "psplib-duration": BadNative(
        "rcpsp", small_sm((REQUEST_2, "  2      1    -4       2    0")), 30, "duration must be >= 0, got -4"
    ),
    "psplib-request": BadNative(
        "rcpsp", small_sm((REQUEST_2, "  2      1     4      -2    0")), None, "usage must be >= 0, got -2"
    ),
    # A second row for a job used to overwrite the first silently.
    "psplib-second-request-row": BadNative(
        "rcpsp", small_sm((REQUEST_3, REQUEST_3 + "\n  3      1     1       0    0")), 32,
        "second request/duration row for job 3",
    ),
    "psplib-second-precedence-row": BadNative(
        "rcpsp", small_sm((JOB_4, JOB_4 + "\n   4        1          0")), 23,
        "second precedence row for job 4",
    ),
    # Without job 2's row, its arc to job 4, the precedence (0, 2) between
    # real tasks, would vanish.
    "psplib-no-precedence-row": BadNative(
        "rcpsp", small_sm((JOB_2 + "\n", "")), None, "no precedence row for job 2"
    ),
    "psplib-orphan-precedence-row": BadNative(
        "rcpsp", small_sm((JOB_6, JOB_6 + "\n   7        1          1           6")), None,
        "precedence row for job 7 has no request row",
    ),
    # The dummy source listing itself as a successor used to escape the
    # dummy contraction as a KeyError, and the cycle 2 -> 1 -> 2 through the
    # dummy source was dropped silently by the contraction.
    "psplib-dummy-self-loop": BadNative(
        "rcpsp", small_sm((JOB_1, "   1        1          3           1   2   3")), None,
        "precedence relations contain a cycle",
    ),
    "psplib-cycle-through-a-dummy": BadNative(
        "rcpsp", small_sm((JOB_2, "   2        1          2           4   1")), None,
        "precedence relations contain a cycle",
    ),
    "psplib-dummies-only": BadNative(
        "rcpsp",
        small_sm(*[(f"  {j}      1     {p} ", f"  {j}      1     0 ") for j, p in [(2, 4), (3, 3), (4, 5), (5, 2)]]),
        None, "tasks must be a non-empty list, got []",
    ),
    # The k-th window line must carry id k, or its window would go to
    # another location than the id names.
    "matrix-window-ids-213": BadNative("tsptw", with_ids(2, 1, 3), 5, "window line 1 has id 2, expected 1"),
    "matrix-window-ids-777": BadNative("tsptw", with_ids(7, 7, 7), 5, "window line 1 has id 7, expected 1"),
    "matrix-window-ids-132": BadNative("tsptw", with_ids(1, 3, 2), 6, "window line 2 has id 3, expected 2"),
    # Tokens past the n * n travel values, appended to the last matrix line
    # or shifted there by a stray token on an earlier one, must not be
    # dropped with that line.
    "matrix-extra-tokens-on-the-last-line": BadNative(
        "tsptw", (DATA / "extra_tokens_tsptw.txt").read_text(), 4, "extra tokens after the travel matrix"
    ),
    "matrix-extra-tokens-on-the-first-line": BadNative(
        "tsptw", "3\n0 1 3 9\n1 0 3\n3 3 0\n1 0 100\n2 0 5\n3 0 100\n", 4,
        "extra tokens after the travel matrix",
    ),
    "matrix-fraction": BadNative("tsptw", "2\n0 5.5\n5 0\n0 9\n0 9\n", 2, "expected an integer, got '5.5'"),
    "matrix-truncated": BadNative("tsptw", "3\n0 1 2\n1 0 3\n", None, "truncated travel matrix"),
    "matrix-no-location": BadNative("tsptw", "0\n", 1, "location count must be >= 1, got 0"),
    "matrix-window-columns": BadNative(
        "tsptw", "2\n0 5\n5 0\n0 9\n2 1 8\n", None, "window lines must uniformly have 2 or 3 columns"
    ),
    "matrix-travel": BadNative("tsptw", "2\n0 -5\n5 0\n0 9\n0 9\n", None, "travel time must be >= 0, got -5"),
    "matrix-window": BadNative("tsptw", "2\n0 5\n5 0\n0 9\n9 1\n", None, "window bound must be >= 9, got 1"),
    "smswt-matrix": BadNative(
        "smswt", (DATA / "tiny_tsptw.txt").read_text(), None, "not JSON, the only format of this problem"
    ),
}


@pytest.mark.parametrize("case", BAD_NATIVE)
def test_bad_native_file_is_rejected(tmp_path, capsys, case):
    problem, text, line, message = BAD_NATIVE[case]
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises((ParseError, UnknownFormat)) as exc:
        PROBLEMS[problem].module.load_instance(str(path))
    assert (str(exc.value), getattr(exc.value, "line", None)) == (located(path, line, message), line)
    assert main(["solve", str(path), "--problem", problem]) == 1
    assert capsys.readouterr() == ("", f"dpcp: error: {located(path, line, message)}\n")


GOOD_ROW = {"instance": "two.json", "problem": "smswt"}

# Manifest rows, as edits of GOOD_ROW, that each end as one Error row with
# the message given.  Rows never abort the batch, and each bad value sorts
# under its text in the summary.  ``open`` takes an integer, and a boolean,
# as a file descriptor: 0 would read standard input and 1 would close
# standard output, so those rows must fail before any file is opened.
BAD_ROWS = {
    "no-instance": ({"instance": DROP}, "missing field 'instance'"),
    "no-problem": ({"problem": DROP}, "missing field 'problem'"),
    "instance-0": ({"instance": 0}, "instance must be a path string, got 0"),
    "instance-true": ({"instance": True}, "instance must be a path string, got True"),
    "missing-file": (
        {"instance": "missing.json"}, "missing.json: [Errno 2] No such file or directory: 'missing.json'"
    ),
    "deep-file": ({"instance": "deep.json", "problem": "tsptw"}, "deep.json: JSON nested too deeply"),
    "problem-list": ({"problem": ["smswt"]}, "problem must be a string, got ['smswt']"),
    "problem-unknown": ({"problem": "knapsack"}, "unknown problem kind knapsack"),
    "algo-list": ({"algo": ["astar"]}, "unknown algorithm ['astar']"),
    "algo-number": ({"algo": 1}, "unknown algorithm 1"),
    "propagation-null": ({"propagation": None}, "unknown propagation mode None"),
    "time-limit-string": ({"time_limit": "5"}, "time_limit must be a number, got '5'"),
    "time-limit-true": ({"time_limit": True}, "time_limit must be a number, got True"),
    "time-limit-nan": ({"time_limit": float("nan")}, "time_limit must be positive and finite, got nan"),
    "time-limit-inf": ({"time_limit": float("inf")}, "time_limit must be positive and finite, got inf"),
    "mem-limit-string": ({"mem_limit_mb": "3"}, "mem_limit_mb must be a number, got '3'"),
    "mem-limit-true": ({"mem_limit_mb": True}, "mem_limit_mb must be a number, got True"),
    "mem-limit-0": ({"mem_limit_mb": 0}, "memory limit must be positive and finite, got 0 MB"),
    "mem-limit-negative": ({"mem_limit_mb": -3}, "memory limit must be positive and finite, got -3 MB"),
    "mem-limit-inf": ({"mem_limit_mb": float("inf")}, "memory limit must be positive and finite, got inf MB"),
    "expansion-cap-true": ({"expansion_cap": True}, "expansion_cap must be an integer >= 0, got True"),
    "expansion-cap-fraction": ({"expansion_cap": 1.5}, "expansion_cap must be an integer >= 0, got 1.5"),
}


def test_bench_rows_are_rejected_one_by_one(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    write_json(tmp_path / "two.json", TWO_JOB_SMS)
    (tmp_path / "deep.json").write_text('{"c": ' + "[" * DEEP + "]" * DEEP + "}")
    manifest = []
    for edit, _message in BAD_ROWS.values():
        row = GOOD_ROW
        for key, value in edit.items():
            row = edited(row, (key,), value)
        manifest.append(row)
    manifest += [GOOD_ROW, dict(GOOD_ROW, time_limit=5, mem_limit_mb=3)]
    write_json(tmp_path / "manifest.json", manifest)
    assert main(["bench", "manifest.json"]) == 0
    got = list(csv.DictReader(capsys.readouterr().out.splitlines()))
    rows, summaries = got[: len(manifest)], got[len(manifest) :]
    assert [(r["status"], r["error"]) for r in rows] == [
        ("Error", message) for _edit, message in BAD_ROWS.values()
    ] + [("Optimal", "")] * 2
    assert all(r["cost"] == r["expansions"] == "" for r in rows[: len(BAD_ROWS)])
    assert [(r["algo"], r["propagation"]) for r in rows] == [
        (str(row.get("algo", "cabs")), str(row.get("propagation", "once"))) for row in manifest
    ]
    assert [
        (s["instance"], s["algo"], s["propagation"], s["status"], s["solved_count"]) for s in summaries
    ] == [
        ("[summary]", "1", "once", "solved 0/1", "0"),
        ("[summary]", "['astar']", "once", "solved 0/1", "0"),
        ("[summary]", "cabs", "None", "solved 0/1", "0"),
        ("[summary]", "cabs", "once", f"solved 2/{len(manifest) - 3}", "2"),
    ]


MALFORMED = "manifest.json: manifest must be a list of run objects or {'runs': [...]}"


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"foo": 1}', MALFORMED),
        ("[1, 2]", MALFORMED),
        (None, "manifest.json: [Errno 2] No such file or directory: 'manifest.json'"),
        ("[" * DEEP + "]" * DEEP, "manifest.json: JSON nested too deeply"),
    ],
    ids=["object", "numbers", "missing", "deep"],
)
def test_bench_rejects_the_whole_manifest(tmp_path, capsys, monkeypatch, text, message):
    monkeypatch.chdir(tmp_path)
    if text is not None:
        (tmp_path / "manifest.json").write_text(text)
    assert main(["bench", "manifest.json"]) == 1
    assert capsys.readouterr() == ("", f"dpcp: error: {message}\n")
