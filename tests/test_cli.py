import csv
import json
from pathlib import Path

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
@pytest.mark.parametrize("damage", ["truncated", "missing-key"])
def test_load_instance_maps_bad_json_to_parse_error(tmp_path, module, doc, key, damage):
    # The library loader is the CLI's loader, so it maps errors the same way.
    doc = doc()
    if damage == "truncated":
        text = json.dumps(doc)[:-3]
    else:
        text = json.dumps({k: v for k, v in doc.items() if k != key})
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    with pytest.raises(ParseError):
        module.load_instance(str(bad))


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
        ["solve", str(DATA / "small.sm"), "--problem", "rcpsp", "--format", "psplib",
         "--mem-limit", mb]
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
    # ``auto`` decides the format from the content, not the file name.
    inst = write_json(tmp_path / "instance.txt", doc())
    assert main(["solve", str(inst), "--problem", problem, "--algo", "astar"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["status"] == "Optimal" and report["cost"] == 9


@pytest.mark.parametrize(
    "problem, path, fmt",
    [
        ("tsptw", DATA / "tiny_tsptw.txt", "psplib"),
        ("smswt", DATA / "tiny_tsptw.txt", "auto"),
        ("smswt", DATA / "small.sm", "tsptw-matrix"),
    ],
)
def test_solve_rejects_format_the_problem_cannot_read(capsys, problem, path, fmt):
    assert main(["solve", str(path), "--problem", problem, "--format", fmt]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("dpcp: error")


def test_solve_psplib_and_matrix_formats(tmp_path, capsys):
    code = main(["solve", str(DATA / "small.sm"), "--problem", "rcpsp"])
    assert code == 0
    rc_report = json.loads(capsys.readouterr().out)
    code = main(
        ["solve", str(DATA / "tiny_tsptw.txt"), "--problem", "tsptw",
         "--format", "tsptw-matrix", "--algo", "astar"]
    )
    assert code == 0
    ts_report = json.loads(capsys.readouterr().out)
    assert ts_report["cost"] == 9
    assert rc_report["status"] == "Optimal"


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
    ]
    mpath = tmp_path / "manifest.json"
    mpath.write_text(json.dumps(manifest))
    out = tmp_path / "runs.csv"
    assert main(["bench", str(mpath), "--output", str(out)]) == 0
    rows = list(csv.DictReader(out.read_text().splitlines()))
    results = [r for r in rows if r["instance"] != "[summary]"]
    summaries = [r for r in rows if r["instance"] == "[summary]"]
    assert len(results) == 5
    assert results[0]["status"] == "Optimal" and results[0]["cost"] == "3"
    assert results[3]["status"] == "MemoryLimit" and results[3]["cost"] == ""
    assert results[4]["status"] == "Error" and results[4]["error"]
    assert {(s["algo"], s["propagation"]) for s in summaries} == {
        ("cabs", "off"), ("cabs", "once"), ("astar", "once")
    }
    astar_summary = next(s for s in summaries if s["algo"] == "astar")
    assert astar_summary["solved_count"] == "1"

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
