"""The count ledger (``repro/counts.py``) on its small families.

The full sweep runs as its own CI step (``python repro/counts.py
--check``); this slice, every family of n <= 10, keeps a moved count a
Tier-1 failure too, and checks on each of its solves how the search
spends its bounds and counts its dominance test.  The slice is solved
once per module; each family then has its own ledger test and its own
test of the search's bookkeeping.
"""

from __future__ import annotations

import pytest

from dpcp import Registry
from dpcp.cli import PROBLEMS
from dpcp.search import _SolveContext

from conftest import load_counts, registry_chain

SMALL = sorted(load_counts().small_families())


@pytest.fixture(scope="module")
def small_sweep():
    """``{key: (entry, tally)}`` for every solve of the n <= 10 families.

    ``tally`` counts the children offered to the registry's dominance
    test and those it let through, recounted from the registry's buckets;
    the ``model.dual`` calls outside ``dual_cp``; and the ``dual_cp``
    calls on any state but the one being expanded.  The model duals that
    ``dual_cp`` makes itself are not counted.
    """
    counts = load_counts()
    tallies = []
    popped = []
    in_dual_cp = []
    solve_counts = counts.solve_counts
    expand = _SolveContext.expand
    dominated = Registry.dominated

    def counted_expand(ctx, node):
        popped.append(node.state)
        return expand(ctx, node)

    def counted_dominated(reg, model, state, g):
        tallies[-1]["offered"] += 1
        bucket = registry_chain(reg, model.state_signature(state))
        if not any(e.g <= g and model.dominates(e.state, state) for e in bucket):
            tallies[-1]["passed"] += 1
        return dominated(reg, model, state, g)

    def counted_dual(inner):
        def dual(model, state, floor=None):
            if not in_dual_cp:
                tallies[-1]["dual"] += 1
            return inner(model, state, floor)

        return dual

    def counted_dual_cp(inner):
        def dual_cp(adapter, state, store):
            if state != popped[-1]:
                tallies[-1]["dual_cp"] += 1
            in_dual_cp.append(state)
            try:
                return inner(adapter, state, store)
            finally:
                in_dual_cp.pop()

        return dual_cp

    def tallied_solve(kind, doc, algo, mode):
        tallies.append(dict(offered=0, passed=0, dual=0, dual_cp=0))
        popped.clear()
        return solve_counts(kind, doc, algo, mode)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_SolveContext, "expand", counted_expand)
        mp.setattr(Registry, "dominated", counted_dominated)
        for problem in PROBLEMS.values():
            mp.setattr(problem.model, "dual", counted_dual(problem.model.dual))
            mp.setattr(problem.adapter, "dual_cp", counted_dual_cp(problem.adapter.dual_cp))
        mp.setattr(counts, "solve_counts", tallied_solve)
        got = counts.sweep(set(SMALL))
    assert len(SMALL) == 6
    assert len(got) == len(tallies) == len(SMALL) * counts.SMALL_POOL * len(counts.CONFIGS) == 360
    # ``sweep`` solves in key order, so the i-th tally is the i-th key's.
    return {key: (entry, tally) for (key, entry), tally in zip(got.items(), tallies)}


def family_solves(small_sweep, family):
    solves = {key: pair for key, pair in small_sweep.items() if key.split(":")[0] == family}
    counts = load_counts()
    assert len(solves) == counts.SMALL_POOL * len(counts.CONFIGS)
    return solves


@pytest.mark.parametrize("family", SMALL)
def test_small_family_matches_the_ledger(small_sweep, family):
    """Each solve of the family equals its ledger entry."""
    counts = load_counts()
    got = {key: entry for key, (entry, _) in family_solves(small_sweep, family).items()}
    want = {key: entry for key, entry in counts.read_ledger().items() if key.split(":")[0] == family}
    assert counts.moved(want, got) == []


@pytest.mark.parametrize("family", SMALL)
def test_small_family_bounds_each_child_once_after_dominance(small_sweep, family):
    """On each solve of the family, ``model.dual`` runs for a child only
    once the registry's dominance test let it through, and at most once,
    ``dual_cp`` runs for popped states only, and ``dominated`` counts the
    children that the dominance test dropped.  Each root (one per CABS
    pass) is registered and bounded once, without the test.
    """
    rejected = []
    for key, (entry, tally) in family_solves(small_sweep, family).items():
        assert entry["dominated"] == tally["offered"] - tally["passed"], (key, tally)
        roots = entry["passes"] if " cabs " in key else 1
        assert tally["dual"] <= tally["passed"] + roots, (key, tally)
        assert tally["dual_cp"] == 0, (key, tally)
        rejected.append(tally["passed"] < tally["offered"])
    # The registry rejected children on these solves, so the check has teeth.
    assert any(rejected)


ENTRY = {"status": "Optimal", "cost": 9, "expansions": 4}
LEDGER = {"a:0 astar off": ENTRY, "a:1 astar off": ENTRY}


@pytest.mark.parametrize(
    "got, lines",
    [
        (LEDGER, []),
        (
            {"a:0 astar off": ENTRY, "a:1 astar off": dict(ENTRY, expansions=5)},
            ["a:1 astar off: expansions 4 -> 5"],
        ),
        ({"a:0 astar off": ENTRY}, ["a:1 astar off: in the ledger, not solved"]),
        (
            dict(LEDGER, **{"a:2 astar off": ENTRY}),
            ["a:2 astar off: solved, not in the ledger"],
        ),
        (
            {"a:1 astar off": dict(ENTRY, expansions=5), "a:2 astar off": ENTRY},
            [
                "a:0 astar off: in the ledger, not solved",
                "a:1 astar off: expansions 4 -> 5",
                "a:2 astar off: solved, not in the ledger",
            ],
        ),
    ],
    ids=["equal", "changed-count", "missing-from-sweep", "missing-from-ledger", "all-in-key-order"],
)
def test_moved_prints_one_line_per_difference(got, lines):
    """Equal tables print nothing; a changed count, a solve missing from
    the sweep and a solve missing from the ledger each print one line, in
    key order."""
    assert load_counts().moved(LEDGER, got) == lines


def test_summary_gives_moved_solves_and_pops_per_family_and_config():
    """One line per (family, algo, mode) with a moved solve, in key order:
    its moved solves, a solve on one side only counted, and its pops
    summed on each side; groups that did not move print nothing."""
    want = {
        "a:0 astar off": dict(ENTRY, pops=1200),
        "a:1 astar off": dict(ENTRY, pops=6),
        "a:0 cabs off": dict(ENTRY, pops=9),
        "b:0 astar off": dict(ENTRY, pops=5),
    }
    got = dict(want, **{"a:1 astar off": dict(ENTRY, pops=3), "b:1 astar off": ENTRY})
    assert load_counts().summary(want, want) == []
    assert load_counts().summary(want, got) == [
        "a astar off: 1 of 2 solves moved, pops 1,206 -> 1,203",
        "b astar off: 1 of 2 solves moved, pops 5 -> 5",
    ]


def test_moved_outcomes_counts_solves_whose_status_or_cost_moved():
    """A solve counts once whatever else moved with it, and a solve on one
    side only counts; a moved count alone does not."""
    counts = load_counts()
    got = {
        "a:0 astar off": dict(ENTRY, cost=8, status="Infeasible"),
        "a:1 astar off": dict(ENTRY, expansions=5),
        "a:2 astar off": ENTRY,
    }
    assert counts.moved_outcomes(LEDGER, LEDGER) == 0
    assert counts.moved_outcomes(LEDGER, dict(LEDGER, **{"a:1 astar off": got["a:1 astar off"]})) == 0
    assert counts.moved_outcomes(LEDGER, got) == 2


@pytest.mark.parametrize("action", ["--check", "--write"])
def test_main_prints_the_summary_and_ends_with_moved_outcomes(tmp_path, monkeypatch, capsys, action):
    """Both actions print the summary and the moved counts, and end with
    the solves whose status or cost moved.  ``--check`` prints each moved
    count first and fails; ``--write`` prints the summary before it
    overwrites the ledger, here a copy in a scratch directory.  ``sweep``
    is replaced by a two-solve table."""
    counts = load_counts()
    monkeypatch.setattr(counts, "LEDGER", tmp_path / "counts.json")
    counts.write_ledger(dict(LEDGER, **{"a:0 astar off": dict(ENTRY, pops=3)}))
    got = dict(LEDGER, **{"a:0 astar off": dict(ENTRY, pops=5)})
    monkeypatch.setattr(counts, "sweep", lambda: got)
    code = counts.main([action])
    out = capsys.readouterr().out.splitlines()
    summary = ["a astar off: 1 of 2 solves moved, pops 3 -> 5", "2 solves, 1 moved counts"]
    last = "0 solves moved status or cost"
    if action == "--check":
        assert (code, out) == (1, ["a:0 astar off: pops 3 -> 5"] + summary + [last])
    else:
        assert (code, out) == (0, summary + ["wrote 2 solves to counts.json", last])
        assert counts.read_ledger() == got
