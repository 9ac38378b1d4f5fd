"""Benchmark entry point for dpcp: four seeded solver workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload sms-tight-once --seed 1 --seconds 10 --trace 0

``--trace 0`` times one solve of each instance through the public API with
nothing wrapped and prints the end-to-end metrics.  ``--trace 1`` runs the traced subset three
times, each in its own process: untraced, under the outside-in tracer, and
under ``tracemalloc``, and prints the per-layer metrics.  Every solve is
checked against the answers stored in ``expected.json``.  The last line of
standard output is one JSON object; the lines above it explain it.

Work files (instances, the ``dpcp bench`` manifest, spans) go to
``.bench_work/<workload>/`` under the repository root.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import worker
import workloads as wl

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_CAP_S = 170.0
COUNTS = worker.COUNTS


def run_pass(plan_path: Path, which: str, deadline: float) -> dict:
    # A fixed hash seed gives every worker the same string hashing, so dict
    # layouts, and with them timings, do not vary from process to process.
    env = dict(os.environ, PYTHONHASHSEED="0")
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(ROOT), str(plan_path), which],
        capture_output=True,
        text=True,
        env=env,
        cwd=ROOT,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{which} pass exited with code {proc.returncode}")
    line = proc.stdout.strip().splitlines()[-1]
    (plan_path.parent / f"{which}.json").write_text(line + "\n")
    return json.loads(line)


def quantile(values, p, grid=64):
    """Harrell-Davis estimate of the ``p``-quantile.

    A mean of all order statistics weighted by the Beta(p(n+1), (1-p)(n+1))
    mass over each ``[(i-1)/n, i/n]``.  With a few dozen solves of unequal
    instances, the plain sample quantile jumps between neighbouring order
    statistics that can be 20% apart; this estimate moves smoothly.
    """
    x = sorted(values)
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    weights = []
    for i in range(n):
        mass = 0.0
        for k in range(grid):  # midpoint rule on the Beta density
            t = (i + (k + 0.5) / grid) / n
            mass += math.exp((a - 1) * math.log(t) + (b - 1) * math.log1p(-t) - log_norm)
        weights.append(mass)
    return sum(w * v for w, v in zip(weights, x)) / sum(weights)


def tail(times):
    """Highest percentile with at least ten solves beyond it."""
    n = len(times)
    if n <= 10:
        return max(times), 100.0, n
    p = (n - 10) / n
    return quantile(times, p), 100.0 * p, n


def failures(records):
    return [r for r in records if r["error"] is not None]


def count_diffs(plan, records):
    """Search counts that moved since ``expected.json`` was calibrated."""
    refs = {e["id"]: e["ref"] for e in plan["timed"] + plan["oracle"]}
    lines, seen = [], set()
    for r in records:
        if r["counts"] is None or r["id"] in seen:
            continue
        seen.add(r["id"])
        moved = [
            f"{k} {refs[r['id']][k]} -> {r['counts'][k]}"
            for k in COUNTS
            if refs[r["id"]][k] != r["counts"][k]
        ]
        if moved:
            lines.append(f"count diff {r['id']}: " + ", ".join(moved))
    return lines


def end_to_end(plan, res):
    """Solve and set-up times are scaled to the reference machine speed:
    each is multiplied by ``PROBE_REFERENCE_S`` over the probe time
    measured around it.  The probe is the benchmark's own code, so a change
    to dpcp cannot move the scale."""
    solves, setup = res["solves"], res["setup"]
    scale = worker.PROBE_REFERENCE_S
    times = [r["t"] * scale / r["probe"] for r in solves]
    records = solves + res["oracle"]
    value, pct, n = tail(times)
    raw = [r["t"] for r in solves]
    notes = [
        f"{len(solves)} timed solves of {len(plan['timed'])} instances"
        + (" (stopped at the loop cap)" if res["truncated"] else ""),
        f"solve_s_tail is p{pct:.1f} of {n} solves; both quantiles are Harrell-Davis estimates",
        f"machine speed: median probe {statistics.median(r['probe'] for r in solves) * 1e3:.3f} ms"
        f" against {worker.PROBE_REFERENCE_S * 1e3:g} ms; unscaled solve p50"
        f" {statistics.median(raw):.4f} s, total {sum(raw):.2f} s;"
        f" unscaled setup_s {statistics.median(setup['total_s']):.4f} s",
    ]
    proven = len(solves) - len(failures(solves))
    metrics = {
        "solve_s_p50": quantile(times, 0.5),
        "solve_s_tail": value,
        "solves_per_s": proven / sum(times),
        "setup_s": statistics.median(
            t * scale / p for t, p in zip(setup["total_s"], setup["probe"])
        ),
        "peak_rss_mb": res["peak_rss_mb"],
        "correct_ratio": (len(records) - len(failures(records))) / len(records),
    }
    return metrics, records, notes


def per_layer(plan, untraced, traced, memory):
    kinds = {e["id"]: e["kind"] for e in plan["traced"]}
    records = untraced["solves"] + untraced["oracle"] + traced["solves"] + memory["solves"]
    # The wrappers must change nothing: counts agree across the three passes.
    for r in traced["solves"] + memory["solves"]:
        base = next(u for u in untraced["solves"] if u["id"] == r["id"])
        if r["error"] is None and r["counts"] != base["counts"]:
            r["error"] = f"{r['id']}: counts {r['counts']} differ from untraced {base['counts']}"
    good = [r for r in untraced["solves"] if r["counts"] is not None]
    m = {f"search.{k}": sum(r["counts"][k] for r in good) for k in COUNTS}
    untraced_s = sum(r["t"] for r in untraced["solves"])
    m["search.expansions_per_s"] = m["search.expansions"] / untraced_s
    layers, c = traced["layers"], traced["layer_counts"]

    def calls(name):
        return layers.get(name, (0, 0.0))[0]

    def self_s(name):
        return layers.get(name, (0, 0.0))[1]

    def ratio(num, den):
        return num / den if den else 0.0

    m["search.self_s"] = self_s("search")
    m["search.registry.calls"] = calls("search.registry")
    m["search.registry.s"] = self_s("search.registry")
    m["search.registry.admit_ratio"] = ratio(c.get("registry_admitted", 0), c.get("registry_offered", 0))
    m["search.registry.peak_size"] = max(traced["registry_peak"].values(), default=0)
    m["search.open.ops"] = calls("search.open")
    m["search.open.s"] = self_s("search.open")
    for layer in (
        "model.successors", "model.dual", "model.dominates",
        "adapter.build", "adapter.dual_cp", "adapter.is_succ_infeasible",
        "cp.propagate", "cp.Disjunctive", "cp.Cumulative", "cp.PrecedenceLe", "cp.SumLe",
    ):
        m[f"{layer}.calls"] = calls(layer)
        m[f"{layer}.s"] = self_s(layer)
    m["adapter.succ_veto_ratio"] = ratio(c.get("succ_vetoed", 0), c.get("succ_checked", 0))
    m["cp.fixpoint.passes_per_call"] = ratio(c.get("fixpoint_passes", 0), c.get("fixpoint_calls", 0))
    m["cp.tightened_ratio"] = ratio(c.get("cp_tightened", 0), calls("cp.propagate"))
    m["cp.infeasible_ratio"] = ratio(c.get("cp_infeasible", 0), calls("cp.propagate"))
    for phase in ("import_s", "parse_s", "model_s"):
        m[f"setup.{phase}"] = statistics.median(untraced["setup"][phase])
    m["trace.overhead_ratio"] = sum(r["t"] for r in traced["solves"]) / untraced_s

    # Bytes per stored node: tracemalloc peak over the registry's peak size,
    # summed per model so that large solves dominate, as they do in memory.
    peaks, sizes = memory["tracemalloc_peak"], traced["registry_peak"]
    m["search.bytes_per_node"] = ratio(sum(peaks.values()), sum(sizes.values()))
    for kind in ("smswt", "tsptw", "rcpsp"):
        ids = [i for i in peaks if kinds[i] == kind]
        m[f"search.bytes_per_node.{kind}"] = ratio(
            sum(peaks[i] for i in ids), sum(sizes[i] for i in ids)
        )
    notes = [
        f"{len(plan['traced'])} instances traced; search.bytes_per_node "
        + ", ".join(
            f"{k}={m[f'search.bytes_per_node.{k}']:.0f}"
            for k in ("smswt", "tsptw", "rcpsp")
            if m[f"search.bytes_per_node.{k}"]
        )
        + f" against NODE_ESTIMATE_BYTES = {traced['node_estimate_bytes']}",
    ]
    return m, records, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_CAP_S
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (ROOT / "src" / "dpcp" / "__init__.py").is_file():
        print("run.py: no dpcp sources under src/", file=sys.stderr)
        return 1
    work = ROOT / ".bench_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    plan = wl.write_plan(args.workload, args.seed, args.seconds, work, ROOT)
    plan_path = work / "plan.json"
    plan_path.write_text(json.dumps(plan))
    try:
        if args.trace == 0:
            res = run_pass(plan_path, "timed", deadline)
            metrics, records, notes = end_to_end(plan, res)
            wanted = spec["end_to_end"]
        else:
            passes = [run_pass(plan_path, p, deadline) for p in ("untraced", "traced", "memory")]
            metrics, records, notes = per_layer(plan, *passes)
            wanted = spec["per_layer"]
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    failed = failures(records)
    print(f"{args.workload} seed {args.seed} ({plan['algo']}, propagation {plan['mode']})")
    for note in notes + count_diffs(plan, records):
        print(note)
    for r in failed:
        print(f"FAILED {r['id']}: {r['error']}")
    print(f"per-pass results, spans and the dpcp bench manifest: {work.relative_to(ROOT)}/")
    out = {}
    for spec_metric in wanted:
        name = spec_metric["name"]
        out[name] = {"value": metrics[name], "unit": spec_metric["unit"]}
        print(f"{name} = {metrics[name]:.6g} {spec_metric['unit']}")
    print(
        json.dumps(
            {"correct": not failed, "attempted": len(records), "failed": len(failed), "metrics": out}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
