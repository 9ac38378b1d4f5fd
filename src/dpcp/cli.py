"""Command-line front end.

Subcommands: ``solve`` one instance to a JSON report, ``generate`` random
scheduling instances, ``oracle`` exact reference answers for small
instances, and ``bench`` a manifest of runs into CSV.  Exit codes: 0 for a
proven answer (optimal or infeasible), 2 when a resource limit fired, and
1 for usage, format, parse, or file-access errors.

``PROBLEMS`` is the one per-problem table: each kind's module (whose
``load_instance`` reads every instance file), model, adapter and oracle.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time
from pathlib import Path
from types import ModuleType
from typing import Callable, NamedTuple

from . import rcpsp, smswt, tsptw
from .core import SolveLimits, SolveStatus, evaluate_solution
from .cost import cost_to_json, is_finite
from .parsing import ParseError, UnknownFormat
from .search import PropagationMode, astar, cabs


class Problem(NamedTuple):
    """One row of ``PROBLEMS``."""

    module: ModuleType
    model: type
    adapter: type
    oracle: Callable


PROBLEMS = {
    "smswt": Problem(smswt, smswt.SmsModel, smswt.SmsAdapter, smswt.permutation_optimum),
    "rcpsp": Problem(rcpsp, rcpsp.RcpspModel, rcpsp.RcpspAdapter, rcpsp.ordering_optimum),
    "tsptw": Problem(tsptw, tsptw.TsptwModel, tsptw.TsptwAdapter, tsptw.permutation_optimum),
}
MODES = {
    "off": PropagationMode.OFF,
    "once": PropagationMode.ONCE,
    "fixpoint": PropagationMode.FIXPOINT,
}
ORACLE_CAP = 10  # largest n the exhaustive oracles accept

CSV_COLUMNS = [
    "instance",
    "problem",
    "algo",
    "propagation",
    "status",
    "cost",
    "expansions",
    "generated",
    "wall_time_s",
    "propagation_time_s",
    "final_gap",
    "solved_count",
    "error",
]


class TooLarge(Exception):
    """Instance exceeds the oracle's size cap."""


class _Parser(argparse.ArgumentParser):
    # Usage errors exit 1; argparse's default of 2 is reserved for limits.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _load(kind: str, path: str, fmt: str):
    """``(problem, instance)`` for one problem kind and instance file."""
    if kind not in PROBLEMS:
        raise UnknownFormat(f"unknown problem kind {kind}")
    problem = PROBLEMS[kind]
    return problem, problem.module.load_instance(path, fmt)


def _build(kind: str, path: str, fmt: str):
    """``(model, adapter)`` for one problem kind and instance file."""
    problem, instance = _load(kind, path, fmt)
    model = problem.model(instance)
    return model, problem.adapter(model)


def _limits_from(time_limit, mem_limit_mb, expansion_cap) -> SolveLimits:
    if time_limit is not None and math.isinf(time_limit):
        raise ValueError(f"time_limit must be finite, got {time_limit}")
    memory_limit = None
    if mem_limit_mb is not None:
        limit_bytes = mem_limit_mb * 1024 * 1024
        if not 0 < limit_bytes < math.inf:
            raise ValueError(
                f"memory limit must be positive and finite, got {mem_limit_mb} MB"
            )
        memory_limit = max(1, int(limit_bytes))
    return SolveLimits(
        time_limit=time_limit, memory_limit=memory_limit, expansion_cap=expansion_cap
    )


def _solve_verified(model, adapter, algo: str, propagation: str, limits: SolveLimits):
    """``(result, wall_s)`` of one solve whose incumbent, if any, replays
    through ``evaluate_solution`` to the reported cost.

    A replay that disagrees is a solver bug and raises ``RuntimeError``.
    """
    mode = MODES[propagation]
    if mode is PropagationMode.OFF:
        adapter = None
    solver = astar if algo == "astar" else cabs
    started = time.perf_counter()
    result = solver(model, adapter, limits, mode)
    wall = time.perf_counter() - started
    if result.incumbent is not None:
        cost, labels = result.incumbent
        replayed = evaluate_solution(model, labels)
        if replayed != cost:
            raise RuntimeError(
                f"solver bug: replayed cost {replayed!r} != reported {cost!r}"
            )
    return result, wall


def _emit(payload: str, output) -> None:
    """Write ``payload`` to the ``output`` path, or to stdout without one."""
    if output:
        Path(output).write_text(payload)
    else:
        sys.stdout.write(payload)


def _cmd_solve(args) -> int:
    model, adapter = _build(args.problem, args.instance, args.format)
    limits = _limits_from(args.time_limit, args.mem_limit, args.expansion_cap)
    result, wall = _solve_verified(model, adapter, args.algo, args.propagation, limits)
    solution = None if result.solution is None else list(result.solution)
    report = {
        "instance": args.instance,
        "problem": args.problem,
        "algo": args.algo,
        "propagation": args.propagation,
        "status": result.status.value,
        "cost": cost_to_json(result.cost),
        "root_dual": cost_to_json(result.root_dual),
        "gap": result.metrics.final_gap,
        "wall_time_s": wall,
        "metrics": result.metrics.to_json(),
        "solution": solution,
        "verified": solution is not None,
    }
    _emit(json.dumps(report, indent=2, sort_keys=True) + "\n", args.output)
    if result.status in (SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE):
        return 0
    return 2


def _cmd_generate(args) -> int:
    config = smswt.SmsGeneratorConfig(
        n=args.n, tau=args.tau, rho=args.rho, phi=args.phi, seed=args.seed, count=args.count
    )
    out_dir = Path(args.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"smswt_n{args.n}_tau{args.tau}_rho{args.rho}_phi{args.phi}_seed{args.seed}"
    for idx, instance in enumerate(smswt.generate_instances(config)):
        path = out_dir / f"{stem}_{idx:03d}.json"
        path.write_text(json.dumps(instance.to_json(), indent=2, sort_keys=True) + "\n")
        print(path)
    return 0


def _cmd_oracle(args) -> int:
    problem, instance = _load(args.problem, args.instance, args.format)
    if instance.n > ORACLE_CAP:
        raise TooLarge(f"{args.problem} oracle refuses n={instance.n} (cap {ORACLE_CAP})")
    value = problem.oracle(instance)
    print("INFEASIBLE" if not is_finite(value) else int(value))
    return 0


def _bench_row(row: dict) -> dict:
    out = {c: "" for c in CSV_COLUMNS}
    out["instance"] = row.get("instance", "")
    out["problem"] = row.get("problem", "")
    out["algo"] = row.get("algo", "cabs")
    out["propagation"] = row.get("propagation", "once")
    try:
        if out["algo"] not in ("astar", "cabs"):
            raise UnknownFormat(f"unknown algorithm {out['algo']}")
        if out["propagation"] not in MODES:
            raise UnknownFormat(f"unknown propagation mode {out['propagation']}")
        model, adapter = _build(row["problem"], row["instance"], row.get("format", "auto"))
        limits = _limits_from(
            row.get("time_limit"), row.get("mem_limit_mb"), row.get("expansion_cap")
        )
        result, wall = _solve_verified(
            model, adapter, out["algo"], out["propagation"], limits
        )
        out["status"] = result.status.value
        if result.cost is not None:
            out["cost"] = cost_to_json(result.cost)
        out["expansions"] = result.metrics.expansions
        out["generated"] = result.metrics.generated
        out["wall_time_s"] = f"{wall:.6f}"
        out["propagation_time_s"] = f"{result.metrics.propagation_time:.6f}"
        out["final_gap"] = repr(result.metrics.final_gap)
    except Exception as exc:  # per-row failures never abort the batch
        out["status"] = "Error"
        out["error"] = str(exc)
    return out


def _cmd_bench(args) -> int:
    try:
        manifest = json.loads(Path(args.manifest).read_text())
    except OSError as exc:
        raise ParseError(str(exc), args.manifest) from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON: {exc}", args.manifest, exc.lineno) from exc
    rows = manifest.get("runs") if isinstance(manifest, dict) else manifest
    if not isinstance(rows, list) or not all(isinstance(row, dict) for row in rows):
        raise ParseError(
            "manifest must be a list of run objects or {'runs': [...]}", args.manifest
        )
    buffer = io.StringIO()
    writer = csv.DictWriter(buffer, fieldnames=CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    solved: dict = {}
    totals: dict = {}
    for row in rows:
        rendered = _bench_row(row)
        writer.writerow(rendered)
        key = (rendered["algo"], rendered["propagation"])
        totals[key] = totals.get(key, 0) + 1
        if rendered["status"] in ("Optimal", "Infeasible"):
            solved[key] = solved.get(key, 0) + 1
    for key in sorted(totals):
        summary = {c: "" for c in CSV_COLUMNS}
        summary["instance"] = "[summary]"
        summary["algo"], summary["propagation"] = key
        summary["status"] = f"solved {solved.get(key, 0)}/{totals[key]}"
        summary["solved_count"] = solved.get(key, 0)
        writer.writerow(summary)
    _emit(buffer.getvalue(), args.output)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="dpcp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_shared(p):
        p.add_argument("--problem", choices=tuple(PROBLEMS), required=True)
        p.add_argument(
            "--format", choices=("auto", "json", "psplib", "tsptw-matrix"), default="auto"
        )

    solve = sub.add_parser("solve", parents=[], help="solve one instance")
    solve.add_argument("instance")
    add_shared(solve)
    solve.add_argument("--algo", choices=("astar", "cabs"), default="cabs")
    solve.add_argument("--propagation", choices=tuple(MODES), default="once")
    solve.add_argument("--time-limit", type=float, default=None, metavar="SEC")
    solve.add_argument("--mem-limit", type=float, default=None, metavar="MB")
    solve.add_argument("--expansion-cap", type=int, default=None, metavar="N")
    solve.add_argument("--output", default=None, metavar="PATH")
    solve.set_defaults(func=_cmd_solve)

    gen = sub.add_parser("generate", help="generate random instances")
    gen.add_argument("kind", choices=("smswt",))
    gen.add_argument("--n", type=int, default=50)
    gen.add_argument("--tau", type=float, default=0.2)
    gen.add_argument("--rho", type=float, default=0.25)
    gen.add_argument("--phi", type=float, default=0.9)
    gen.add_argument("--count", type=int, default=1)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--output-dir", default=".", metavar="DIR")
    gen.set_defaults(func=_cmd_generate)

    oracle = sub.add_parser("oracle", help="exact answer for a small instance")
    oracle.add_argument("instance")
    add_shared(oracle)
    oracle.set_defaults(func=_cmd_oracle)

    bench = sub.add_parser("bench", help="run a manifest of solves into CSV")
    bench.add_argument("manifest")
    bench.add_argument("--output", default=None, metavar="PATH")
    bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return args.func(args)
    # OSError covers unreadable inputs and unwritable output paths.
    except (ParseError, UnknownFormat, TooLarge, ValueError, OSError) as exc:
        print(f"dpcp: error: {exc}", file=sys.stderr)
        return 1


def console_main() -> None:
    sys.exit(main())
