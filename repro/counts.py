"""Count ledger: every deterministic count of one fixed solve sweep.

The sweep solves every perfbench pool instance, plus ``rcpsp14``,
``rcpsp18`` and ``rcpsp20-tight`` at ``:0..5``, under A* and CABS with
propagation ``off``, ``once`` and ``fixpoint``, without limits.  Pool
instances are drawn as ``perfbench/workloads.py`` draws them, from
``perfbench/gen.py`` and ``workloads.FAMILIES``, both loaded read-only; a
pool holds as many instances as its largest workload part, and each
n <= 10 family ``SMALL_POOL``.  The three RCPSP families are drawn with
``gen.rcpsp`` from ``random.Random("<name>:<k>")``, as ROADMAP's draw table
sets out.

``counts.json`` holds one line per solve, sorted by its key
``"<family>:<index> <algo> <mode>"``: the status, the cost and every
integer ``RunMetrics`` counter, plus ``passes``, the number of CABS passes
(0 under A*).  It leaves out ``propagation_time`` and the traces, which
are times.  A change that moves a count commits the regenerated file, so
its git diff lists the moved counts.

    python repro/counts.py --check   # print each moved count; exit 1 if any
    python repro/counts.py --write   # regenerate counts.json

The solver is imported from this checkout's ``src``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import random
import sys
from dataclasses import fields
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
LEDGER = HERE / "counts.json"
sys.path.insert(0, str(ROOT / "src"))

from dpcp import rcpsp, smswt, tsptw  # noqa: E402
from dpcp.cli import PROBLEMS, SOLVERS  # noqa: E402
from dpcp.cost import cost_to_json  # noqa: E402

SMALL_POOL = 10  # instances of each n <= 10 family
EXTRA = {  # name: gen.rcpsp's (n, resources, density), drawn at :0..5
    "rcpsp14": (14, 3, 0.1),
    "rcpsp18": (18, 3, 0.1),
    "rcpsp20-tight": (20, 4, 0.2),
}
EXTRA_POOL = 6
CONFIGS = [(algo, mode) for algo in ("astar", "cabs") for mode in ("off", "once", "fixpoint")]
INSTANCES = {
    "smswt": smswt.SmsInstance,
    "tsptw": tsptw.TsptwInstance,
    "rcpsp": rcpsp.RcpspInstance,
}


def _load_perfbench():
    """``(gen, workloads)`` from ``perfbench/``, loaded without writing
    bytecode there; ``workloads`` imports ``gen`` by that name."""
    names = ("gen", "workloads")
    saved = {name: sys.modules.get(name) for name in names}
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    modules = []
    try:
        for name in names:
            spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / f"{name}.py")
            module = importlib.util.module_from_spec(spec)
            sys.modules[name] = module
            spec.loader.exec_module(module)
            modules.append(module)
    finally:
        sys.dont_write_bytecode = dont_write
        for name, module in saved.items():
            if module is None:
                sys.modules.pop(name, None)
            else:
                sys.modules[name] = module
    return modules


def families():
    """``{name: (family, count)}``: each ``workloads.Family`` of the sweep
    and the number of its instances, from index 0, that it solves."""
    gen, workloads = _load_perfbench()
    out = {}
    for wl in workloads.WORKLOADS.values():
        for name, size in wl.parts.items():
            out[name] = (workloads.FAMILIES[name], max(size, out.get(name, (None, 0))[1]))
        for name in wl.oracle:
            out[name] = (workloads.FAMILIES[name], SMALL_POOL)
    for name, args in EXTRA.items():
        family = workloads.Family("rcpsp", lambda r, _index, args=args: gen.rcpsp(r, *args))
        out[name] = (family, EXTRA_POOL)
    return out


def solve_counts(kind: str, doc: dict, algo: str, mode: str) -> dict:
    """One solve's ledger entry."""
    problem = PROBLEMS[kind]
    model = problem.model(INSTANCES[kind].from_json(doc))
    result = SOLVERS[algo](model, problem.adapter(model), None, mode)
    metrics = result.metrics
    entry = {"status": result.status.value, "cost": cost_to_json(result.cost)}
    for f in fields(metrics):
        value = getattr(metrics, f.name)
        if type(value) is int:
            entry[f.name] = value
    entry["passes"] = len(metrics.beam_widths)
    return entry


def sweep(names=None) -> dict:
    """``{key: entry}`` for every solve of the named families (all of
    them by default)."""
    out = {}
    for name, (family, count) in families().items():
        if names is not None and name not in names:
            continue
        for index in range(count):
            doc = family.doc(name, index)
            for algo, mode in CONFIGS:
                out[f"{name}:{index} {algo} {mode}"] = solve_counts(family.kind, doc, algo, mode)
    return out


def read_ledger() -> dict:
    with open(LEDGER) as fh:
        return json.load(fh)


def write_ledger(entries: dict) -> None:
    lines = [
        f"{json.dumps(key)}: {json.dumps(entries[key], sort_keys=True)}" for key in sorted(entries)
    ]
    LEDGER.write_text("{\n" + ",\n".join(lines) + "\n}\n")


def moved(want: dict, got: dict) -> list:
    """One line per solve missing from either side and per count that
    differs."""
    out = []
    for key in sorted(want.keys() | got.keys()):
        if key not in got:
            out.append(f"{key}: in the ledger, not solved")
        elif key not in want:
            out.append(f"{key}: solved, not in the ledger")
        else:
            old, new = want[key], got[key]
            for field in sorted(old.keys() | new.keys()):
                if old.get(field) != new.get(field):
                    out.append(f"{key}: {field} {old.get(field)} -> {new.get(field)}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    action = parser.add_mutually_exclusive_group(required=True)
    action.add_argument(
        "--check", action="store_true", help="print each moved count, exit 1 if any"
    )
    action.add_argument("--write", action="store_true", help="regenerate counts.json")
    args = parser.parse_args(argv)
    got = sweep()
    if args.write:
        write_ledger(got)
        print(f"wrote {len(got)} solves to {LEDGER.relative_to(ROOT)}")
        return 0
    lines = moved(read_ledger(), got)
    for line in lines:
        print(line)
    print(f"{len(got)} solves, {len(lines)} moved counts")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
