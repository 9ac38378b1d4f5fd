"""Count ledger: every deterministic count of one fixed solve sweep.

The sweep solves every perfbench pool instance, plus the ``EXTRA``
families, under A* and CABS with propagation ``off``, ``once`` and
``fixpoint``, without limits.  Pool instances are drawn as
``perfbench/workloads.py`` draws them, from ``perfbench/gen.py`` and
``workloads.FAMILIES``, both loaded read-only; a pool holds as many
instances as its largest workload part, and each n <= 10 family
``SMALL_POOL``.  Each ``EXTRA`` family names its kind and its ``gen``
draw, made from ``random.Random("<name>:<k>")`` as ROADMAP's draw table
sets out: ``SMALL_POOL`` instances at n <= 10, else ``EXTRA_POOL``.

``counts.json`` holds one line per solve, sorted by its key
``"<family>:<index> <algo> <mode>"``: the status, the cost and every
integer ``RunMetrics`` counter, plus ``passes``, the number of CABS passes
(0 under A*).  It leaves out ``propagation_time`` and the traces, which
are times.  A change that moves a count commits the regenerated file, so
its git diff lists the moved counts.

    python repro/counts.py --check   # print each moved count and a summary; exit 1 if any
    python repro/counts.py --write   # regenerate counts.json

The solver is imported from this checkout's ``src``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
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
from dpcp.search import PropagationMode  # noqa: E402

SMALL_N = 10  # the most jobs, locations or tasks of a small family
SMALL_POOL = 10  # instances of each small family
EXTRA_POOL = 6  # instances of each larger EXTRA family
EXTRA = {  # name: (kind, the gen function, its arguments after the Random)
    "sms-mid-n10": ("smswt", "sms", (10, 0.6, 0.25, 1.05)),
    "tsptw-narrow-n10": ("tsptw", "tsptw", (10, 8, 30)),
    "rcpsp14": ("rcpsp", "rcpsp", (14, 3, 0.1)),
    "rcpsp18": ("rcpsp", "rcpsp", (18, 3, 0.1)),
    "rcpsp20-tight": ("rcpsp", "rcpsp", (20, 4, 0.2)),
}
CONFIGS = [(algo, mode.value) for algo in SOLVERS for mode in PropagationMode]
INSTANCES = {
    "smswt": smswt.SmsInstance,
    "tsptw": tsptw.TsptwInstance,
    "rcpsp": rcpsp.RcpspInstance,
}


def load_perfbench():
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
    gen, workloads = load_perfbench()
    out = {}
    for wl in workloads.WORKLOADS.values():
        for name, count in wl.parts.items():
            out[name] = (workloads.FAMILIES[name], max(count, out.get(name, (None, 0))[1]))
        for name in wl.oracle:
            out[name] = (workloads.FAMILIES[name], SMALL_POOL)
    for name, (kind, draw, args) in EXTRA.items():
        family = workloads.Family(kind, lambda r, _index, d=getattr(gen, draw), a=args: d(r, *a))
        out[name] = (family, SMALL_POOL if size(family.doc(name, 0)) <= SMALL_N else EXTRA_POOL)
    return out


def size(doc: dict) -> int:
    """The number of jobs, locations or tasks of a drawn document."""
    return len(doc["tasks"]) if "tasks" in doc else doc["n"]


def small_families() -> set:
    """The families none of whose instances has more than ``SMALL_N``
    jobs, locations or tasks."""
    return {
        name
        for name, (family, count) in families().items()
        if all(size(family.doc(name, index)) <= SMALL_N for index in range(count))
    }


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


def summary(want: dict, got: dict) -> list:
    """One line per (family, algo, mode) with a moved solve: how many of
    its solves moved, and its pops summed over the ledger and over the
    sweep."""
    groups = {}
    for key in want.keys() | got.keys():
        name, algo, mode = key.split()
        group = groups.setdefault((name.rsplit(":", 1)[0], algo, mode), [0, 0, 0, 0])
        group[0] += want.get(key) != got.get(key)
        group[1] += 1
        group[2] += want.get(key, {}).get("pops", 0)
        group[3] += got.get(key, {}).get("pops", 0)
    return [
        f"{' '.join(group)}: {moves} of {solves} solves moved, pops {before:,} -> {after:,}"
        for group, (moves, solves, before, after) in sorted(groups.items())
        if moves
    ]


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
    want = read_ledger()
    lines = moved(want, got)
    for line in lines + summary(want, got):
        print(line)
    print(f"{len(got)} solves, {len(lines)} moved counts")
    return 1 if lines else 0


if __name__ == "__main__":
    sys.exit(main())
