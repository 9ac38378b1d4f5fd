"""Fix the stored answers and reference timings in ``expected.json``.

Usage (from the repository root)::

    python3 perfbench/calibrate.py

An instance enters a pool only when ``astar`` without propagation,
``cabs`` with ``once`` and ``astar`` with ``fixpoint`` all prove the same
status and cost.  Instances of the n <= 10 oracle families must also match
``permutation_optimum`` / ``ordering_optimum``.  Answers already in
``expected.json`` are kept when the generator still produces the same
instance.  Each pooled instance is then solved three times with its
workload's configuration; the median of the probe-scaled times (see
``run.py``) groups the pool into strata, sizes the runs and sets the safety
time limit, and the search counts become the reference that later commits
are compared against.  Re-run it only when the workloads change.
"""

from __future__ import annotations

import json
import shutil
import statistics
import sys
import time
from pathlib import Path

import gen
import worker
import workloads as wl

ROOT = Path(__file__).resolve().parent.parent
AGREEMENT = (("astar", "off"), ("cabs", "once"), ("astar", "fixpoint"))
AGREEMENT_LIMIT_S = 60.0
REF_REPEATS = 3


class Calibrator:
    def __init__(self, mods, scratch: Path, previous: dict):
        self.mods = mods
        self.scratch = scratch
        self.previous = previous  # answers from the last calibration
        self.answers = {}  # instance id -> stored answer, or None if excluded
        self.excluded = {}
        self.meter = worker.SpeedMeter()

    def build(self, inst_id):
        name, index = wl.split_id(inst_id)
        fam = wl.FAMILIES[name]
        doc = fam.doc(name, index)
        fmt = fam.file_format(index)
        path = self.scratch / f"{name}-{index:04d}{wl.SUFFIX[fmt]}"
        path.write_text(wl.render(doc, fmt))
        module = self.mods[fam.kind]
        inst = module.load_instance(str(path))
        if inst.to_json() != doc:
            raise ValueError(f"{inst_id}: {fmt} rendering does not parse to the generated instance")
        model_cls, adapter_cls = worker.CLASSES[fam.kind]
        model = getattr(module, model_cls)(inst)
        return doc, fam, inst, model, getattr(module, adapter_cls)(model)

    def oracle(self, kind, inst):
        mods = self.mods
        if kind == "rcpsp":
            try:
                return "Optimal", mods["rcpsp"].ordering_optimum(inst)
            except ValueError:
                return "Infeasible", None
        value = mods[kind].permutation_optimum(inst)
        if not mods["dpcp"].is_finite(value):
            return "Infeasible", None
        return "Optimal", int(value)

    def answer(self, inst_id, with_oracle=False):
        if inst_id in self.answers:
            return self.answers[inst_id]
        doc, fam, inst, model, adapter = self.build(inst_id)
        kept = self.previous.get(inst_id)
        if kept is not None and kept["fp"] == gen.fingerprint(doc):
            self.answers[inst_id] = kept
            return kept
        seen = set()
        for algo, mode in AGREEMENT:
            plan = {"algo": algo, "mode": mode}
            result = worker.solve(self.mods, plan, model, adapter, AGREEMENT_LIMIT_S)
            seen.add((result.status.value, result.cost))
        if with_oracle:
            seen.add(self.oracle(fam.kind, inst))
        status, cost = next(iter(seen))
        if len(seen) != 1 or status not in ("Optimal", "Infeasible"):
            self.excluded[inst_id] = sorted(map(str, seen))
            self.answers[inst_id] = None
        else:
            self.answers[inst_id] = {"fp": gen.fingerprint(doc), "status": status, "cost": cost}
        print(f"  {inst_id}: {sorted(map(str, seen))}", file=sys.stderr, flush=True)
        return self.answers[inst_id]

    def first_agreeing(self, family, count, with_oracle=False):
        ids, index = [], 0
        while len(ids) < count:
            inst_id = f"{family}:{index}"
            if self.answer(inst_id, with_oracle) is not None:
                ids.append(inst_id)
            index += 1
        return ids

    def reference(self, workload, inst_id):
        _doc, _fam, _inst, model, adapter = self.build(inst_id)
        w = wl.WORKLOADS[workload]
        plan = {"algo": w.algo, "mode": w.mode}
        entry = dict(self.answers[inst_id], id=inst_id)
        times, counts = [], []
        for _ in range(REF_REPEATS):
            self.meter.begin()
            started = time.perf_counter()
            result = worker.solve(self.mods, plan, model, adapter, AGREEMENT_LIMIT_S)
            elapsed, speed = self.meter.end(time.perf_counter() - started)
            times.append(elapsed * worker.PROBE_REFERENCE_S / speed)
            error = worker.check(self.mods, model, entry, result)
            if error:
                raise RuntimeError(f"{workload} {inst_id}: {error}")
            counts.append(worker.counts_of(result))
        if any(c != counts[0] for c in counts):
            raise RuntimeError(f"{workload} {inst_id}: search counts differ across repeats")
        return dict(counts[0], time_s=statistics.median(times))


def main():
    sys.path.insert(0, str(ROOT / "src"))
    mods = worker.import_dpcp((ROOT / "src").resolve())
    scratch = ROOT / ".bench_work" / "calibrate"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    previous = wl.load_expected()["instances"] if wl.EXPECTED_PATH.exists() else {}
    cal = Calibrator(mods, scratch, previous)
    out = {"pools": {}, "refs": {}, "oracle": {}}
    pool_sizes = {}
    for w in wl.WORKLOADS.values():
        for family, size in w.parts.items():
            pool_sizes[family] = max(pool_sizes.get(family, 0), size)
    for family in sorted({f for w in wl.WORKLOADS.values() for f in w.oracle}):
        print(f"oracle slice {family}", file=sys.stderr)
        out["oracle"][family] = cal.first_agreeing(family, wl.ORACLE_COUNT, with_oracle=True)
    for family, size in sorted(pool_sizes.items()):
        print(f"pool {family}", file=sys.stderr)
        out["pools"][family] = cal.first_agreeing(family, size)
    for name, w in wl.WORKLOADS.items():
        print(f"references for {name}", file=sys.stderr)
        ids = [i for part, size in w.parts.items() for i in out["pools"][part][:size]]
        ids += [i for family in w.oracle for i in out["oracle"][family]]
        out["refs"][name] = {i: cal.reference(name, i) for i in ids}
    out["instances"] = {k: v for k, v in sorted(cal.answers.items()) if v is not None}
    out["excluded"] = cal.excluded
    wl.EXPECTED_PATH.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    shutil.rmtree(scratch, ignore_errors=True)
    print(f"wrote {wl.EXPECTED_PATH}", file=sys.stderr)


if __name__ == "__main__":
    main()
