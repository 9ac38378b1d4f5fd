"""One measurement pass in a fresh process; prints a JSON result line.

Usage: ``python3 worker.py ROOT PLAN PASS`` where PASS is

* ``timed``    -- set-up repeated and timed, then one solve of every
  planned instance, then the oracle slice;
* ``untraced`` -- the traced subset once, untraced, plus the oracle slice;
* ``traced``   -- the traced subset once under the outside-in tracer;
* ``memory``   -- the traced subset once under ``tracemalloc``.

``dpcp`` is imported from ``ROOT/src`` only.  Every solve is checked: its
status and cost against the stored answer, its incumbent by replay through
``evaluate_solution``; ``run.py`` compares the search counts of the three
``--trace 1`` passes.

Timed solves and set-ups are measured with ``SpeedMeter``: a fixed piece of pure Python
that belongs to the benchmark runs before, during and after each of them,
so that the machine's speed over it is known.  On shared hosts it
swings by more than 2x within a second, which ``run.py`` divides out.
"""

from __future__ import annotations

import gc
import importlib
import json
import resource
import signal
import sys
import time
from pathlib import Path

CLASSES = {
    "smswt": ("SmsModel", "SmsAdapter"),
    "tsptw": ("TsptwModel", "TsptwAdapter"),
    "rcpsp": ("RcpspModel", "RcpspAdapter"),
}
SETUP_REPEATS = 11
# Hard stop for the timed loop, well inside the benchmark's 180 s limit.
LOOP_CAP_S = 120.0
PROBE_STEPS = 6000
# Solve times are reported as if the probe took this long, which is about
# its time on an uncontended core of a 2-vCPU Xeon virtual machine.
PROBE_REFERENCE_S = 0.001
SAMPLE_INTERVAL_S = 0.05


class _Cell:
    __slots__ = ("v",)


def _step(acc, i, table, cell):
    cell.v = (cell.v + table[i & 63]) & 0xFFFF
    return (acc * 31 + cell.v) & 0xFFFFFF if i & 1 else acc + 1


def probe() -> float:
    """Seconds taken by a fixed interpreter workload: calls, attribute and
    dict access, integer arithmetic, and no allocation the garbage
    collector tracks, so nothing ``dpcp`` does can change its cost."""
    cell = _Cell()
    cell.v = 0
    table = {i: i * 7 for i in range(64)}
    acc = 0
    started = time.perf_counter()
    for i in range(PROBE_STEPS):
        acc = _step(acc, i, table, cell)
    return time.perf_counter() - started


class SpeedMeter:
    """Probe before a call, every ``SAMPLE_INTERVAL_S`` during it from a
    ``SIGALRM`` handler, and after it.  The handler's time is subtracted
    from the call's, so only the probes' cache footprint stays in it."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame):
        started = time.perf_counter()
        self.samples.append(probe())
        self.spent += time.perf_counter() - started

    def begin(self):
        self.samples = [probe()]
        self.spent = 0.0
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def end(self, elapsed):
        """``(elapsed minus probe time, mean probe time)``."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.samples.append(probe())
        return elapsed - self.spent, sum(self.samples) / len(self.samples)


def import_dpcp(src: Path):
    """Fresh import of ``dpcp`` and its model modules from ``src``."""
    for name in [m for m in sys.modules if m == "dpcp" or m.startswith("dpcp.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    dpcp = importlib.import_module("dpcp")
    if not Path(dpcp.__file__).resolve().is_relative_to(src):
        raise ImportError(f"dpcp imported from {dpcp.__file__}, not from {src}")
    mods = {kind: importlib.import_module(f"dpcp.{kind}") for kind in CLASSES}
    mods["search"] = importlib.import_module("dpcp.search")
    mods["dpcp"] = dpcp
    return mods


def set_up(src: Path, entries, repeats: int, meter=None):
    """Import, parse every instance file, and build models and adapters,
    ``repeats`` times; returns the last build and the phase timings, with
    the mean probe time of each repeat when a ``SpeedMeter`` is given."""
    phases = {"import_s": [], "parse_s": [], "model_s": [], "total_s": [], "probe": []}
    for _ in range(repeats):
        if meter is not None:
            meter.begin()
        t0 = time.perf_counter()
        mods = import_dpcp(src)
        t1 = time.perf_counter()
        instances = [mods[e["kind"]].load_instance(e["path"]) for e in entries]
        t2 = time.perf_counter()
        built = []
        for e, inst in zip(entries, instances):
            model_cls, adapter_cls = CLASSES[e["kind"]]
            model = getattr(mods[e["kind"]], model_cls)(inst)
            built.append((model, getattr(mods[e["kind"]], adapter_cls)(model)))
        t3 = time.perf_counter()
        total, speed = meter.end(t3 - t0) if meter is not None else (t3 - t0, None)
        for key, value in zip(phases, (t1 - t0, t2 - t1, t3 - t2, total, speed)):
            phases[key].append(value)
    return mods, dict(zip((e["id"] for e in entries), built)), phases


def solve(mods, plan, model, adapter, time_limit):
    dpcp = mods["dpcp"]
    mode = mods["search"].PropagationMode(plan["mode"])
    run = dpcp.astar if plan["algo"] == "astar" else dpcp.cabs
    if mode is mods["search"].PropagationMode.OFF:
        adapter = None
    return run(model, adapter, limits=dpcp.SolveLimits(time_limit=time_limit), mode=mode)


COUNTS = ("expansions", "generated", "pruned_by_cp", "stale_skips", "cabs_passes")


def counts_of(result):
    """The ``COUNTS`` of one solve, read from its ``RunMetrics``."""
    m = result.metrics
    return {
        "expansions": m.expansions,
        "generated": m.generated,
        "pruned_by_cp": m.pruned_by_cp,
        "stale_skips": m.stale_skips,
        "cabs_passes": len(m.beam_widths),
    }


def check(mods, model, entry, result):
    """None when the result is the stored answer and replays; else why not."""
    status = result.status.value
    if status != entry["status"]:
        return f"status {status}, expected {entry['status']}"
    if entry["status"] == "Infeasible":
        return None
    if result.cost != entry["cost"]:
        return f"cost {result.cost!r}, expected {entry['cost']}"
    replayed = mods["dpcp"].evaluate_solution(model, result.solution)
    if replayed != result.cost:
        return f"replayed cost {replayed!r} != reported {result.cost!r}"
    return None


class Runner:
    """Solves planned instances and keeps one record per solve."""

    def __init__(self, mods, plan, built, wrap=None, meter=None):
        self.mods, self.plan, self.built = mods, plan, built
        self.wrap = wrap  # (model, adapter, solve fn) -> same, for tracing
        self.meter = meter
        self.records = []

    def run(self, entry, before=None, after=None):
        model, adapter = self.built[entry["id"]]
        call = solve
        if self.wrap is not None:
            model, adapter, call = self.wrap(model, adapter, solve)
        gc.collect()
        if before is not None:
            before()
        if self.meter is not None:
            self.meter.begin()
        result, error, counts, speed = None, None, None, None
        started = time.perf_counter()
        try:
            result = call(self.mods, self.plan, model, adapter, entry["time_limit"])
        except Exception as exc:  # a crash is a failed solve, not a failed benchmark
            error = f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - started
        if self.meter is not None:
            elapsed, speed = self.meter.end(elapsed)
        if after is not None:
            after()
        if result is not None:
            counts = counts_of(result)
            try:
                error = check(self.mods, self.built[entry["id"]][0], entry, result)
            except Exception as exc:
                error = f"replay failed: {type(exc).__name__}: {exc}"
        record = {"id": entry["id"], "t": elapsed, "probe": speed, "counts": counts, "error": error}
        self.records.append(record)
        return record


def timed_loop(runner, entries):
    """One solve per entry; True when the loop cap cut it short."""
    started = time.perf_counter()
    for entry in entries:
        if time.perf_counter() - started > LOOP_CAP_S:
            return True
        runner.run(entry)
    return False


def main(argv):
    root, plan_path, which = Path(argv[1]), Path(argv[2]), argv[3]
    plan = json.loads(plan_path.read_text())
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    everything = plan["timed"] + plan["oracle"]
    out = {"pass": which}
    repeats = SETUP_REPEATS if which in ("timed", "untraced") else 1
    meter = SpeedMeter() if which == "timed" else None
    mods, built, out["setup"] = set_up(src, everything, repeats, meter)
    out["node_estimate_bytes"] = getattr(mods["search"], "NODE_ESTIMATE_BYTES", None)
    runner = Runner(mods, plan, built, meter=meter)
    if which == "timed":
        out["truncated"] = timed_loop(runner, plan["timed"])
    elif which == "untraced":
        for entry in plan["traced"]:
            runner.run(entry)
    elif which == "traced":
        import tracing

        tracer = tracing.Tracer()
        tracing.install(mods["search"], tracer)
        runner.wrap = lambda model, adapter, fn: (
            tracing.ModelProxy(model, tracer),
            tracing.AdapterProxy(adapter, tracer),
            tracer.timed("search", fn),
        )
        peaks = {}
        for entry in plan["traced"]:

            def reset():
                tracer.registry_peak = 0

            runner.run(entry, before=reset)
            peaks[entry["id"]] = tracer.registry_peak
        out["registry_peak"] = peaks
        out["layers"] = tracer.self_times()
        out["layer_counts"] = dict(tracer.counts)
        tracer.write(plan_path.parent / "spans")
    elif which == "memory":
        import tracemalloc

        tracemalloc.start()
        peaks = {}
        for entry in plan["traced"]:
            mark = {}

            def reset():
                tracemalloc.reset_peak()
                mark["base"] = tracemalloc.get_traced_memory()[0]

            def read():
                mark["peak"] = tracemalloc.get_traced_memory()[1]

            runner.run(entry, before=reset, after=read)
            peaks[entry["id"]] = mark["peak"] - mark["base"]
        tracemalloc.stop()
        out["tracemalloc_peak"] = peaks
    else:
        raise SystemExit(f"unknown pass {which!r}")
    out["solves"] = runner.records
    if which in ("timed", "untraced"):
        oracle = Runner(mods, plan, built)
        for entry in plan["oracle"]:
            oracle.run(entry)
        out["oracle"] = oracle.records
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
