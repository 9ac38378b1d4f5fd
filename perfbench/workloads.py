"""Workload definitions, instance pools, and the per-run plan.

Each workload draws its instances from fixed pools whose answers are
stored in ``expected.json`` (see ``calibrate.py``).  A run takes the first
instances of each pool, by index, until their expected solve time reaches
``--seconds``.  They are grouped into strata of at most three instances
whose reference times lie within ``STRATUM_RATIO`` of each other; the seed
picks one instance per stratum and shuffles the order.  Different seeds
therefore solve different instances with nearly the same difficulty
profile, which keeps medians and tails comparable across seeds.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List

import gen

HERE = Path(__file__).resolve().parent
EXPECTED_PATH = HERE / "expected.json"
ORACLE_COUNT = 4  # instances per n <= 10 family in every run
STRATUM_SIZE = 3
STRATUM_RATIO = 0.9
TRACE_STRIDE = 4
# One solve may take this many times its reference time before it counts
# as failed; the floor keeps very fast solves from tripping on a hiccup.
SAFETY_FACTOR = 20
SAFETY_FLOOR_S = 10.0


@dataclass(frozen=True)
class Family:
    kind: str  # dpcp problem kind: smswt, tsptw or rcpsp
    make: Callable[[random.Random, int], dict]
    # Odd pool indices of these kinds are written in the non-JSON format.
    alt_format: str = ""

    def doc(self, name: str, index: int) -> dict:
        return self.make(random.Random(f"{name}:{index}"), index)

    def file_format(self, index: int) -> str:
        return self.alt_format if self.alt_format and index % 2 else "json"


FAMILIES: Dict[str, Family] = {
    # tau=0.4, rho=0.05, phi=0.9: tight due dates and deadlines; every
    # fourth instance has n=16.
    "sms-tight": Family("smswt", lambda r, i: gen.sms(r, 16 if i % 4 == 3 else 14, 0.4, 0.05, 0.9)),
    "sms-tight16": Family("smswt", lambda r, i: gen.sms(r, 16, 0.4, 0.05, 0.9)),
    "sms-tight-n10": Family("smswt", lambda r, i: gen.sms(r, 10, 0.4, 0.05, 0.9)),
    "tsptw-wide": Family("tsptw", lambda r, i: gen.tsptw(r, 14, 30, 80), "matrix"),
    "tsptw-wide-n10": Family("tsptw", lambda r, i: gen.tsptw(r, 10, 30, 80), "matrix"),
    "tsptw-mid18": Family("tsptw", lambda r, i: gen.tsptw(r, 18, 60, 150), "matrix"),
    "tsptw-mid-n10": Family("tsptw", lambda r, i: gen.tsptw(r, 10, 60, 150), "matrix"),
    "rcpsp-sparse": Family("rcpsp", lambda r, i: gen.rcpsp(r, 12, 3, 0.1), "psplib"),
    "rcpsp-sparse-n8": Family("rcpsp", lambda r, i: gen.rcpsp(r, 8, 3, 0.1), "psplib"),
}


@dataclass(frozen=True)
class Workload:
    algo: str
    mode: str
    parts: Dict[str, int]  # family -> pool size calibrated for this workload
    oracle: List[str] = field(default_factory=list)  # n <= 10 families


# Pools hold enough instances for runs of about 20 s at the reference speed.
WORKLOADS: Dict[str, Workload] = {
    "sms-tight-once": Workload("cabs", "once", {"sms-tight": 100}, ["sms-tight-n10"]),
    "tsptw-wide-once": Workload("cabs", "once", {"tsptw-wide": 90}, ["tsptw-wide-n10"]),
    "rcpsp-sparse-fixpoint": Workload(
        "astar", "fixpoint", {"rcpsp-sparse": 45}, ["rcpsp-sparse-n8"]
    ),
    "mixed-off": Workload(
        "astar",
        "off",
        {"sms-tight16": 30, "tsptw-mid18": 30, "rcpsp-sparse": 30},
        ["sms-tight-n10", "tsptw-mid-n10", "rcpsp-sparse-n8"],
    ),
}

SUFFIX = {"json": ".json", "matrix": ".txt", "psplib": ".sm"}


def render(doc: dict, fmt: str) -> str:
    if fmt == "matrix":
        return gen.to_matrix_text(doc)
    if fmt == "psplib":
        return gen.to_psplib_text(doc)
    return json.dumps(doc, sort_keys=True) + "\n"


def split_id(inst_id: str):
    name, index = inst_id.rsplit(":", 1)
    return name, int(index)


def load_expected() -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def strata(ids, refs):
    """Hardest first; a stratum takes the next instance while it has fewer
    than ``STRATUM_SIZE`` members and the instance's reference time is at
    least ``STRATUM_RATIO`` of the stratum's hardest."""
    out = []
    for inst_id in sorted(ids, key=lambda i: (-refs[i]["time_s"], i)):
        head = out[-1][0] if out else None
        if (
            head is not None
            and len(out[-1]) < STRATUM_SIZE
            and refs[inst_id]["time_s"] >= STRATUM_RATIO * refs[head]["time_s"]
        ):
            out[-1].append(inst_id)
        else:
            out.append([inst_id])
    return out


def select(workload: str, seed: int, seconds: float, expected: dict):
    """The run's instances (seeded order), the traced subset, the oracle slice.

    Each part contributes its first ``k`` pool instances, with ``k`` the
    smallest count whose strata add up to ``seconds`` of expected solve
    time (a stratum's expected time is its mean reference time).  The
    traced subset is every ``TRACE_STRIDE``-th stratum, counted from the
    hardest, so it spans the same difficulty range at a fraction of the
    cost.
    """
    wl = WORKLOADS[workload]
    refs = expected["refs"][workload]
    pools = {part: expected["pools"][part][:size] for part, size in wl.parts.items()}
    for part, size in wl.parts.items():
        if len(pools[part]) != size:
            raise ValueError(f"pool {part} has {len(pools[part])} of {size} instances")
    for k in range(1, max(wl.parts.values()) + 1):
        groups = [g for pool in pools.values() for g in strata(pool[:k], refs)]
        if sum(sum(refs[i]["time_s"] for i in g) / len(g) for g in groups) >= seconds:
            break
    rng = random.Random(f"{workload}:{seed}")
    chosen = [rng.choice(g) for g in groups]
    traced = [inst_id for n, inst_id in enumerate(chosen) if n % TRACE_STRIDE == TRACE_STRIDE - 1]
    rng.shuffle(chosen)
    traced.sort(key=chosen.index)
    oracle = [i for fam in wl.oracle for i in expected["oracle"][fam][:ORACLE_COUNT]]
    return chosen, traced, oracle


def write_plan(workload: str, seed: int, seconds: float, work: Path, root: Path) -> dict:
    """Generate the run's instance files under ``work`` and describe them.

    Checks every generated instance against the fingerprint stored with
    its answer, so a changed generator cannot silently change the inputs.
    Also writes ``manifest.json`` in the ``dpcp bench`` format.
    """
    expected = load_expected()
    wl = WORKLOADS[workload]
    chosen, traced, oracle = select(workload, seed, seconds, expected)
    refs = expected["refs"][workload]
    entries = {}
    for inst_id in chosen + oracle:
        name, index = split_id(inst_id)
        fam = FAMILIES[name]
        doc = fam.doc(name, index)
        want = expected["instances"][inst_id]
        if gen.fingerprint(doc) != want["fp"]:
            raise ValueError(f"generator output for {inst_id} differs from expected.json")
        fmt = fam.file_format(index)
        path = work / "instances" / f"{name}-{index:04d}{SUFFIX[fmt]}"
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(render(doc, fmt))
        ref = refs[inst_id]
        entries[inst_id] = {
            "id": inst_id,
            "kind": fam.kind,
            "format": fmt,
            "path": str(path),
            "status": want["status"],
            "cost": want["cost"],
            "ref": ref,
            "time_limit": max(SAFETY_FLOOR_S, SAFETY_FACTOR * ref["time_s"]),
        }
    manifest = [
        {
            "instance": str(Path(e["path"]).relative_to(root)),
            "problem": e["kind"],
            "algo": wl.algo,
            "propagation": wl.mode,
            "format": {"json": "json", "matrix": "tsptw-matrix", "psplib": "psplib"}[e["format"]],
            "time_limit": e["time_limit"],
        }
        for e in entries.values()
    ]
    (work / "manifest.json").write_text(json.dumps({"runs": manifest}, indent=1) + "\n")
    return {
        "workload": workload,
        "algo": wl.algo,
        "mode": wl.mode,
        "timed": [entries[i] for i in chosen],
        "traced": [entries[i] for i in traced],
        "oracle": [entries[i] for i in oracle],
    }
