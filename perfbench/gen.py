"""Seeded instance generators for the benchmark's four workload families.

Every instance is drawn from ``random.Random("<family>:<index>")``, so a
pool index names the same instance on every machine and commit.  Each
generator returns the canonical JSON document that ``dpcp`` reads; the
writers below render the same instance as a PSPLIB ``.sm`` file or as
TSPTW matrix text.
"""

from __future__ import annotations

import hashlib
import json
import random

# Far beyond any arrival time these families can produce: the depot never binds.
OPEN_DEPOT_DEADLINE = 100_000


def sms(rng: random.Random, n: int, tau: float, rho: float, phi: float) -> dict:
    """Single-machine weighted tardiness; the same draws as ``dpcp generate``."""
    ps = [rng.randint(1, 10) for _ in range(n)]
    total = sum(ps)
    r_hi, rho_span, phi_span = int(tau * total), int(rho * total), int(phi * total)
    rs = [rng.randint(0, r_hi) for _ in range(n)]
    ds = [rng.randint(rs[i] + ps[i], rs[i] + ps[i] + rho_span) for i in range(n)]
    deadlines = [rng.randint(ds[i], ds[i] + phi_span) for i in range(n)]
    ws = [rng.randint(1, 10) for _ in range(n)]
    jobs = [
        {"p": ps[i], "r": rs[i], "d": ds[i], "deadline": deadlines[i], "w": ws[i]}
        for i in range(n)
    ]
    return {"n": n, "jobs": jobs}


def tsptw(rng: random.Random, n: int, width_lo: int, width_hi: int) -> dict:
    """Travel times 1..20, window starts in [0, 11(n-1)], open depot window."""
    travel = [[None if i == j else rng.randint(1, 20) for j in range(n)] for i in range(n)]
    windows = [[0, OPEN_DEPOT_DEADLINE]]
    span = 11 * (n - 1)
    for _ in range(1, n):
        r = rng.randint(0, span)
        windows.append([r, r + rng.randint(width_lo, width_hi)])
    return {"n": n, "c": travel, "windows": windows}


def rcpsp(rng: random.Random, n: int, n_res: int, density: float) -> dict:
    """Capacities 4..8, usages 0..cap, durations 1..8, precedence i<j with
    probability ``density``."""
    caps = [rng.randint(4, 8) for _ in range(n_res)]
    tasks = [
        {"p": rng.randint(1, 8), "u": [rng.randint(0, c) for c in caps]} for _ in range(n)
    ]
    precs = [[i, j] for i in range(n) for j in range(i + 1, n) if rng.random() < density]
    return {"tasks": tasks, "capacities": caps, "precedences": precs}


def to_matrix_text(doc: dict) -> str:
    """TSPTW whitespace matrix: count, travel rows, then ``id release deadline``."""
    n = doc["n"]
    lines = [str(n)]
    for i, row in enumerate(doc["c"]):
        lines.append(" ".join("0" if i == j else str(c) for j, c in enumerate(row)))
    for k, (r, d) in enumerate(doc["windows"]):
        lines.append(f"{k + 1} {r} {d}")
    return "\n".join(lines) + "\n"


def to_psplib_text(doc: dict) -> str:
    """Single-mode PSPLIB ``.sm`` with a zero-duration supersource and sink."""
    tasks, caps, precs = doc["tasks"], doc["capacities"], doc["precedences"]
    n, k = len(tasks), len(caps)
    succs = {i: [] for i in range(n)}
    has_pred = set()
    for i, j in precs:
        succs[i].append(j)
        has_pred.add(j)
    # PSPLIB job ids: 1 is the source, 2..n+1 the tasks, n+2 the sink.
    rows = {1: [i + 2 for i in range(n) if i not in has_pred]}
    for i in range(n):
        rows[i + 2] = [j + 2 for j in succs[i]] or [n + 2]
    rows[n + 2] = []
    star = "*" * 72
    res = "  ".join(f"R {r + 1}" for r in range(k))
    out = [
        star,
        "file with basedata            : BENCH.BAS",
        star,
        "projects                      :  1",
        f"jobs (incl. supersource/sink ):  {n + 2}",
        f"horizon                       :  {sum(t['p'] for t in tasks)}",
        "RESOURCES",
        f"  - renewable                 :  {k}   R",
        "  - nonrenewable              :  0   N",
        "  - doubly constrained        :  0   D",
        star,
        "PRECEDENCE RELATIONS:",
        "jobnr.    #modes  #successors   successors",
    ]
    for job in sorted(rows):
        out.append(f"  {job}  1  {len(rows[job])}  " + "  ".join(map(str, rows[job])))
    out += [star, "REQUESTS/DURATIONS:", f"jobnr. mode duration  {res}", "-" * 72]
    zeros = "  ".join("0" for _ in range(k))
    out.append(f"  1  1  0  {zeros}")
    for i, t in enumerate(tasks):
        out.append(f"  {i + 2}  1  {t['p']}  " + "  ".join(map(str, t["u"])))
    out.append(f"  {n + 2}  1  0  {zeros}")
    out += [star, "RESOURCEAVAILABILITIES:", f"  {res}", "  " + "  ".join(map(str, caps)), star]
    return "\n".join(out) + "\n"


def fingerprint(doc: dict) -> str:
    """Short hash of the instance's canonical JSON."""
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]
