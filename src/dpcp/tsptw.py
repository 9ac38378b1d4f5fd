"""Travelling-salesperson with time windows, minimising travel only.

A tour starts and ends at the depot (location 0), visiting every other
location exactly once inside its window; arriving early waits for free.
The model visits one location at a time: a state is the unvisited set, the
current location, and the clock.  A state is a dead end as soon as some
unvisited location cannot be reached within its window even along the
all-pairs shortest travel paths.

The propagation side pairs an arrival variable per remaining location with
a finite-set variable for its outgoing travel time (the depot leg is
dropped from locations that provably cannot be last), a non-overlap
constraint over arrivals, and a residual-budget cap on the travel sum.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Tuple

from .core import DpModel, iter_bits
from .cost import Cost, INFINITY, is_finite
from .cp_engine import (
    Disjunctive,
    DomainStore,
    FiniteSet,
    Interval,
    PropagationAdapter,
    SumLe,
    VarDuration,
)
from .parsing import ParseError, int_token, read_instance


class TsptwInstance:
    """Travel matrix (None marks a missing arc) plus visit windows."""

    def __init__(
        self,
        travel: Sequence[Sequence[Optional[int]]],
        windows: Sequence[Tuple[int, int]],
    ):
        n = len(travel)
        if n < 1:
            raise ValueError("instance needs at least the depot")
        if len(windows) != n:
            raise ValueError("window count must match location count")
        rows = []
        for i, row in enumerate(travel):
            if len(row) != n:
                raise ValueError("travel matrix must be square")
            clean = []
            for j, c in enumerate(row):
                if i == j or c is None:
                    clean.append(None)
                else:
                    if c < 0:
                        raise ValueError("travel times must be >= 0")
                    clean.append(int(c))
            rows.append(tuple(clean))
        self.travel: Tuple[Tuple[Optional[int], ...], ...] = tuple(rows)
        wins = []
        for r, d in windows:
            if r < 0 or d < r:
                raise ValueError(f"bad window [{r}, {d}]")
            wins.append((int(r), int(d)))
        self.windows: Tuple[Tuple[int, int], ...] = tuple(wins)
        self.shortest = self._all_pairs_shortest()
        self.min_to = tuple(self._column_min(j) for j in range(n))
        self.min_from = tuple(self._row_min(i) for i in range(n))

    @property
    def n(self) -> int:
        return len(self.travel)

    def _all_pairs_shortest(self):
        n = self.n
        dist: List[List[Optional[int]]] = [
            [0 if i == j else self.travel[i][j] for j in range(n)] for i in range(n)
        ]
        for k in range(n):
            dk = dist[k]
            for i in range(n):
                dik = dist[i][k]
                if dik is None:
                    continue
                di = dist[i]
                for j in range(n):
                    dkj = dk[j]
                    if dkj is None:
                        continue
                    alt = dik + dkj
                    if di[j] is None or alt < di[j]:
                        di[j] = alt
        return tuple(tuple(row) for row in dist)

    def _column_min(self, j: int) -> Cost:
        vals = [self.travel[i][j] for i in range(self.n) if i != j and self.travel[i][j] is not None]
        return min(vals) if vals else INFINITY

    def _row_min(self, i: int) -> Cost:
        vals = [self.travel[i][j] for j in range(self.n) if j != i and self.travel[i][j] is not None]
        return min(vals) if vals else INFINITY

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "c": [[c for c in row] for row in self.travel],
            "windows": [[r, d] for r, d in self.windows],
        }

    @staticmethod
    def from_json(data: dict) -> "TsptwInstance":
        travel = data["c"]
        if "n" in data and data["n"] != len(travel):
            raise ValueError("matrix size does not match 'n'")
        return TsptwInstance(travel, [tuple(w) for w in data["windows"]])


class TsptwState(NamedTuple):
    unvisited: int  # bitmask, never contains the depot or current location
    location: int
    time: int


class TsptwModel(DpModel):
    def __init__(self, instance: TsptwInstance):
        self.instance = instance

    def target_state(self) -> TsptwState:
        mask = ((1 << self.instance.n) - 1) & ~1
        return TsptwState(mask, 0, 0)

    def is_base(self, state: TsptwState) -> bool:
        return state.unvisited == 0

    def base_cost(self, state: TsptwState) -> Cost:
        if state.location == 0:
            return 0  # degenerate single-location tour
        arc = self.instance.travel[state.location][0]
        return INFINITY if arc is None else arc

    def successors(self, state: TsptwState):
        inst = self.instance
        t = state.time
        here = state.location
        # Dead end when some unvisited location misses its window even via
        # the shortest possible travel.
        for j in iter_bits(state.unvisited):
            sp = inst.shortest[here][j]
            if sp is None or t + sp > inst.windows[j][1]:
                return []
        out = []
        for j in iter_bits(state.unvisited):
            arc = inst.travel[here][j]
            if arc is None or t + arc > inst.windows[j][1]:
                continue
            arrive = max(t + arc, inst.windows[j][0])
            out.append((arc, j, TsptwState(state.unvisited ^ (1 << j), j, arrive)))
        return out

    def dominates(self, a: TsptwState, b: TsptwState) -> bool:
        return a.time <= b.time

    def dual(self, state: TsptwState) -> Cost:
        """Cheapest-arc relaxation: every remaining location must still be
        entered once and left once."""
        inst = self.instance
        into = inst.min_to[0]
        out_of = inst.min_from[state.location]
        for i in iter_bits(state.unvisited):
            into = into + inst.min_to[i]
            out_of = out_of + inst.min_from[i]
        return max(into, out_of)

    def state_signature(self, state: TsptwState):
        return (state.unvisited, state.location)


class TsptwAdapter(PropagationAdapter):
    """CP view over the remaining tour.

    Variable ids: arrivals are the location ids and outgoing-travel
    variables are offset by n.  Only the unvisited set and the current
    location get live domains.
    """

    def __init__(self, model: TsptwModel):
        self.model = model
        self.instance = model.instance

    def _dur(self, i: int) -> int:
        return self.instance.n + i

    def build(self, state: TsptwState, g: Cost = 0, primal: Cost = INFINITY):
        inst = self.instance
        n = inst.n
        live = sorted(set(iter_bits(state.unvisited)) | {state.location})
        arrivals: List = [Interval(0, 0) for _ in range(n)]
        durations: List = [Interval(0, 0) for _ in range(n)]
        for i in live:
            r, d = inst.windows[i]
            arrivals[i] = Interval(max(state.time, r), d)
            if arrivals[i].is_empty():
                # A missed window: the store is infeasible from the start,
                # so no duration domain or propagator is needed.
                return DomainStore(arrivals + durations), []
        # The salesperson leaves i toward some unvisited location or the
        # depot; the depot leg is dropped when another remaining location
        # must be visited after i, so i cannot be last.  That holds iff the
        # latest earliest arrival over the other unvisited locations is at
        # or past d_i, so only the two largest such arrivals are needed.
        first = second = None
        first_at = -1
        for j in iter_bits(state.unvisited):
            t = max(state.time, inst.windows[j][0])
            if first is None or t > first:
                first, second, first_at = t, first, j
            elif second is None or t > second:
                second = t
        for i in live:
            latest = second if i == first_at else first
            targets = [j for j in iter_bits(state.unvisited) if j != i]
            if latest is None or latest < inst.windows[i][1]:
                targets.append(0)
            values = [inst.travel[i][j] for j in targets if inst.travel[i][j] is not None]
            durations[i] = FiniteSet(values)
        store = DomainStore(arrivals + durations)
        items = [(i, VarDuration(self._dur(i))) for i in live]
        cap: Cost = INFINITY
        if is_finite(primal):
            cap = primal - g  # residual travel budget for the remaining legs
        props = [Disjunctive(items), SumLe(tuple(self._dur(i) for i in live), cap)]
        return store, props

    def dual_cp(self, state: TsptwState, store: DomainStore) -> Cost:
        total = store.lb(self._dur(state.location))
        for i in iter_bits(state.unvisited):
            total += store.lb(self._dur(i))
        return total

    def is_succ_infeasible(
        self, label: int, state: TsptwState, succ: TsptwState, store: DomainStore
    ) -> bool:
        if not store.contains(label, succ.time):
            return True
        arc = self.instance.travel[state.location][label]
        return not store.contains(self._dur(state.location), arc)


def permutation_optimum(instance: TsptwInstance) -> Cost:
    """Exact optimum by enumerating every window-feasible visit order."""
    travel = instance.travel
    windows = instance.windows
    best: Cost = INFINITY

    def rec(mask: int, here: int, t: int, acc: int):
        nonlocal best
        if mask == 0:
            back = travel[here][0] if here != 0 else 0
            if back is not None:
                total = acc + back
                if total < best:
                    best = total
            return
        rest = mask
        while rest:
            low = rest & -rest
            j = low.bit_length() - 1
            rest ^= low
            arc = travel[here][j]
            if arc is None or t + arc > windows[j][1]:
                continue
            rec(mask ^ low, j, max(t + arc, windows[j][0]), acc + arc)

    full = ((1 << instance.n) - 1) & ~1
    rec(full, 0, 0, 0)
    return best


def parse_matrix(text: str, path: str = "<tsptw>") -> TsptwInstance:
    """Parse the whitespace matrix format.

    Layout: the location count, an n-by-n integer travel matrix, then one
    window line per location holding ``release deadline`` with an optional
    leading 1-based id (detected by column count).  Fractional values are
    rejected.
    """
    rows: List[Tuple[int, List[str]]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        toks = line.split()
        if toks:
            rows.append((lineno, toks))
    flat = [(lineno, tok) for lineno, toks in rows for tok in toks]
    if not flat:
        raise ParseError("empty file", path)
    pos = 0
    lineno, tok = flat[pos]
    n = int_token(tok, path, lineno)
    pos += 1
    if n < 1:
        raise ParseError("location count must be >= 1", path, lineno)
    if len(flat) - pos < n * n:
        raise ParseError("truncated travel matrix", path)
    matrix = []
    for i in range(n):
        row = []
        for j in range(n):
            lineno, tok = flat[pos]
            pos += 1
            row.append(int_token(tok, path, lineno))
        matrix.append(row)
    consumed_linenos = {flat[k][0] for k in range(pos)}
    window_rows = [(lineno, toks) for lineno, toks in rows if lineno not in consumed_linenos]
    if len(window_rows) != n:
        raise ParseError(f"expected {n} window lines, got {len(window_rows)}", path)
    widths = {len(toks) for _ln, toks in window_rows}
    if widths == {3}:
        offset = 1
    elif widths == {2}:
        offset = 0
    else:
        raise ParseError("window lines must uniformly have 2 or 3 columns", path)
    windows = []
    for lineno, toks in window_rows:
        r = int_token(toks[offset], path, lineno)
        d = int_token(toks[offset + 1], path, lineno)
        windows.append((r, d))
    try:
        return TsptwInstance(matrix, windows)
    except ValueError as exc:
        raise ParseError(str(exc), path) from exc


def load_instance(path: str, fmt: str = "auto") -> TsptwInstance:
    """The JSON or matrix instance at ``path``; see ``parsing.read_instance``."""
    return read_instance(path, fmt, TsptwInstance.from_json, ("tsptw-matrix", parse_matrix))
