"""Travelling-salesperson with time windows, minimising travel only.

A tour starts and ends at the depot (location 0), visiting every other
location exactly once inside its window; arriving early waits for free.
The model visits one location at a time: a state is the unvisited set, the
current location, and the clock.  A state is a dead end as soon as some
unvisited location cannot be reached within its window even along the
all-pairs shortest travel paths.  As a DIDP state constraint would,
``successors`` tests that rule once, on each child, and drops the dead
ones, so every arrival in a built store is within its window.  A dead
target, or a dead state built by hand, has no successors: each child
fails that test, as no child reaches a stranded location sooner than its
parent could.

The dual bound is the larger of two cheapest-arc sums: every remaining
location is entered once, and left once along an arc it can still take
in time (``leave_costs``).  The CP model is an arrival per remaining
location under a non-overlap constraint that takes each leave cost as a
duration.  Its store is infeasible where the dual is ``INFINITY``, and
its CP dual is 0: the search prunes a popped node on its own ``f``.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Tuple

from .core import DpModel, iter_bits
from .cost import Cost, INFINITY, check_ceiling
from .cp_engine import Disjunctive, DomainStore, PropagationAdapter
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
        self.min_to = tuple(
            min((c for c in col if c is not None), default=INFINITY) for col in zip(*rows)
        )

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
        # A tour, and the leave-cost sum in ``dual``, has at most n terms,
        # each the longest arc or less; ``dual`` caps its entered sum.
        longest = max((c for row in instance.travel for c in row if c is not None), default=0)
        check_ceiling(instance.n * longest)
        self._to = instance.min_to
        # Built by the first ``leave_costs``, so that set-up spends nothing.
        self._by_travel = None
        # For each location j, the latest arrival at j from which each other
        # location k is still reachable in time, ``d_k - shortest[j][k]``,
        # as ``(latest, k)`` pairs in ascending order.  A missing path gets
        # -1, below every arrival (each is at least 0), so it reads as a
        # missed window.  The depot is never unvisited, so it has no pair.
        windows, shortest = instance.windows, instance.shortest
        self._latest = tuple(
            sorted(
                (-1 if shortest[j][k] is None else windows[k][1] - shortest[j][k], k)
                for k in range(1, instance.n)
                if k != j
            )
            for j in range(instance.n)
        )

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
        """Each unvisited location reached next by its direct arc in time,
        less the children that are dead ends themselves.

        Child ``j`` at arrival ``a`` is dead when a location ``k`` it leaves
        unvisited has no path from ``j`` or ``a + shortest[j][k] > d_k``.
        The first pair of ``j``'s ascending latest arrivals whose ``k`` is
        still unvisited holds the smallest of them, so it decides.  That is
        the model's one dead-end test, and a dead ``state`` has no children
        that pass it: a location stranded from here misses its window by
        its direct arc, and by the triangle inequality is stranded from
        every other child.
        """
        inst = self.instance
        t = state.time
        travel, windows, latest = inst.travel[state.location], inst.windows, self._latest
        mask = state.unvisited
        out = []
        for j in iter_bits(mask):
            r, d = windows[j]
            arc = travel[j]
            if arc is not None and t + arc <= d:
                a = t + arc
                if a < r:
                    a = r
                for limit, k in latest[j]:
                    if mask >> k & 1:
                        break
                else:
                    limit = a  # j is the last location left: never dead
                if a <= limit:
                    out.append((arc, j, TsptwState(mask ^ (1 << j), j, a)))
        return out

    def dominates(self, a: TsptwState, b: TsptwState) -> bool:
        return a.time <= b.time

    def start(self, label: int, succ: TsptwState) -> int:
        """The arrival at location ``label``, ``succ``'s clock."""
        return succ.time

    def dual(self, state: TsptwState, floor=None) -> Cost:
        """Cheapest-arc relaxation: every remaining location must still be
        entered once and left once in time.  The floor is ignored: each
        location's earliest leave is read from the state alone.

        Over ``M``, the unvisited set plus the current location, that is
        the larger of ``min_to[0] + S_to(M) - min_to[location]`` and the
        sum of ``leave_costs``, or ``INFINITY`` where there are none.
        ``leave_costs`` has one item per location of ``M``, so one loop
        sums both.  A location with no arc in has the term ``INFINITY``,
        and the bound is capped there.  The depot alone (only in a
        one-location instance) is a finished tour that enters and leaves
        nothing: 0.
        """
        here = state.location
        mask = state.unvisited | (1 << here)
        if mask == 1:
            return 0
        items = self.leave_costs(state)
        if items is None:
            return INFINITY
        to = self._to
        to_sum = leave = 0
        for i, c in items:
            to_sum += to[i]
            leave += c
        return min(INFINITY, max(to[0] + to_sum - to[here], leave))

    def leave_costs(self, state: TsptwState) -> Optional[List[Tuple[int, int]]]:
        """``(i, c_i)`` for each ``i`` in ``M``, ascending, where ``c_i`` is
        the cheapest arc out of ``i`` that a completion may still take, or
        None if some ``i`` has none.

        ``i`` is left no earlier than ``a_i = max(r_i, t)``, toward an
        unvisited ``j`` that must be reached by ``d_j``: only arcs with
        ``a_i + c_ij <= d_j`` count (arc elimination by time windows,
        Dumas, Desrosiers, Gelinas and Solomon, *Operations Research*,
        1995).  The depot is a target only where ``i`` may be last, entered
        after each other unvisited ``k`` by ``a_k + min_to[i] <= d_i``, and
        its leg is not tested against a window, as no tour's is.
        """
        windows, to = self.instance.windows, self._to
        t, here, unvisited = state.time, state.location, state.unvisited
        by_travel = self._by_travel or self._build_by_travel()
        # The two largest earliest arrivals over the unvisited set decide
        # each depot leg (-INFINITY stands for none).
        first = second = first_at = -INFINITY
        live = []
        for i in iter_bits(unvisited | (1 << here)):
            r, d = windows[i]
            a = t if t > r else r
            live.append((i, a, d))
            if i != here:
                if a > first:
                    first, second, first_at = a, first, i
                elif a > second:
                    second = a
        items = []
        for i, a, d in live:
            # Bit 0, the depot, is a target where i may be last.
            targets = unvisited | ((second if i == first_at else first) + to[i] <= d)
            for c, j, due in by_travel[i]:
                if targets >> j & 1 and a + c <= due:
                    items.append((i, c))
                    break
            else:
                return None
        return items

    def _build_by_travel(self):
        """Each location's arcs as ``(travel, head, deadline)``, cheapest
        first; the depot's deadline is ``INFINITY``: no window drops it."""
        due = [INFINITY] + [d for _r, d in self.instance.windows[1:]]
        self._by_travel = by_travel = [
            sorted((c, j, due[j]) for j, c in enumerate(row) if c is not None)
            for row in self.instance.travel
        ]
        return by_travel

    def state_signature(self, state: TsptwState):
        return (state.unvisited, state.location)


class TsptwAdapter(PropagationAdapter):
    """CP view over the remaining tour.

    Variable ids are the location ids: an arrival per location, with a
    window only for the unvisited set and the current location.  The
    durations and the bound are the model's (``TsptwModel.leave_costs``
    and ``dual``).  The durations depend on the state, so ``build`` makes
    its ``Disjunctive`` per call, over those locations alone, which the
    store's ``live`` mask names.  The veto is the default; the one adapter
    that overrides ``dual_cp``: its store adds nothing to the model's bound.
    """

    reads_primal = False

    def build(self, state: TsptwState, primal: Cost = INFINITY):
        windows, t = self.instance.windows, state.time
        lbs = [0] * len(windows)  # locations off the remaining tour keep [0, 0]
        ubs = [0] * len(windows)
        items = self.model.leave_costs(state)
        for i, _c in items or ():
            r, d = windows[i]
            lbs[i], ubs[i] = (t if t > r else r), d
        store = DomainStore(lbs, ubs, state.unvisited | 1 << state.location)
        if items is None:
            store.mark_infeasible()
            return store, []
        return store, [Disjunctive(items)]

    def dual_cp(self, state: TsptwState, store: DomainStore) -> Cost:
        """0: ``TsptwModel.dual`` ignores the floor, so under any store it
        equals the admission bound that the node's ``f`` already holds, and
        recomputing its leave costs at each pop would only cost time."""
        return 0


def exact_optimum(instance: TsptwInstance) -> Optional[int]:
    """Exact optimum over every window-feasible visit order, None if there
    is none; plain ``+`` keeps an optimum of ``INFINITY`` or above exact."""
    travel = instance.travel
    windows = instance.windows
    best: Optional[int] = None

    def rec(mask: int, here: int, t: int, acc: int):
        nonlocal best
        if mask == 0:
            back = travel[here][0] if here != 0 else 0
            if back is not None:
                total = acc + back
                if best is None or total < best:
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


def permutation_optimum(instance: TsptwInstance) -> Cost:
    """``exact_optimum`` as a cost, ``INFINITY`` if there is none."""
    best = exact_optimum(instance)
    return INFINITY if best is None else best


def parse_matrix(text: str, path: str = "<tsptw>") -> TsptwInstance:
    """Parse the whitespace matrix format.

    Layout: the location count, an n-by-n integer travel matrix, then, on
    the lines after the last travel value, one window line per location
    holding ``release deadline`` with an optional leading 1-based id
    (detected by column count).  The k-th window line's id must be k.
    Fractional values are rejected.
    """
    rows: List[Tuple[int, List[str]]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        toks = line.split()
        if toks:
            rows.append((lineno, toks))
    flat = [(lineno, tok) for lineno, toks in rows for tok in toks]
    if not flat:
        raise ParseError("empty file", path)
    lineno, tok = flat[0]
    n = int_token(tok, path, lineno)
    if n < 1:
        raise ParseError("location count must be >= 1", path, lineno)
    end = 1 + n * n
    if len(flat) < end:
        raise ParseError("truncated travel matrix", path)
    cells = [int_token(tok, path, lineno) for lineno, tok in flat[1:end]]
    matrix = [cells[i * n : (i + 1) * n] for i in range(n)]
    last = flat[end - 1][0]
    if end < len(flat) and flat[end][0] == last:
        raise ParseError("extra tokens after the travel matrix", path, last)
    window_rows = [(lineno, toks) for lineno, toks in rows if lineno > last]
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
    for k, (lineno, toks) in enumerate(window_rows, start=1):
        if offset and int_token(toks[0], path, lineno) != k:
            raise ParseError(f"window line {k} has id {toks[0]}, expected {k}", path, lineno)
        r = int_token(toks[offset], path, lineno)
        d = int_token(toks[offset + 1], path, lineno)
        windows.append((r, d))
    try:
        return TsptwInstance(matrix, windows)
    except ValueError as exc:
        raise ParseError(str(exc), path) from exc


def load_instance(path: str) -> TsptwInstance:
    """The JSON or matrix instance at ``path``; see ``parsing.read_instance``."""
    return read_instance(path, TsptwInstance.from_json, parse_matrix)
