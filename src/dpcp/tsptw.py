"""Travelling-salesperson with time windows, minimising travel only.

A tour starts and ends at the depot (location 0), visiting every other
location exactly once inside its window; arriving early waits for free.
The depot's own window is read and validated like any other but not
enforced: a tour leaves the depot at time 0, whatever its release, and
may return after its deadline.
The model visits one location at a time: a state is the unvisited set, the
current location, and the clock.  A state is a dead end as soon as some
unvisited location cannot be reached within its window even along the
all-pairs shortest travel paths.  As a DIDP state constraint would,
``successors`` tests that rule once, on each child, and drops the dead
ones, so every arrival in a built store is within its window.  A dead
target, or a dead state built by hand, has no successors: each child
fails that test, as no child reaches a stranded location sooner than its
parent could.

The dual bound is the larger of two cheapest-arc sums over the arcs a
completion can still take in time: every unvisited location is entered
once, from another unvisited location or the current one, and the depot
last; every remaining location is left once.  One scan over
per-location rows built on first use sums both; a row leaves out each
arc that no arrival can take (every arrival is at least the release,
and the tour leaves the depot at 0), and ``leave_costs`` is the scan's
list, kept for the adapter's durations.  The CP model is an arrival per
remaining location under a non-overlap constraint that takes each leave
cost as a duration.  Its store is infeasible where the dual is
``INFINITY``, and its CP dual is 0: the search prunes a popped node on
its own ``f``.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Tuple

from .core import DpModel
from .cost import Cost, INFINITY, check_ceiling
from .cp_engine import Disjunctive, DomainStore, PropagationAdapter
from .parsing import ParseError, int_token, read_instance, require_int, require_list


class TsptwInstance:
    """Travel matrix (None marks a missing arc) plus visit windows."""

    def __init__(
        self,
        travel: Sequence[Sequence[Optional[int]]],
        windows: Sequence[Tuple[int, int]],
    ):
        n = len(require_list("travel matrix", travel))
        if n < 1:
            raise ValueError("instance needs at least the depot")
        if len(require_list("windows", windows)) != n:
            raise ValueError("window count must match location count")
        rows = []
        for i, row in enumerate(travel):
            if len(require_list("travel row", row)) != n:
                raise ValueError("travel matrix must be square")
            clean = []
            for j, c in enumerate(row):
                if i == j or c is None:
                    clean.append(None)
                else:
                    if require_int("travel time", c) < 0:
                        raise ValueError("travel times must be >= 0")
                    clean.append(c)
            rows.append(tuple(clean))
        self.travel: Tuple[Tuple[Optional[int], ...], ...] = tuple(rows)
        wins = []
        for window in windows:
            r, d = require_list("window", window, 2)
            if require_int("window bound", r) < 0 or require_int("window bound", d) < r:
                raise ValueError(f"bad window [{r}, {d}]")
            wins.append((r, d))
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
        travel = require_list("travel matrix", data["c"])
        if "n" in data and data["n"] != len(travel):
            raise ValueError("matrix size does not match 'n'")
        return TsptwInstance(travel, data["windows"])


class TsptwState(NamedTuple):
    unvisited: int  # bitmask, never contains the depot or current location
    location: int
    time: int


class TsptwModel(DpModel):
    def __init__(self, instance: TsptwInstance):
        self.instance = instance
        self._n = instance.n
        # A tour, and each of the entered and leave sums in ``dual``, has
        # at most n terms, each the longest arc or less.
        longest = max((c for row in instance.travel for c in row if c is not None), default=0)
        check_ceiling(instance.n * longest)
        self._table = None  # built on first use, so set-up spends nothing

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
        unvisited has no path from ``j`` or ``a + shortest[j][k] > d_k``:
        the first of ``j``'s dead-end pairs whose ``k`` is unvisited
        decides.  A dead ``state`` has no children that pass that test: a
        location stranded from here misses its window by its direct arc,
        and by the triangle inequality is stranded from every other child.
        """
        _rows, latest, bits = self._table or self._build_table()
        windows = self.instance.windows
        mask, here, t = state
        out = []
        for j, arc in enumerate(self.instance.travel[here]):
            bit = bits[j]
            if mask & bit and arc is not None:
                r, d = windows[j]
                a = t + arc
                if a <= d:
                    if a < r:
                        a = r
                    for limit, k in latest[j]:
                        if mask & k:
                            break
                    else:
                        limit = a  # j is the last location left: never dead
                    if a <= limit:
                        out.append((arc, j, TsptwState(mask ^ bit, j, a)))
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

        ``M`` is the unvisited set ``U`` plus the current location, and
        ``s`` in ``M`` is left no earlier than ``max(t, r_s)``; the depot's
        release does not hold, as a tour leaves it at time 0.  The bound is
        the larger of two sums, which one scan takes:

        - entered: for each ``j`` in ``U``, the cheapest arc ``s -> j``
          from ``M`` less ``j`` with ``max(t, r_s) + c_sj <= d_j``, plus
          the cheapest arc into the depot from ``U``, or from here once
          ``U`` is empty;
        - left: the sum of ``leave_costs``.

        Either is ``INFINITY`` where some location has no such arc.  Each
        completion enters every ``j`` in ``U`` once, from its predecessor
        ``s`` in ``M``, which it leaves no earlier than ``max(t, r_s)``
        and which reaches ``j`` by ``d_j``, and it enters the depot last,
        from ``U``; so the entered sum is admissible, and never below
        ``min_to`` summed over the depot and ``U``.  The depot alone (only
        in a one-location instance) is a finished tour that enters and
        leaves nothing: 0.
        """
        bound = self._scan(state) if state.unvisited or state.location else 0
        return INFINITY if bound is None else bound

    def leave_costs(self, state: TsptwState) -> Optional[List[Tuple[int, int]]]:
        """``(i, c_i)`` for each ``i`` in ``M``, ascending, where ``c_i`` is
        the cheapest arc out of ``i`` that a completion may still take, or
        None if some ``i`` has none: ``dual``'s scan, listing its leave
        terms for the adapter's durations and skipping the entered sum, as
        a popped state's ``f`` already holds the bound.

        ``i`` is left no earlier than ``a_i = max(r_i, t)`` (the depot at
        ``t``, whatever its release), toward an unvisited ``j`` that must
        be reached by ``d_j``: only arcs with ``a_i + c_ij <= d_j`` count
        (arc elimination by time windows, Dumas, Desrosiers, Gelinas and
        Solomon, *Operations Research*, 1995).  The depot is a target, with
        no window, only where ``i`` may be last: each other unvisited ``k``
        has ``a_k + min_to[i] <= d_i``.
        """
        items: List[Tuple[int, int]] = []
        return None if self._scan(state, items) is None else items

    def _scan(self, state: TsptwState, items=None) -> Optional[Cost]:
        """``dual``'s bound, or None; given ``items``, the leave sum alone,
        with each ``(i, c_i)`` appended to ``items``.

        Each kept arc ``s -> j`` has ``r_s + c_sj <= d_j``, so it is in
        time from ``s``'s earliest leave ``max(t, r_s)`` exactly where
        ``t + c_sj <= d_j``."""
        rows = (self._table or self._build_table())[0]
        unvisited, here, t = state
        remaining = unvisited | rows[here][0]
        entered = 0
        if items is None:
            # The depot is entered last, from an unvisited location, or
            # from here once none is left; it has no deadline.
            sources = unvisited or remaining
            for c, tail in rows[0][5]:
                if sources & tail:
                    entered = c
                    break
            else:
                return None
        # The two largest releases over the unvisited set (-INFINITY
        # stands for none); raised to the clock, they are the two largest
        # earliest arrivals, which decide each depot leg.
        first = second = -INFINITY
        first_bit = 0
        for bit, _i, r, d, _to_i, ins, _arcs in rows:
            if unvisited & bit:
                if items is None:
                    # The cheapest in-arc from M; each later one costs as
                    # much or more, so if this one is late, all are.
                    for c, tail in ins:
                        if remaining & tail:
                            break
                    else:
                        return None
                    if t + c > d:
                        return None
                    entered += c
                if r > first:
                    first, second, first_bit = r, first, bit
                elif r > second:
                    second = r
        if t > first > -INFINITY:
            first = t
        if t > second > -INFINITY:
            second = t
        leave = 0
        for bit, i, _r, d, to_i, _ins, arcs in rows:
            if remaining & bit:
                # Bit 0, the depot, is a target where i may be last.
                targets = unvisited | ((second if bit == first_bit else first) + to_i <= d)
                for c, head, due in arcs:
                    if targets & head and t + c <= due:
                        leave += c
                        if items is not None:
                            items.append((i, c))
                        break
                else:
                    return None
        return entered if entered > leave else leave

    def _build_table(self):
        """``(rows, latest, bits)``, built whole before its one write, so a
        solve that shares the model sees all of it or none of it.

        ``bits[k]`` is ``1 << k``, shared by every entry.  Row ``i`` is
        ``(bits[i], i, r_i, d_i, min_to[i], ins, arcs)``, with the depot's
        release taken as 0, as a tour leaves it at time 0.  ``arcs`` holds
        ``(c_ij, bits[j], d_j)`` and ``ins`` holds ``(c_si, bits[s])``,
        cheapest first, the depot's deadline ``INFINITY``, less each arc
        ``s -> j`` with ``r_s + c_sj > d_j``, which no arrival at ``s`` can
        take.  ``latest[i]`` holds ``(d_k - shortest[i][k], bits[k])``,
        ascending, for each other ``k`` but the depot: the latest arrival
        at ``i`` that still reaches ``k`` in time, or -1, below every
        arrival, if none."""
        inst = self.instance
        bits = tuple(1 << k for k in range(inst.n))
        release = (0,) + tuple(r for r, _d in inst.windows[1:])
        due = (INFINITY,) + tuple(d for _r, d in inst.windows[1:])
        kept = [
            (c, i, j)
            for i, row in enumerate(inst.travel)
            for j, c in enumerate(row)
            if c is not None and release[i] + c <= due[j]
        ]
        outs, ins = [[] for _ in bits], [[] for _ in bits]
        for c, i, j in sorted(kept):
            outs[i].append((c, bits[j], due[j]))
            ins[j].append((c, bits[i]))
        rows, latest = [], []
        for i, (reach, (_r, d)) in enumerate(zip(inst.shortest, inst.windows)):
            rows.append((bits[i], i, release[i], d, inst.min_to[i], tuple(ins[i]), tuple(outs[i])))
            pairs = [(-1 if s is None else dk - s, b) for s, dk, b in zip(reach, due, bits)]
            latest.append(tuple(sorted(pairs[1:i] + pairs[i + 1 :])))  # neither depot nor i
        self._table = table = (tuple(rows), tuple(latest), bits)
        return table

    def state_signature(self, state: TsptwState):
        # One int per (unvisited, location) pair: no location id reaches n.
        return state.unvisited * self._n + state.location


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
        lbs[state.location] = t  # reached at the clock: the depot at 0, whatever its release
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
