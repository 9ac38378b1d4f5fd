"""Travelling-salesperson with time windows, minimising travel only.

A tour starts and ends at the depot (location 0), visiting every other
location exactly once inside its window; arriving early waits for free.
The depot's own window is read and validated like any other but not
enforced: a tour leaves the depot at time 0, whatever its release, and
may return after its deadline.
The model visits one location at a time: a state is the unvisited set, the
current location, and the clock.  A state is a dead end as soon as some
unvisited location cannot be reached within its window even along the
all-pairs shortest travel paths.  An instance holds its validated input
alone: the model derives those paths, with the rest of its table, on
first use.  As a DIDP state constraint would,
``successors`` tests that rule once, on each child, and drops the dead
ones, so every child arrives within its window.  A dead
target, or a dead state built by hand, has no successors: each child
fails that test, as no child reaches a stranded location sooner than its
parent could.

The dual bound reduces the matrix of arcs that a completion can still
take in time, by rows and then by columns (Little, Murty, Sweeney and
Karel, *Operations Research*, 1963): each remaining location is left
once and each unvisited one, then the depot, entered once.  One scan over
per-location rows built on first use takes it; a row leaves out each arc
that no arrival can take (every arrival is at least the release, and the
tour leaves the depot at 0).  The CP model has no variable and no
propagator: every child's arrival is in its window already, and no window
drops an arc that the rows keep.  Its CP dual solves the dual's
relaxation exactly, as an assignment problem over the same arcs
(``assignment``), once per popped state, and reads ``INFINITY`` wherever
the dual does.  The same assignment's final duals bound each child of
the pop by one reduced-cost lookup (``TsptwAdapter.child_bounds``), so
with propagation on the model dual bounds only the root; under ``off``
it bounds every child.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Tuple

from .core import DpModel
from .cost import Cost, INFINITY, check_ceiling
from .cp_engine import DomainStore, PropagationAdapter
from .parsing import ParseError, int_token, read_instance, require_int, require_list


class TsptwInstance:
    """Travel matrix (None marks a missing arc) plus visit windows, as
    validated; loading derives nothing from them."""

    def __init__(
        self,
        travel: Sequence[Sequence[Optional[int]]],
        windows: Sequence[Tuple[int, int]],
    ):
        n = len(require_list("travel matrix", travel))
        if n < 1:
            raise ValueError("travel matrix must be a non-empty list, got []")
        require_list("windows", windows, n)
        rows = []
        for i, row in enumerate(travel):
            require_list("travel row", row, n)
            clean = []
            for j, c in enumerate(row):
                if i == j or c is None:
                    clean.append(None)
                else:
                    clean.append(require_int("travel time", c, 0))
            rows.append(tuple(clean))
        self.travel: Tuple[Tuple[Optional[int], ...], ...] = tuple(rows)
        wins = []
        for window in windows:
            r, d = require_list("window", window, 2)
            wins.append((require_int("window bound", r, 0), require_int("window bound", d, r)))
        self.windows: Tuple[Tuple[int, int], ...] = tuple(wins)

    @property
    def n(self) -> int:
        return len(self.travel)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "c": [[c for c in row] for row in self.travel],
            "windows": [[r, d] for r, d in self.windows],
        }

    @staticmethod
    def from_json(data: dict) -> "TsptwInstance":
        travel = require_list("travel matrix", data["c"])
        if "n" in data and require_int("n", data["n"]) != len(travel):
            raise ValueError(f"n must be the location count {len(travel)}, got {data['n']!r}")
        return TsptwInstance(travel, data["windows"])


class TsptwState(NamedTuple):
    unvisited: int  # bitmask, never contains the depot or current location
    location: int
    time: int


class TsptwModel(DpModel):
    """The visit-one-location-at-a-time model."""

    def __init__(self, instance: TsptwInstance):
        self.instance = instance
        self._n = instance.n
        # A tour has at most n arcs, each the longest arc or less.  A path
        # of k arcs plus its state's bound stays within n such arcs too,
        # as ``dual`` keeps the bound within n - k, the most a completion
        # can cost.
        self._longest = max((c for row in instance.travel for c in row if c is not None), default=0)
        check_ceiling(instance.n * self._longest)
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

    def dual(self, state: TsptwState, floor=None) -> Cost:
        """Assignment relaxation over the arcs a completion may still
        take, reduced by rows, then by columns.  The floor is ignored:
        each location's earliest leave is read from the state alone.

        ``M`` is the unvisited set ``U`` plus the current location, and
        ``s`` in ``M`` is left no earlier than ``max(t, r_s)`` (the depot
        at ``t``, whatever its release).  ``A`` holds each arc ``s -> j``
        from ``M`` into ``U`` with ``max(t, r_s) + c_sj <= d_j`` (arc
        elimination by time windows, Dumas, Desrosiers, Gelinas and
        Solomon, *Operations Research*, 1995), and each ``s -> depot``
        where ``s`` may be last: the current location once ``U`` is
        empty, and an ``s`` in ``U`` where each other ``k`` in ``U`` has
        ``max(t, r_k) + min_to[s] <= d_s``.  Each ``u_s`` is the cheapest
        arc out of ``s`` in ``A``, and each ``v_j``, for ``j`` in ``U``
        and the depot, the least ``c_sj - u_s`` over the arcs of ``A``
        into ``j``.  The bound is ``sum(u) + sum(v)``, or the entered sum
        (each column's cheapest arc in ``A``) where that is larger;
        ``INFINITY`` where a row or a column of ``A`` is empty.  Every
        completion is a perfect matching of ``M`` onto ``U`` and the depot
        by arcs of ``A``, and on those ``c_sj >= u_s + v_j``: so both sums
        are admissible.  A completion takes ``|M|`` arcs, none longer than
        the longest, so a bound above ``|M|`` longest arcs proves that none
        exists: ``INFINITY`` too.  The depot alone (only in a one-location
        instance) is a finished tour that enters and leaves nothing: 0.
        """
        return self._scan(state) if state.unvisited or state.location else 0

    def assignment(self, state: TsptwState) -> Tuple[Cost, Optional[list], Optional[list]]:
        """``dual``'s relaxation solved exactly, with its final duals:
        ``(value, u, v)``.  ``value`` is the least cost of a perfect
        matching of ``M`` onto ``U`` and the depot by arcs of ``A``, or
        ``INFINITY`` where there is none or it passes ``|M|`` longest
        arcs; it is never below ``dual``.  ``u[s]`` for ``s`` in ``M`` and
        ``v[j]`` for ``j`` in ``U`` and the depot (``v[0]``) are the duals
        that ``_assign`` ends with: ``c_sj >= u_s + v_j`` on every arc of
        ``A``, ``sum(u) + sum(v)`` is ``value``, and every other entry is
        0.  Both are None where ``value`` is ``INFINITY``.  About four
        times the cost of ``dual``; ``TsptwAdapter`` pays it once per
        popped state and bounds each child from the duals."""
        if state.unvisited or state.location:
            return self._scan(state, exact=True)
        return 0, [0] * self._n, [0] * self._n  # the depot alone: no row, no column

    def _scan(self, state: TsptwState, exact: bool = False):
        """``dual``'s bound; if ``exact``, ``assignment``'s triple, which
        ``_assign`` takes on from the rows.

        The rows come first, as each ``v_j`` reads them.  Each kept arc
        ``s -> j`` has ``r_s + c_sj <= d_j``, so it is in time from ``s``'s
        earliest leave ``max(t, r_s)`` exactly where ``t + c_sj <= d_j``.
        A column's in-list is cheapest first, so its walk ends at the
        first late arc, at a reduced cost of 0, or at an arc whose cost
        less the largest ``u`` is no lower than the best ``v_j`` so far."""
        rows = (self._table or self._build_table())[0]
        unvisited, here, t = state
        remaining = unvisited | rows[here][0]
        # The two largest releases over the unvisited set (-INFINITY
        # stands for none); raised to the clock, they are the two largest
        # earliest arrivals, which decide each depot leg.
        first = second = -INFINITY
        first_bit = 0
        for bit, _i, r, _d, _to_i, _ins, _arcs in rows:
            if unvisited & bit:
                if r > first:
                    first, second, first_bit = r, first, bit
                elif r > second:
                    second = r
        if t > first > -INFINITY:
            first = t
        if t > second > -INFINITY:
            second = t
        # Rows: u_i, the cheapest arc out of i in A.  ``last`` gathers the
        # locations that may be last, the depot's sources.
        u = [0] * self._n
        rows_sum = top = 0
        last = 0 if unvisited else remaining
        for bit, i, _r, d, to_i, _ins, arcs in rows:
            if remaining & bit:
                if not unvisited & bit:
                    targets = unvisited or 1  # here: the depot once U is empty
                elif (second if bit == first_bit else first) + to_i <= d:
                    targets = unvisited | 1
                    last |= bit
                else:
                    targets = unvisited
                for c, head, due, _j in arcs:
                    if targets & head and t + c <= due:
                        break
                else:
                    return (INFINITY, None, None) if exact else INFINITY
                u[i] = c
                rows_sum += c
                if c > top:
                    top = c
        if exact:
            # INFINITY is above every ceiling that check_ceiling admits.
            assigned = self._assign(state, u, last, top)
            if assigned[0] > remaining.bit_count() * self._longest:
                return INFINITY, None, None
            return assigned
        # Columns: for each j in U and the depot, its cheapest arc in A
        # (the entered term) and v_j, its least c_sj - u_s over A.
        entered = cols_sum = 0
        for bit, _i, _r, d, _to_i, ins, _arcs in rows:
            if unvisited & bit:
                sources = remaining
            elif bit == 1:
                sources, d = last, INFINITY  # the depot has no deadline
            else:
                continue
            best = None
            for c, tail, s in ins:
                if t + c > d or best is not None and c - top >= best:
                    break
                if sources & tail:
                    if best is None:
                        entered += c
                        best = c - u[s]
                    elif c - u[s] < best:
                        best = c - u[s]
                    if not best:
                        break
            if best is None:
                return INFINITY
            cols_sum += best
        bound = rows_sum + cols_sum
        if bound > remaining.bit_count() * self._longest:
            return INFINITY  # above the dearest completion: there is none
        return entered if entered > bound else bound

    def _assign(self, state: TsptwState, u, last, top):
        """``assignment``'s ``(value, u, v)`` before its ceiling test: the
        least-cost perfect matching of ``M`` onto ``U`` and the depot over
        ``A``, found from the scan's row minima ``u``, the depot's sources
        ``last`` and the largest ``u``, ``top``, with the final duals.  As
        in ``_scan``, an arc ``s -> j`` of a kept row is in ``A`` where
        ``t + c_sj <= d_j``.

        The columns take ``v_j``, the least ``c_sj - u_s`` over ``A``,
        as in ``_scan``, and each column is matched to that arc's source
        where it is free; then each unmatched row is matched to a free
        column by a zero reduced-cost arc, if it has one, or else by the
        shortest augmenting path in reduced costs (Dijkstra), after which
        ``u`` and ``v`` are moved so that the path's arcs cost exactly
        ``u_s + v_j`` and none less (Hungarian method, Kuhn, *Naval Research
        Logistics Quarterly*, 1955).  Each step keeps ``c_sj >= u_s + v_j``
        on ``A`` and raises ``sum(u) + sum(v)`` by the path's length; at
        the end ``M`` is matched whole and the sum is the matching's cost.
        A row that reaches no free column, or a column that no arc of
        ``A`` enters, proves ``A`` has no perfect matching:
        ``(INFINITY, None, None)``.  Otherwise the sum comes back with
        ``u``, moved in place, and ``v``: the final duals, not the row
        minima.  Entries of ``u`` and ``v`` off ``M`` and off the columns
        stay 0."""
        rows = self._table[0]
        unvisited, here, t = state
        n = self._n
        v = [0] * n
        row_of = [-1] * n
        col_of = [-1] * n
        remaining = unvisited | rows[here][0]
        for bit, j, _r, d, _to_j, ins, _arcs in rows:
            if unvisited & bit:
                sources = remaining
            elif bit == 1:
                sources, d = last, INFINITY  # the depot has no deadline
            else:
                continue
            best = None
            for c, tail, s in ins:
                if t + c > d or best is not None and c - top >= best:
                    break
                if sources & tail:
                    rc = c - u[s]
                    # A zero from a row still free is taken at once.
                    if best is None or rc < best or not rc and col_of[s] < 0:
                        best, arg = rc, s
                        if not rc and col_of[s] < 0:
                            break
            if best is None:
                return INFINITY, None, None
            v[j] = best
            if col_of[arg] < 0:
                col_of[arg] = j
                row_of[j] = arg
        targets = [0] * n
        free = []
        for bit, i, _r, _d, _to_i, _ins, arcs in rows:
            if not remaining & bit:
                continue
            if i == here:
                targets[i] = unvisited or 1
            else:
                targets[i] = unvisited | 1 if last & bit else unvisited
            if col_of[i] < 0:
                ui, tg = u[i], targets[i]
                for c, head, due, j in arcs:
                    if row_of[j] < 0 and tg & head and t + c <= due and c - ui == v[j]:
                        row_of[j], col_of[i] = i, j
                        break
                else:
                    free.append(i)
        for i0 in free:
            dist, pred, done = {}, {}, {}
            i, d0 = i0, 0
            while True:
                ui, tg = u[i], targets[i]
                for c, head, due, j in rows[i][6]:
                    if tg & head and t + c <= due and j not in done:
                        nd = d0 + c - ui - v[j]
                        if nd < dist.get(j, INFINITY):
                            dist[j] = nd
                            pred[j] = i
                if not dist:
                    return INFINITY, None, None
                j = min(dist, key=dist.__getitem__)
                d0 = done[j] = dist.pop(j)
                i = row_of[j]
                if i < 0:
                    break
            # Every row on the search tree rises, and every column on it
            # falls, by how much shorter than the path its label is.
            u[i0] += d0
            for k, dk in done.items():
                if dk < d0:
                    v[k] -= d0 - dk
                    u[row_of[k]] += d0 - dk
            while True:
                i = pred[j]
                row_of[j], col_of[i], j = i, j, col_of[i]
                if i == i0:
                    break
        return sum(u) + sum(v), u, v

    def _build_table(self):
        """``(rows, latest, bits)``, built whole before its one write, so a
        solve that shares the model sees all of it or none of it.

        ``bits[k]`` is ``1 << k``, shared by every entry.  Row ``i`` is
        ``(bits[i], i, r_i, d_i, min_to[i], ins, arcs)``, with the depot's
        release taken as 0, as a tour leaves it at time 0; ``min_to[i]``
        is the cheapest arc into ``i`` from any location, ``INFINITY`` if
        none enters it.  ``arcs`` holds ``(c_ij, bits[j], d_j, j)`` and
        ``ins`` holds ``(c_si, bits[s], s)``, cheapest first, the depot's
        deadline ``INFINITY``, less each arc ``s -> j`` with
        ``r_s + c_sj > d_j``, which no arrival at ``s`` can take.
        ``latest[i]`` holds ``(d_k - shortest[i][k], bits[k])``, ascending,
        for each other ``k`` but the depot: the latest arrival at ``i`` that
        still reaches ``k`` in time, or -1, below every arrival, if none.
        ``shortest`` is the least travel along any path, by Floyd and
        Warshall's relaxation through each location in turn, ``INFINITY``
        where no path leads."""
        inst = self.instance
        bits = tuple(1 << k for k in range(inst.n))
        release = (0,) + tuple(r for r, _d in inst.windows[1:])
        due = (INFINITY,) + tuple(d for _r, d in inst.windows[1:])
        shortest = [[INFINITY if c is None else c for c in row] for row in inst.travel]
        min_to = [min(col) for col in zip(*shortest)]
        for k, via in enumerate(shortest):
            for dist in shortest:
                to_k = dist[k]
                if to_k < INFINITY:
                    for j, c in enumerate(via):
                        if to_k + c < dist[j]:
                            dist[j] = to_k + c
        kept = [
            (c, i, j)
            for i, row in enumerate(inst.travel)
            for j, c in enumerate(row)
            if c is not None and release[i] + c <= due[j]
        ]
        outs, ins = [[] for _ in bits], [[] for _ in bits]
        for c, i, j in sorted(kept):
            outs[i].append((c, bits[j], due[j], j))
            ins[j].append((c, bits[i], i))
        rows, latest = [], []
        for i, (reach, (_r, d)) in enumerate(zip(shortest, inst.windows)):
            rows.append((bits[i], i, release[i], d, min_to[i], tuple(ins[i]), tuple(outs[i])))
            pairs = [(dk - s if s < INFINITY else -1, b) for s, dk, b in zip(reach, due, bits)]
            latest.append(tuple(sorted(pairs[1:i] + pairs[i + 1 :])))  # neither depot nor i
        self._table = table = (tuple(rows), tuple(latest), bits)
        return table

    def state_signature(self, state: TsptwState):
        # One int per (unvisited, location) pair: no location id reaches n.
        return state.unvisited * self._n + state.location


class TsptwAdapter(PropagationAdapter):
    """CP view with no variable and no propagator; all it adds is the
    model's relaxation solved exactly (``TsptwModel.assignment``), which
    plays two roles: each popped state's ``dual_cp``, and, through
    ``child_bounds``, the bound of each of its children.

    ``successors`` keeps only children that arrive inside their windows,
    and each arc the relaxation keeps leaves in time from the clock and
    from its tail's release, so a window store would veto no child and
    drop no arc: the default veto, which drops nothing, loses nothing.
    ``build`` returns one empty store, built here; nothing writes to it.
    An assignment relaxation inside a CP model's cost bound is the
    cost-based filtering of Focacci, Lodi and Milano (CP 1999).
    """

    def __init__(self, model: TsptwModel):
        super().__init__(model)
        self._store = DomainStore([], [], 0)
        # ``(state, assignment(state))`` of the last ``dual_cp``, until
        # ``child_bounds`` of the same state reads it; checked against the
        # state, so a solve sharing the adapter never reads another's.
        self._assigned = None

    def build(self, state: TsptwState):
        return self._store, []

    def dual_cp(self, state: TsptwState, store: DomainStore) -> Cost:
        """The assignment bound, where the node's ``f`` holds the row and
        column reduction of the same relaxation.  It prunes a pop only
        against an incumbent, or where no matching exists, so A*, which
        has no incumbent before its last pop, gains little from it as a
        prune; its duals are kept for the pop's ``child_bounds``."""
        assigned = self.model.assignment(state)
        self._assigned = state, assigned
        return assigned[0]

    def child_bounds(self, state: TsptwState, store: DomainStore, succs):
        """Each child ``j`` of ``state`` at ``here`` is bounded by
        ``h_j = AP - u_here - v_j``, one lookup in the final duals of the
        state's assignment ``(AP, u, v)``; 0 where that is negative, and
        ``INFINITY`` where it passes the child's ``|M|`` longest arcs,
        which keeps ``TsptwModel``'s ceiling on every ``f``.

        Admissible: the child's rows are the parent's ``M`` less ``here``
        and its columns the parent's less ``j``.  Its clock is no earlier,
        so each arc of its ``A`` is one of the parent's, and its
        may-be-last set only shrinks: a location that could not be last
        in the parent, left alone in the child's ``U``, cannot follow
        ``j`` in time, and the dead-end test of ``successors`` drops such
        a child.  So
        ``c_sj >= u_s + v_j`` still holds on every arc of the child's
        ``A``.  The assignment LP has equality constraints, so its duals
        are free in sign, and any dual-feasible ``(u, v)`` summed over the
        child's rows and columns, ``AP - u_here - v_j``, is a lower bound
        on the child's assignment, and so on its completions.

        The duals are those the state's ``dual_cp`` left, read once and
        dropped; a later CABS pop of a state whose first pop was pruned
        before expanding solves the assignment again."""
        assigned, self._assigned = self._assigned, None
        if assigned is not None and assigned[0] == state:
            value, u, v = assigned[1]
        else:
            value, u, v = self.model.assignment(state)
        base = value - u[state.location]
        ceiling = state.unvisited.bit_count() * self.model._longest
        bounds = []
        for _w, j, _child in succs:
            h = base - v[j]
            bounds.append(h if 0 <= h <= ceiling else 0 if h < 0 else INFINITY)
        return bounds


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
        raise ParseError(f"location count must be >= 1, got {n}", path, lineno)
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
