"""Brute-force cross-checks: exact trace powers, cycle enumeration, Euler products.

Everything here is deliberately independent of the determinant engine.
Traces of transfer-operator powers are computed by exact sparse matrix
multiplication.  Cycle classes come from one depth-first search per start
edge over the weighted successor graph, restricted to edges not below the
start, on a single mutable path with a running weight product (a plain int
when every transition weight is integral).  It generates graph-constrained
necklaces (Fredricksen-Kessler-Maiorana; Cattell, Ruskey, Sawada, Serra and
Miers, J. Algorithms 2000): with p the period of the longest Lyndon prefix
of the path a_0..a_{n-1}, the next edge must be >= a_{n-p}, and one above
it sets p = n + 1.  A closing walk is a necklace (its class's minimal
rotation) iff p | n, and a Lyndon word (primitive) iff p == n, so each
class is built once, with primitive length p, in sorted order.  A child is
pushed only if a backward breadth-first search from the start shows that
it can still close within the length bound.

Both oracles take a finite graph as it is, or a cuspidal graph, which they
truncate themselves; this module is the only home of that truncation rule.
A closed path of length m can penetrate a cusp ray at most floor(m/2)
steps (it has to come back), so traces of the infinite operator are exact
already on the depth floor(m/2) + 1 truncation; the extra level is a
safety margin asserted by the depth-stability tests.  The search budgets
are constants, ``MAX_TRACE_ORDER``, ``MAX_CYCLE_LENGTH`` and
``MAX_VISITED_PATHS``; past them the oracles raise :class:`BudgetExceededError`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from cuspzeta.graphs import CuspidalGraph, EdgeIndexedGraph, truncate

__all__ = [
    "CycleClass",
    "BudgetExceededError",
    "trace_powers",
    "enumerate_primitive_cycles",
    "euler_product_series",
]

MAX_CYCLE_LENGTH = 14
MAX_TRACE_ORDER = 200
MAX_VISITED_PATHS = 10**6


class BudgetExceededError(RuntimeError):
    """Raised when an oracle would exceed one of its hard search budgets."""


def _finite(g: EdgeIndexedGraph | CuspidalGraph, m: int) -> EdgeIndexedGraph:
    """``g`` itself if finite, else the truncation exact for closed paths of length <= m."""
    if isinstance(g, EdgeIndexedGraph):
        return g
    return truncate(g, m // 2 + 1) if g.cusps else g.core


def _successor_rows(g: EdgeIndexedGraph) -> list[list[tuple[int, Fraction]]]:
    """Sparse rows of T in canonical edge order; zero-weight moves are absent."""
    order = g.canonical_edge_order()
    pos = {eid: i for i, eid in enumerate(order)}
    rows: list[list[tuple[int, Fraction]]] = []
    for eid in order:
        e = g.edges[eid]
        row = []
        for sid in g.out_edges(e.target):
            succ = g.edges[sid]
            w = succ.weight - 1 if sid == e.inverse else succ.weight
            if w:
                row.append((pos[sid], w))
        rows.append(row)
    return rows


def trace_powers(g: EdgeIndexedGraph | CuspidalGraph, up_to: int) -> list[Fraction]:
    """Exact traces of T^m for m = 1..up_to, on one shared truncation.

    Integer-weight graphs (all the builtin families) run on plain Python
    ints; fractional weights fall back to exact Fraction arithmetic.
    """
    if up_to < 1:
        raise ValueError("trace order must be >= 1")
    if up_to > MAX_TRACE_ORDER:
        raise BudgetExceededError(f"trace order {up_to} exceeds the cap {MAX_TRACE_ORDER}")
    rows = _successor_rows(_finite(g, up_to))
    n = len(rows)
    integral = all(w.denominator == 1 for row in rows for _, w in row)
    cast = int if integral else Fraction
    zero = cast(0)
    srows = [[(j, cast(w)) for j, w in row] for row in rows]
    dense = [[zero] * n for _ in range(n)]
    for i, row in enumerate(srows):
        for j, w in row:
            dense[i][j] += w
    traces = [sum(dense[i][i] for i in range(n))]
    for _ in range(up_to - 1):
        nxt = []
        for mrow in dense:
            acc = [zero] * n
            for k, coeff in enumerate(mrow):
                if coeff:
                    for j, w in srows[k]:
                        acc[j] += coeff * w
            nxt.append(acc)
        dense = nxt
        traces.append(sum(dense[i][i] for i in range(n)))
    return [Fraction(t) for t in traces]


class CycleClass(NamedTuple):
    """A rotation class of closed paths with nonzero weight.

    ``weight`` is the cyclic product of the transition weights, including
    the wrap-around step.  ``multiplicity`` counts the distinct closed
    paths in the class, which equals the primitive length.
    """

    length: int
    weight: Fraction
    primitive_length: int
    multiplicity: int

    @property
    def is_primitive(self) -> bool:
        return self.primitive_length == self.length


def _steps_to_close(predecessors: list[list[int]], start: int, bound: int) -> list[int]:
    """Fewest steps from each edge >= start to one that closes at ``start``; ``bound`` if none."""
    left = [bound] * len(predecessors)
    frontier = {t for t in predecessors[start] if t >= start}
    for steps in range(bound):
        for t in frontier:
            left[t] = steps
        frontier = {s for t in frontier for s in predecessors[t] if s >= start and left[s] == bound}
    return left


def enumerate_primitive_cycles(
    g: EdgeIndexedGraph | CuspidalGraph, max_length: int
) -> list[CycleClass]:
    """All cycle classes of length <= max_length with nonzero weight.

    Classes are canonicalized by their minimal rotation; powers of shorter
    cycles are included and flagged through ``primitive_length``.  Hard caps
    raise :class:`BudgetExceededError` instead of silently truncating.
    """
    if max_length < 1:
        raise ValueError("cycle length bound must be >= 1")
    if max_length > MAX_CYCLE_LENGTH:
        raise BudgetExceededError(
            f"cycle length bound {max_length} exceeds the cap {MAX_CYCLE_LENGTH}"
        )
    rows = _successor_rows(_finite(g, max_length))
    n = len(rows)
    cast = int if all(w.denominator == 1 for row in rows for _, w in row) else Fraction
    weight_of = [{j: cast(w) for j, w in row} for row in rows]
    # Descending successors: the stack then pops siblings in ascending order.
    descending = [sorted(row.items(), reverse=True) for row in weight_of]
    predecessors: list[list[int]] = [[] for _ in range(n)]
    for i, row in enumerate(weight_of):
        for j in row:
            predecessors[j].append(i)
    shared: dict[int | Fraction, Fraction] = {}  # one Fraction per distinct class weight
    classes: list[CycleClass] = []
    path = [0] * max_length
    visited = 0
    for start in range(n):
        closing = [row.get(start) for row in weight_of]
        left = _steps_to_close(predecessors, start, max_length)
        # (tip, depth before tip, period of the longest Lyndon prefix, weight)
        stack = [(start, 0, 1, cast(1))]
        while stack:
            tip, depth, period, weight = stack.pop()
            path[depth] = tip
            depth += 1
            visited += 1
            if visited > MAX_VISITED_PATHS:
                raise BudgetExceededError(
                    f"cycle enumeration exceeded {MAX_VISITED_PATHS} visited paths"
                )
            last = closing[tip]
            if last is not None and depth % period == 0:
                last *= weight  # nonzero, so a cached Fraction is truthy
                frac = shared.get(last) or shared.setdefault(last, Fraction(last))
                classes.append(CycleClass(depth, frac, period, period))
            if depth < max_length:
                anchor = path[depth - period]
                for nxt, w in descending[tip]:
                    if nxt < anchor:
                        break
                    if depth + left[nxt] < max_length:
                        child_period = period if nxt == anchor else depth + 1
                        stack.append((nxt, depth, child_period, weight * w))
    return classes


def euler_product_series(
    classes: Sequence[CycleClass],
    order: int,
    enumerated_to: int | None = None,
) -> tuple[Fraction, ...]:
    """Coefficients through u^order of prod over primitive classes of 1/(1 - w u^l).

    ``enumerated_to`` documents the completeness bound of ``classes``; when
    given, requesting a higher order is an error rather than a wrong answer.
    """
    if order < 0:
        raise ValueError("series order must be nonnegative")
    if enumerated_to is not None and enumerated_to < order:
        raise ValueError(
            f"class list complete through length {enumerated_to} cannot support order {order}"
        )
    integral = all(cls.weight.denominator == 1 for cls in classes)
    out = [0] * (order + 1)
    out[0] = 1
    for length, weight, primitive_length, _ in classes:
        if primitive_length != length or length > order:
            continue
        w = weight.numerator if integral else weight
        # Multiply by the geometric series of one primitive class in place.
        for m in range(length, order + 1):
            out[m] += w * out[m - length]
    return tuple(map(Fraction, out))
