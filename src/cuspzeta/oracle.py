"""Brute-force cross-checks: exact trace powers, cycle enumeration, Euler products.

Everything here is deliberately independent of the determinant engine.
Traces of transfer-operator powers are computed by exact sparse matrix
multiplication.  Cycle classes come from one depth-first search per start
edge over the weighted successor graph, restricted to edges not below the
start, on a single mutable path with a running weight product (a plain int
when every transition weight is integral).  A closed walk is recorded only
if it is its class's lexicographically minimal rotation, so each class is
built once, when its walk closes, and the search emits the classes already
sorted.  Only a walk that revisits its start needs the rotation comparison;
a walk whose minimum occurs once is minimal and primitive as it stands.

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

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

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
    if n == 0:
        return [Fraction(0)] * up_to
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


@dataclass(frozen=True)
class CycleClass:
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
    classes: list[CycleClass] = []
    path = [0] * max_length
    visited = 0
    for start in range(n):
        closing = [row.get(start) for row in weight_of]
        stack = [(start, 0, cast(1))]
        while stack:
            tip, depth, weight = stack.pop()
            path[depth] = tip
            depth += 1
            visited += 1
            if visited > MAX_VISITED_PATHS:
                raise BudgetExceededError(
                    f"cycle enumeration exceeded {MAX_VISITED_PATHS} visited paths"
                )
            last = closing[tip]
            if last is not None:
                _close(classes, path[:depth], start, weight * last)
            if depth < max_length:
                for nxt, w in descending[tip]:
                    if nxt < start:
                        break
                    stack.append((nxt, depth, weight * w))
    return classes


def _close(
    classes: list[CycleClass], cycle: list[int], start: int, weight: int | Fraction
) -> None:
    """Append the class of ``cycle`` if the walk is its minimal rotation.

    ``start`` leads and is the minimum, so only rotations to another
    occurrence of it can be smaller, and the first one equal to the walk
    gives the primitive period.
    """
    length = period = len(cycle)
    if cycle.count(start) > 1:
        doubled = cycle + cycle
        for i in range(1, length):
            if cycle[i] == start:
                rotation = doubled[i : i + length]
                if rotation < cycle:
                    return
                if rotation == cycle:
                    period = i
                    break
    classes.append(CycleClass(length, Fraction(weight), period, period))


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
    for cls in classes:
        if not cls.is_primitive or cls.length > order:
            continue
        w = cls.weight.numerator if integral else cls.weight
        # Multiply by the geometric series of one primitive class in place.
        for m in range(cls.length, order + 1):
            out[m] += w * out[m - cls.length]
    return tuple(map(Fraction, out))
