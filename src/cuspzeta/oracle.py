"""Brute-force cross-checks: exact trace powers, cycle enumeration, Euler products.

Everything here is deliberately independent of the determinant engine.
Traces of transfer-operator powers are computed by exact sparse matrix
multiplication; cycle classes are enumerated by depth-first search over the
weighted successor graph and deduplicated by their lexicographically
minimal rotation.

A closed path of length m can penetrate a cusp ray at most floor(m/2)
steps (it has to come back), so traces of the infinite operator are exact
already on the depth floor(m/2) + 1 truncation; the extra level is a
safety margin asserted by the depth-stability tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from cuspzeta.exact import PowerSeries
from cuspzeta.graphs import CuspidalGraph, EdgeIndexedGraph, truncate

__all__ = [
    "CycleClass",
    "BudgetExceededError",
    "trace_powers",
    "trace_powers_cuspidal",
    "enumerate_primitive_cycles",
    "euler_product_series",
]

MAX_CYCLE_LENGTH = 14
MAX_VISITED_PATHS = 10**6


class BudgetExceededError(RuntimeError):
    """Raised when enumeration would exceed the hard search budget."""


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


def trace_powers(g: EdgeIndexedGraph, up_to: int) -> list[Fraction]:
    """Exact traces of T^m for m = 1..up_to.

    Integer-weight graphs (all the builtin families) run on plain Python
    ints; fractional weights fall back to exact Fraction arithmetic.
    """
    if up_to < 1:
        raise ValueError("trace order must be >= 1")
    rows = _successor_rows(g)
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


def trace_powers_cuspidal(c: CuspidalGraph, up_to: int) -> list[Fraction]:
    """Traces of T^m for m = 1..up_to on one shared truncation."""
    if up_to < 1:
        raise ValueError("trace order must be >= 1")
    finite = truncate(c, up_to // 2 + 1) if c.cusps else c.core
    return trace_powers(finite, up_to)


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
    g: EdgeIndexedGraph,
    max_length: int,
    max_visited: int = MAX_VISITED_PATHS,
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
    rows = _successor_rows(g)
    weight_of = [dict(row) for row in rows]
    n = len(rows)
    canonical: set[tuple[int, ...]] = set()
    visited = 0
    for start in range(n):
        stack: list[tuple[int, ...]] = [(start,)]
        while stack:
            path = stack.pop()
            visited += 1
            if visited > max_visited:
                raise BudgetExceededError(
                    f"cycle enumeration exceeded {max_visited} visited paths"
                )
            tip = path[-1]
            for nxt, _w in rows[tip]:
                if nxt < start:
                    continue
                if nxt == start:
                    canonical.add(_min_rotation(path))
                if len(path) < max_length:
                    stack.append(path + (nxt,))
    classes = []
    for cycle in sorted(canonical):
        length = len(cycle)
        weight = Fraction(1)
        for i in range(length):
            weight *= weight_of[cycle[i]][cycle[(i + 1) % length]]
        period = _primitive_period(cycle)
        classes.append(CycleClass(length, weight, period, period))
    return classes


def _min_rotation(path: tuple[int, ...]) -> tuple[int, ...]:
    return min(path[i:] + path[:i] for i in range(len(path)))


def _primitive_period(cycle: tuple[int, ...]) -> int:
    n = len(cycle)
    for p in range(1, n):
        if n % p == 0 and all(cycle[i] == cycle[i % p] for i in range(n)):
            return p
    return n


def euler_product_series(
    classes: Sequence[CycleClass],
    order: int,
    enumerated_to: int | None = None,
) -> PowerSeries:
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
    out = [Fraction(0)] * (order + 1)
    out[0] = Fraction(1)
    for cls in classes:
        if not cls.is_primitive or cls.length > order:
            continue
        # Multiply by the geometric series of one primitive class in place.
        for m in range(cls.length, order + 1):
            out[m] += cls.weight * out[m - cls.length]
    return PowerSeries(tuple(out), order)
