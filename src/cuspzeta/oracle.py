"""Brute-force cross-checks: exact trace powers, cycle enumeration, Euler products.

Everything here is deliberately independent of the determinant engine: the
module imports nothing from the package but :mod:`cuspzeta.graphs`, and the
layout test (``tests/test_layout.py``) fails on any other package import.

Traces of transfer-operator powers are exact sparse matrix products on
packed integer rows.  Every weight is a positive integer, so every move of
T, w or w - 1 on a backtrack, is a nonnegative integer, and row i of T^m
is stored as one integer sum_j e_ij 2^(W j), each entry in a slot of W
bits.  Row i of T^(m+1) is sum_k T_ik times row k of T^m, one big-integer
multiply-add per nonzero of T; packing is linear over Z, so this packs the
exact product.  The induced norm ||A||_inf (largest row sum) is
submultiplicative and ||T||_inf is 0 or at least 1, so every entry of
T^m, m <= up_to, obeys 0 <= e_ij <= ||T^m||_inf <= ||T||_inf^up_to, which
W makes < 2^W: no slot carries into the next, and slot i of row i,
shifted down and masked, is e_ii.

Cycle classes come from one depth-first search per start edge over the
weighted successor graph, restricted to edges not below the start, on a
single mutable path with a running integer weight product.  It generates
graph-constrained necklaces (Fredricksen-Kessler-Maiorana; Cattell, Ruskey,
Sawada, Serra and Miers, J. Algorithms 2000): with p the period of the
longest Lyndon prefix of the path a_0..a_{n-1}, the next edge must be
>= a_{n-p}, and one above it sets p = n + 1.  A closing walk is a necklace
(its class's minimal rotation) iff p | n, and a Lyndon word (primitive) iff
p == n, so each class is found once, with primitive length p.  A child is
kept only if a backward breadth-first search from the start shows that it
can still close within the length bound.  A path two edges short of the
bound pushes no children: its children and grandchildren, the last two
levels and most of the tree, are settled in place by two nested loops, and
still each count as one visited path against the budget.  The search counts
classes per (length, weight, primitive length) key and returns that
multiset, a ``Counter`` of :class:`CycleClass` keys, since the Euler product
needs nothing else: c primitive classes of one key contribute
(1 - w u^l)^(-c) = sum_j C(c + j - 1, j) w^j u^(lj), one multiplication.

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

from collections import Counter
from math import comb
from typing import Mapping, NamedTuple

from cuspzeta.graphs import BudgetExceededError, CuspidalGraph, EdgeIndexedGraph, truncate

__all__ = [
    "CycleClass",
    "trace_powers",
    "enumerate_primitive_cycles",
    "euler_product_series",
]

MAX_CYCLE_LENGTH = 14
MAX_TRACE_ORDER = 200
MAX_VISITED_PATHS = 10**6


def _finite(g: EdgeIndexedGraph | CuspidalGraph, m: int) -> EdgeIndexedGraph:
    """``g`` itself if finite, else the truncation exact for closed paths of length <= m."""
    if isinstance(g, EdgeIndexedGraph):
        return g
    return truncate(g, m // 2 + 1) if g.cusps else g.core


def _successor_rows(g: EdgeIndexedGraph) -> list[list[tuple[int, int]]]:
    """Sparse rows of T in canonical edge order; zero-weight moves are absent."""
    order = g.canonical_edge_order()
    pos = {eid: i for i, eid in enumerate(order)}
    rows: list[list[tuple[int, int]]] = []
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


def trace_powers(g: EdgeIndexedGraph | CuspidalGraph, up_to: int) -> list[int]:
    """Exact traces of T^m for m = 1..up_to, on one shared truncation.

    Each row of T^m is one packed integer, and T^(m+1) = T T^m is nnz(T)
    multiply-adds of them.
    """
    if up_to < 1:
        raise ValueError("trace order must be >= 1")
    if up_to > MAX_TRACE_ORDER:
        raise BudgetExceededError(f"trace order {up_to} exceeds the cap {MAX_TRACE_ORDER}")
    rows = _successor_rows(_finite(g, up_to))
    norm = max((sum(w for _, w in row) for row in rows), default=0)
    width = (norm**up_to).bit_length()
    mask = (1 << width) - 1
    power = [1 << (width * i) for i in range(len(rows))]  # the identity
    traces = []
    for m in range(1, up_to + 1):
        power = [sum(w * power[k] for k, w in row) for row in rows]
        traces.append(sum((row >> (width * i)) & mask for i, row in enumerate(power)))
    return traces


class CycleClass(NamedTuple):
    """The key of a rotation class of closed paths with nonzero weight.

    ``weight`` is the cyclic product of the transition weights, including
    the wrap-around step.  Each class of the key holds ``primitive_length``
    distinct closed paths, and it is primitive when that equals ``length``.
    """

    length: int
    weight: int
    primitive_length: int


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
) -> Counter[CycleClass]:
    """The multiset of cycle classes of length <= max_length with nonzero weight.

    Each key is a (length, weight, primitive_length) triple and its count is
    the number of classes that share it, which is all
    :func:`euler_product_series` needs for one factor per key.  Classes are
    canonicalized by their minimal rotation; powers of shorter cycles are
    included and flagged through ``primitive_length``.  The last two levels
    of the search are settled in place rather than pushed, and every path
    of them still counts toward ``MAX_VISITED_PATHS``.  Hard caps raise
    :class:`BudgetExceededError` instead of silently truncating.
    """
    if max_length < 1:
        raise ValueError("cycle length bound must be >= 1")
    if max_length > MAX_CYCLE_LENGTH:
        raise BudgetExceededError(
            f"cycle length bound {max_length} exceeds the cap {MAX_CYCLE_LENGTH}"
        )
    rows = _successor_rows(_finite(g, max_length))
    n = len(rows)
    weight_of = [dict(row) for row in rows]
    # Descending successors: the stack then pops siblings in ascending order.
    descending = [sorted(row.items(), reverse=True) for row in weight_of]
    predecessors: list[list[int]] = [[] for _ in range(n)]
    for i, row in enumerate(weight_of):
        for j in row:
            predecessors[j].append(i)
    counts: dict[tuple[int, int, int], int] = {}
    path = [0] * max_length
    visited = 0
    for start in range(n):
        closing = [row.get(start) for row in weight_of]
        left = _steps_to_close(predecessors, start, max_length)
        # (tip, depth before tip, period of the longest Lyndon prefix, weight)
        stack = [(start, 0, 1, 1)]
        while stack:
            tip, depth, period, weight = stack.pop()
            path[depth] = tip
            depth += 1
            visited += 1
            last = closing[tip]
            if last is not None and depth % period == 0:
                key = depth, last * weight, period
                counts[key] = counts.get(key, 0) + 1
            if depth < max_length:
                anchor, room = path[depth - period], max_length - depth
                for nxt, w in descending[tip]:
                    if nxt < anchor:
                        break
                    if left[nxt] >= room:
                        continue
                    child_period = period if nxt == anchor else depth + 1
                    child_weight = weight * w
                    if room != 2:
                        stack.append((nxt, depth, child_period, child_weight))
                        continue
                    # room == 2: settle the child and its closing children in place.
                    visited += 1
                    last = closing[nxt]
                    if last is not None and (depth + 1) % child_period == 0:
                        key = depth + 1, last * child_weight, child_period
                        counts[key] = counts.get(key, 0) + 1
                    path[depth] = nxt
                    child_anchor = path[depth + 1 - child_period]
                    for end, w2 in descending[nxt]:
                        if end < child_anchor:
                            break
                        last = closing[end]
                        if last is not None:
                            visited += 1
                            end_period = child_period if end == child_anchor else max_length
                            if max_length % end_period == 0:
                                key = max_length, last * child_weight * w2, end_period
                                counts[key] = counts.get(key, 0) + 1
            if visited > MAX_VISITED_PATHS:
                raise BudgetExceededError(
                    f"cycle enumeration exceeded {MAX_VISITED_PATHS} visited paths"
                )
    return Counter({CycleClass(*key): count for key, count in counts.items()})


def euler_product_series(classes: Mapping[CycleClass, int], order: int) -> tuple[int, ...]:
    """Coefficients through u^order of prod over primitive classes of 1/(1 - w u^l).

    ``classes`` maps each class key to its count c, as
    :func:`enumerate_primitive_cycles` returns it, so a primitive key
    contributes (1 - w u^l)^(-c) = sum_j C(c + j - 1, j) w^j u^(lj) in one
    multiplication.  The result is exact only when ``classes`` holds every
    class of length <= order.
    """
    if order < 0:
        raise ValueError("series order must be nonnegative")
    out = [0] * (order + 1)
    out[0] = 1
    for (length, weight, primitive_length), count in classes.items():
        if primitive_length != length or length > order:
            continue
        factor = [comb(count + j - 1, j) * weight**j for j in range(order // length + 1)]
        # Descending m reads only coefficients this factor has not updated yet.
        for m in range(order, length - 1, -1):
            out[m] += sum(factor[j] * out[m - j * length] for j in range(1, m // length + 1))
    return tuple(out)
