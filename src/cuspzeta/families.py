"""Builders for the named families of cuspidal graphs used throughout.

All four families share the standard cusp pattern; they differ in the core
and in the attachment weights:

* ``pgl2(q)``   -- one vertex, one cusp with alpha = q+1; central order q-1.
* ``chain(q, k)`` -- one vertex, one cusp with alpha = k; the k = q+1 case
  is the same weighted graph as ``pgl2(q)``.
* ``star(q, parts)`` -- one hub vertex with one cusp per part.
* ``loop_family(q, N)`` -- a (2N+1)-cycle with asymmetric weights and one
  cusp of weight q-1 on the distinguished vertex.
"""

from __future__ import annotations

import warnings
from typing import Sequence

from cuspzeta.graphs import Cusp, CuspidalGraph, EdgeIndexedGraph

__all__ = ["pgl2", "chain", "star", "loop_family"]


def pgl2(q: int) -> CuspidalGraph:
    """Quotient of the (q+1)-regular tree by the rank-one arithmetic lattice.

    One cusp of attachment weight q+1 on a single vertex; the central order
    is q-1, so the group-level zeta function is the (q-1)-st power of the
    weighted-graph one.
    """
    if q < 2:
        raise ValueError("pgl2 requires q >= 2")
    return CuspidalGraph(
        EdgeIndexedGraph(["v0"], []), (Cusp("v0", q + 1, q),), q, central_order=q - 1
    )


def chain(q: int, k: int) -> CuspidalGraph:
    """Half-line with attachment weight k on the base vertex; central order 1."""
    if q < 2:
        raise ValueError("chain requires q >= 2")
    if k < 1:
        raise ValueError("chain requires k >= 1")
    return CuspidalGraph(EdgeIndexedGraph(["v0"], []), (Cusp("v0", k, q),), q, central_order=1)


def star(q: int, parts: Sequence[int]) -> CuspidalGraph:
    """Hub vertex with one cusp per part; parts must sum to at most q+1."""
    if q < 2:
        raise ValueError("star requires q >= 2")
    parts = tuple(parts)
    if not parts:
        raise ValueError("star requires at least one part")
    if any(a < 1 for a in parts):
        raise ValueError("star parts must be >= 1")
    if sum(parts) > q + 1:
        raise ValueError(f"star parts sum to {sum(parts)}, exceeding q + 1 = {q + 1}")
    cusps = tuple(Cusp("v0", a, q) for a in parts)
    return CuspidalGraph(EdgeIndexedGraph(["v0"], []), cusps, q, central_order=1)


def loop_family(q: int, n: int) -> CuspidalGraph:
    """Cycle on 2N+1 vertices with one cusp of weight q-1; central order 1.

    Going around the cycle c, a1, ..., aN, bN, ..., b1 the forward weights
    are 1 up to and including the aN-bN edge and q afterwards, with inverse
    weights q and 1 respectively; the aN-bN edge itself carries (1, 1).
    Every vertex then has weighted out-degree q+1 once the cusp (weight
    q-1 at c) is counted.  det(I - uT) = (1 - u^2)(1 - qu) E(u) O(u), with
    E = (1 + u) sum_{k<N} q^k u^2k + q^N u^2N, O = 1 + (q-1) sum_{k<=N} q^k u^(2k+1)
    - q^N u^(2N+1).  O(-1/q) = 2 q^(-N-1) and O'(-1/q) -> q(q+1)/(q-1), so the
    second pole is -1/q - delta (1 + o(1)), delta = 2(q-1) / ((q+1) q^(N+2)).
    """
    if q < 2:
        raise ValueError("loop_family requires q >= 2")
    if n < 1:
        raise ValueError("loop_family requires N >= 1")
    if q == 2:
        warnings.warn(
            "loop_family with q = 2 has a weight-1 cusp attachment; "
            "the generic picture assumes q >= 3",
            stacklevel=2,
        )
    width = len(str(n))
    cycle = (
        ["c"]
        + [f"a{i:0{width}d}" for i in range(1, n + 1)]
        + [f"b{i:0{width}d}" for i in range(n, 0, -1)]
    )
    total = 2 * n + 1
    pairs = []
    for i in range(total):
        a, b = cycle[i], cycle[(i + 1) % total]
        if i == n:
            pairs.append((a, b, 1, 1))
        elif i < n:
            pairs.append((a, b, 1, q))
        else:
            pairs.append((a, b, q, 1))
    core = EdgeIndexedGraph(cycle, pairs)
    return CuspidalGraph(core, (Cusp("c", q - 1, q),), q, central_order=1)
