"""Zeta functions of weighted and cuspidal graphs via edge-transfer determinants.

The transfer operator acts on oriented edges.  One rule gives every row: an
edge e steps to each move out of its head, with the move's weight w, or
w - 1 on the move that reverses e.  The weighted-graph zeta function is
1/det(I - uT).

For a cuspidal graph the operator is infinite, but each standard ray can be
eliminated in closed form: summing the geometric series of excursions into
the ray turns the outward attachment row into

    (1 - ray_q u^2) x_o - (ray_q - 1) u x_i = 0,

so det(I - uT) equals det(EffectiveMatrix) divided by one factor
(1 - ray_q u^2) per cusp.  The effective matrix is finite (core edges plus
an (o, i) pair per cusp) and exact, so no limit of truncations is ever
taken numerically.  A graph without cusps is the zero-cusp case: its
effective matrix is I - uT itself.

:func:`bass_ihara_zeta` returns Z(u) as a reduced ``RatFunc`` and
:func:`selberg_zeta` its power Z(u)^c; c and the cusps stay on the graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

from cuspzeta.exact import (
    ONE,
    Poly,
    PolyMatrix,
    RatFunc,
    ZERO,
    poly_det,
    ratfunc_reduce,
)
from cuspzeta.graphs import BudgetExceededError, CuspidalGraph, EdgeIndexedGraph

__all__ = ["EffectiveMatrix", "build_effective", "bass_ihara_zeta", "selberg_zeta"]

MAX_SELBERG_DEGREE = 800  # largest degree of an expanded Selberg power (well under a second)


@dataclass(frozen=True)
class EffectiveMatrix:
    """Finite matrix whose determinant carries det(I - uT) of a cuspidal graph.

    Rows (and columns) are the core oriented edges in
    ``canonical_edge_order()``, then for cusp ``idx`` the outward attachment
    edge at ``n_core + 2*idx`` and the inward one at ``n_core + 2*idx + 1``;
    each outward row is the closed form of its eliminated ray.
    """

    entries: PolyMatrix


def build_effective(c: CuspidalGraph) -> EffectiveMatrix:
    """Assemble I - uT on core edges plus one (o, i) pair per cusp.

    The moves out of a vertex are its core out-edges and the outward edge o
    of each cusp there (weight alpha).  A move reverses the inverse core
    edge, or for o the cusp's inward edge i.  Every core row and every i row
    takes each move out of its head with weight w, or w - 1 on the move
    that reverses it.  Only the o rows differ: [1 - ray_q u^2, -(ray_q - 1) u].
    """
    entry = cache(Poly)  # one Poly per distinct entry; Poly is immutable, so cells share it
    core = c.core
    order = core.canonical_edge_order()
    pos = {eid: r for r, eid in enumerate(order)}
    heads = [(r, core.edges[eid].target) for r, eid in enumerate(order)]
    # moves[v]: (column, -w, -(w - 1), row it reverses), the u-coefficients of its entries
    moves: dict[str, list[tuple]] = {}
    for e in core.edges:
        moves.setdefault(e.source, []).append((pos[e.id], -e.weight, 1 - e.weight, pos[e.inverse]))
    n = len(order) + 2 * len(c.cusps)
    rows = [[ZERO] * n for _ in range(n)]
    for idx, cusp in enumerate(c.cusps):
        o = len(order) + 2 * idx
        rows[o][o] = entry((1, 0, -cusp.ray_q))
        rows[o][o + 1] = entry((0, 1 - cusp.ray_q))
        heads.append((o + 1, cusp.vertex))
        moves.setdefault(cusp.vertex, []).append((o, -cusp.alpha, 1 - cusp.alpha, o + 1))

    for r, v in heads:
        row = rows[r]
        for col, step, back, rev in moves.get(v, ()):
            row[col] = entry((1 if col == r else 0, back if rev == r else step))
        row[r] = row[r] or ONE
    return EffectiveMatrix(PolyMatrix(rows))


def bass_ihara_zeta(c: CuspidalGraph | EdgeIndexedGraph) -> RatFunc:
    """Weighted-graph zeta function, reduced: prod_c (1 - ray_q u^2) / det(effective).

    A plain finite graph is the cuspidal graph without cusps.  N_m is the
    u^m coefficient of ``log_derivative_series(z, m)``.
    """
    if isinstance(c, EdgeIndexedGraph):
        c = CuspidalGraph(c, (), 1, 1)
    det = poly_det(build_effective(c).entries)
    if det.is_zero():
        raise ArithmeticError("transfer determinant vanished identically (internal error)")
    prefactor = ONE
    for cusp in c.cusps:
        prefactor = prefactor * Poly([1, 0, -cusp.ray_q])
    return ratfunc_reduce(prefactor, det)


def selberg_zeta(z: RatFunc, central_order: int) -> RatFunc:
    """The group-level (Selberg) zeta function: ``z`` to the power ``central_order``.

    Powers of a reduced num/den stay coprime, so no gcd is taken.  Raises
    :class:`BudgetExceededError` before any power once the expanded degree
    would pass ``MAX_SELBERG_DEGREE``.
    """
    degree = central_order * max(z.num.degree, z.den.degree)
    if degree > MAX_SELBERG_DEGREE:
        raise BudgetExceededError(f"Selberg degree {degree} exceeds the cap {MAX_SELBERG_DEGREE}")
    return RatFunc(z.num**central_order, z.den**central_order)
