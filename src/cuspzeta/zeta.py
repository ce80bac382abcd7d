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
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from cuspzeta.exact import (
    ONE,
    Poly,
    PolyMatrix,
    RatFunc,
    ZERO,
    log_derivative_series,
    poly_det,
    ratfunc_pow,
    ratfunc_reduce,
    rational_to_json,
)
from cuspzeta.graphs import CuspidalGraph, EdgeIndexedGraph

__all__ = [
    "EffectiveMatrix",
    "ZetaResult",
    "CountingSeries",
    "build_effective",
    "bass_ihara_zeta",
    "counting_series",
]

MAX_SERIES_ORDER = 200  # cap on series orders asked for from outside; coefficients widen with M


@dataclass(frozen=True)
class EffectiveMatrix:
    """Finite matrix whose determinant carries det(I - uT) of a cuspidal graph.

    Rows are labelled by core oriented edges ``("core", id)`` in canonical
    edge order, then per cusp the outward and inward attachment edges
    ``("cusp", idx, "o")`` and ``("cusp", idx, "i")``; each outward row is
    the closed form of its eliminated ray.
    """

    labels: tuple[tuple, ...]
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
    labels: list[tuple] = [("core", eid) for eid in order]
    heads = [(r, core.edges[eid].target) for r, eid in enumerate(order)]
    # moves[v]: (column, -w, -(w - 1), row it reverses), the u-coefficients of its entries
    moves: dict[str, list[tuple]] = {}
    for e in core.edges:
        moves.setdefault(e.source, []).append((pos[e.id], -e.weight, 1 - e.weight, pos[e.inverse]))
    n = len(order) + 2 * len(c.cusps)
    rows = [[ZERO] * n for _ in range(n)]
    for idx, cusp in enumerate(c.cusps):
        o = len(labels)
        labels += [("cusp", idx, "o"), ("cusp", idx, "i")]
        rows[o][o] = entry((1, 0, -cusp.ray_q))
        rows[o][o + 1] = entry((0, 1 - cusp.ray_q))
        heads.append((o + 1, cusp.vertex))
        moves.setdefault(cusp.vertex, []).append((o, -cusp.alpha, 1 - cusp.alpha, o + 1))

    for r, v in heads:
        row = rows[r]
        for col, step, back, rev in moves.get(v, ()):
            row[col] = entry((1 if col == r else 0, back if rev == r else step))
        row[r] = row[r] or ONE
    return EffectiveMatrix(tuple(labels), PolyMatrix(rows))


@dataclass(frozen=True)
class ZetaResult:
    """Weighted-graph zeta function with its group-level power form.

    The group-level (Selberg) zeta function is ``bass_ihara`` to the power
    ``central_order``; it is expanded only when asked.
    """

    bass_ihara: RatFunc
    central_order: int
    cusp_count: int

    def selberg_expanded(self) -> RatFunc:
        return ratfunc_pow(self.bass_ihara, self.central_order)

    def to_json(self) -> dict:
        return {
            "bass_ihara": self.bass_ihara.to_json(),
            "c_gamma": self.central_order,
            "cusps": self.cusp_count,
        }


def bass_ihara_zeta(c: CuspidalGraph | EdgeIndexedGraph) -> ZetaResult:
    """Weighted-graph zeta function: prod_c (1 - ray_q u^2) / det(effective).

    A plain finite graph is the cuspidal graph without cusps.
    """
    if isinstance(c, EdgeIndexedGraph):
        c = CuspidalGraph(c, (), 1, 1)
    det = poly_det(build_effective(c).entries)
    if det.is_zero():
        raise ArithmeticError("transfer determinant vanished identically (internal error)")
    prefactor = ONE
    for cusp in c.cusps:
        prefactor = prefactor * Poly([1, 0, -cusp.ray_q])
    return ZetaResult(ratfunc_reduce(prefactor, det), c.central_order, len(c.cusps))


@dataclass(frozen=True)
class CountingSeries:
    """Exact geodesic-counting sequences N_m and R_m = c * N_m, m = 1..order."""

    n_values: tuple[Fraction, ...]
    r_values: tuple[Fraction, ...]

    def to_json(self) -> dict:
        return {
            "N": [rational_to_json(x) for x in self.n_values],
            "R": [rational_to_json(x) for x in self.r_values],
        }


def counting_series(result: ZetaResult, order: int) -> CountingSeries:
    """N_m as coefficients of u Z'/Z; R_m multiplies in the central order.

    Takes the :class:`ZetaResult` of :func:`bass_ihara_zeta`, which carries
    both Z and the central order, so a caller that already holds it pays
    for no second determinant.
    """
    if order < 1:
        raise ValueError("counting order must be >= 1")
    series = log_derivative_series(result.bass_ihara, order)
    n_values = series[1:]
    r_values = tuple(result.central_order * x for x in n_values)
    return CountingSeries(n_values, r_values)
