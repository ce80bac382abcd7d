"""Zeta functions of weighted and cuspidal graphs via edge-transfer determinants.

The transfer operator acts on oriented edges: an edge e is sent to the
weighted sum of the edges e' leaving its target, where e' picks up weight
w(e') except for the reversal of e, which picks up w(e') - 1.  For a finite
graph the weighted-graph zeta function is 1/det(I - uT).

For a cuspidal graph the operator is infinite, but each standard ray can be
eliminated in closed form: summing the geometric series of excursions into
the ray turns the outward attachment row into

    (1 - ray_q u^2) x_o - (ray_q - 1) u x_i = 0,

so det(I - uT) equals det(EffectiveMatrix) divided by one factor
(1 - ray_q u^2) per cusp.  The effective matrix is finite (core edges plus
an (o, i) pair per cusp) and exact, so no limit of truncations is ever
taken numerically.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

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
)
from cuspzeta.graphs import CuspidalGraph, EdgeIndexedGraph

__all__ = [
    "TransferMatrix",
    "EffectiveMatrix",
    "ZetaResult",
    "CountingSeries",
    "build_transfer",
    "build_effective",
    "bass_ihara_zeta",
    "ihara_three_term",
    "counting_series",
]


@dataclass(frozen=True)
class TransferMatrix:
    """I - uT of a finite graph, rows and columns indexed by oriented edges."""

    edge_index: tuple[int, ...]
    entries: PolyMatrix


@dataclass(frozen=True)
class EffectiveMatrix:
    """Finite matrix whose determinant carries det(I - uT) of a cuspidal graph.

    Rows are labelled by core oriented edges plus, per cusp, the outward and
    inward attachment edges ("o" and "i"); each outward row is the closed
    form of its eliminated ray.
    """

    labels: tuple[tuple, ...]
    entries: PolyMatrix
    cusp_count: int
    cusp_qs: tuple[int, ...]


def _minus_u(weight: Fraction) -> Poly:
    return Poly([0, -weight])


def build_transfer(g: EdgeIndexedGraph) -> TransferMatrix:
    """Assemble I - uT with the deterministic canonical edge order."""
    order = g.canonical_edge_order()
    pos = {eid: i for i, eid in enumerate(order)}
    n = len(order)
    rows = [[ZERO] * n for _ in range(n)]
    for eid in order:
        e = g.edges[eid]
        i = pos[eid]
        rows[i][i] = ONE
        for sid in g.out_edges(e.target):
            succ = g.edges[sid]
            w = succ.weight - 1 if sid == e.inverse else succ.weight
            if w:
                rows[i][pos[sid]] = rows[i][pos[sid]] + _minus_u(w)
    return TransferMatrix(order, PolyMatrix(rows))


def build_effective(c: CuspidalGraph) -> EffectiveMatrix:
    """Restrict I - uT to core edges plus one (o, i) pair per cusp.

    Core rows follow the plain transfer rule (an outward cusp edge at the
    row's head contributes -u * alpha).  The inward row at a cusp sees every
    retained edge leaving the attachment vertex, with backtrack weight
    alpha - 1 on its own outward edge.  The outward row is the eliminated
    ray: [1 - ray_q u^2, -(ray_q - 1) u].
    """
    core = c.core
    order = core.canonical_edge_order()
    labels: list[tuple] = [("core", eid) for eid in order]
    for idx in range(len(c.cusps)):
        labels.append(("cusp", idx, "o"))
        labels.append(("cusp", idx, "i"))
    pos = {label: i for i, label in enumerate(labels)}
    cusps_at: dict[str, list[int]] = {}
    for idx, cusp in enumerate(c.cusps):
        cusps_at.setdefault(cusp.vertex, []).append(idx)
    n = len(labels)
    rows = [[ZERO] * n for _ in range(n)]

    def core_successors(row: int, vertex: str, backtrack_of: int | None) -> None:
        for sid in core.out_edges(vertex):
            succ = core.edges[sid]
            w = succ.weight - 1 if sid == backtrack_of else succ.weight
            if w:
                col = pos[("core", sid)]
                rows[row][col] = rows[row][col] + _minus_u(w)

    for eid in order:
        e = core.edges[eid]
        i = pos[("core", eid)]
        rows[i][i] = ONE
        core_successors(i, e.target, backtrack_of=e.inverse)
        for idx in cusps_at.get(e.target, []):
            col = pos[("cusp", idx, "o")]
            rows[i][col] = rows[i][col] + _minus_u(Fraction(c.cusps[idx].alpha))

    for idx, cusp in enumerate(c.cusps):
        o = pos[("cusp", idx, "o")]
        i = pos[("cusp", idx, "i")]
        rows[o][o] = Poly([1, 0, -cusp.ray_q])
        rows[o][i] = _minus_u(Fraction(cusp.ray_q - 1))
        rows[i][i] = ONE
        core_successors(i, cusp.vertex, backtrack_of=None)
        for jdx in cusps_at.get(cusp.vertex, []):
            w = Fraction(c.cusps[jdx].alpha - (1 if jdx == idx else 0))
            if w:
                col = pos[("cusp", jdx, "o")]
                rows[i][col] = rows[i][col] + _minus_u(w)

    return EffectiveMatrix(
        tuple(labels),
        PolyMatrix(rows),
        len(c.cusps),
        tuple(cusp.ray_q for cusp in c.cusps),
    )


@dataclass(frozen=True)
class ZetaResult:
    """Weighted-graph zeta function with its group-level power form.

    The group-level (Selberg) zeta function is ``bass_ihara`` to the power
    ``central_order``; it is expanded only when asked.
    """

    bass_ihara: RatFunc
    central_order: int
    cusp_count: int
    raw_determinant: Poly

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

    A plain finite graph (or a cuspidal graph without cusps) reduces to
    1 / det(I - uT).
    """
    if isinstance(c, EdgeIndexedGraph):
        c = CuspidalGraph(c, (), 1, 1)
    if c.cusps:
        eff = build_effective(c)
        det = poly_det(eff.entries)
        prefactor = ONE
        for ray_q in eff.cusp_qs:
            prefactor = prefactor * Poly([1, 0, -ray_q])
    else:
        det = poly_det(build_transfer(c.core).entries)
        prefactor = ONE
    if det.is_zero():
        raise ArithmeticError("transfer determinant vanished identically (internal error)")
    z = ratfunc_reduce(prefactor, det)
    return ZetaResult(z, c.central_order, len(c.cusps), det)


def ihara_three_term(g: EdgeIndexedGraph) -> RatFunc:
    """Vertex-side determinant formula for a finite unit-weight graph.

    Z = (1 - u^2)^chi / det(I - uA + u^2 Q) with chi = |V| - |E|, A the
    vertex adjacency matrix and Q the diagonal (degree - 1) matrix.
    """
    for e in g.edges:
        if e.weight != 1:
            raise ValueError("the three-term formula applies to unit-weight graphs only")
    if len(g.edges) % 2:
        raise ValueError("oriented edges must come in inverse pairs")
    verts = sorted(g.vertices)
    vpos = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    adj = [[0] * n for _ in range(n)]
    deg = [0] * n
    for e in g.edges:
        adj[vpos[e.source]][vpos[e.target]] += 1
        deg[vpos[e.source]] += 1
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            coeffs = [Fraction(0)] * 3
            if i == j:
                coeffs[0] = Fraction(1)
                coeffs[2] = Fraction(deg[i] - 1)
            coeffs[1] = Fraction(-adj[i][j])
            row.append(Poly(coeffs))
        rows.append(row)
    det = poly_det(PolyMatrix(rows))
    chi = n - len(g.edges) // 2
    one_minus_u2 = Poly([1, 0, -1])
    if chi >= 0:
        return ratfunc_reduce(one_minus_u2**chi, det)
    return ratfunc_reduce(ONE, det * one_minus_u2 ** (-chi))


@dataclass(frozen=True)
class CountingSeries:
    """Exact geodesic-counting sequences N_m and R_m = c * N_m, m = 1..order."""

    n_values: tuple[Fraction, ...]
    r_values: tuple[Fraction, ...]
    order: int

    def to_json(self) -> dict:
        from cuspzeta.exact import rational_to_json

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
    n_values = tuple(series.coeffs[1:])
    r_values = tuple(result.central_order * x for x in n_values)
    return CountingSeries(n_values, r_values, order)
