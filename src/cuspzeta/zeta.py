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

:func:`vertex_side_zeta` is the second exact route: Bass's |V| x |V|
vertex-side determinant, with each chain of degree-2 vertices contracted by
continuants, added by ``Poly``'s ``+`` and divided out by its exact ``/``.
Past the set-up both share, it has no code in common with the effective
matrix, and ``verify`` checks one route against the other.  The engine
stays on the edge side until the benchmark measures the vertex route at scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import prod

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

__all__ = [
    "EffectiveMatrix",
    "build_effective",
    "bass_ihara_zeta",
    "vertex_side_zeta",
    "selberg_zeta",
]

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


def _cuspidal(c: CuspidalGraph | EdgeIndexedGraph) -> CuspidalGraph:
    """A plain finite graph as the cuspidal graph without cusps."""
    return CuspidalGraph(c, (), 1, 1) if isinstance(c, EdgeIndexedGraph) else c


def _cusp_factors(c: CuspidalGraph) -> Poly:
    """prod_c (1 - ray_q u^2), the numerator both routes start from."""
    return prod((Poly([1, 0, -cusp.ray_q]) for cusp in c.cusps), start=ONE)


def bass_ihara_zeta(c: CuspidalGraph | EdgeIndexedGraph) -> RatFunc:
    """Weighted-graph zeta function, reduced: prod_c (1 - ray_q u^2) / det(effective).

    A plain finite graph is the cuspidal graph without cusps.  N_m is the
    u^m coefficient of ``log_derivative_series(z, m)``.
    """
    c = _cuspidal(c)
    det = poly_det(build_effective(c).entries)
    if det.is_zero():
        raise ArithmeticError("transfer determinant vanished identically (internal error)")
    return ratfunc_reduce(_cusp_factors(c), det)


def _continuants(steps) -> tuple[list[int], list[int]]:
    """The last two theta_i = (1 + s_i v) theta_(i-1) - c_i v theta_(i-2), theta_0 = 1,
    theta_(-1) = 0, for ``steps`` (s_i, c_i), as coefficient lists in v = u^2.

    theta_i has degree i in v, with lead prod s_j, so the lists keep fixed
    lengths; each step is a shift and small-int scaling, with no division.
    """
    prev, cur = [], [1]
    for s, c in steps:
        prev, cur = cur, [x + s * y - c * z
                          for x, y, z in zip(cur + [0], [0] + cur, [0] + prev + [0])]
    return prev, cur


def _in_u(theta: list[int]) -> Poly:
    """A coefficient list in v = u^2 as a polynomial in u."""
    return Poly([x for c in theta for x in (c, 0)])


def vertex_side_zeta(c: CuspidalGraph | EdgeIndexedGraph) -> RatFunc:
    """The zeta function from the vertex side, with chains contracted:

        Z(u) = prod_c (1 - q_c u^2) / ((1 - u^2)^(|E| - |V| + C) det M),
        M = I - u A_w + u^2 diag(D_w(v) - 1 - sum_{c at v} alpha_c q_c),

    with A_w the summed oriented weights, D_w(v) the weighted out-degree
    counting each cusp's alpha, |E| the undirected core pairs and C the
    cusps (Bass 1992; Kotani and Sunada 2000; Mizuno and Sato 2004; each
    ray's tail is a Schur complement).  Shares nothing with
    :func:`build_effective`, so the two routes check each other.

    A vertex with exactly two non-loop edge ends, no loop and no cusp is
    interior; the others are branch vertices, and in a component of
    interior vertices alone (a bare cycle) the first in sorted order is one.
    Each maximal chain v_1..v_k of interior vertices from branch a to branch
    b (maybe a = b), walked edge by edge, is a tridiagonal block P of M whose
    determinant theta_(1..k) is a continuant.  Its Schur complement is a 2x2
    update of the (a, b) block from the corners of P^-1, over theta_(1..k):

        (a, a): -u^2 w(a->v_1) w(v_1->a) theta_(2..k)
        (b, b): -u^2 w(b->v_k) w(v_k->b) theta_(1..k-1)
        (a, b): -u^(k+1) times the forward weights a->v_1->...->v_k->b
        (b, a): -u^(k+1) times the backward weights

    all four going to (a, a) when a = b.  Each branch row is scaled by the
    theta of the chains at it, so the branch matrix is polynomial, and its
    determinant is det M times theta once per chain with a != b.
    """
    c = _cuspidal(c)
    core, edges = c.core, c.core.edges
    shift = dict.fromkeys(core.vertices, -1)  # the u^2 coefficient of M's diagonal
    for e in edges:
        shift[e.source] += e.weight
    for cusp in c.cusps:
        shift[cusp.vertex] += cusp.alpha - cusp.alpha * cusp.ray_q
    cusped = {cusp.vertex for cusp in c.cusps}
    interior = {v for v in core.vertices if v not in cusped and len(core.out_edges(v)) == 2
                and all(edges[i].target != v for i in core.out_edges(v))}
    branch = [v for v in sorted(core.vertices) if v not in interior]
    direct = {v: {} for v in branch}  # summed weights of the edges between branch vertices
    ends = {v: [] for v in branch}  # (theta, {column: term}) of each chain at a branch row
    seen, closing, divisor = set(), set(), ONE  # closing: inverses of chains' last edges
    starts, i = iter(sorted(interior)), 0
    while True:
        if i == len(branch):  # every vertex left unseen is on a bare cycle
            a = next((v for v in starts if v not in seen), None)
            if a is None:
                break
            branch.append(a)
            direct[a], ends[a] = {}, []
        a = branch[i]
        i += 1
        for e in core.out_edges(a):
            t = edges[e].target
            if t in direct:
                direct[a][t] = direct[a].get(t, 0) + edges[e].weight
                continue
            if e in closing:
                continue
            path = [e]
            while t not in direct:
                seen.add(t)
                out = core.out_edges(t)
                path.append(out[out[0] == edges[path[-1]].inverse])  # the edge pair's other end
                t = edges[path[-1]].target
            closing.add(edges[path[-1]].inverse)
            f = [edges[j].weight for j in path]
            g = [edges[edges[j].inverse].weight for j in path]
            steps = [(shift[edges[j].target], fw * gw) for j, fw, gw in zip(path, f, g)][:-1]
            shorter, full = _continuants(steps)
            inner = _continuants(steps[1:])[1]
            theta = _in_u(full)
            aa = _in_u([0] + [-f[0] * g[0] * x for x in inner])
            bb = _in_u([0] + [-f[-1] * g[-1] * x for x in shorter])
            ab = Poly([0] * len(path) + [-prod(f)])
            ba = Poly([0] * len(path) + [-prod(g)])
            if t == a:
                ends[a].append((theta, {a: aa + bb + ab + ba}))
            else:
                ends[a].append((theta, {a: aa, t: ab}))
                ends[t].append((theta, {t: bb, a: ba}))
                divisor = divisor * theta
    matrix = []
    for a in branch:
        row = {t: Poly([0, -w]) for t, w in direct[a].items()}
        row[a] = Poly([1, -direct[a].get(a, 0), shift[a]])
        scale = ONE
        for theta, terms in ends[a]:
            row = {t: p * theta for t, p in row.items()}
            for t, term in terms.items():
                row[t] = row.get(t, ZERO) + term * scale
            scale = scale * theta
        matrix.append([row.get(t, ZERO) for t in branch])
    det = poly_det(PolyMatrix(matrix)) / divisor
    num = _cusp_factors(c)
    exponent = len(edges) // 2 - len(core.vertices) + len(c.cusps)
    if exponent >= 0:
        det = det * Poly([1, 0, -1]) ** exponent
    else:
        num = num * Poly([1, 0, -1]) ** -exponent
    return ratfunc_reduce(num, det)


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
