"""Shared test oracles and generators, independent of the engine under test."""

import random
from fractions import Fraction as F

from cuspzeta.exact import ONE, Poly, PolyMatrix, RatFunc, poly_det, ratfunc_reduce
from cuspzeta.graphs import CuspidalGraph, EdgeIndexedGraph


def vertex_side_determinant(g: EdgeIndexedGraph) -> Poly:
    """det(I - uA + u^2 Q) assembled directly from adjacency counts."""
    verts = sorted(g.vertices)
    pos = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    adj = [[0] * n for _ in range(n)]
    deg = [0] * n
    for e in g.edges:
        adj[pos[e.source]][pos[e.target]] += 1
        deg[pos[e.source]] += 1
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            c0 = F(1) if i == j else F(0)
            c2 = F(deg[i] - 1) if i == j else F(0)
            row.append(Poly([c0, F(-adj[i][j]), c2]))
        rows.append(row)
    return poly_det(PolyMatrix(rows))


def weighted_vertex_side_zeta(c: CuspidalGraph) -> RatFunc:
    """Weighted cuspidal zeta function from a |V| x |V| determinant.

    Z(u) = prod_c (1 - q_c u^2) / ((1 - u^2)^(|E| - |V| + C) det M) with
    M = I - u A_w + u^2 diag(D_w(v) - 1 - sum_{c at v} alpha_c q_c), where
    A_w sums oriented edge weights, D_w(v) is the weighted out-degree of v
    counting alpha_c for each cusp c at v, |E| counts undirected core pairs
    and C is the number of cusps.  This is Bass's vertex-side identity with
    each ray's tridiagonal tail removed by a Schur complement; it shares
    nothing with the engine's edge-side effective matrix.
    """
    verts = sorted(c.core.vertices)
    pos = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    adj = [[F(0)] * n for _ in range(n)]
    shift = [F(-1)] * n
    for e in c.core.edges:
        adj[pos[e.source]][pos[e.target]] += e.weight
        shift[pos[e.source]] += e.weight
    for cusp in c.cusps:
        shift[pos[cusp.vertex]] += cusp.alpha - cusp.alpha * cusp.ray_q
    rows = [
        [Poly([F(i == j), -adj[i][j], shift[i] if i == j else F(0)]) for j in range(n)]
        for i in range(n)
    ]
    num, den = ONE, poly_det(PolyMatrix(rows))
    for cusp in c.cusps:
        num = num * Poly([1, 0, -cusp.ray_q])
    exponent = len(c.core.edges) // 2 - n + len(c.cusps)
    one_minus_u2 = Poly([1, 0, -1])
    if exponent >= 0:
        den = den * one_minus_u2**exponent
    else:
        num = num * one_minus_u2 ** (-exponent)
    return ratfunc_reduce(num, den)


def random_min_degree_two_graph(rng: random.Random, max_vertices: int = 10) -> EdgeIndexedGraph:
    """Connected simple unit-weight graph with minimum degree two.

    A cycle guarantees both properties; a few random chords vary the shape.
    """
    n = rng.randint(3, max_vertices)
    names = [f"v{i}" for i in range(n)]
    pairs = [(names[i], names[(i + 1) % n], 1, 1) for i in range(n)]
    taken = {(i, (i + 1) % n) for i in range(n)} | {((i + 1) % n, i) for i in range(n)}
    for _ in range(rng.randint(0, 3)):
        i, j = rng.sample(range(n), 2)
        if (i, j) not in taken:
            taken.add((i, j))
            taken.add((j, i))
            pairs.append((names[i], names[j], 1, 1))
    return EdgeIndexedGraph.from_pairs(names, pairs)
