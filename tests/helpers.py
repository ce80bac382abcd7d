"""Shared test oracles and generators, independent of the engine under test."""

import random
from fractions import Fraction as F

from cuspzeta.exact import ONE, Poly, PolyMatrix, PowerSeries, RatFunc, poly_det, ratfunc_reduce
from cuspzeta.graphs import CuspidalGraph, EdgeIndexedGraph
from cuspzeta.oracle import CycleClass


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


def reference_cycle_classes(g: EdgeIndexedGraph, max_length: int) -> tuple[list[CycleClass], int]:
    """Cycle classes by a plain tuple-stack search, and the number of paths it visits.

    Every path is a fresh tuple; every closed walk goes into a set as its
    minimal rotation, and class weights are Fraction products taken after
    sorting.  Same search tree as the engine's oracle, none of its shortcuts.
    """
    order = g.canonical_edge_order()
    pos = {eid: i for i, eid in enumerate(order)}
    weight_of = []
    for eid in order:
        e = g.edges[eid]
        row = {}
        for sid in g.out_edges(e.target):
            w = g.edges[sid].weight - (1 if sid == e.inverse else 0)
            if w:
                row[pos[sid]] = w
        weight_of.append(row)
    canonical = set()
    visited = 0
    for start in range(len(order)):
        stack = [(start,)]
        while stack:
            path = stack.pop()
            visited += 1
            for nxt in weight_of[path[-1]]:
                if nxt < start:
                    continue
                if nxt == start:
                    canonical.add(min(path[i:] + path[:i] for i in range(len(path))))
                if len(path) < max_length:
                    stack.append(path + (nxt,))
    classes = []
    for cycle in sorted(canonical):
        length = len(cycle)
        weight = F(1)
        for i in range(length):
            weight *= weight_of[cycle[i]][cycle[(i + 1) % length]]
        period = next(p for p in range(1, length + 1)
                      if length % p == 0 and cycle == cycle[p:] + cycle[:p])
        classes.append(CycleClass(length, weight, period, period))
    return classes, visited


def reference_euler_product(classes: list[CycleClass], order: int) -> PowerSeries:
    """prod over primitive classes of 1/(1 - w u^l) through u^order, in Fractions."""
    out = [F(1)] + [F(0)] * order
    for cls in classes:
        if cls.is_primitive and cls.length <= order:
            for m in range(cls.length, order + 1):
                out[m] += cls.weight * out[m - cls.length]
    return PowerSeries(tuple(out), order)
