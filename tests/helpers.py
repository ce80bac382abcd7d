"""Shared test oracles and generators, independent of the engine under test."""

import random
import sys
from dataclasses import replace
from fractions import Fraction as F
from math import gcd
from pathlib import Path

from cuspzeta.exact import (
    ONE,
    ZERO,
    Poly,
    PolyMatrix,
    RatFunc,
    poly_det,
    poly_gcd,
    ratfunc_reduce,
)
from cuspzeta.graphs import CuspidalGraph, EdgeIndexedGraph
from cuspzeta.oracle import CycleClass

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import random_graph  # noqa: E402


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
    return EdgeIndexedGraph(names, pairs)


def random_dense_cuspidal_graph(rng: random.Random, n: int, cusps: int) -> CuspidalGraph:
    """perfbench's dense graph, with one chord's weight a -> b made a half-integer.

    The shape and draws are ``workloads.random_graph(rng, n, 3, cusps)``: an
    n-cycle plus a random 3-regular chord set, weights a shuffled balanced mix
    of 1..3, each cusp with alpha 1..3 and ray_q 2..5 on a distinct vertex.
    Graph JSON carries integer weights only, so the fractional weight, which
    makes rows get cleared of a denominator, is set here.
    """
    graph = CuspidalGraph.from_json(random_graph(rng, n, 3, cusps))
    pairs = graph.core.edge_pairs()
    a, b, _, wb = pairs[n]
    pairs[n] = (a, b, F(rng.choice([1, 3, 5]), 2), wb)
    return replace(graph, core=EdgeIndexedGraph(graph.core.vertices, pairs))


def transfer_rows(g: EdgeIndexedGraph) -> list[dict[int, F]]:
    """Sparse rows of T in canonical edge order as {column: weight}, zero moves left out."""
    order = g.canonical_edge_order()
    pos = {eid: i for i, eid in enumerate(order)}
    rows = []
    for eid in order:
        e = g.edges[eid]
        row = {}
        for sid in g.out_edges(e.target):
            w = g.edges[sid].weight - (1 if sid == e.inverse else 0)
            if w:
                row[pos[sid]] = w
        rows.append(row)
    return rows


def reference_trace_powers(g: EdgeIndexedGraph, up_to: int) -> list[F]:
    """Traces of T^m for m = 1..up_to by dense-row products in Fractions.

    The oracle's previous loop, kept as the reference for its packed rows:
    row i of T^(m+1) is the sum over k of T^m_ik times row k of T.
    """
    rows = transfer_rows(g)
    n = len(rows)
    dense = [[F(0)] * n for _ in range(n)]
    for i, row in enumerate(rows):
        for j, w in row.items():
            dense[i][j] += w
    traces = [sum(dense[i][i] for i in range(n))]
    for _ in range(up_to - 1):
        nxt = []
        for mrow in dense:
            acc = [F(0)] * n
            for k, coeff in enumerate(mrow):
                if coeff:
                    for j, w in rows[k].items():
                        acc[j] += coeff * w
            nxt.append(acc)
        dense = nxt
        traces.append(sum(dense[i][i] for i in range(n)))
    return [F(t) for t in traces]


def reference_cycle_classes(
    g: EdgeIndexedGraph, max_length: int, pruned: bool = True
) -> tuple[list[CycleClass], int]:
    """Cycle classes by a plain tuple-stack search, and a count of visited paths.

    The search walks every path whose edges are not below its start; every
    path is a fresh tuple, every closed walk goes into a set as its minimal
    rotation, and class weights are Fraction products taken after sorting.
    None of the engine's shortcuts decide which classes come out.

    ``visited`` is the number of paths in the engine's pruned search tree,
    counted by plain predicates: a start edge, or a prenecklace (every
    suffix >= the prefix of the same length) that a forward search shows
    can still close at its start within ``max_length``.  With
    ``pruned=False`` it counts every path of the unpruned search.
    """
    weight_of = transfer_rows(g)

    def can_close(path: tuple[int, ...]) -> bool:
        start, frontier = path[0], {path[-1]}
        for _ in range(max_length - len(path) + 1):
            if any(start in weight_of[t] for t in frontier):
                return True
            frontier = {s for t in frontier for s in weight_of[t] if s >= start}
        return False

    def in_pruned_tree(path: tuple[int, ...]) -> bool:
        n = len(path)
        return n == 1 or (all(path[i:] >= path[: n - i] for i in range(1, n))
                          and can_close(path))

    canonical = set()
    visited = 0
    for start in range(len(weight_of)):
        stack = [(start,)]
        while stack:
            path = stack.pop()
            visited += not pruned or in_pruned_tree(path)
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
        classes.append(CycleClass(length, weight, period))
    return classes, visited


def reference_euler_product(classes: list[CycleClass], order: int) -> tuple[F, ...]:
    """prod over primitive classes of 1/(1 - w u^l) through u^order, in Fractions."""
    out = [F(1)] + [F(0)] * order
    for cls in classes:
        if cls.primitive_length == cls.length <= order:
            for m in range(cls.length, order + 1):
                out[m] += cls.weight * out[m - cls.length]
    return tuple(out)


def poly_divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Long division over Q: (q, r) with a = q b + r and deg r < deg b."""
    if b.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    rem = list(a.coeffs)
    db, lead = b.degree, b.coeffs[-1]
    quot = [F(0)] * max(len(rem) - db, 0)
    for k in range(len(quot) - 1, -1, -1):
        q = quot[k] = rem[db + k] / lead
        if q:
            for j, c in enumerate(b.coeffs):
                rem[k + j] -= q * c
    return Poly(quot), Poly(rem[:db])


def poly_quotient(a: Poly, b: Poly) -> Poly:
    """a / b when b divides a over Q; a ValueError otherwise."""
    q, r = poly_divmod(a, b)
    if r:
        raise ValueError("inexact polynomial division")
    return q


def poly_add(a: Poly, b: Poly) -> Poly:
    return Poly([a[i] + b[i] for i in range(max(len(a.coeffs), len(b.coeffs)))])


def poly_sub(a: Poly, b: Poly) -> Poly:
    return poly_add(a, b * -1)


def poly_monic(p: Poly) -> Poly:
    return p * (1 / p.coeffs[-1])


def poly_derivative(p: Poly) -> Poly:
    return Poly([i * c for i, c in enumerate(p.coeffs)][1:])


def poly_eval(p: Poly, x):
    """p(x) by Horner's rule; exact when x is an int or a Fraction."""
    acc = x * 0
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


def ratfunc_mul(f: RatFunc, g: RatFunc) -> RatFunc:
    return ratfunc_reduce(f.num * g.num, f.den * g.den)


def reference_poly_gcd(a: Poly, b: Poly) -> Poly:
    """Monic gcd by Euclid's algorithm over Q, with Fraction long division."""
    while b:
        a, b = b, poly_divmod(a, b)[1]
    return poly_monic(a)


def reference_ratfunc_reduce(num: Poly, den: Poly) -> RatFunc:
    """num/den in lowest terms with den(0) = 1, or a monic den when den(0) = 0.

    The reduction's previous Fraction route, kept as the reference for the
    integer one: divide both by their monic gcd over Q, then by den(0) or by
    den's leading coefficient.  The gcd here is Euclid's, not the engine's.
    """
    if den.is_zero():
        raise ZeroDivisionError("rational function with zero denominator")
    if num.is_zero():
        return RatFunc(ZERO, ONE)
    g = reference_poly_gcd(num, den)
    num, den = poly_quotient(num, g), poly_quotient(den, g)
    scale = den[0] or den.coeffs[-1]
    return RatFunc(num * (1 / scale), den * (1 / scale))


def reference_square_free_parts(p: Poly) -> list[tuple[Poly, int]]:
    """Yun decomposition in Fraction arithmetic, with monic parts.

    The split's previous form, kept as the reference for the integer one:
    every derivative, division and gcd runs on :class:`Poly`.
    """
    if p.degree < 1:
        return []
    dp = poly_derivative(p)
    g = poly_gcd(p, dp)
    if g.degree == 0:
        return [(poly_monic(p), 1)]
    w = poly_quotient(p, g)
    z = poly_sub(poly_quotient(dp, g), poly_derivative(w))
    parts = []
    m = 1
    while w.degree > 0:
        f = poly_gcd(w, z)
        if f.degree > 0:
            parts.append((f, m))
            w = poly_quotient(w, f)
            z = poly_quotient(z, f)
        z = poly_sub(z, poly_derivative(w))
        m += 1
    return parts


def reference_series_expand(f: RatFunc, order: int) -> tuple[F, ...]:
    """Series of num/den through u^order by long division in ascending powers.

    Each step divides the running remainder's lowest coefficient by den(0)
    and subtracts that multiple of den, all in Fractions.
    """
    d0 = f.den[0]
    if d0 == 0:
        raise ZeroDivisionError("series expansion at a pole of the function")
    rem = list(f.num.coeffs) + [F(0)] * (order + 1)
    out = []
    for m in range(order + 1):
        c = rem[m] / d0
        out.append(c)
        for i, d in enumerate(f.den.coeffs):
            if m + i < len(rem):
                rem[m + i] -= c * d
    return tuple(out)


def reference_log_derivative_series(z: RatFunc, order: int) -> tuple[F, ...]:
    """Series of u Z'/Z as U (num' den - den' num) / (num den), by long division."""
    u = Poly([0, 1])
    num = u * poly_sub(poly_derivative(z.num) * z.den, poly_derivative(z.den) * z.num)
    return reference_series_expand(RatFunc(num, z.num * z.den), order)


def _ztrim(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _zmul(a: list[int], b: list[int]) -> list[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return _ztrim(out)


def _zsub(a: list[int], b: list[int]) -> list[int]:
    n = max(len(a), len(b))
    out = [0] * n
    for i, x in enumerate(a):
        out[i] = x
    for i, y in enumerate(b):
        out[i] -= y
    return _ztrim(out)


def _zdiv_exact(a: list[int], b: list[int]) -> list[int]:
    """Exact division in Z[u]; the caller guarantees divisibility."""
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    if not a:
        return []
    rem = list(a)
    db, lb = len(b) - 1, b[-1]
    dq = len(rem) - 1 - db
    if dq < 0:
        raise ValueError("inexact polynomial division")
    quot = [0] * (dq + 1)
    for k in range(dq, -1, -1):
        c = rem[db + k]
        if c % lb:
            raise ValueError("inexact polynomial division")
        q = c // lb
        quot[k] = q
        if q:
            for j, y in enumerate(b):
                rem[k + j] -= q * y
    if any(rem):
        raise ValueError("inexact polynomial division")
    return _ztrim(quot)


def _rescale(row: dict[int, list[int]], up: list[int], down: list[int]) -> dict[int, list[int]]:
    """Multiply every entry by ``up`` and divide it exactly by ``down``."""
    if up == down:
        return row
    if down == [1]:
        return {j: _zmul(p, up) for j, p in row.items()}
    return {j: _zdiv_exact(_zmul(p, up), down) for j, p in row.items()}


def reference_poly_det(matrix: PolyMatrix) -> Poly:
    """Exact determinant by sparse Bareiss elimination on Z[u] coefficient lists.

    An earlier form of the engine's determinant, kept as the reference for
    the integer-packed one: the same skipped rows and telescoped rescale,
    but every product and exact division is a schoolbook loop over
    polynomial coefficients, and step k pivots on the first row that is
    nonzero in column k, where the engine takes the shortest entry of all
    remaining rows and columns.  So agreement also checks that the
    determinant does not depend on the pivot order.

    Each row is first multiplied by the lcm of its coefficient denominators
    so the elimination runs over integer polynomials; the final determinant
    is divided by the accumulated row multipliers.  Rows are stored as maps
    from column to nonzero entry.

    Write P_k for the pivot of step k and P_{-1} = 1.  Step k of Bareiss
    replaces a_ij by (P_k a_ij - a_ik a_kj) / P_{k-1}; a row with a_ik = 0
    is only rescaled by P_k / P_{k-1}.  Such a row is skipped instead, and
    the step ``s`` its stored values belong to is recorded.  Over skipped
    steps s..k-1 the factors telescope to P_{k-1} / P_{s-1}, and folding
    that into the next elimination gives

        a_ij <- (P_k a_ij - a_ik a_kj) / P_{s-1}

    on the stored values; a row that becomes the pivot row, or the last
    row, is brought up to date by P_{k-1} / P_{s-1} alone.  Zero tests do not
    care about the missing nonzero factor, so the pivots and row swaps are
    those of dense Bareiss with first-nonzero pivots.  Every entry of an
    up-to-date row is the same minor of the scaled matrix as in dense
    Bareiss, and a stale row times P_{k-1} / P_{s-1} is that minor too, so
    each division is exact and the determinant is identical.  The update
    touches only columns where the row or the pivot row is nonzero.
    """
    n = matrix.n
    if n == 0:
        return ONE
    scale = 1
    rows: list[dict[int, list[int]]] = []
    for row in matrix.rows:
        mult = 1
        for p in row:
            for c in p.coeffs:
                mult = mult * c.denominator // gcd(mult, c.denominator)
        scale *= mult
        rows.append({j: [int(c * mult) for c in p.coeffs] for j, p in enumerate(row) if p})
    divisors: list[list[int]] = [[1]]  # divisors[k] = P_{k-1}, the divisor of step k
    step = [0] * n  # the step whose values each row holds
    sign = 1
    for k in range(n - 1):
        pivot_row = next((r for r in range(k, n) if k in rows[r]), None)
        if pivot_row is None:
            return ZERO
        if pivot_row != k:
            rows[k], rows[pivot_row] = rows[pivot_row], rows[k]
            step[k], step[pivot_row] = step[pivot_row], step[k]
            sign = -sign
        top = _rescale(rows[k], divisors[k], divisors[step[k]])
        pivot = top.pop(k)
        for i in range(k + 1, n):
            row = rows[i]
            rik = row.pop(k, None)
            if rik is None:
                continue
            divisor = divisors[step[i]]
            for j in row.keys() | top.keys():
                a, b = row.get(j), top.get(j)
                if b is None:
                    num = _zmul(pivot, a)
                elif a is None:
                    num = [-c for c in _zmul(rik, b)]
                else:
                    num = _zsub(_zmul(pivot, a), _zmul(rik, b))
                if num and divisor != [1]:
                    num = _zdiv_exact(num, divisor)
                if num:
                    row[j] = num
                else:
                    row.pop(j, None)
            step[i] = k + 1
        divisors.append(pivot)
    last = _rescale(rows[n - 1], divisors[n - 1], divisors[step[n - 1]])
    det = last.get(n - 1, [])
    if sign < 0:
        det = [-c for c in det]
    return Poly(F(c, scale) for c in det)
