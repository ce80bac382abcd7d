"""Shared test oracles and generators, independent of the engine under test."""

import random
import sys
from dataclasses import replace
from fractions import Fraction as F
from math import gcd, lcm
from pathlib import Path

from hypothesis import strategies as st

from cuspzeta.exact import (
    ONE,
    ZERO,
    Poly,
    PolyMatrix,
    RatFunc,
    poly_det,
    ratfunc_reduce,
)
from cuspzeta.graphs import Cusp, CuspidalGraph, EdgeIndexedGraph, truncate
from cuspzeta.oracle import CycleClass

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))
from workloads import random_graph  # noqa: E402


@st.composite
def small_graphs(draw) -> EdgeIndexedGraph:
    """Up to four vertices with loops and multi-edges; weight 1 makes a zero-weight backtrack.

    Half the draws attach cusps and cut their rays at depth 1..3.
    """
    names = [f"v{i}" for i in range(draw(st.integers(1, 4)))]
    vertex = st.sampled_from(names)
    weight = st.sampled_from([1, 1, 2, 3])
    pairs = draw(st.lists(st.tuples(vertex, vertex, weight, weight), min_size=1, max_size=3))
    core = EdgeIndexedGraph(names, pairs)
    cusps = draw(st.lists(st.builds(Cusp, vertex, st.integers(1, 3), st.integers(2, 4)),
                          max_size=2))
    if not cusps:
        return core
    return truncate(CuspidalGraph(core, tuple(cusps), q=2), draw(st.integers(1, 3)))


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
            row.append(Poly([int(i == j), -adj[i][j], deg[i] - 1 if i == j else 0]))
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
    adj = [[0] * n for _ in range(n)]
    shift = [-1] * n
    for e in c.core.edges:
        adj[pos[e.source]][pos[e.target]] += e.weight
        shift[pos[e.source]] += e.weight
    for cusp in c.cusps:
        shift[pos[cusp.vertex]] += cusp.alpha - cusp.alpha * cusp.ray_q
    rows = [
        [Poly([int(i == j), -adj[i][j], shift[i] if i == j else 0]) for j in range(n)]
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


def is_regular(c: CuspidalGraph, q: int) -> bool:
    """Whether every core vertex has weighted out-degree, plus the alpha of
    each cusp at it, equal to q + 1, and every cusp has ray weight q."""
    degree = dict.fromkeys(c.core.vertices, 0)
    for e in c.core.edges:
        degree[e.source] += e.weight
    for cusp in c.cusps:
        degree[cusp.vertex] += cusp.alpha
    return all(d == q + 1 for d in degree.values()) and all(cusp.ray_q == q for cusp in c.cusps)


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
    """perfbench's dense graph, with one chord's weight a -> b redrawn from 4..6.

    The shape and draws are ``workloads.random_graph(rng, n, 3, cusps)``: an
    n-cycle plus a random 3-regular chord set, weights a shuffled balanced mix
    of 1..3, each cusp with alpha 1..3 and ray_q 2..5 on a distinct vertex.
    The one weight above 3 puts an entry outside that mix into the matrix.
    """
    graph = CuspidalGraph.from_json(random_graph(rng, n, 3, cusps))
    pairs = graph.core.edge_pairs()
    a, b, _, wb = pairs[n]
    pairs[n] = (a, b, rng.choice([4, 5, 6]), wb)
    return replace(graph, core=EdgeIndexedGraph(graph.core.vertices, pairs))


def transfer_rows(g: EdgeIndexedGraph) -> list[dict[int, int]]:
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


def reference_trace_powers(g: EdgeIndexedGraph, up_to: int) -> list[int]:
    """Traces of T^m for m = 1..up_to by dense-row products.

    The oracle's previous loop, kept as the reference for its packed rows:
    row i of T^(m+1) is the sum over k of T^m_ik times row k of T.
    """
    rows = transfer_rows(g)
    n = len(rows)
    dense = [[0] * n for _ in range(n)]
    for i, row in enumerate(rows):
        for j, w in row.items():
            dense[i][j] += w
    traces = [sum(dense[i][i] for i in range(n))]
    for _ in range(up_to - 1):
        nxt = []
        for mrow in dense:
            acc = [0] * n
            for k, coeff in enumerate(mrow):
                if coeff:
                    for j, w in rows[k].items():
                        acc[j] += coeff * w
            nxt.append(acc)
        dense = nxt
        traces.append(sum(dense[i][i] for i in range(n)))
    return traces


def reference_cycle_classes(
    g: EdgeIndexedGraph, max_length: int, pruned: bool = True
) -> tuple[list[CycleClass], int]:
    """Cycle classes by a plain tuple-stack search, and a count of visited paths.

    The search walks every path whose edges are not below its start; every
    path is a fresh tuple, every closed walk goes into a set as its minimal
    rotation, and class weights are products taken after sorting.
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
        weight = 1
        for i in range(length):
            weight *= weight_of[cycle[i]][cycle[(i + 1) % length]]
        period = next(p for p in range(1, length + 1)
                      if length % p == 0 and cycle == cycle[p:] + cycle[:p])
        classes.append(CycleClass(length, weight, period))
    return classes, visited


def reference_euler_product(classes: list[CycleClass], order: int) -> tuple[int, ...]:
    """prod over primitive classes of 1/(1 - w u^l) through u^order, one class at a time."""
    out = [1] + [0] * order
    for cls in classes:
        if cls.primitive_length == cls.length <= order:
            for m in range(cls.length, order + 1):
                out[m] += cls.weight * out[m - cls.length]
    return tuple(out)


def _divmod_over_q(a, b) -> tuple[list[F], list[F]]:
    """Long division of rational coefficient lists, in Fractions: (q, r), deg r < deg b."""
    rem = [F(c) for c in a]
    db, lead = len(b) - 1, b[-1]
    quot = [F(0)] * max(len(rem) - db, 0)
    for k in range(len(quot) - 1, -1, -1):
        q = quot[k] = F(rem[db + k], lead)
        if q:
            for j, c in enumerate(b):
                rem[k + j] -= q * c
    rem = rem[:db]
    while rem and rem[-1] == 0:
        rem.pop()
    return quot, rem


def _as_ints(cs: list[F]) -> list[int]:
    """Integral rationals as ints; a ValueError for one that is not integral."""
    for c in cs:
        if c.denominator != 1:
            raise ValueError(f"coefficient {c} is not an integer")
    return [c.numerator for c in cs]


def poly_divmod(a: Poly, b: Poly) -> tuple[Poly, Poly]:
    """Long division over Q: (q, r) with a = q b + r and deg r < deg b.

    Both must be integral, as they are whenever b's leading coefficient is
    +-1 or divides the result exactly; otherwise a ValueError.
    """
    if b.is_zero():
        raise ZeroDivisionError("division by zero polynomial")
    quot, rem = _divmod_over_q(a.coeffs, b.coeffs)
    return Poly(_as_ints(quot)), Poly(_as_ints(rem))


def poly_quotient(a: Poly, b: Poly) -> Poly:
    """a / b when b divides a over Q; a ValueError otherwise."""
    q, r = poly_divmod(a, b)
    if r:
        raise ValueError("inexact polynomial division")
    return q


def _integer_multiple(cs) -> list[int]:
    """Rationals cs times the lcm of their denominators, over the (positive)
    gcd of the products."""
    scale = lcm(*(F(c).denominator for c in cs))
    ints = [int(c * scale) for c in cs]
    content = gcd(*ints)
    return [c // content for c in ints]


def poly_primitive(p) -> Poly:
    """The primitive integer polynomial with a positive lead and the roots of
    p, a Poly or a list of rationals."""
    ints = _integer_multiple(getattr(p, "coeffs", p))
    return Poly(ints if not ints or ints[-1] > 0 else [-c for c in ints])


def schoolbook_product(a: Poly, b: Poly) -> Poly:
    """a b by the schoolbook convolution, the reference for Poly's packed product."""
    return Poly(_zmul(list(a.coeffs), list(b.coeffs)))


def schoolbook_power(p: Poly, n: int) -> Poly:
    """p^n as n schoolbook products from the constant 1."""
    out = [1]
    for _ in range(n):
        out = _zmul(out, list(p.coeffs))
    return Poly(out)


def poly_add(a: Poly, b: Poly) -> Poly:
    return Poly([a[i] + b[i] for i in range(max(len(a.coeffs), len(b.coeffs)))])


def poly_sub(a: Poly, b: Poly) -> Poly:
    return poly_add(a, b * -1)


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
    """Euclid's gcd over Q, with Fraction long division, made primitive."""
    a, b = list(a.coeffs), list(b.coeffs)
    while b:
        a, b = b, _divmod_over_q(a, b)[1]
    return poly_primitive(a)


def reference_ratfunc_reduce(num: Poly, den: Poly) -> RatFunc:
    """num/den in lowest terms in Z[u], by way of Q.

    Divide both by their gcd over Q, then by den(0), or by den's leading
    coefficient when den(0) = 0, all in Fractions; then clear the
    denominators of both together and divide out their common content.
    The gcd here is Euclid's, not the engine's.
    """
    if den.is_zero():
        raise ZeroDivisionError("rational function with zero denominator")
    if num.is_zero():
        return RatFunc(ZERO, ONE)
    g = reference_poly_gcd(num, den).coeffs
    num, den = _divmod_over_q(num.coeffs, g)[0], _divmod_over_q(den.coeffs, g)[0]
    lowest = den[0] or den[-1]
    ints = _integer_multiple([c / lowest for c in num + den])
    return RatFunc(Poly(ints[:len(num)]), Poly(ints[len(num):]))


def reference_square_free_parts(p: Poly) -> list[tuple[Poly, int]]:
    """Yun decomposition with primitive parts, on :class:`Poly`.

    The split's previous form, kept as the reference for the one on integer
    lists: every derivative, division and gcd runs on :class:`Poly`, each
    division is the long division over Q above, and its quotient is
    integral because every divisor is a primitive gcd (Gauss's lemma).
    Every gcd is Euclid's (:func:`reference_poly_gcd`), not the engine's.
    """
    if p.degree < 1:
        return []
    dp = poly_derivative(p)
    g = reference_poly_gcd(p, dp)
    if g.degree == 0:
        return [(poly_primitive(p), 1)]
    w = poly_quotient(p, g)
    z = poly_sub(poly_quotient(dp, g), poly_derivative(w))
    parts = []
    m = 1
    while w.degree > 0:
        f = reference_poly_gcd(w, z)
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
        c = F(rem[m], d0)
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

    Rows are stored as maps from column to nonzero entry.

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
    up-to-date row is the same minor of the matrix as in dense
    Bareiss, and a stale row times P_{k-1} / P_{s-1} is that minor too, so
    each division is exact and the determinant is identical.  The update
    touches only columns where the row or the pivot row is nonzero.
    """
    n = matrix.n
    if n == 0:
        return ONE
    rows = [{j: list(p.coeffs) for j, p in enumerate(row) if p} for row in matrix.rows]
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
    return Poly(det)
