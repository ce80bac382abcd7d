"""Tests for the zeta engine: transfer matrices, cusp elimination, counting."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings

from cuspzeta.exact import (
    ONE, Poly, RatFunc, log_derivative_series, poly_det, ratfunc_reduce, series_expand,
)
from cuspzeta.families import chain, loop_family, pgl2, star
from cuspzeta.graphs import (
    BudgetExceededError, Cusp, CuspidalGraph, EdgeIndexedGraph, relabel, truncate,
)
from cuspzeta.oracle import _successor_rows, trace_powers
from cuspzeta.zeta import (
    MAX_SELBERG_DEGREE, bass_ihara_zeta, build_effective, selberg_zeta, vertex_side_zeta,
)
from helpers import (
    poly_add, poly_eval, poly_sub, schoolbook_power, small_graphs, weighted_vertex_side_zeta,
)


def rf(num, den) -> RatFunc:
    return ratfunc_reduce(Poly(num), Poly(den))


def triangle() -> EdgeIndexedGraph:
    return EdgeIndexedGraph(
        ["x", "y", "z"], [("x", "y", 1, 1), ("y", "z", 1, 1), ("z", "x", 1, 1)]
    )


def complete_graph(n: int) -> EdgeIndexedGraph:
    names = [f"v{i}" for i in range(n)]
    pairs = [(names[i], names[j], 1, 1) for i in range(n) for j in range(i + 1, n)]
    return EdgeIndexedGraph(names, pairs)


def transfer(g: EdgeIndexedGraph):
    """I - uT of a finite graph: the effective matrix with no cusps."""
    return build_effective(CuspidalGraph(g, (), 1))


def cusp_rows(c: CuspidalGraph, idx: int) -> tuple[int, int]:
    """Rows of cusp ``idx``'s outward and inward edges, after the core edge rows."""
    o = len(c.core.edges) + 2 * idx
    return o, o + 1


def three_term(g: EdgeIndexedGraph) -> RatFunc:
    """(1 - u^2)^chi / det(I - uA + u^2 Q) with chi = |V| - |E|, from the vertex side."""
    from helpers import vertex_side_determinant

    chi = len(g.vertices) - len(g.edges) // 2
    one_minus_u2 = Poly([1, 0, -1])
    if chi >= 0:
        return ratfunc_reduce(one_minus_u2**chi, vertex_side_determinant(g))
    return ratfunc_reduce(ONE, vertex_side_determinant(g) * one_minus_u2 ** (-chi))


def series_exp(coeffs: list[F], order: int) -> list[F]:
    """exp of a power series with zero constant term, truncated; test oracle."""
    # exp(S)' = S' exp(S) gives the recurrence below
    out = [F(0)] * (order + 1)
    out[0] = F(1)
    for m in range(1, order + 1):
        acc = F(0)
        for k in range(1, m + 1):
            if k <= order and coeffs[k]:
                acc += k * coeffs[k] * out[m - k]
        out[m] = acc / m
    return out


# --- build_effective without cusps: I - uT -----------------------------------


def test_transfer_triangle_is_permutation_like():
    t = transfer(triangle())
    for row in t.entries.rows:
        off_diag = [p for p in row if p.degree == 1]
        assert len(off_diag) == 1
        assert off_diag[0] == Poly([0, -1])


def test_transfer_backtrack_weight_on_weighted_path():
    g = EdgeIndexedGraph(["x", "y"], [("x", "y", 4, 3)])
    t = transfer(g)
    pos = {eid: i for i, eid in enumerate(g.canonical_edge_order())}
    outward = next(e.id for e in g.edges if e.source == "x")
    inward = g.edges[outward].inverse
    # the inward edge can only backtrack, with weight 4 - 1
    assert t.entries.rows[pos[inward]][pos[outward]] == Poly([0, -3])
    # the outward edge can only backtrack, with weight 3 - 1
    assert t.entries.rows[pos[outward]][pos[inward]] == Poly([0, -2])


def test_transfer_edge_into_leaf_with_unit_inverse_has_unit_row():
    g = EdgeIndexedGraph(
        ["x", "y", "z"], [("x", "y", 2, 2), ("y", "z", 2, 1)]
    )
    t = transfer(g)
    into_leaf = next(e.id for e in g.edges if e.target == "z")
    i = g.canonical_edge_order().index(into_leaf)
    row = t.entries.rows[i]
    assert row[i] == ONE
    assert all(p.is_zero() for j, p in enumerate(row) if j != i)


def test_transfer_matches_oracle_successor_rows(rng):
    # unit weights: every backtrack has weight 0 and is absent from the oracle's rows
    from helpers import random_min_degree_two_graph

    for _ in range(20):
        g = random_min_degree_two_graph(rng, max_vertices=8)
        rows = _successor_rows(g)
        expected = [[ONE if i == j else Poly() for j in range(len(rows))] for i in range(len(rows))]
        for i, row in enumerate(rows):
            for j, w in row:
                expected[i][j] = poly_sub(expected[i][j], Poly([0, w]))
        assert [list(r) for r in transfer(g).entries.rows] == expected


# --- build_effective ---------------------------------------------------------


def test_effective_chain_matrix_entries():
    q, k = 3, 4
    c = chain(q, k)
    eff = build_effective(c)
    assert cusp_rows(c, 0) == (0, 1)
    assert eff.entries.rows == ((Poly([1, 0, -q]), Poly([0, -(q - 1)])),
                                (Poly([0, -(k - 1)]), ONE))
    assert poly_det(eff.entries) == Poly([1, 0, -(q * k - k + 1)])


def test_effective_star_couples_cusps_through_hub():
    q, a1, a2 = 3, 2, 2
    c = star(q, (a1, a2))
    eff = build_effective(c)
    assert eff.entries.n == 4
    i1, o2 = cusp_rows(c, 0)[1], cusp_rows(c, 1)[0]
    assert eff.entries.rows[i1][o2] == Poly([0, -a2])
    k = a1 + a2
    assert poly_det(eff.entries) == Poly([1, 0, -1]) * Poly([1, 0, -(k * q - k + 1)])


def test_effective_unit_alpha_has_no_backtrack_entry():
    c = chain(3, 1)
    o, i = cusp_rows(c, 0)
    assert build_effective(c).entries.rows[i][o].is_zero()


def test_effective_includes_core_rows():
    c = loop_family(3, 1)
    eff = build_effective(c)
    assert eff.entries.n == len(c.core.edges) + 2
    o, _ = cusp_rows(c, 0)
    assert eff.entries.rows[o][o] == Poly([1, 0, -3])


# --- bass_ihara_zeta ---------------------------------------------------------


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_zeta_pgl2_closed_form(q):
    assert bass_ihara_zeta(pgl2(q)) == rf([1, 0, -q], [1, 0, -q * q])


def test_zeta_star_closed_form():
    q, parts = 3, (2, 2)
    k, n = sum(parts), len(parts)
    num = Poly([1, 0, -q]) ** n
    den = (Poly([1, -1]) * Poly([1, 1])) ** (n - 1) * Poly([1, 0, -(k * q - k + 1)])
    assert bass_ihara_zeta(star(q, parts)) == ratfunc_reduce(num, den)


def test_zeta_finite_tree_is_one():
    tree = EdgeIndexedGraph(
        ["r", "s", "t"], [("r", "s", 1, 1), ("r", "t", 1, 1)]
    )
    assert bass_ihara_zeta(tree) == RatFunc(ONE, ONE)


def test_zeta_result_records_raw_determinant():
    assert poly_det(build_effective(chain(2, 3)).entries) == Poly([1, 0, -4])  # qk - k + 1 = 4


# --- selberg zeta ------------------------------------------------------------


def test_selberg_pgl2_exponent():
    graph = pgl2(3)
    assert bass_ihara_zeta(graph) == rf([1, 0, -3], [1, 0, -9])
    assert graph.central_order == 2


def test_selberg_chain_equals_bass_ihara():
    graph = chain(3, 2)
    assert graph.central_order == 1
    z = bass_ihara_zeta(graph)
    assert selberg_zeta(z, graph.central_order) == z


def test_selberg_expansion_with_trivial_center():
    z = bass_ihara_zeta(loop_family(3, 1))
    assert selberg_zeta(z, 1) == z


def test_selberg_expansion_squares_the_base():
    z = bass_ihara_zeta(pgl2(3))
    expanded = selberg_zeta(z, pgl2(3).central_order)
    assert expanded.num == z.num ** 2
    assert expanded.den == z.den ** 2


def test_selberg_at_the_cap_expands_the_power():
    # bass_ihara of chain(3, 4) is (1 - 3u^2) / (1 - 9u^2): order 400 is degree 800
    assert MAX_SELBERG_DEGREE == 800
    expanded = selberg_zeta(bass_ihara_zeta(chain(3, 4)), 400)
    assert expanded.num == schoolbook_power(Poly([1, 0, -3]), 400)
    assert expanded.den == schoolbook_power(Poly([1, 0, -9]), 400)


def test_selberg_past_the_cap_raises_before_the_power(monkeypatch):
    z = bass_ihara_zeta(chain(3, 4))

    def no_power(p, n):
        raise AssertionError("the power was computed")

    monkeypatch.setattr(Poly, "__pow__", no_power)
    with pytest.raises(BudgetExceededError, match="Selberg degree 802 exceeds the cap 800"):
        selberg_zeta(z, 401)


def test_central_order_zero_is_rejected():
    # selberg_zeta raises the base to central_order, so it must be >= 1
    with pytest.raises(ValueError, match="central_order"):
        CuspidalGraph(pgl2(3).core, (), 3, central_order=0)


# --- three-term determinant formula ------------------------------------------


def test_three_term_triangle_matches_edge_determinant():
    g = triangle()
    lhs = three_term(g)
    rhs = bass_ihara_zeta(g)
    assert lhs == rhs
    assert lhs.den == Poly([1, 0, 0, -1]) ** 2  # two directed triangles


def test_three_term_single_edge_is_one():
    g = EdgeIndexedGraph(["x", "y"], [("x", "y", 1, 1)])
    assert three_term(g) == bass_ihara_zeta(g) == RatFunc(ONE, ONE)


def test_three_term_complete_graph():
    g = complete_graph(4)
    assert three_term(g) == bass_ihara_zeta(g)


def test_bass_identity_on_random_graphs(rng):
    # det(I - uT) == (1-u^2)^(|E| - |V|) det(I - uA + u^2 Q) for min degree 2
    from helpers import random_min_degree_two_graph, vertex_side_determinant

    one_minus_u2 = Poly([1, 0, -1])
    for _ in range(10):
        g = random_min_degree_two_graph(rng, max_vertices=7)
        edge_det = poly_det(transfer(g).entries)
        chi = len(g.vertices) - len(g.edges) // 2
        assert chi <= 0
        assert edge_det == one_minus_u2 ** (-chi) * vertex_side_determinant(g)


@pytest.mark.parametrize("q", [3, 4, 5])
def test_weighted_vertex_side_matches_engine_on_loop_family(q):
    for n in range(1, 25):
        c = loop_family(q, n)
        assert weighted_vertex_side_zeta(c) == vertex_side_zeta(c) == bass_ihara_zeta(c), n


FAMILY_GRAPHS = {
    "pgl2(2)": pgl2(2),
    "pgl2(5)": pgl2(5),
    "chain(3,4)": chain(3, 4),
    "chain(5,2)": chain(5, 2),
    "star(3,(2,2))": star(3, (2, 2)),
    "star(3,(1,1,1))": star(3, (1, 1, 1)),
    "star(4,(1,2,2))": star(4, (1, 2, 2)),
    "loop_family(3,2)": loop_family(3, 2),
}


@pytest.mark.parametrize("name", sorted(FAMILY_GRAPHS))
def test_weighted_vertex_side_matches_engine_on_fixture_families(name):
    graph = FAMILY_GRAPHS[name]
    assert weighted_vertex_side_zeta(graph) == vertex_side_zeta(graph) == bass_ihara_zeta(graph)


@pytest.mark.parametrize("n, cusps, seed", [(10, 2, 1), (10, 1, 2), (12, 1, 3), (12, 2, 4)])
def test_weighted_vertex_side_matches_engine_on_dense_graphs(n, cusps, seed):
    # 52- to 64-row edge-side matrices with heavy fill-in, where the
    # shortest-entry pivot rule departs furthest from the first nonzero one
    from helpers import random_dense_cuspidal_graph

    graph = random_dense_cuspidal_graph(random.Random(seed), n, cusps)
    assert weighted_vertex_side_zeta(graph) == vertex_side_zeta(graph) == bass_ihara_zeta(graph)


# --- the vertex side with chains contracted ----------------------------------


def cycle(names: list[str], weights: list[tuple[int, int]]) -> list[tuple[str, str, int, int]]:
    """Edge pairs around ``names`` in order, closing back at the first."""
    return [(a, b, *w) for a, b, w in zip(names, names[1:] + names[:1], weights)]


def theta_graph(w: int) -> EdgeIndexedGraph:
    """Branch vertices a and b joined by chains of one, two and three interior vertices."""
    pairs = [("a", "x", w, 2), ("x", "b", 1, w), ("a", "y1", 3, 1), ("y1", "y2", w, w),
             ("y2", "b", 2, 3), ("a", "z1", 1, 1), ("z1", "z2", 2, 1), ("z2", "z3", 1, w),
             ("z3", "b", w, 2)]
    return EdgeIndexedGraph(["a", "b", "x", "y1", "y2", "z1", "z2", "z3"], pairs)


VERTEX_SIDE_SHAPES = {
    "bare 7-cycle": EdgeIndexedGraph(
        [f"v{i}" for i in range(7)],
        cycle([f"v{i}" for i in range(7)],
              [(1, 2), (3, 1), (1, 1), (2, 2), (1, 3), (2, 1), (1, 1)]),
    ),
    "theta": theta_graph(2),
    "theta, weights 10**100": theta_graph(10**100),
    "cusps at chain ends": CuspidalGraph(
        EdgeIndexedGraph(["c1", "x", "c2", "y", "z"],
                         cycle(["c1", "x", "c2", "y", "z"],
                               [(1, 2), (2, 1), (1, 1), (3, 1), (1, 2)])),
        (Cusp("c1", 2, 3), Cusp("c2", 1, 2)), 3,
    ),
    "parallel edges through a degree-2 vertex": CuspidalGraph(
        EdgeIndexedGraph(["a", "b", "p"], [("a", "b", 2, 1), ("b", "p", 1, 2), ("p", "b", 3, 1)]),
        (Cusp("a", 1, 3),), 3,
    ),
    "self-loop at a branch vertex": EdgeIndexedGraph(
        ["a", "x", "y"], [("a", "a", 2, 1)] + cycle(["a", "x", "y"], [(1, 2), (2, 2), (1, 3)])
    ),
    "pendant path": EdgeIndexedGraph(
        ["a", "b", "c", "p1", "p2"],
        cycle(["a", "b", "c"], [(1, 2), (2, 1), (1, 1)]) + [("a", "p1", 2, 1), ("p1", "p2", 1, 3)],
    ),
    "pendant path to a cusp": CuspidalGraph(
        EdgeIndexedGraph(["a", "p1", "p2", "p3"], [("a", "a", 1, 1), ("a", "p1", 2, 1),
                                                   ("p1", "p2", 1, 3), ("p2", "p3", 2, 2)]),
        (Cusp("p3", 2, 3),), 3,
    ),
    "digon": EdgeIndexedGraph(["u", "v"], [("u", "v", 1, 2), ("v", "u", 3, 1)]),
    "digon beside an isolated vertex": EdgeIndexedGraph(
        ["u", "v", "w"], [("u", "v", 1, 2), ("v", "u", 3, 1)]
    ),
    "single vertex": EdgeIndexedGraph(["v"], []),
    "single vertex with cusps": star(4, (2, 3)),
}


@pytest.mark.parametrize("name", sorted(VERTEX_SIDE_SHAPES))
def test_vertex_side_matches_engine_on_hand_built_shapes(name):
    graph = VERTEX_SIDE_SHAPES[name]
    if isinstance(graph, EdgeIndexedGraph):
        graph = CuspidalGraph(graph, (), 1)
    assert weighted_vertex_side_zeta(graph) == vertex_side_zeta(graph) == bass_ihara_zeta(graph)


@pytest.mark.parametrize("q", [3, 4, 5, 6, 7])
def test_vertex_side_matches_engine_on_loop_family(q):
    for n in (1, 2, 48):
        c = loop_family(q, n)
        assert vertex_side_zeta(c) == bass_ihara_zeta(c), n


@given(g=small_graphs())
@settings(max_examples=150, deadline=None)
def test_vertex_side_matches_engine_on_small_graphs(g):
    # loops, multi-edges, pendant rays and disconnected parts
    reference = weighted_vertex_side_zeta(CuspidalGraph(g, (), 1))
    assert reference == vertex_side_zeta(g) == bass_ihara_zeta(g)


def test_vertex_side_contracts_a_long_cycle_to_one_row(monkeypatch):
    # without contraction the 193-row M of this graph takes seconds; a lost
    # contraction would pass every equality test and only be slow
    from cuspzeta import zeta

    c = loop_family(3, 96)
    expected = bass_ihara_zeta(c)
    real, sizes = zeta.poly_det, []

    def recording(matrix):
        sizes.append(matrix.n)
        return real(matrix)

    monkeypatch.setattr(zeta, "poly_det", recording)
    assert vertex_side_zeta(c) == expected
    assert sizes == [1]


# --- counting series ---------------------------------------------------------


def test_counting_pgl2_2():
    assert log_derivative_series(bass_ihara_zeta(pgl2(2)), 6)[1:] == (0, 4, 0, 24, 0, 112)


def test_counting_finite_tree_is_zero():
    tree = EdgeIndexedGraph(["r", "s"], [("r", "s", 1, 1)])
    assert all(x == 0 for x in log_derivative_series(bass_ihara_zeta(tree), 8)[1:])


def test_counting_chain_3_4():
    n_values = log_derivative_series(bass_ihara_zeta(chain(3, 4)), 4)[1:]
    assert n_values[1] == 2 * (9 - 3)
    assert n_values[3] == 2 * (81 - 9)


def test_counting_values_are_nonnegative_integers():
    for c in (pgl2(2), chain(4, 3), star(5, (2, 2, 1)), loop_family(3, 2)):
        for x in log_derivative_series(bass_ihara_zeta(c), 10)[1:]:
            assert x.denominator == 1 and x >= 0


# --- cross-module invariants -------------------------------------------------


def test_exp_trace_identity_on_finite_graphs():
    order = 12
    for g in (triangle(), complete_graph(4), truncate(chain(2, 3), 3)):
        det = poly_det(transfer(g).entries)
        lhs = series_expand(ratfunc_reduce(ONE, det), order)
        traces = trace_powers(g, order)
        rhs = series_exp([F(0)] + [F(t, m) for m, t in enumerate(traces, start=1)], order)
        assert list(lhs) == rhs


def test_zeta_invariant_under_relabeling(rng):
    for c in (loop_family(3, 2), star(3, (2, 1)), loop_family(5, 1)):
        base = bass_ihara_zeta(c)
        for _ in range(5):
            names = list(c.core.vertices)
            shuffled = names[:]
            rng.shuffle(shuffled)
            assert bass_ihara_zeta(relabel(c, dict(zip(names, shuffled)))) == base


def test_biregular_cusps_match_trace_oracle():
    # mixed ray weights across cusps on a two-vertex core
    from cuspzeta.graphs import Cusp, CuspidalGraph

    core = EdgeIndexedGraph(["p", "r"], [("p", "r", 2, 3)])
    c = CuspidalGraph(
        core, (Cusp("p", 2, 4), Cusp("r", 1, 2), Cusp("r", 2, 5)), q=4, central_order=1
    )
    engine = log_derivative_series(bass_ihara_zeta(c), 10)[1:]
    assert list(engine) == list(trace_powers(c, 10))
    assert engine[1] == 18


def test_zeta_value_one_at_origin():
    for c in (pgl2(2), chain(3, 3), star(5, (4, 2)), loop_family(3, 3)):
        z = bass_ihara_zeta(c)
        assert z.num[0] == 1 and z.den[0] == 1


def test_regular_families_have_pole_at_reciprocal_q():
    cases = [(pgl2(3), 3), (star(3, (2, 2)), 3), (loop_family(3, 2), 3), (pgl2(5), 5)]
    for c, q in cases:
        z = bass_ihara_zeta(c)
        assert poly_eval(z.den, F(1, q)) == 0
        assert poly_eval(z.num, F(1, q)) != 0


@pytest.mark.parametrize("q,n", [(3, 1), (3, 2), (3, 3), (5, 2), (3, 48), (5, 24)])
def test_loop_family_determinant_product_form(q, n):
    """Regression: the raw loop-family determinant factors into a fixed product.

    At (3, 48) and (5, 24) the determinant, packed into one integer by
    ``poly_det``, runs to over 4300 decimal digits, Python's default limit
    for int-str conversion.

    det = (1-u^2)(1-qu) * [(1+u) sum_{k<n} q^k u^(2k) + q^n u^(2n)]
                        * [1 + (q-1) sum_{k<=n} q^k u^(2k+1) - q^n u^(2n+1)]
    """
    ring_sum = [0] * (2 * n)
    for k in range(n):
        ring_sum[2 * k] = q**k
    even_factor = poly_add(Poly([1, 1]) * Poly(ring_sum), Poly([0] * (2 * n) + [q**n]))
    odd_coeffs = [0] * (2 * n + 2)
    odd_coeffs[0] = 1
    for k in range(n + 1):
        odd_coeffs[2 * k + 1] += (q - 1) * q**k
    odd_coeffs[2 * n + 1] -= q**n
    expected = Poly([1, 0, -1]) * Poly([1, -q]) * even_factor * Poly(odd_coeffs)
    assert poly_det(build_effective(loop_family(q, n)).entries) == expected
