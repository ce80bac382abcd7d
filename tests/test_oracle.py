"""Tests for the brute-force oracle: traces, cycle classes, Euler products."""

import gc
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspzeta.exact import ONE, ratfunc_reduce, series_expand, Poly, poly_det
from cuspzeta import oracle
from cuspzeta.families import chain, loop_family, pgl2, star
from cuspzeta.graphs import BudgetExceededError, Cusp, CuspidalGraph, EdgeIndexedGraph, truncate
from cuspzeta.oracle import (
    MAX_TRACE_ORDER,
    enumerate_primitive_cycles,
    euler_product_series,
    trace_powers,
)
from cuspzeta.zeta import bass_ihara_zeta, build_effective
from helpers import reference_cycle_classes, reference_euler_product, reference_trace_powers


def enumerate_within(g, max_length, budget):
    """enumerate_primitive_cycles with MAX_VISITED_PATHS set to ``budget``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(oracle, "MAX_VISITED_PATHS", budget)
        return enumerate_primitive_cycles(g, max_length)


def triangle() -> EdgeIndexedGraph:
    return EdgeIndexedGraph(
        ["x", "y", "z"], [("x", "y", 1, 1), ("y", "z", 1, 1), ("z", "x", 1, 1)]
    )


def complete_graph(n: int) -> EdgeIndexedGraph:
    names = [f"v{i}" for i in range(n)]
    pairs = [(names[i], names[j], 1, 1) for i in range(n) for j in range(i + 1, n)]
    return EdgeIndexedGraph(names, pairs)


def path_graph(n: int) -> EdgeIndexedGraph:
    names = [f"p{i}" for i in range(n)]
    pairs = [(names[i], names[i + 1], 1, 1) for i in range(n - 1)]
    return EdgeIndexedGraph(names, pairs)


# --- trace powers ------------------------------------------------------------


def test_triangle_traces():
    assert trace_powers(triangle(), 3)[2] == 6  # two directed triangles, three marks each
    assert trace_powers(triangle(), 2)[1] == 0


def test_k4_trace_three():
    # 4 triangles x 2 orientations x 3 starting edges
    assert trace_powers(complete_graph(4), 3)[2] == 24


def test_trace_powers_prefix_consistency():
    g = complete_graph(4)
    up = trace_powers(g, 6)
    for m in (1, 3, 6):
        assert trace_powers(g, m)[m - 1] == up[m - 1]


def test_trace_power_fractional_weights():
    # weights are indices of finite groups: a fractional one, and with it a
    # negative backtrack move w - 1, is refused by the graph before any
    # oracle sees it
    for vertices, pairs in [
        (["x", "y"], [("x", "y", F(3, 2), 2)]),
        (["x", "y", "z"], [("x", "y", F(1, 2), 3), ("y", "z", F(1, 3), 2), ("z", "x", 2, F(1, 2)),
                           ("x", "x", 1, 2)]),
        (["x", "y", "z"], [("x", "y", F(1, 2), 2), ("y", "z", 2, F(1, 3)), ("z", "x", 3, 3)]),
    ]:
        with pytest.raises(ValueError, match="edge weight must be an integer >= 1"):
            EdgeIndexedGraph(vertices, pairs)


def test_cuspidal_traces_of_pgl2_2():
    assert trace_powers(pgl2(2), 2)[1] == 4
    assert trace_powers(pgl2(2), 3)[2] == 0


def test_cuspidal_trace_depth_stability():
    for c in (pgl2(2), chain(3, 2), star(3, (2, 1)), loop_family(3, 1)):
        for m in (2, 5, 8):
            base = trace_powers(c, m)[m - 1]
            deeper = trace_powers(truncate(c, m // 2 + 2), m)[m - 1]
            assert base == deeper


def test_trace_order_past_the_budget_raises():
    with pytest.raises(BudgetExceededError, match="trace order"):
        trace_powers(loop_family(3, 12), MAX_TRACE_ORDER + 1)
    with pytest.raises(BudgetExceededError):
        trace_powers(EdgeIndexedGraph(["x"], []), MAX_TRACE_ORDER + 1)


# --- cycle enumeration -------------------------------------------------------


def test_triangle_primitive_classes():
    classes = enumerate_primitive_cycles(triangle(), 3)
    assert classes.total() == 2
    for cls in classes:
        assert cls.length == 3
        assert cls.weight == 1
        assert cls.primitive_length == 3  # primitive: 3 distinct closed paths


def test_path_graph_has_no_weighted_cycles():
    assert enumerate_primitive_cycles(path_graph(4), 8) == Counter()


def test_enumeration_includes_powers():
    classes = enumerate_primitive_cycles(triangle(), 6)
    powers = [c for c in classes.elements() if c.primitive_length < c.length]
    assert len(powers) == 2
    assert all(c.length == 6 and c.primitive_length == 3 for c in powers)


def test_enumerated_classes_reproduce_traces():
    g = truncate(chain(2, 3), 4)
    bound = 6
    classes = enumerate_primitive_cycles(g, bound)
    for m in range(1, bound + 1):
        total = sum(c.primitive_length * c.weight for c in classes.elements() if c.length == m)
        assert total == trace_powers(g, m)[m - 1], m


def test_cuspidal_enumeration_depth_stability():
    for c in (pgl2(2), chain(3, 2), star(3, (2, 1)), loop_family(3, 1)):
        for length in (2, 5, 8):
            base = enumerate_primitive_cycles(c, length)
            deeper = enumerate_primitive_cycles(truncate(c, length // 2 + 2), length)
            assert base == deeper
            assert base == enumerate_primitive_cycles(truncate(c, length // 2 + 1), length)


def test_enumeration_rejects_large_bound():
    with pytest.raises(BudgetExceededError):
        enumerate_primitive_cycles(triangle(), 15)


def test_enumeration_rejects_exhausted_budget():
    with pytest.raises(BudgetExceededError):
        enumerate_within(complete_graph(5), 10, 50)


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


@given(g=small_graphs(), max_length=st.integers(1, 6))
@settings(max_examples=80, deadline=None)
def test_enumeration_matches_tuple_stack_reference(g, max_length):
    expected, visited = reference_cycle_classes(g, max_length)
    classes = enumerate_within(g, max_length, visited)
    assert classes == Counter(expected)
    assert [type(c.weight) for c in classes] == [int] * len(classes)
    with pytest.raises(BudgetExceededError):
        enumerate_within(g, max_length, visited - 1)
    series = euler_product_series(classes, max_length)
    assert series == reference_euler_product(expected, max_length)
    assert all(type(c) is int for c in series)


@given(g=small_graphs(), up_to=st.integers(1, 20))
@settings(max_examples=80, deadline=None)
def test_trace_powers_match_dense_row_reference(g, up_to):
    assert trace_powers(g, up_to) == reference_trace_powers(g, up_to)


@pytest.mark.parametrize(
    "g",
    [
        # backtracks onto the weight-1 edges have weight 0, and are no moves
        EdgeIndexedGraph(
            ["x", "y", "z"],
            [("x", "y", 1, 3), ("y", "z", 1, 2), ("z", "x", 2, 1), ("x", "x", 1, 2)],
        ),
        # T = [[3, 0], [2, 1]]: (T^m)_00 = 3^m = ||T||^m meets the slot bound
        EdgeIndexedGraph(["x"], [("x", "x", 3, 1)]),
    ],
    ids=["zero-backtracks", "tight-bound"],
)
def test_trace_powers_match_reference_at_the_budget(g):
    assert trace_powers(g, MAX_TRACE_ORDER) == reference_trace_powers(g, MAX_TRACE_ORDER)


@pytest.mark.parametrize(
    "g, bound", [(truncate(chain(2, 3), 4), 8), (complete_graph(4), 7), (triangle(), 14)]
)
def test_budget_boundary_is_the_reference_visited_count(g, bound):
    expected, visited = reference_cycle_classes(g, bound)
    assert enumerate_within(g, bound, visited) == Counter(expected)
    with pytest.raises(BudgetExceededError, match=f"exceeded {visited - 1} visited"):
        enumerate_within(g, bound, visited - 1)


@pytest.mark.parametrize(
    "g",
    [truncate(pgl2(2), 6), truncate(star(3, (2, 1)), 6), truncate(loop_family(3, 2), 6)],
    ids=["pgl2", "star", "loops"],
)
def test_pruned_search_visits_under_half_the_unpruned_paths(g):
    expected, visited = reference_cycle_classes(g, 10)
    _, unpruned = reference_cycle_classes(g, 10, pruned=False)
    assert 2 * visited < unpruned
    assert enumerate_within(g, 10, visited) == Counter(expected)
    with pytest.raises(BudgetExceededError):
        enumerate_within(g, 10, visited - 1)


def test_cycle_classes_are_hashable_and_equal_to_the_reference():
    g = truncate(chain(3, 2), 4)
    classes = enumerate_primitive_cycles(g, 8)
    expected, _ = reference_cycle_classes(g, 8)
    assert classes and classes == Counter(expected)


def test_enumeration_leaves_no_reference_cycles():
    g = truncate(pgl2(2), 5)
    gc.collect()
    gc.disable()
    try:
        classes = enumerate_primitive_cycles(g, 10)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert classes


# --- Euler products ----------------------------------------------------------


def test_triangle_euler_product():
    classes = enumerate_primitive_cycles(triangle(), 8)
    product = euler_product_series(classes, 8)
    expected = series_expand(ratfunc_reduce(ONE, Poly([1, 0, 0, -1]) ** 2), 8)
    assert product == expected


def test_empty_class_list_gives_constant_one():
    series = euler_product_series(Counter(), 5)
    assert series == (1, 0, 0, 0, 0, 0)


def test_pgl2_euler_product_matches_series():
    bound = 8
    finite = truncate(pgl2(2), bound // 2 + 1)
    classes = enumerate_primitive_cycles(finite, bound)
    product = euler_product_series(classes, bound)
    z = bass_ihara_zeta(pgl2(2)).bass_ihara
    assert product == series_expand(z, bound)


@pytest.mark.parametrize(
    "g",
    [
        complete_graph(4),
        EdgeIndexedGraph(["x", "y", "z"], [("x", "y", 1, 2), ("y", "z", 2, 1), ("z", "x", 3, 3)]),
    ],
    ids=["K4", "integer-triangle"],
)
def test_euler_product_of_repeated_keys_matches_expanded_reference(g):
    bound = 8
    classes = enumerate_primitive_cycles(g, bound)
    assert any(count >= 2 for c, count in classes.items() if c.primitive_length == c.length)
    product = euler_product_series(classes, bound)
    assert product == reference_euler_product(list(classes.elements()), bound)


def test_euler_product_of_finite_graph_matches_edge_determinant():
    g = complete_graph(4)
    bound = 8
    classes = enumerate_primitive_cycles(g, bound)
    product = euler_product_series(classes, bound)
    det = poly_det(build_effective(CuspidalGraph(g, (), 1)).entries)
    assert product == series_expand(ratfunc_reduce(ONE, det), bound)
