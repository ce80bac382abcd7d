"""Tests for the graph data model: weights, validation, truncation, signatures."""

from fractions import Fraction

import pytest

from cuspzeta.exact import Poly
from cuspzeta.families import chain, loop_family, pgl2, star
from cuspzeta.graphs import (
    Cusp,
    CuspidalGraph,
    EdgeIndexedGraph,
    GraphFormatError,
    GraphOfGroups,
    invariant_signature,
    relabel,
    truncate,
    validate,
    weights_from_groups,
)
from helpers import is_regular


def two_vertex_gog(order_a, order_b, edge_order):
    return GraphOfGroups(
        vertices=("x", "y"),
        edge_pairs=(("x", "y"),),
        vertex_order={"x": order_a, "y": order_b},
        edge_order=(edge_order,),
    )


# --- weights_from_groups -----------------------------------------------------


def test_weights_trivial_edge_group():
    g = weights_from_groups(two_vertex_gog(4, 3, 1))
    (a, b, wa, wb) = g.edge_pairs()[0]
    assert (wa, wb) == (4, 3)


def test_weights_edge_group_equal_to_vertex_groups():
    g = weights_from_groups(two_vertex_gog(6, 6, 6))
    (_, _, wa, wb) = g.edge_pairs()[0]
    assert (wa, wb) == (1, 1)


def test_weights_mixed_orders():
    g = weights_from_groups(two_vertex_gog(6, 2, 2))
    (_, _, wa, wb) = g.edge_pairs()[0]
    assert (wa, wb) == (3, 1)


def test_weights_require_divisibility():
    with pytest.raises(ValueError, match="does not divide"):
        weights_from_groups(two_vertex_gog(5, 3, 2))


def test_graph_of_groups_rejects_endpoint_without_vertex_order():
    with pytest.raises(ValueError, match=r"no vertex group order for \['z'\]"):
        GraphOfGroups(("x", "z"), (("x", "z"),), {"x": 2}, (1,))


def test_graph_of_groups_rejects_edge_group_of_order_zero():
    with pytest.raises(ValueError, match="group orders must be >= 1"):
        two_vertex_gog(4, 4, 0)


@pytest.mark.parametrize("order_a, edge_order", [(0, 1), (-2, 1), (4, -1)])
def test_graph_of_groups_rejects_group_order_below_one(order_a, edge_order):
    with pytest.raises(ValueError, match="group orders must be >= 1"):
        two_vertex_gog(order_a, 2, edge_order)


def test_graph_of_groups_rejects_edge_order_shorter_than_edge_pairs():
    with pytest.raises(ValueError, match="one group order per edge pair"):
        GraphOfGroups(("x", "y"), (("x", "y"), ("y", "x")), {"x": 2, "y": 2}, (1,))


def test_weights_output_validates():
    g = weights_from_groups(two_vertex_gog(6, 2, 2))
    validate(g)


# --- validate ----------------------------------------------------------------


def test_validate_chain_at_full_attachment_is_regular():
    validate(chain(3, 4))
    assert is_regular(chain(3, 4), 3)


def test_validate_star_hub_degree():
    validate(star(3, (2, 2)))
    assert is_regular(star(3, (2, 2)), 3)


def test_validate_small_attachment_warns_only():
    # alpha 1 leaves the vertex's weighted out-degree short of q + 1 while the
    # ray stays q-regular: irregular, yet a valid graph
    g = chain(3, 1)
    validate(g)
    assert all(c.ray_q == 3 for c in g.cusps) and not is_regular(g, 3)


def test_validate_detects_disconnected_graph():
    g = EdgeIndexedGraph(["x", "y", "z"], [("x", "y", 1, 1)])
    with pytest.raises(GraphFormatError, match="graph is not connected"):
        validate(g)


# --- invariants enforced at construction --------------------------------------


def test_validate_nonpositive_weight():
    with pytest.raises(ValueError, match="non-positive weight 0"):
        EdgeIndexedGraph(["x", "y"], [("x", "y", 0, 1)])
    with pytest.raises(ValueError, match="non-positive weight -1"):
        EdgeIndexedGraph(["x", "y"], [("x", "y", 2, -1)])


def test_fractional_coefficients_and_weights_are_rejected():
    # coefficients and weights are integers; an integral Fraction is stored as its int
    with pytest.raises(ValueError, match="not an integer"):
        Poly([Fraction(1, 2)])
    assert [type(c) for c in Poly([Fraction(4, 2), 3]).coeffs] == [int, int]
    with pytest.raises(ValueError, match="non-integer weight"):
        EdgeIndexedGraph(["x", "y"], [("x", "y", Fraction(3, 2), 1)])
    with pytest.raises(ValueError, match="non-integer weight"):
        EdgeIndexedGraph(["x", "y"], [("x", "y", 2, 2.0)])


def test_constructor_rejects_repeated_vertex_id():
    with pytest.raises(ValueError, match="duplicate vertex ids"):
        EdgeIndexedGraph(["x", "x"], [])


def test_constructor_rejects_unknown_endpoint():
    with pytest.raises(ValueError, match="unknown vertex"):
        EdgeIndexedGraph(["x"], [("x", "y", 2, 2)])


def test_constructor_rejects_cusp_at_unknown_vertex():
    with pytest.raises(ValueError, match="cusp attached to unknown vertex 'z'"):
        CuspidalGraph(EdgeIndexedGraph(["x"], []), (Cusp("z", 2, 3),), 3)


def test_from_json_reports_constructor_errors_as_format_errors():
    base = {"q": 3, "vertices": ["x", "y"], "edges": [{"a": "x", "b": "y", "wa": 1, "wb": 1}]}
    for fields, message in [
        ({"vertices": ["x", "y", "x"]}, "duplicate vertex ids"),
        ({"edges": [{"a": "x", "b": "z", "wa": 1, "wb": 1}]}, "unknown vertex"),
        ({"cusps": [{"vertex": "z", "alpha": 1}]}, "unknown vertex 'z'"),
    ]:
        with pytest.raises(GraphFormatError, match=message):
            CuspidalGraph.from_json({**base, **fields})


# --- truncate ----------------------------------------------------------------


def test_truncate_chain_weight_pattern():
    g = truncate(chain(3, 4), 3)
    assert len(g.vertices) == 4
    weights = [(wa, wb) for _, _, wa, wb in g.edge_pairs()]
    assert weights == [(4, 3), (1, 3), (1, 3)]


def test_truncate_depth_one_adds_one_pendant_per_cusp():
    g = truncate(star(3, (2, 2)), 1)
    assert len(g.vertices) == 3
    assert len(g.edge_pairs()) == 2


def test_truncate_vertex_count_formula():
    for c, d in [(chain(3, 2), 5), (star(5, (1, 2, 3)), 4), (loop_family(3, 2), 3)]:
        assert len(truncate(c, d).vertices) == len(c.core.vertices) + d * len(c.cusps)


def test_truncations_are_nested():
    small = truncate(star(3, (2, 1)), 2)
    large = truncate(star(3, (2, 1)), 3)
    assert set(small.vertices) <= set(large.vertices)
    assert set(small.edge_pairs()) <= set(large.edge_pairs())


def test_truncate_interior_out_degrees_match_infinite_graph():
    c = loop_family(3, 2)
    g = truncate(c, 4)
    leaves = {v for v in g.vertices if v.endswith(".4")}
    for v in g.vertices:
        if v in leaves:
            continue
        total = sum(g.edges[i].weight for i in g.out_edges(v))
        assert total == 4  # q + 1


def test_truncate_requires_positive_depth():
    with pytest.raises(ValueError):
        truncate(chain(3, 2), 0)


def test_truncate_ray_names_avoid_core_vertices():
    core = EdgeIndexedGraph(
        ["v0", "v0.ray0.1", "v0.ray0.1'"],
        [("v0", "v0.ray0.1", 2, 2), ("v0.ray0.1", "v0.ray0.1'", 1, 1)],
    )
    c = CuspidalGraph(core, (Cusp("v0", 2, 3),), 3)
    small, large = truncate(c, 1), truncate(c, 3)
    assert small.vertices[3:] == ("v0.ray0.1''",)
    assert large.vertices[3:] == ("v0.ray0.1''", "v0.ray0.2", "v0.ray0.3")
    assert truncate(c, 3) == large
    assert set(small.edge_pairs()) <= set(large.edge_pairs())
    validate(large)


# --- relabel -----------------------------------------------------------------


def test_relabel_identity_is_equal():
    c = loop_family(3, 1)
    mapping = {v: v for v in c.core.vertices}
    assert relabel(c, mapping).core == c.core


def test_relabel_preserves_weight_pairs(rng):
    c = loop_family(3, 2)
    names = list(c.core.vertices)
    shuffled = names[:]
    rng.shuffle(shuffled)
    relabeled = relabel(c, dict(zip(names, shuffled)))
    original = sorted((min(wa, wb), max(wa, wb)) for _, _, wa, wb in c.core.edge_pairs())
    new = sorted((min(wa, wb), max(wa, wb)) for _, _, wa, wb in relabeled.core.edge_pairs())
    assert original == new


def test_relabel_rejects_non_bijection():
    c = loop_family(3, 1)
    mapping = {v: "same" for v in c.core.vertices}
    with pytest.raises(ValueError):
        relabel(c, mapping)


# --- invariant signature -----------------------------------------------------


def test_signature_distinguishes_star_partitions():
    assert invariant_signature(star(3, (3, 1))) != invariant_signature(star(3, (2, 2)))


def test_signature_equal_for_arm_swap():
    s = star(3, (2, 2))
    swapped = CuspidalGraph(s.core, (s.cusps[1], s.cusps[0]), s.q, s.central_order)
    assert invariant_signature(s) == invariant_signature(swapped)


def test_signature_ignores_central_order():
    assert invariant_signature(chain(3, 4)) == invariant_signature(pgl2(3))


def test_signature_invariant_under_relabel(rng):
    for c in (loop_family(3, 2), star(5, (2, 3)), chain(4, 2)):
        base = invariant_signature(c)
        for _ in range(10):
            names = list(c.core.vertices)
            shuffled = names[:]
            rng.shuffle(shuffled)
            assert invariant_signature(relabel(c, dict(zip(names, shuffled)))) == base


# --- JSON --------------------------------------------------------------------


def test_json_round_trip():
    c = loop_family(3, 2)
    again = CuspidalGraph.from_json(c.to_json())
    assert again.core == c.core
    assert again.cusps == c.cusps
    assert (again.q, again.central_order) == (c.q, c.central_order)


def test_json_rejects_unknown_fields():
    data = chain(3, 2).to_json()
    data["extra"] = 1
    with pytest.raises(GraphFormatError, match="unknown"):
        CuspidalGraph.from_json(data)


def test_json_rejects_unknown_edge_fields():
    data = loop_family(3, 1).to_json()
    data["edges"][0]["color"] = "red"
    with pytest.raises(GraphFormatError, match="unknown"):
        CuspidalGraph.from_json(data)


def test_json_requires_positive_integer_weights():
    data = loop_family(3, 1).to_json()
    data["edges"][0]["wa"] = 0
    with pytest.raises(GraphFormatError):
        CuspidalGraph.from_json(data)


def test_json_rejects_self_loop():
    data = {
        "q": 3,
        "vertices": ["x"],
        "edges": [{"a": "x", "b": "x", "wa": 1, "wb": 1}],
    }
    with pytest.raises(GraphFormatError, match="self-loop"):
        CuspidalGraph.from_json(data)


def test_json_ray_q_defaults_to_graph_q():
    data = {
        "q": 5,
        "vertices": ["x"],
        "edges": [],
        "cusps": [{"vertex": "x", "alpha": 2}],
    }
    c = CuspidalGraph.from_json(data)
    assert c.cusps[0].ray_q == 5
    assert c.central_order == 1


def test_json_rejects_missing_required_field():
    with pytest.raises(GraphFormatError, match="missing"):
        CuspidalGraph.from_json({"vertices": [], "edges": []})


# --- cusp constraints --------------------------------------------------------


def test_cusp_rejects_ray_weight_one():
    with pytest.raises(ValueError):
        Cusp("x", 2, 1)


def test_cusp_rejects_zero_alpha():
    with pytest.raises(ValueError):
        Cusp("x", 0, 3)


@pytest.mark.parametrize("alpha, ray_q", [(2.5, 3), (2, 3.0), (Fraction(4, 2), 3)])
def test_cusp_rejects_non_integer_weights(alpha, ray_q):
    with pytest.raises(ValueError, match="non-integer cusp alpha"):
        Cusp("x", alpha, ray_q)


@pytest.mark.parametrize("q, central_order", [(3.0, 1), (3, 1.5)])
def test_cuspidal_graph_rejects_non_integer_q_and_central_order(q, central_order):
    # a central order of 1.5 would give float R_m values and fail late, in selberg_expanded
    with pytest.raises(ValueError, match="non-integer q"):
        CuspidalGraph(EdgeIndexedGraph(["x"], []), (), q, central_order)
