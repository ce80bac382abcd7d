"""Tests for the graph data model: validation, truncation, relabeling, JSON."""

import json
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspzeta import cli
from cuspzeta.exact import Poly
from cuspzeta.families import chain, loop_family, pgl2, star
from cuspzeta.graphs import (
    Cusp,
    CuspidalGraph,
    EdgeIndexedGraph,
    GraphFormatError,
    relabel,
    truncate,
    validate,
)
from cuspzeta.zeta import bass_ihara_zeta
from helpers import is_regular


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
    with pytest.raises(ValueError, match="edge weight must be an integer >= 1, got 0"):
        EdgeIndexedGraph(["x", "y"], [("x", "y", 0, 1)])
    with pytest.raises(ValueError, match="edge weight must be an integer >= 1, got -1"):
        EdgeIndexedGraph(["x", "y"], [("x", "y", 2, -1)])


def test_fractional_coefficients_and_weights_are_rejected():
    # coefficients and weights are integers; an integral Fraction is stored as its int
    with pytest.raises(ValueError, match="not an integer"):
        Poly([Fraction(1, 2)])
    assert [type(c) for c in Poly([Fraction(4, 2), 3]).coeffs] == [int, int]
    with pytest.raises(ValueError, match=r"edge weight .* got Fraction\(3, 2\)"):
        EdgeIndexedGraph(["x", "y"], [("x", "y", Fraction(3, 2), 1)])
    with pytest.raises(ValueError, match="edge weight must be an integer >= 1, got 2.0"):
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


def test_json_round_trips_a_loop_and_cli_zeta_equals_the_library(tmp_path, capsys):
    # a loop (a pair with a == b) is two oriented edges at one vertex
    core = EdgeIndexedGraph(["x", "y"], [("x", "x", 1, 2), ("x", "y", 2, 1)])
    c = CuspidalGraph(core, (Cusp("y", 2, 3),), 3)
    data = c.to_json()
    assert {"a": "x", "b": "x", "wa": 1, "wb": 2} in data["edges"]
    assert CuspidalGraph.from_json(data) == c
    file = tmp_path / "graph.json"
    file.write_text(json.dumps(data))
    assert cli.main(["zeta", str(file)]) == 0
    assert json.loads(capsys.readouterr().out) == bass_ihara_zeta(c).to_json()


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


@pytest.mark.parametrize("q, field", [(2.5, "q"), (True, "q"), (1, "cusp ray_q")])
def test_json_bad_q_is_named_even_where_ray_q_defaults_to_it(q, field):
    data = {"q": q, "vertices": ["x"], "edges": [], "cusps": [{"vertex": "x", "alpha": 2}]}
    with pytest.raises(GraphFormatError, match=f"^{field} must be an integer"):
        CuspidalGraph.from_json(data)


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
    bad = "ray_q" if type(alpha) is int else "alpha"
    with pytest.raises(ValueError, match=f"^cusp {bad} must be an integer"):
        Cusp("x", alpha, ray_q)


@pytest.mark.parametrize("q, central_order", [(3.0, 1), (3, 1.5)])
def test_cuspidal_graph_rejects_non_integer_q_and_central_order(q, central_order):
    # a central order of 1.5 would give float R_m values and fail late, in selberg_expanded
    bad, value = ("central_order", central_order) if type(q) is int else ("q", q)
    with pytest.raises(ValueError, match=rf"^{bad} must be an integer >= 1, got {value}$"):
        CuspidalGraph(EdgeIndexedGraph(["x"], []), (), q, central_order)


# --- one number rule ---------------------------------------------------------


@st.composite
def _family_graph(draw):
    q = draw(st.integers(3, 9))
    kind = draw(st.sampled_from(["pgl2", "chain", "star", "loop_family"]))
    if kind == "pgl2":
        return pgl2(q)
    if kind == "chain":
        return chain(q, draw(st.integers(1, q + 1)))
    if kind == "star":
        parts = [draw(st.integers(1, q + 1))]
        while sum(parts) < q + 1 and draw(st.booleans()):
            parts.append(draw(st.integers(1, q + 1 - sum(parts))))
        return star(q, parts)
    return loop_family(q, draw(st.integers(1, 6)))


@st.composite
def _valid_graph_json(draw):
    """Distinct string ids, edges (loops too) between known vertices, valid numbers."""
    names = [f"v{i}" for i in range(draw(st.integers(1, 4)))]
    number = st.integers(1, 5)
    ends = list(product(names, repeat=2))
    q = draw(number)
    cusps = []
    for _ in range(draw(st.integers(0, 3))):
        cusp = {"vertex": draw(st.sampled_from(names)), "alpha": draw(number)}
        if q < 2 or draw(st.booleans()):  # ray_q defaults to q and must be >= 2
            cusp["ray_q"] = draw(st.integers(2, 5))
        cusps.append(cusp)
    pairs = draw(st.lists(st.sampled_from(ends), max_size=5))
    data = {"q": q, "vertices": names, "cusps": cusps,
            "edges": [{"a": a, "b": b, "wa": draw(number), "wb": draw(number)}
                      for a, b in pairs]}
    if draw(st.booleans()):
        data["central_order"] = draw(number)
    return data


@given(graph=_family_graph() | _valid_graph_json().map(CuspidalGraph.from_json))
@settings(max_examples=150, deadline=None)
def test_every_valid_graph_round_trips_through_json(graph):
    assert CuspidalGraph.from_json(graph.to_json()) == graph


@pytest.mark.parametrize("build", [
    lambda: EdgeIndexedGraph(["x", "y"], [("x", "y", True, 2)]),
    lambda: EdgeIndexedGraph(["x", "y"], [("x", "y", 2, True)]),
    lambda: Cusp("x", True, 3),
    lambda: Cusp("x", 2, True),
    lambda: CuspidalGraph(EdgeIndexedGraph(["x"], []), (), True),
    lambda: CuspidalGraph(EdgeIndexedGraph(["x"], []), (), 3, True),
    lambda: star(3, (True, 2)),
], ids=["wa", "wb", "alpha", "ray_q", "q", "central_order", "star_part"])
def test_bool_is_not_a_graph_number(build):
    # isinstance(True, int) holds, yet True is no group index
    with pytest.raises(ValueError, match=r"must be an integer >= \d, got True$"):
        build()


@pytest.mark.parametrize("path", [
    ("q",), ("central_order",), ("edges", 0, "wa"), ("edges", 0, "wb"),
    ("cusps", 0, "alpha"), ("cusps", 0, "ray_q"),
], ids=lambda path: path[-1])
def test_bool_in_graph_json_is_a_format_error(path, tmp_path, capsys):
    data = {"q": 3, "central_order": 1, "vertices": ["x", "y"],
            "edges": [{"a": "x", "b": "y", "wa": 2, "wb": 2}],
            "cusps": [{"vertex": "x", "alpha": 2, "ray_q": 3}]}
    CuspidalGraph.from_json(data)  # valid until one number becomes True
    obj = data
    for key in path[:-1]:
        obj = obj[key]
    obj[path[-1]] = True
    with pytest.raises(GraphFormatError, match=r"must be an integer >= \d, got True$"):
        CuspidalGraph.from_json(data)
    file = tmp_path / "graph.json"
    file.write_text(json.dumps(data))
    assert cli.main(["zeta", str(file)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")
