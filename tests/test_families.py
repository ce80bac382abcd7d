"""Tests for the family builders, including the loop-family edge conventions."""

from fractions import Fraction as F

import pytest

from cuspzeta.families import chain, loop_family, pgl2, star
from cuspzeta.graphs import CuspidalGraph
from cuspzeta.zeta import bass_ihara_zeta, build_effective
from helpers import is_regular


def successor_weights(graph, source, target):
    """Map successor (source, target) -> weight for the oriented edge source->target."""
    eid = next(
        e.id for e in graph.edges if e.source == source and e.target == target
    )
    e = graph.edges[eid]
    out = {}
    for sid in graph.out_edges(e.target):
        succ = graph.edges[sid]
        w = succ.weight - 1 if sid == e.inverse else succ.weight
        if w:
            out[(succ.source, succ.target)] = w
    return out


# --- pgl2 / chain ------------------------------------------------------------


def test_pgl2_matches_chain_structure():
    a, b = pgl2(3), chain(3, 4)
    assert a.core == b.core
    assert a.cusps == b.cusps
    assert a.central_order == 2 and b.central_order == 1


def test_pgl2_central_order():
    for q in (2, 3, 5, 7):
        assert pgl2(q).central_order == q - 1


def test_pgl2_requires_q_at_least_two():
    with pytest.raises(ValueError):
        pgl2(1)


def test_chain_with_unit_attachment_has_trivial_zeta():
    z = bass_ihara_zeta(chain(3, 1))
    assert z.num == z.den


def test_chain_parameter_validation():
    with pytest.raises(ValueError):
        chain(1, 2)
    with pytest.raises(ValueError):
        chain(3, 0)


# --- star --------------------------------------------------------------------


def test_star_single_part_equals_chain():
    assert star(3, (2,)).cusps == chain(3, 2).cusps
    assert bass_ihara_zeta(star(3, (2,))) == bass_ihara_zeta(chain(3, 2))


def test_star_rejects_oversized_parts():
    with pytest.raises(ValueError, match="exceeding"):
        star(3, (3, 2))


def test_star_rejects_empty_or_nonpositive_parts():
    with pytest.raises(ValueError):
        star(3, ())
    with pytest.raises(ValueError):
        star(3, (2, 0))


def test_star_and_chain_reject_fractional_weights_when_built():
    # a part is an index [G_v : G_e], so 1.5 is refused, not truncated to 1
    with pytest.raises(ValueError, match="cusp alpha must be an integer >= 1, got 1.5"):
        star(3, (1.5, 1.5))
    with pytest.raises(ValueError, match="cusp alpha must be an integer >= 1, got 2.5"):
        chain(3, 2.5)


def test_star_regularity_at_full_sum():
    assert is_regular(star(5, (3, 2, 1)), 5)


# --- loop family -------------------------------------------------------------


def test_loop_family_is_regular():
    for q, n in [(3, 1), (3, 2), (5, 2)]:
        assert is_regular(loop_family(q, n), q), (q, n)


def test_loop_family_q2_warns():
    with pytest.warns(UserWarning):
        loop_family(2, 1)


def test_loop_family_parameter_validation():
    with pytest.raises(ValueError):
        loop_family(3, 0)
    with pytest.raises(ValueError):
        loop_family(1, 1)


@pytest.mark.parametrize("q,n", [(3, 1), (3, 2), (5, 2)])
def test_loop_family_transfer_rows(q, n):
    """Audit the core transfer row of every oriented cycle edge entry by entry."""
    c = loop_family(q, n)
    g = c.core
    width = len(str(n))
    a = [f"a{i:0{width}d}" for i in range(1, n + 1)]
    b = [f"b{i:0{width}d}" for i in range(1, n + 1)]
    ring = ["c"] + a + list(reversed(b))
    total = 2 * n + 1
    fwd = [(ring[i], ring[(i + 1) % total]) for i in range(total)]
    bwd = [(t, s) for s, t in fwd]

    # around-the-corner rows at the cusp vertex: the only core successor has
    # weight 1 (the ray, weight q-1, is not part of the core transfer row)
    assert successor_weights(g, a[0], "c") == {bwd[total - 1]: F(1)}
    assert successor_weights(g, b[0], "c") == {fwd[0]: F(1)}
    # inward rows on the weight-1 half: a single weight-q move, no backtrack
    for i in range(1, n + 1):
        assert successor_weights(g, *bwd[i]) == {bwd[i - 1]: F(q)}
    # outward rows on the weight-1 half: backtrack q-1 plus a weight-1 advance
    for i in range(0, n):
        expected = {bwd[i]: F(q - 1), fwd[i + 1]: F(1)}
        assert successor_weights(g, *fwd[i]) == expected
    # forward rows on the weight-q half: a single weight-q move, no backtrack
    for i in range(n, 2 * n):
        assert successor_weights(g, *fwd[i]) == {fwd[i + 1]: F(q)}
    # reversed rows on the weight-q half: backtrack q-1 plus a weight-1 retreat
    for i in range(n + 1, total):
        expected = {fwd[i]: F(q - 1), bwd[i - 1]: F(1)}
        assert successor_weights(g, *bwd[i]) == expected


def test_loop_family_cross_edge_has_unit_weights():
    c = loop_family(3, 2)
    pair = next(
        (a, b, wa, wb)
        for a, b, wa, wb in c.core.edge_pairs()
        if {a, b} == {"a2", "b2"}
    )
    assert (pair[2], pair[3]) == (1, 1)


def test_loop_family_cusp_parameters():
    c = loop_family(5, 3)
    assert len(c.cusps) == 1
    assert c.cusps[0].vertex == "c"
    assert c.cusps[0].alpha == 4
    assert c.cusps[0].ray_q == 5
    assert c.central_order == 1


def test_transfer_matrix_dimension_counts_oriented_edges():
    c = loop_family(3, 2)
    t = build_effective(CuspidalGraph(c.core, (), 1))
    assert t.entries.n == len(c.core.edges) == 2 * (2 * 2 + 1)


def test_builders_are_regular_exactly_at_full_attachment():
    cases = [
        (pgl2(3), 3, True),
        (chain(3, 4), 3, True),
        (chain(3, 2), 3, False),
        (star(5, (3, 3)), 5, True),
        (star(5, (2, 2)), 5, False),
        (loop_family(3, 2), 3, True),
        (loop_family(5, 1), 5, True),
    ]
    for c, q, regular in cases:
        assert is_regular(c, q) == regular, c
