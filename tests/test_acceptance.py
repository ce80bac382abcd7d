"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Expected values marked as fixtures below were computed once from
the engine and frozen; everything else is a closed form or an independent
oracle.
"""

import functools
import math
import random
from fractions import Fraction as F
from itertools import product

from helpers import poly_eval, random_min_degree_two_graph, vertex_side_determinant

from cuspzeta.exact import (
    ONE, Poly, PolyMatrix, RatFunc, poly_det, ratfunc_reduce, series_expand,
)
from cuspzeta.families import chain, loop_family, pgl2, star
from cuspzeta.graphs import CuspidalGraph, relabel, truncate
from cuspzeta.oracle import (
    enumerate_primitive_cycles,
    euler_product_series,
    trace_powers,
)
from cuspzeta.spectra import pole_report
from cuspzeta.zeta import bass_ihara_zeta, build_effective, counting_series


def criterion(number, label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number} ({label}): FAIL")
                raise
            print(f"criterion {number} ({label}): PASS")

        return wrapper

    return decorate


def rf(num, den):
    return ratfunc_reduce(num if isinstance(num, Poly) else Poly(num),
                          den if isinstance(den, Poly) else Poly(den))


def star_closed_form(q, parts):
    n, k = len(parts), sum(parts)
    num = Poly([1, 0, -q]) ** n
    den = (Poly([1, -1]) * Poly([1, 1])) ** (n - 1) * Poly([1, 0, -(k * q - k + 1)])
    return rf(num, den)


def compositions(total_max, n):
    """All tuples of n positive integers with sum at most total_max."""
    return [p for p in product(range(1, total_max + 1), repeat=n) if sum(p) <= total_max]


def family_instances():
    """Every family instance named by criteria 1-4, deduplicated by name."""
    instances = {}

    def add(name, graph):
        instances.setdefault(name, graph)

    for q in (2, 3, 4, 5, 7):
        add(f"pgl2({q})", pgl2(q))
    for q in (2, 3, 4, 5):
        for k in range(1, q + 2):
            add(f"chain({q},{k})", chain(q, k))
    for q in (3, 5):
        for n in (1, 2, 3):
            for parts in compositions(q + 1, n):
                add(f"star({q},{parts})", star(q, parts))
        rng = random.Random(4127)
        valid = compositions(q + 1, 4)
        for _ in range(20):
            parts = rng.choice(valid)
            add(f"star({q},{parts})", star(q, parts))
    for q in (4, 5):
        add(f"star({q},({q},1))", star(q, (q, 1)))
        add(f"star({q},({q - 1},2))", star(q, (q - 1, 2)))
    add("star(3,(3,1))", star(3, (3, 1)))
    add("star(3,(2,2))", star(3, (2, 2)))
    for n in (1, 2, 3):
        add(f"loop(3,{n})", loop_family(3, n))
    return instances


# second pole modulus of the q = 3 loop family, frozen from the engine
SECOND_MODULUS_FIXTURES = {
    1: 0.4023199380628143,
    2: 0.3490720984355004,
    3: 0.3378728159994185,
    4: 0.33476037356143173,
    5: 0.3337978000603025,
    6: 0.33348668081508426,
    7: 0.3333842570901845,
    8: 0.33335028328207206,
}


@criterion(1, "rank-one lattice quotient zeta")
def test_criterion_1_pgl2_closed_form():
    for q in (2, 3, 4, 5, 7):
        result = bass_ihara_zeta(pgl2(q))
        assert result.bass_ihara == rf([1, 0, -q], [1, 0, -q * q]), q
        assert result.central_order == q - 1, q


@criterion(2, "chain family zeta")
def test_criterion_2_chain_closed_form():
    for q in (2, 3, 4, 5):
        for k in range(1, q + 2):
            got = bass_ihara_zeta(chain(q, k)).bass_ihara
            assert got == rf([1, 0, -q], [1, 0, -(q * k - k + 1)]), (q, k)
    assert bass_ihara_zeta(chain(3, 1)).bass_ihara == RatFunc(ONE, ONE)


@criterion(3, "star family zeta")
def test_criterion_3_star_closed_form():
    for q in (3, 5):
        for n in (1, 2, 3):
            for parts in compositions(q + 1, n):
                got = bass_ihara_zeta(star(q, parts)).bass_ihara
                assert got == star_closed_form(q, parts), (q, parts)
        rng = random.Random(4127)
        valid = compositions(q + 1, 4)
        for _ in range(20):
            parts = rng.choice(valid)
            got = bass_ihara_zeta(star(q, parts)).bass_ihara
            assert got == star_closed_form(q, parts), (q, parts)
    # the single-cusp case coincides with the chain family
    for q in (3, 5):
        for k in range(1, q + 2):
            assert bass_ihara_zeta(star(q, (k,))).bass_ihara == bass_ihara_zeta(
                chain(q, k)
            ).bass_ihara


@criterion(4, "isospectral non-isomorphic pairs")
def test_criterion_4_isospectral_pairs():
    pairs = [(star(3, (3, 1)), star(3, (2, 2)))]
    for q in (4, 5):
        pairs.append((star(q, (q, 1)), star(q, (q - 1, 2))))
    for left, right in pairs:
        assert bass_ihara_zeta(left).bass_ihara == bass_ihara_zeta(right).bass_ihara
        # one vertex and no core edge each, so the presentations differ
        # exactly when their (alpha, ray_q) cusp multisets do
        cusps = []
        for graph in (left, right):
            assert len(graph.core.vertices) == 1 and not graph.core.edges
            cusps.append(sorted((c.alpha, c.ray_q) for c in graph.cusps))
        assert cusps[0] != cusps[1]


@criterion(5, "counting series equals trace oracle")
def test_criterion_5_oracle_equivalence():
    order = 12
    for name, graph in family_instances().items():
        engine = counting_series(bass_ihara_zeta(graph), order).n_values
        oracle = trace_powers(graph, order)
        assert list(engine) == list(oracle), name


@criterion(6, "vertex-side determinant identity")
def test_criterion_6_bass_identity():
    rng = random.Random(0xBA55)
    one_minus_u2 = Poly([1, 0, -1])
    for trial in range(50):
        g = random_min_degree_two_graph(rng, max_vertices=10)
        edge_det = poly_det(build_effective(CuspidalGraph(g, (), 1)).entries)
        chi = len(g.vertices) - len(g.edges) // 2
        assert chi <= 0, trial
        assert edge_det == one_minus_u2 ** (-chi) * vertex_side_determinant(g), trial


@criterion(7, "Euler product against series expansion")
def test_criterion_7_euler_product():
    order = 10
    for graph in (pgl2(2), star(3, (2, 2)), loop_family(3, 1)):
        finite = truncate(graph, order // 2 + 1)
        classes = enumerate_primitive_cycles(finite, order)
        product_series = euler_product_series(classes, order)
        expansion = series_expand(bass_ihara_zeta(graph).bass_ihara, order)
        assert product_series == expansion


@criterion(8, "pole-free region shrinks to the trivial circle")
def test_criterion_8_pole_free_convergence():
    seconds = {}
    for n in range(1, 9):
        z = bass_ihara_zeta(loop_family(3, n)).bass_ihara
        assert poly_eval(z.den, F(1, 3)) == 0, n  # exact pole at 1/q
        report = pole_report(z, (3,))
        assert abs(report.radius - 1 / 3) <= 1e-9, n
        seconds[n] = report.moduli_clusters[1]
        assert abs(seconds[n] - SECOND_MODULUS_FIXTURES[n]) <= 1e-9, n
        if n >= 2:
            assert 1 / 3 < seconds[n] < 1 / math.sqrt(3), n
    ordered = [seconds[n] for n in range(1, 9)]
    assert all(a > b for a, b in zip(ordered, ordered[1:]))


@criterion(9, "error-term growth matches the second pole")
def test_criterion_9_growth_rate():
    # |N_m - q^m|^(1/m) tends to 1 / (second pole modulus), read off the
    # exact counting data at m = 60 with no fit
    result = bass_ihara_zeta(loop_family(3, 3))
    error = abs(counting_series(result, 60).n_values[59] - 3**60)
    second = pole_report(result.bass_ihara, (3,)).moduli_clusters[1]
    assert abs(float(error) ** (1 / 60) * second - 1.0) <= 1e-9


@criterion(10, "property suites")
def test_criterion_10_property_suites():
    instances = family_instances()
    rng = random.Random(0x5EED)

    # relabeling invariance of the zeta function, twenty permutations each
    for name, graph in instances.items():
        base = bass_ihara_zeta(graph).bass_ihara
        names = list(graph.core.vertices)
        for _ in range(20):
            shuffled = names[:]
            rng.shuffle(shuffled)
            permuted = relabel(graph, dict(zip(names, shuffled)))
            assert bass_ihara_zeta(permuted).bass_ihara == base, name

    # truncation-depth stability of the trace oracle
    for graph in (pgl2(2), chain(3, 2), star(5, (2, 2, 1)), loop_family(3, 2)):
        for m in (3, 6, 9, 12):
            assert trace_powers(graph, m)[m - 1] == trace_powers(
                truncate(graph, m // 2 + 2), m
            )[m - 1]

    # normalization and integrality on every integer-weight instance
    for name, graph in instances.items():
        z = bass_ihara_zeta(graph).bass_ihara
        assert z.num[0] == 1 and z.den[0] == 1, name
        for x in counting_series(bass_ihara_zeta(graph), 12).n_values:
            assert type(x) is int and x >= 0, name

    # Bareiss elimination against cofactor expansion, one hundred trials
    from test_exact import cofactor_det

    for trial in range(100):
        n = rng.randint(1, 5)
        rows = [
            [
                Poly([rng.randint(-4, 4) for _ in range(rng.randint(0, 3))])
                for _ in range(n)
            ]
            for _ in range(n)
        ]
        assert poly_det(PolyMatrix(rows)) == cofactor_det(rows), trial
