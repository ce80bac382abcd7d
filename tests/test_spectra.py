"""Tests for root finding, pole reports and Ramanujan classification."""

import cmath
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspzeta import spectra
from cuspzeta.exact import (
    ONE, Poly, RatFunc, log_derivative_series, poly_gcd, square_free_parts,
)
from cuspzeta.families import chain, loop_family, pgl2, star
from cuspzeta.spectra import (
    RootFindingError,
    complex_roots,
    pole_report,
    ramanujan_check,
)
from cuspzeta.zeta import bass_ihara_zeta
from helpers import (
    poly_derivative,
    poly_divmod,
    poly_eval,
    poly_primitive,
    reference_square_free_parts,
    small_graphs,
)


# --- complex_roots -----------------------------------------------------------


def test_roots_of_even_quadratic():
    roots = complex_roots(Poly([1, 0, -4]))
    values = sorted(z.real for z, _ in roots)
    assert values == pytest.approx([-0.5, 0.5], abs=1e-12)
    assert all(m == 1 for _, m in roots)


def test_double_root_recovered_by_clustering():
    roots = complex_roots(Poly([1, -2]) ** 2)
    assert len(roots) == 1
    value, mult = roots[0]
    assert mult == 2
    assert value == pytest.approx(0.5, abs=1e-6)


def test_roots_of_chain_denominator():
    # q = 3, k = 4 gives kq - k + 1 = 9
    roots = complex_roots(Poly([1, 0, -9]))
    values = sorted(z.real for z, _ in roots)
    assert values == pytest.approx([-1 / 3, 1 / 3], abs=1e-12)


def root_factor(r: F) -> Poly:
    """The primitive linear factor with the rational root r."""
    return Poly([-r.numerator, r.denominator])


def test_close_simple_roots_stay_separate():
    half, gap = F(1, 2), F(1, 10**7)
    roots = complex_roots(root_factor(half) * root_factor(half + gap))
    assert [m for _, m in roots] == [1, 1]
    for (z, _), exact_root in zip(roots, (half, half + gap)):
        assert abs(z - float(exact_root)) <= 1e-8


def test_underflowing_constant_term_is_not_a_root_at_origin():
    with pytest.raises(RootFindingError):
        complex_roots(Poly([1, 0, 10**400]))


def test_roots_at_origin():
    roots = complex_roots(Poly([0, 0, 1, -3]))
    by_mult = {m: z for z, m in roots}
    assert by_mult[2] == 0
    assert by_mult[1].real == pytest.approx(1 / 3, abs=1e-12)


def test_triple_root_multiplicity_is_exact():
    p = Poly([1, 0, -1]) ** 3 * Poly([1, 0, -21])
    roots = complex_roots(p)
    triples = sorted(z.real for z, m in roots if m == 3)
    assert triples == pytest.approx([-1.0, 1.0], abs=1e-12)
    simples = sorted(z.real for z, m in roots if m == 1)
    assert simples == pytest.approx([-(21 ** -0.5), 21 ** -0.5], abs=1e-12)


def test_square_free_parts_reconstruct_input():
    p = Poly([5]) * Poly([-1, 1]) ** 2 * Poly([2, 1]) ** 3 * Poly([1, 0, 1])
    parts = square_free_parts(p)
    assert sorted(m for _, m in parts) == [1, 2, 3]
    recon = Poly([1])
    for part, m in parts:
        recon = recon * part**m
    assert recon == poly_primitive(p)


# --- square-free certificate -------------------------------------------------


small_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)
# monic factors with rational coefficients, cleared of their denominators
factors = st.lists(small_rationals, min_size=1, max_size=4).map(
    lambda cs: poly_primitive(cs + [1])
)


def assert_square_free_decomposition(p: Poly, parts: list[tuple[Poly, int]]) -> None:
    recon = ONE
    for part, m in parts:
        assert part.degree > 0 and m > 0
        assert poly_gcd(part, poly_derivative(part)) == ONE
        recon = recon * part**m
    for i, (a, _) in enumerate(parts):
        for b, _ in parts[i + 1 :]:
            assert poly_gcd(a, b) == ONE
    assert recon == poly_primitive(p)


@given(a=factors, b=factors, c=factors, scale=st.integers(-6, 6).filter(bool))
@settings(max_examples=60, deadline=None)
def test_square_free_parts_of_random_products(a, b, c, scale):
    p = Poly([scale]) * a * b**2 * c**3
    assert_square_free_decomposition(p, square_free_parts(p))


@given(roots=st.sets(small_rationals, min_size=1, max_size=8),
       scale=st.integers(-6, 6).filter(bool))
@settings(max_examples=60, deadline=None)
def test_square_free_input_is_one_part(roots, scale):
    p = Poly([scale])
    for r in roots:
        p = p * root_factor(r)
    assert square_free_parts(p) == [(poly_primitive(p), 1)]


int_factors = st.tuples(
    st.lists(st.integers(-6, 6), min_size=1, max_size=3), st.integers(-6, 6).filter(bool)
).map(lambda t: Poly(t[0] + [t[1]]))


@given(
    factors=st.lists(st.tuples(int_factors, st.integers(1, 4)), min_size=1, max_size=3),
    u_power=st.integers(0, 4),
    scale=st.integers(-30, 30).filter(bool),
)
@settings(max_examples=100, deadline=None)
def test_integer_yun_matches_fraction_yun(factors, u_power, scale):
    p = Poly([scale]) * Poly([0, 1]) ** u_power
    for f, k in factors:
        p = p * f**k
    parts = square_free_parts(p)
    for part, _ in parts:
        coeffs = part.coeffs
        assert all(type(c) is int for c in coeffs)
        assert coeffs[-1] > 0 and math.gcd(*coeffs) == 1
    assert parts == reference_square_free_parts(p)


def test_loop_denominators_are_square_free():
    for n in (1, 4, 8):
        den = bass_ihara_zeta(loop_family(3, n)).den
        assert square_free_parts(den) == [(poly_primitive(den), 1)]


def test_reduced_loop_zeta_functions_are_coprime():
    for n in (1, 4, 8):
        z = bass_ihara_zeta(loop_family(3, n))
        assert poly_gcd(z.num, z.den) == ONE


# The prime 2**61 - 1 divides the leading coefficient of the first input and
# is a root of the second: modulo it, the first loses its degree and the
# second is u^2, not square-free.


def test_leading_coefficient_divisible_by_2_61_minus_1_splits():
    p = Poly([-1, 2**61 - 1]) ** 2 * Poly([1, 1])
    parts = square_free_parts(p)
    assert sorted((m, part) for part, m in parts) == [
        (1, Poly([1, 1])),
        (2, Poly([-1, 2**61 - 1])),
    ]
    assert_square_free_decomposition(p, parts)


def test_square_free_over_q_but_not_modulo_2_61_minus_1():
    p = Poly([0, 1]) * Poly([-(2**61 - 1), 1])
    assert square_free_parts(p) == [(p, 1)]


def test_root_product_matches_constant_over_leading(rng):
    for _ in range(10):
        coeffs = [rng.randint(1, 5)] + [rng.randint(-5, 5) for _ in range(rng.randint(1, 6))]
        while coeffs[-1] == 0:
            coeffs[-1] = rng.randint(-5, 5)
        p = Poly(coeffs)
        roots = complex_roots(p)
        product = 1.0 + 0.0j
        for z, m in roots:
            product *= z**m
        expected = (-1) ** p.degree * float(p.coeffs[0]) / float(p.coeffs[-1])
        assert abs(product - expected) <= 1e-9 * max(1.0, abs(expected))


def test_roots_reject_zero_polynomial():
    with pytest.raises(ValueError):
        complex_roots(Poly())


# --- pole_report -------------------------------------------------------------


def test_pole_report_pgl2_3():
    report = pole_report(bass_ihara_zeta(pgl2(3)), (3,))
    assert report.moduli_clusters == pytest.approx([1 / 3], abs=1e-12)
    assert report.radius == pytest.approx(1 / 3, abs=1e-12)
    assert report.gap is None
    assert sorted(z.real for z, _ in report.poles) == pytest.approx([-1 / 3, 1 / 3], abs=1e-12)


def test_pole_report_star_clusters_and_gap():
    report = pole_report(bass_ihara_zeta(star(3, (2, 2))), (3,))
    assert len(report.moduli_clusters) == 2
    assert report.moduli_clusters[0] == pytest.approx(1 / 3, abs=1e-12)
    assert report.moduli_clusters[1] == pytest.approx(1.0, abs=1e-12)
    assert report.gap == pytest.approx(2 / 3, abs=1e-12)


def test_pole_report_of_constant_one():
    report = pole_report(RatFunc(ONE, ONE), ())
    assert report.poles == ()
    assert math.isinf(report.radius)
    assert report.gap is None


COFACTOR = Poly([5, 1, 7])  # 5 + u + 7u^2 has no rational root


def test_pole_report_divides_a_rational_pole_out_as_often_as_it_recurs():
    report = pole_report(RatFunc(ONE, Poly([1, -3]) ** 2 * COFACTOR), (3,))
    assert report.exact == ((complex(1 / 3), 2),)  # nothing at -1/3 or +-1
    assert sum(m for _, m in report.numeric) == COFACTOR.degree


def test_pole_report_tries_only_the_poles_it_is_named():
    assert pole_report(RatFunc(ONE, COFACTOR), (3,)).exact == ()
    # 2/3 is a root, but not one of +-1 and +-1/3, so Aberth finds it
    report = pole_report(RatFunc(ONE, Poly([-2, 3]) * COFACTOR), (3,))
    assert report.exact == ()
    assert min(abs(z - 2 / 3) for z, _ in report.numeric) < 1e-12


def test_pole_report_rejects_a_zero_denominator():
    with pytest.raises(ValueError):
        pole_report(RatFunc(ONE, Poly()), (3,))


def test_pole_report_needs_the_q_values():
    # with () the pole 1/3 of loop_family(3, 18) merges with -1/3 - delta
    z = bass_ihara_zeta(loop_family(3, 18))
    with pytest.raises(TypeError):
        pole_report(z)
    assert pole_report(z, (3,)).radius == 1 / 3


# --- ramanujan_check ---------------------------------------------------------


def test_pgl2_is_ramanujan():
    verdict = ramanujan_check(pole_report(bass_ihara_zeta(pgl2(3)), (3,)), 3)
    assert verdict.is_ramanujan
    assert verdict.offending == ()
    assert len(verdict.trivial) == 2


def test_star_with_full_attachment_is_ramanujan():
    verdict = ramanujan_check(pole_report(bass_ihara_zeta(star(3, (2, 2))), (3,)), 3)
    assert verdict.is_ramanujan
    assert verdict.offending == ()


def test_loop_family_is_not_ramanujan():
    verdict = ramanujan_check(pole_report(bass_ihara_zeta(loop_family(3, 4)), (3,)), 3)
    assert not verdict.is_ramanujan
    assert any(1 / 3 < abs(z) < 1 / math.sqrt(3) for z in verdict.offending)


def test_verdicts_stable_under_tolerance_doubling(monkeypatch):
    cases = [
        (pgl2(2), 2),
        (pgl2(3), 3),
        (chain(3, 2), 3),
        (star(3, (2, 2)), 3),
        (star(5, (3, 3)), 5),
        (loop_family(3, 1), 3),
        (loop_family(3, 3), 3),
    ]
    first = [ramanujan_check(pole_report(bass_ihara_zeta(c), (q,)), q).is_ramanujan for c, q in cases]
    monkeypatch.setattr(spectra, "MODULUS_TOL", 2e-9)
    second = [ramanujan_check(pole_report(bass_ihara_zeta(c), (q,)), q).is_ramanujan for c, q in cases]
    assert first == second


# --- loop family poles -------------------------------------------------------


def test_sweep_radius_and_monotone_gap():
    # the loop-family sweep's rows, read off the pole layer directly
    reports = [pole_report(bass_ihara_zeta(loop_family(3, n)), (3,)) for n in range(1, 5)]
    for report in reports:
        assert report.radius == pytest.approx(1 / 3, abs=1e-9)
        assert not ramanujan_check(report, 3).is_ramanujan
    seconds = [report.moduli_clusters[1] for report in reports]
    assert all(a > b for a, b in zip(seconds, seconds[1:]))


@pytest.mark.parametrize("q, last", [(3, 12), (4, 10), (5, 8)])
def test_loop_family_poles_up_to_benchmark_edge(q, last):
    previous = None
    for n in range(1, last + 1):
        z = bass_ihara_zeta(loop_family(q, n))
        report = pole_report(z, (q,))
        assert abs(report.radius * q - 1) <= 1e-6, n
        second = report.moduli_clusters[1]
        assert 1 / q < second < 1 / math.sqrt(q), n
        assert sum(m for _, m in report.poles) == z.den.degree, n
        if previous is not None:
            assert second < previous, n
        previous = second


# loop_family(4, 10) has its exact pole at 1/4 and a second real pole just
# past -1/4, at modulus about 0.2500000715.  Both lie inside the unit disk, so
# Aberth separates them only if its stopping scale shrinks with |z|: with
# sum |c_k| max(1, |z|)**k it stopped at R = 0.2499999969 and a second modulus
# of 0.25000000000000205.
SECOND_POLE_BRACKET = (F(25000007, 10**8), F(2500001, 10**7))


def test_loop_4_10_second_pole_is_just_past_minus_a_quarter():
    den = bass_ihara_zeta(loop_family(4, 10)).den
    deflated, rem = poly_divmod(den, Poly([1, -4]))
    assert rem.is_zero()
    inner, outer = SECOND_POLE_BRACKET
    assert poly_eval(deflated, -inner) * poly_eval(deflated, -outer) < 0


def test_loop_4_10_pole_report_finds_the_second_pole():
    # no q values, so Aberth itself must separate 1/4 from its neighbour
    second = pole_report(bass_ihara_zeta(loop_family(4, 10)), ()).moduli_clusters[1]
    inner, outer = SECOND_POLE_BRACKET
    assert float(inner) < second < float(outer)


def second_pole_bracket(q: int, n: int) -> tuple[F, F]:
    """Moduli within 0.1 % of delta around 1/q + delta, delta = 2(q-1)/((q+1) q^(N+2)).

    loop_family's docstring derives this gap law for the second pole,
    u = -1/q - delta * (1 + o(1)).
    """
    delta = F(2 * (q - 1), (q + 1) * q ** (n + 2))
    return F(1, q) + delta * F(999, 1000), F(1, q) + delta * F(1001, 1000)


OLD_EDGE_CASES = [(3, 16), (4, 12), (5, 9)]


@pytest.mark.parametrize(
    "q, n", sorted({(q, n) for q in range(3, 8) for n in (8, 12, 24, 48)} | set(OLD_EDGE_CASES))
)
def test_loop_second_pole_follows_the_gap_law(q, n):
    # exact: den / (1 - qu) changes sign across the bracket, with no float
    den = bass_ihara_zeta(loop_family(q, n)).den
    deflated, rem = poly_divmod(den, Poly([1, -q]))
    assert rem.is_zero()
    inner, outer = second_pole_bracket(q, n)
    assert poly_eval(deflated, -inner) * poly_eval(deflated, -outer) < 0


def loop_critical_factor(q: int, n: int) -> Poly:
    """(1 - u)(1 - qu) E(u), E = (1 + u) sum_{k<N} q^k u^2k + q^N u^2N (loop_family's docstring)."""
    e = [0] * (2 * n + 1)
    for k in range(n):
        e[2 * k] += q**k
        e[2 * k + 1] += q**k
    e[2 * n] = q**n
    return Poly([1, -1]) * Poly([1, -q]) * Poly(e)


@pytest.mark.parametrize("q, n", [(q, n) for q in range(3, 8) for n in (1, 4, 12, 24)])
def test_loop_critical_circle_factor_is_the_gcd_with_the_reflection(q, n):
    # p(u) = (qu)^deg den(1/(qu)) maps each root r to 1/(q r); the roots fixed
    # up to conjugation lie on |u| = 1/sqrt(q), and with 1 <-> 1/q they make up
    # gcd(den, p), exactly, in Z[u]
    den = bass_ihara_zeta(loop_family(q, n)).den
    reflected = Poly(den[den.degree - j] * q**j for j in range(den.degree + 1))
    assert poly_gcd(den, reflected) == loop_critical_factor(q, n)


# delta < 1e-9/q: a modulus tolerance would merge the second pole with 1/q
MERGE_CASES = [(3, 18), (3, 19), (3, 20), (7, 10), (7, 11)]


@pytest.mark.parametrize("q, n", OLD_EDGE_CASES + MERGE_CASES)
def test_loop_poles_past_the_old_edge(q, n):
    report = pole_report(bass_ihara_zeta(loop_family(q, n)), (q,))
    inner, outer = second_pole_bracket(q, n)
    assert report.radius == 1 / q
    assert float(inner) < report.moduli_clusters[1] < float(outer)


# every loop_family(q, N) with N <= 128 whose pole report once held NaN
HORNER_OVERFLOW_GRAPHS = [
    *((3, n) for n in (65, 69, 78, 93, 96, 97, 98, 102, 106, 110, 125)),
    (4, 89), (4, 94), (5, 102),
]


@pytest.mark.parametrize("q, n", HORNER_OVERFLOW_GRAPHS)
def test_loop_poles_stay_finite_where_horner_overflowed(q, n):
    # an Aberth iterate once jumped far enough out for Horner's rule to
    # overflow, and its NaN passed every check and reached the report
    z = bass_ihara_zeta(loop_family(q, n))
    report = pole_report(z, (q,))
    assert all(cmath.isfinite(value) for value, _ in report.poles)
    assert sum(m for _, m in report.poles) == z.den.degree
    assert report.radius == 1 / q


def test_non_finite_values_make_the_pole_layer_raise(monkeypatch):
    z = bass_ihara_zeta(loop_family(3, 4))
    with monkeypatch.context() as mp:
        mp.setattr(spectra, "_horner", lambda coeffs, x: complex("nan"))
        with pytest.raises(RootFindingError, match="did not converge"):
            pole_report(z, (3,))
    monkeypatch.setattr(spectra, "_aberth", lambda monic: [complex("nan")] * (len(monic) - 1))
    with pytest.raises(RootFindingError, match="not finite"):
        pole_report(z, (3,))


def test_aberth_carries_on_past_a_clamped_step(monkeypatch):
    # every root steps onto NaN in the first sweep and is pulled back onto the
    # root bound; the iteration must go on from there, not stop as converged
    monic = [-2.0] + [0.0] * 11 + [1.0]
    horner = spectra._horner
    calls = []

    def nan_in_the_first_sweep(coeffs, x):
        calls.append(x)
        return complex("nan") if len(calls) <= 2 * 12 else horner(coeffs, x)

    monkeypatch.setattr(spectra, "_horner", nan_in_the_first_sweep)
    roots = spectra._aberth(monic)
    assert all(abs(r**12 - 2) < 1e-12 for r in roots)
    assert len({round(cmath.phase(r), 6) for r in roots}) == 12


def test_ramanujan_check_never_calls_a_numeric_pole_trivial():
    # -1/3 - delta is within MODULUS_TOL of 1/3 in modulus, but not a pole at 1/3
    verdict = ramanujan_check(pole_report(bass_ihara_zeta(loop_family(3, 18)), (3,)), 3)
    inner, outer = second_pole_bracket(3, 18)
    assert sorted({abs(z) for z in verdict.trivial}) == [1 / 3, 1.0]
    assert any(-float(outer) < z.real < -float(inner) for z in verdict.offending)


def test_ramanujan_check_needs_q_tried_exactly():
    with pytest.raises(ValueError, match="did not try the poles"):
        ramanujan_check(pole_report(bass_ihara_zeta(pgl2(3)), ()), 3)


@given(g=small_graphs())
@settings(max_examples=60, deadline=None)
def test_exact_poles_are_roots_and_multiplicities_add_up(g):
    z = bass_ihara_zeta(g)
    den, report = z.den, pole_report(z, (2, 3, 4))
    assert sum(m for _, m in report.exact + report.numeric) == den.degree
    for value, m in report.exact:
        root = F(1, round(1 / value.real))
        assert value == complex(float(root))
        # den and its first m - 1 derivatives vanish at the root, the m-th does not
        derivatives = [den]
        for _ in range(m):
            derivatives.append(poly_derivative(derivatives[-1]))
        assert [poly_eval(d, root) == 0 for d in derivatives] == [True] * m + [False]


def test_widely_spread_roots_are_relatively_accurate():
    exact_roots = [F(1, 10**k) for k in range(1, 7)]
    p = ONE
    for r in exact_roots:
        p = p * root_factor(r)
    roots = complex_roots(p)
    assert [m for _, m in roots] == [1] * 6
    for (z, _), r in zip(roots, sorted(exact_roots)):
        assert abs(z - float(r)) <= 1e-12 * float(r)


def test_newton_polygon_starts_one_per_circle():
    p = root_factor(F(1, 10**6)) * Poly([-1, 1]) * Poly([-(10**6), 1])
    starts = spectra._newton_polygon_starts([abs(float(c)) for c in p.coeffs])
    moduli = sorted(abs(z) for z in starts)
    assert len(moduli) == 3
    for modulus, true in zip(moduli, (1e-6, 1.0, 1e6)):
        assert true / 2 <= modulus <= 2 * true


# --- pole / counting consistency ---------------------------------------------


def test_radius_matches_counting_growth():
    # 1/R equals limsup N_m^(1/m); N_m ~ const * q^m makes the raw rate
    # converge like q * const^(1/m), so a deep window is needed for 2%
    for c in (pgl2(2), chain(3, 4), star(3, (2, 2)), loop_family(3, 1)):
        z = bass_ihara_zeta(c)
        report = pole_report(z, (c.q,))
        n_values = log_derivative_series(z, 120)[1:]
        rate = max(
            float(n_values[m - 1]) ** (1.0 / m)
            for m in range(100, 121)
            if n_values[m - 1] > 0
        )
        assert rate * report.radius == pytest.approx(1.0, rel=2e-2)
