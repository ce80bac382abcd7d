"""Tests for exact polynomial and rational-function arithmetic.

Expected values for the nontrivial cases are produced by independent
oracles: a cofactor-expansion determinant here, and in ``helpers`` the
previous sparse Bareiss, series by explicit long division, Euclid's gcd,
reduction by way of Q and schoolbook products.  The long division over Q
those oracles use lives in ``helpers`` and is checked first; ``Poly``'s own
exact ``/`` and ``+`` are checked against it.
"""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspzeta import exact
from cuspzeta.exact import (
    ONE,
    Poly,
    PolyMatrix,
    RatFunc,
    ZERO,
    divide_out_root,
    log_derivative_series,
    poly_det,
    poly_gcd,
    ratfunc_reduce,
    series_expand,
)
from cuspzeta.cli import MAX_SERIES_ORDER
from helpers import (
    poly_add,
    poly_derivative,
    poly_divmod,
    poly_eval,
    poly_primitive,
    poly_sub,
    ratfunc_mul,
    reference_log_derivative_series,
    reference_poly_det,
    reference_poly_gcd,
    reference_ratfunc_reduce,
    reference_series_expand,
    schoolbook_power,
    schoolbook_product,
)

# --- independent oracles -----------------------------------------------------


def cofactor_det(rows: list[list[Poly]]) -> Poly:
    """Determinant by first-row cofactor expansion; exponential but obvious."""
    n = len(rows)
    if n == 0:
        return ONE
    if n == 1:
        return rows[0][0]
    acc = Poly()
    for j in range(n):
        if rows[0][j].is_zero():
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        term = rows[0][j] * cofactor_det(minor)
        acc = (poly_add if j % 2 == 0 else poly_sub)(acc, term)
    return acc


small_ints = st.integers(-4, 4)
polys = st.lists(small_ints, max_size=6).map(Poly)
nonzero_polys = polys.filter(lambda p: not p.is_zero())


# --- polynomial arithmetic ---------------------------------------------------


def test_poly_product_difference_of_squares():
    assert Poly([1, -1]) * Poly([1, 1]) == Poly([1, 0, -1])


# coefficients of both signs, small and near 2^70, and zeros
packed_coeffs = st.one_of(st.integers(-4, 4), st.integers(2**70 - 2**10, 2**70 + 2**10),
                          st.integers(-(2**70) - 2**10, -(2**70) + 2**10))
packed_polys = st.lists(packed_coeffs, max_size=7).map(Poly)


@given(a=packed_polys, b=packed_polys, n=st.integers(0, 6))
@settings(max_examples=150, deadline=None)
def test_packed_product_and_power_match_schoolbook(a, b, n):
    # the zero polynomial (an empty list) and power 0 occur
    assert a * b == schoolbook_product(a, b)
    assert a**n == schoolbook_power(a, n)
    assert all(type(c) is int for c in (a * b).coeffs + (a**n).coeffs)


def test_packed_power_edge_cases():
    assert ZERO**0 == ONE and ZERO**3 == ZERO and Poly([-1])**5 == Poly([-1])
    assert Poly([2**70, -(2**70)]) ** 0 == ONE
    assert Poly([1, -1]) ** 9 == schoolbook_power(Poly([1, -1]), 9)


def test_poly_divrem_factorization():
    q, r = poly_divmod(Poly([1, 0, -4]), Poly([1, -2]))
    assert q == Poly([1, 2])
    assert r.is_zero()


def test_poly_addition_cancellation():
    assert poly_add(Poly([1, 0, -3]), Poly([0, 0, 3])) == ONE


def test_poly_equals_only_polys():
    assert Poly([3]) == Poly([3])
    assert Poly([3]) != 3 and ZERO != 0


def test_poly_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        poly_divmod(Poly([1, 2]), ZERO)
    for a in (Poly([1, 2]), ZERO):
        with pytest.raises(ZeroDivisionError):
            a / ZERO


@given(a=polys, b=polys)
def test_poly_sum_matches_the_reference(a, b):
    assert a + b == poly_add(a, b) == b + a


@given(a=polys, b=nonzero_polys)
def test_poly_division_undoes_a_product(a, b):
    assert (a * b) / b == a


@given(a=polys, b=nonzero_polys, planted=st.booleans())
def test_poly_division_is_exact_or_raises(a, b, planted):
    # b divides a in Z[u] iff the division over Q leaves integral quotient
    # and remainder, with the remainder zero
    if planted:
        a = a * b + Poly([1])  # a remainder of 1 when deg b > 0
    try:
        q, r = poly_divmod(a, b)
    except ValueError:  # a non-integral quotient or remainder
        q, r = None, ONE
    if r.is_zero():
        assert a / b == q
    else:
        with pytest.raises(ArithmeticError, match="inexact polynomial division"):
            a / b


@given(a=polys, b=nonzero_polys)
def test_divrem_reconstruction(a, b):
    # lead(b)^(deg a - deg b + 1) a has an integral quotient and remainder
    # (pseudo-division), so the long division over Q stays in Z[u]
    a = a * b.coeffs[-1] ** max(a.degree - b.degree + 1, 0)
    q, r = poly_divmod(a, b)
    assert poly_add(q * b, r) == a
    assert r.is_zero() or r.degree < b.degree


def test_poly_eval_and_derivative():
    p = Poly([1, -2, 3])
    assert poly_eval(p, F(1, 2)) == F(3, 4)
    assert poly_derivative(p) == Poly([-2, 6])


# --- gcd ---------------------------------------------------------------------


def test_gcd_common_factor_is_primitive():
    a = Poly([1, 0, -4]) * Poly([1, 0, -9])
    assert poly_gcd(a, Poly([1, 0, -4])) == Poly([-1, 0, 4])


def test_gcd_coprime():
    assert poly_gcd(Poly([1, -1]), Poly([1, 1])) == ONE


def test_gcd_with_square():
    assert poly_gcd(Poly([1, -2]) ** 2, Poly([1, -2])) == Poly([-1, 2])


def test_gcd_both_zero_rejected():
    with pytest.raises(ValueError):
        poly_gcd(ZERO, ZERO)


@given(a=nonzero_polys, b=nonzero_polys, c=nonzero_polys)
@settings(max_examples=40)
def test_gcd_divides_both(a, b, c):
    g = poly_gcd(a * c, b * c)
    assert poly_divmod(a * c, g)[1].is_zero()
    assert poly_divmod(b * c, g)[1].is_zero()
    # the planted common factor must divide the gcd, over Q; primitive, in Z[u]
    assert poly_divmod(g, poly_primitive(c))[1].is_zero()


@given(a=polys, b=nonzero_polys, c=nonzero_polys,
       lead=small_ints.filter(lambda x: x not in (0, 1)))
@settings(max_examples=60, deadline=None)
def test_gcd_is_euclids_monic_gcd(a, b, c, lead):
    # c times a constant other than 1 plants a common factor with a content
    # or a sign, which poly_gcd must divide away: its gcd is Euclid's monic
    # gcd over Q made primitive
    c = c * lead
    g = poly_gcd(a * c, b * c)
    assert g == reference_poly_gcd(a * c, b * c)
    assert g.coeffs[-1] > 0 and poly_divmod(g, poly_primitive(c))[1].is_zero()


def test_gcd_retries_a_candidate_that_fails_the_division_check(monkeypatch):
    # B = 2 (xi = 4): gcd(6, 4) = 2 reads back as u - 2, which divides neither
    # input; B = 4 (xi = 16): gcd(18, 16) = 2 reads back as the constant 2
    widths = []
    pack = exact._pack

    def recording_pack(p, width):
        widths.append(width)
        return pack(p, width)

    monkeypatch.setattr(exact, "_pack", recording_pack)
    assert poly_gcd(Poly([2, 1]), Poly([0, 1])) == ONE
    assert widths == [2, 2, 4, 4]


# integer coefficients of 40 to 60 bits, of both signs, and some zeros
big_ints = st.one_of(
    st.just(0),
    st.builds(lambda m, sign: sign * m, st.integers(2**40, 2**60), st.sampled_from((-1, 1))),
)
big_int_polys = st.lists(big_ints, min_size=1, max_size=5).map(Poly).filter(bool)


@given(a=big_int_polys, b=big_int_polys, c=big_int_polys.filter(lambda p: p.degree > 0),
       power=st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_gcd_of_wide_coefficients_is_euclids(a, b, c, power):
    planted = c**power
    assert poly_gcd(a * planted, b * planted) == reference_poly_gcd(a * planted, b * planted)


def test_divide_out_root_counts_and_removes_a_rational_root():
    cofactor = Poly([5, 1, 7])  # 5 + u + 7u^2 has no rational root
    p = Poly([1, -3]) ** 2 * cofactor
    assert divide_out_root(p, 1, 3) == (cofactor, 2)  # (3u - 1)^2 = (1 - 3u)^2
    assert divide_out_root(p, -1, 3) == (p, 0)
    assert divide_out_root(Poly([-2, 3]) * cofactor, 2, 3) == (cofactor, 1)
    assert divide_out_root(Poly([4]), 1, 1) == (Poly([4]), 0)


# --- rational functions ------------------------------------------------------


def test_reduce_cancels_common_factor():
    f = ratfunc_reduce(Poly([1, 0, -4]), Poly([1, 0, -4]) * Poly([1, 0, -9]))
    assert f == RatFunc(ONE, Poly([1, 0, -9]))


def test_reduce_scales_constant_denominator():
    assert ratfunc_reduce(Poly([2, -2]), Poly([2])) == RatFunc(Poly([1, -1]), ONE)
    assert ratfunc_reduce(Poly([2, -2]), Poly([-4])) == RatFunc(Poly([-1, 1]), Poly([2]))


def test_reduce_content_and_sign_without_a_unit_constant_term():
    # den(0) = -6 is no unit: num and den lose their content 2 and turn so
    # that den(0) > 0; with den(0) = 0 the leading coefficient is positive
    assert ratfunc_reduce(Poly([4, 2]), Poly([-6, 4])) == RatFunc(Poly([-2, -1]), Poly([3, -2]))
    assert ratfunc_reduce(Poly([4]), Poly([0, -6])) == RatFunc(Poly([-2]), Poly([0, 3]))


def test_reduce_partial_cancellation():
    num = Poly([1, 0, -1]) * Poly([1, -2])
    den = Poly([1, 0, -1]) * Poly([1, 0, -4])
    assert ratfunc_reduce(num, den) == RatFunc(ONE, Poly([1, 2]))


def test_reduce_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        ratfunc_reduce(ONE, ZERO)


@given(num=polys, den=nonzero_polys, common=nonzero_polys, u_power=st.integers(0, 2))
@settings(max_examples=100, deadline=None)
def test_reduce_matches_the_fraction_route(num, den, common, u_power):
    # planted common factors, common content, num = 0 (empty lists) and
    # den(0) = 0 (the leading-coefficient branch, through u_power) all occur
    den = den * Poly([0, 1]) ** u_power
    num, den = num * common, den * common
    f = ratfunc_reduce(num, den)
    assert f == reference_ratfunc_reduce(num, den)
    assert all(type(c) is int for c in f.num.coeffs + f.den.coeffs)


@given(a=nonzero_polys, b=nonzero_polys)
@settings(max_examples=40)
def test_reduce_idempotent_and_canonical(a, b):
    f = ratfunc_reduce(a, b)
    again = ratfunc_reduce(f.num, f.den)
    assert again == f
    assert (f.den[0] or f.den.coeffs[-1]) > 0
    assert math.gcd(*f.num.coeffs, *f.den.coeffs) == 1
    if not f.num.is_zero():
        assert poly_gcd(f.num, f.den) == ONE


# --- determinants ------------------------------------------------------------


def test_det_2x2():
    m = PolyMatrix([[ONE, Poly([0, -2])], [Poly([0, -3]), ONE]])
    assert poly_det(m) == Poly([1, 0, -6])


def test_det_identity_7():
    assert poly_det(PolyMatrix([[ONE if i == j else ZERO for j in range(7)] for i in range(7)])) == ONE


def test_det_random_5x5_matches_cofactor(rng):
    for _ in range(20):
        n = rng.randint(1, 5)
        rows = [
            [
                Poly([rng.randint(-4, 4) for _ in range(rng.randint(0, 3))])
                for _ in range(n)
            ]
            for _ in range(n)
        ]
        assert poly_det(PolyMatrix(rows)) == cofactor_det(rows)


@st.composite
def sparse_matrices(draw):
    """Square matrices up to 7x7 that exercise the skipped-row bookkeeping.

    Each row is zero left of a drawn column, so it sits out that many steps
    before it is eliminated; some diagonal entries are zeroed and the rows
    are shuffled, so pivots are often found off the diagonal, and a row may
    be replaced by a multiple of another (singular).
    """
    n = draw(st.integers(1, 7))
    entry = st.lists(st.integers(-4, 4), min_size=2, max_size=3).map(Poly)
    rows = []
    for _ in range(n):
        start = draw(st.integers(0, n - 1))
        rows.append([
            draw(entry) if j >= start and draw(st.integers(0, 2)) == 0 else ZERO
            for j in range(n)
        ])
    for i in draw(st.lists(st.integers(0, n - 1), max_size=n)):
        rows[i][i] = ZERO
    if n > 1 and draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        factor = draw(st.integers(-3, 3))
        rows[i] = [p * factor for p in rows[j]]
    return draw(st.permutations(rows))


@given(rows=sparse_matrices())
@settings(max_examples=150, deadline=None)
def test_det_sparse_matches_cofactor(rows):
    assert poly_det(PolyMatrix(rows)) == cofactor_det(rows)


def permutation_sign(perm: list[int]) -> int:
    inversions = sum(a > b for i, a in enumerate(perm) for b in perm[i + 1 :])
    return -1 if inversions % 2 else 1


@given(rows=sparse_matrices(), data=st.data())
@settings(max_examples=100, deadline=None)
def test_det_column_permutation_multiplies_by_its_sign(rows, data):
    n = len(rows)
    perm = data.draw(st.permutations(range(n)))
    permuted = PolyMatrix([[row[perm[j]] for j in range(n)] for row in rows])
    expected = poly_det(PolyMatrix(rows)) * permutation_sign(perm)
    assert poly_det(permuted) == expected
    assert reference_poly_det(permuted) == expected


def test_det_of_the_empty_matrix_is_one():
    assert poly_det(PolyMatrix([])) == ONE


def test_det_stale_pivot_row_carries_its_skipped_step():
    # Step 0 pivots on row 0's 1 + u, the shortest entry; row 2 has nothing
    # in column 0 and skips the step.  At step 1 row 1 holds entries of
    # degree 4 and 5, and the stale row 2's 1 + u^2 is (1 + u)(1 + u^2) once
    # up to date, the shortest: row 2 pivots where it sits, its step says it
    # missed step 0, and it is rescaled by the step-0 pivot 1 + u before use.
    u = Poly([0, 1])
    rows = [
        [Poly([1, 1]), u * u, Poly([0, 0, 1, 1])],
        [u * u, Poly([1, 0, 1]), Poly([0, 0, 0, 1])],
        [ZERO, Poly([1, 0, 1]), ZERO],
    ]
    assert poly_det(PolyMatrix(rows)) == cofactor_det(rows) == Poly([0, 0, 0, -1, 0, 0, 0, 1])


def test_det_shortest_pivot_is_a_stale_row_below_an_up_to_date_one():
    # Step 0 pivots on 1 + u; rows 1 and 3 are updated and row 2 skips it.
    # Step 1 pivots on row 1's (1 + u)(1 + u^2); row 2 is updated and row 3,
    # zero in column 1, skips the step.  At step 2 the up-to-date row 2 holds
    # (1 + u)(1 + u^2)(1 + u^3) in column 2 and the stale row 3 holds
    # (1 + u)(1 + 3u^2), which is (1 + u)(1 + u^2)(1 + 3u^2) once up to
    # date: the shortest-entry rule picks row 3 over row 2 and brings it up
    # to date by the telescoped factor P_1 / P_0 = 1 + u^2.
    u = Poly([0, 1])
    rows = [
        [Poly([1, 1]), ZERO, ZERO, u * u],
        [u * u, Poly([1, 0, 1]), ZERO, ZERO],
        [ZERO, u * u * u, Poly([1, 0, 0, 1]), ZERO],
        [u * u, ZERO, Poly([1, 0, 3]), u ** 4],
    ]
    assert poly_det(PolyMatrix(rows)) == cofactor_det(rows) == Poly([0, 0, 0, 0, 0, 1, 0, 0, 1, -3, 1])


def test_det_row_skipped_for_several_steps():
    # the last row's one entry is in the last column, which is zero in every
    # other row, and is longer than every other pivot: the row is never
    # updated, skips every step and picks up the whole telescoped rescale
    # P_2 / P_{-1} as the last pivot row
    rows = [
        [Poly([1, 2]), Poly([0, 1]), Poly([3]), ZERO],
        [Poly([0, 3]), Poly([2]), ZERO, ZERO],
        [ZERO, Poly([1, -1]), Poly([0, 0, 1]), ZERO],
        [ZERO, ZERO, ZERO, Poly([5, 0, 0, 0, 0, 0, 1])],
    ]
    assert poly_det(PolyMatrix(rows)) == cofactor_det(rows)


def test_det_singular_matrix_is_zero():
    row = [Poly([1, 2]), Poly([0, 1]), Poly([3])]
    m = PolyMatrix([row, row, [ONE, ZERO, ONE]])
    assert poly_det(m).is_zero()


def test_det_zero_middle_row_is_zero():
    # a row with no entry is found before the first step
    rows = [[Poly([1, 1]), Poly([0, 1]), Poly([2])], [ZERO, ZERO, ZERO], [Poly([0, 1]), ONE, Poly([3])]]
    assert poly_det(PolyMatrix(rows)).is_zero()
    assert reference_poly_det(PolyMatrix(rows)).is_zero()


def test_det_last_row_emptied_by_the_last_update_is_zero():
    # row 2 is row 0 + u row 1: steps 0 and 1 pivot in rows 1 and 2 (rows 0
    # and 2 tie at step 1, and a tie goes to the higher row), and the update
    # of step 1 leaves row 0, the one row left, with no entry
    u = Poly([0, 1])
    top, middle = [Poly([1, 1]), Poly([2]), u], [u, ONE, Poly([3, 1])]
    rows = [top, middle, [poly_add(a, u * b) for a, b in zip(top, middle)]]
    assert poly_det(PolyMatrix(rows)).is_zero()
    assert cofactor_det(rows).is_zero()


def test_det_sign_from_the_pivot_rows_alone():
    # the top-left entry is zero and the shortest entry, 1, is in row 1, so
    # steps 0 and 1 pivot in rows 1 and 0; the pivot columns stay in order
    # and the sign is that of the pivot rows' order alone
    m = PolyMatrix([[ZERO, Poly([0, 1])], [ONE, ZERO]])
    assert poly_det(m) == Poly([0, -1])


def test_det_sign_from_the_pivot_columns_alone():
    # Step 0 pivots on row 0's 1 in column 1 and step 1 on row 1's 2 - u^2 in
    # column 0; the last row is left with column 2.  The rows pivot in order,
    # and the pivot columns 1, 0, 2 are an odd permutation, which gives the
    # sign.
    u = Poly([0, 1])
    rows = [
        [u, ONE, u * u],
        [Poly([2]), u, u * u],
        [u * u, u, Poly([5])],
    ]
    expected = Poly([-10, 0, 5, 2, 0, -1])
    assert poly_det(PolyMatrix(rows)) == cofactor_det(rows) == expected
    assert reference_poly_det(PolyMatrix(rows)) == expected


# Coefficients far past one machine word, of both signs, up to 110 bits, so
# the packing width sees integers of a hundred bits and more.
wide_coeffs = st.one_of(
    st.integers(-4, 4),
    st.sampled_from([2**64, -(2**64), 2**64 + 1, -(2**65) - 3, 3**50, -(7**40)]),
    st.integers(-(2**110), 2**110),
)
wide_entries = st.lists(wide_coeffs, min_size=1, max_size=4).map(Poly)


@st.composite
def wide_matrices(draw):
    """Sparse square matrices with wide coefficients, zero rows and dependent rows.

    Entries have degree up to 3; a row may be zeroed, or replaced by a Z[u]
    combination of two other rows (singular), and the rows are shuffled.
    """
    n = draw(st.integers(1, 8))
    rows = [
        [draw(wide_entries) if draw(st.booleans()) else ZERO for _ in range(n)]
        for _ in range(n)
    ]
    if draw(st.integers(0, 5)) == 0:
        rows[draw(st.integers(0, n - 1))] = [ZERO] * n
    if n > 2 and draw(st.booleans()):
        i, j, k = draw(st.lists(st.integers(0, n - 1), min_size=3, max_size=3, unique=True))
        a = Poly([draw(st.integers(-3, 3)), draw(st.integers(-3, 3))])
        b = Poly([draw(wide_coeffs)])
        rows[i] = [poly_add(a * x, b * y) for x, y in zip(rows[j], rows[k])]
    return draw(st.permutations(rows))


@given(rows=wide_matrices())
@settings(max_examples=100, deadline=None)
def test_det_wide_coefficients_match_reference(rows):
    det = poly_det(PolyMatrix(rows))
    assert det == reference_poly_det(PolyMatrix(rows))
    if len(rows) <= 6:
        assert det == cofactor_det(rows)


def sylvester(order: int) -> tuple[list[list[int]], int]:
    """Sylvester-Hadamard sign matrix of a power-of-two order, and its determinant.

    S_2n = [[S_n, S_n], [S_n, -S_n]] has det S_2n = det(S_n) det(-2 S_n)
    = (-2)^n det(S_n)^2.
    """
    signs, det = [[1]], 1
    while len(signs) < order:
        det = (-2) ** len(signs) * det * det
        signs = [r + r for r in signs] + [r + [-x for x in r] for r in signs]
    return signs, det


@pytest.mark.parametrize("order", [2, 4, 8, 16])
@pytest.mark.parametrize("flip", [False, True])
def test_det_meets_hadamard_bound(order, flip):
    # entry (i, j) is +-u^(i % 3 + j % 2): every row and column has 2-norm
    # sqrt(order) on |u| = 1 and det = +-order^(order/2) u^K meets Hadamard's
    # bound, so the packing width has no bit to spare; flipping a row flips
    # the sign, and only a positive top coefficient needs that last bit
    signs, det = sylvester(order)
    if flip:
        signs[0] = [-x for x in signs[0]]
        det = -det
    assert abs(det) == order ** (order // 2)
    rows = [
        [Poly([0] * (i % 3 + j % 2) + [x]) for j, x in enumerate(r)]
        for i, r in enumerate(signs)
    ]
    shift = sum(i % 3 + i % 2 for i in range(order))
    expected = Poly([0] * shift + [det])
    assert poly_det(PolyMatrix(rows)) == expected
    assert reference_poly_det(PolyMatrix(rows)) == expected


@pytest.mark.parametrize("seed", range(6))
def test_det_mixed_integer_and_fractional_rows(seed):
    # every third row's coefficients are integral Fractions, as test
    # references that compute in Fractions produce them: Poly refuses them,
    # so they go in as ints; one Poly object fills many cells of both kinds
    rng = random.Random(seed)
    n = 9
    shared = Poly([2, -3, 1]) if seed % 2 else Poly([-1, 0, 5])
    rows = []
    for i in range(n):
        fractional = i % 3 == 1
        row = []
        for _ in range(n):
            pick = rng.randrange(4)
            if pick == 0:
                row.append(ZERO)
            elif pick == 1:
                row.append(shared)
            elif fractional:
                coeffs = [F(rng.randint(-9, 9) * d, d)
                          for d in [rng.choice([1, 2, 3, 5, 7])] * rng.randint(1, 3)]
                with pytest.raises(ValueError, match="not an integer"):
                    Poly(coeffs)
                row.append(Poly([c.numerator for c in coeffs]))
            else:
                row.append(Poly([rng.randint(-9, 9) for _ in range(rng.randint(1, 3))]))
        rows.append(rng.sample(row, n))
    assert sum(p is shared for row in rows for p in row) >= n
    det = poly_det(PolyMatrix(rows))
    assert not det.is_zero()
    assert det == reference_poly_det(PolyMatrix(rows))


def test_det_needs_square_matrix():
    with pytest.raises(ValueError):
        PolyMatrix([[ONE, ZERO]])


# --- series ------------------------------------------------------------------


def test_series_geometric():
    f = ratfunc_reduce(ONE, Poly([1, -1]))
    assert series_expand(f, 4) == (1, 1, 1, 1, 1)


def test_series_even_rational_function():
    f = ratfunc_reduce(Poly([1, 0, -2]), Poly([1, 0, -4]))
    expected = reference_series_expand(f, 6)
    assert expected == (1, 0, 2, 0, 8, 0, 32)
    assert series_expand(f, 6) == expected


def test_series_constant_one():
    assert series_expand(RatFunc(ONE, ONE), 3) == (1, 0, 0, 0)


def test_series_rejects_pole_at_zero():
    with pytest.raises(ZeroDivisionError):
        series_expand(RatFunc(ONE, Poly([0, 1])), 3)


# Small and wide integer coefficients; the series must be the long-division
# series exactly, as ints.
mixed_coeffs = st.one_of(
    st.integers(-5, 5),
    st.integers(-(2**70), 2**70),
)
mixed_polys = st.lists(mixed_coeffs, max_size=6).map(Poly)
series_orders = st.one_of(st.integers(0, 12), st.integers(0, MAX_SERIES_ORDER),
                          st.just(MAX_SERIES_ORDER))


@given(num=mixed_polys, tail=mixed_polys, d0=st.sampled_from([1, -1]), order=series_orders)
@settings(max_examples=60, deadline=None)
def test_series_expand_matches_long_division(num, tail, d0, order):
    # den(0) = -1 is a function that is not normalised first
    f = RatFunc(num, poly_add(Poly([d0]), Poly([0, 1]) * tail))
    series = series_expand(f, order)
    assert series == reference_series_expand(f, order)
    assert len(series) == order + 1 and all(type(c) is int for c in series)


@pytest.mark.parametrize("d0", [2, -3])
def test_series_rejects_a_constant_term_other_than_a_unit(d0):
    # 1/(d0 - u) has the non-integral coefficients d0^-(m+1)
    with pytest.raises(ValueError, match="den\\(0\\)"):
        series_expand(RatFunc(ONE, Poly([d0, -1])), 3)


@given(p=mixed_polys, q=mixed_polys, order=series_orders)
@settings(max_examples=60, deadline=None)
def test_log_derivative_matches_the_quotient_route(p, q, order):
    u = Poly([0, 1])
    z = RatFunc(poly_add(ONE, u * p), poly_add(ONE, u * q))
    series = log_derivative_series(z, order)
    assert series == reference_log_derivative_series(z, order)
    assert len(series) == order + 1 and all(type(c) is int for c in series)


@given(p=polys, q=polys, r=polys, s=polys)
@settings(max_examples=40)
def test_series_multiplicativity(p, q, r, s):
    f = ratfunc_reduce(poly_add(ONE, Poly([0, 1]) * p), poly_add(ONE, Poly([0, 1]) * q))
    g = ratfunc_reduce(poly_add(ONE, Poly([0, 1]) * r), poly_add(ONE, Poly([0, 1]) * s))
    order = 8
    a, b = series_expand(f, order), series_expand(g, order)
    product = tuple(sum(a[i] * b[m - i] for i in range(m + 1)) for m in range(order + 1))
    assert series_expand(ratfunc_mul(f, g), order) == product


# --- logarithmic derivative --------------------------------------------------


def test_log_derivative_geometric():
    f = ratfunc_reduce(ONE, Poly([1, -1]))
    assert log_derivative_series(f, 6) == (0, 1, 1, 1, 1, 1, 1)


def test_log_derivative_even_example():
    # expanding -2qu^2/(1-qu^2) + 2q^2u^2/(1-q^2u^2) termwise gives
    # coefficient 2(q^(2m) - q^m) at u^(2m); here q = 2
    f = ratfunc_reduce(Poly([1, 0, -2]), Poly([1, 0, -4]))
    series = log_derivative_series(f, 8)
    for m in (1, 2, 3, 4):
        assert series[2 * m] == 2 * (2 ** (2 * m) - 2**m)
        assert series[2 * m - 1] == 0


def test_log_derivative_of_one_is_zero():
    series = log_derivative_series(RatFunc(ONE, ONE), 5)
    assert all(c == 0 for c in series)


def test_log_derivative_requires_value_one_at_zero():
    with pytest.raises(ValueError):
        log_derivative_series(ratfunc_reduce(Poly([2]), ONE), 3)


@given(p=polys, q=polys, r=polys, s=polys)
@settings(max_examples=40)
def test_log_derivative_additivity(p, q, r, s):
    f = ratfunc_reduce(poly_add(ONE, Poly([0, 1]) * p), poly_add(ONE, Poly([0, 1]) * q))
    g = ratfunc_reduce(poly_add(ONE, Poly([0, 1]) * r), poly_add(ONE, Poly([0, 1]) * s))
    order = 8
    lhs = log_derivative_series(ratfunc_mul(f, g), order)
    rhs = tuple(map(sum, zip(log_derivative_series(f, order), log_derivative_series(g, order))))
    assert lhs == rhs

